(* The benchmark's own tests: the stage replay reproduces the site loop,
   the key generator is deterministic and its key space is as stated, and
   the open-loop sender keeps its schedule while the receiver stalls. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module P = Webdep_serve.Protocol
open Perfbench

(* --- stage replay --------------------------------------------------------- *)

let world = lazy (World.create ~c:200 ~seed:7 ())

let measured cc =
  let world = Lazy.force world in
  World.prepare world [ cc ];
  let snap = World.snapshot world cc in
  (world, snap, Measure.measure_snapshot world snap)

let test_replay_matches () =
  List.iter
    (fun cc ->
      let world, snap, data = measured cc in
      let st = Stages.create () in
      let replayed = Stages.replay st world snap in
      Alcotest.(check (option string)) (cc ^ " replay = site loop") None
        (Stages.mismatch data replayed);
      Alcotest.(check int) (cc ^ " every site replayed") (List.length data.D.sites)
        st.Stages.sites;
      Array.iteri
        (fun i (r : Stages.row) ->
          if not (r.Stages.s > 0.0) then
            Alcotest.failf "%s: stage %s has no time" cc Stages.names.(i))
        st.Stages.rows;
      if st.Stages.cache_lookups = 0 then Alcotest.fail "resolver cache not exercised")
    [ "DE"; "BR" ]

let test_replay_detects_drift () =
  let world, snap, data = measured "DE" in
  let replayed = Stages.replay (Stages.create ()) world snap in
  let drifted =
    match data.D.sites with
    | s :: rest -> { data with D.sites = { s with D.hosting_anycast = not s.D.hosting_anycast } :: rest }
    | [] -> Alcotest.fail "empty country"
  in
  Alcotest.(check bool) "changed field caught" true
    (Stages.mismatch drifted replayed <> None);
  Alcotest.(check bool) "missing site caught" true
    (Stages.mismatch { data with D.sites = List.tl data.D.sites } replayed <> None)

(* --- key generator -------------------------------------------------------- *)

let warm = [ "2023-05"; "2025-05" ]
let scored = List.init 25 (Printf.sprintf "e%d")
let countries = List.init 150 (Printf.sprintf "C%03d")
let space = lazy (Keygen.space ~warm ~scored ~countries)

let draw ~seed mix n =
  let next = Keygen.stream (Lazy.force space) ~seed mix in
  List.init n (fun _ -> next ())

let test_key_count () =
  let space = Lazy.force space in
  (* 27 epochs: 27*4*150 score + 2*4*150*50 top-k + 27*4*150 ranking
     + 4*150*27*26 delta *)
  Alcotest.(check int) "key space" 513_600 (Keygen.size space);
  let payloads = Hashtbl.create 600_000 in
  for i = 0 to Keygen.size space - 1 do
    let req = Keygen.key space i in
    (match req with
    | P.Top_shares { epoch; _ } when not (List.mem epoch warm) ->
        Alcotest.failf "top_shares on scores-only epoch %s" epoch
    | P.Delta { old_epoch; new_epoch; _ } when old_epoch = new_epoch ->
        Alcotest.fail "delta between an epoch and itself"
    | _ -> ());
    Hashtbl.replace payloads (P.encode_request req) ();
    if Keygen.index space req <> i then Alcotest.failf "index of key %d is not %d" i i
  done;
  Alcotest.(check int) "every key distinct" (Keygen.size space) (Hashtbl.length payloads)

let test_key_determinism () =
  Alcotest.(check (list int)) "same seed, same keys"
    (draw ~seed:5 Keygen.Spread 2000)
    (draw ~seed:5 Keygen.Spread 2000);
  Alcotest.(check bool) "another seed, other keys" true
    (draw ~seed:5 Keygen.Spread 100 <> draw ~seed:6 Keygen.Spread 100);
  Alcotest.(check (list int)) "serve_mix deterministic too"
    (draw ~seed:5 Keygen.Serve_mix 500)
    (draw ~seed:5 Keygen.Serve_mix 500);
  let seen = Keygen.seen (Lazy.force space) in
  List.iter (Keygen.mark seen) (draw ~seed:9 Keygen.Serve_mix 20_000);
  Alcotest.(check int) "serve_mix distinct keys" 184 (Keygen.distinct seen);
  List.iter
    (fun i ->
      match Keygen.key (Lazy.force space) i with
      | P.Score { epoch; _ } | P.Top_shares { epoch; _ } | P.Ranking { epoch; _ }
        when not (List.mem epoch warm) ->
          Alcotest.failf "serve_mix key on scores-only epoch %s" epoch
      | _ -> ())
    (draw ~seed:9 Keygen.Serve_mix 1000)

(* --- open-loop schedule ------------------------------------------------- *)

(* A receiver that reads nothing for [stall_s], then answers every request
   frame with Pong until [n] are answered.  It never blocks: a sender that
   cannot keep up would otherwise deadlock it, and after [give_up_s] it
   shuts the socket down, so such a sender fails instead of hanging. *)
let stalled_receiver fd ~stall_s ~n ~give_up_s =
  Domain.spawn (fun () ->
      Unix.sleepf stall_s;
      Unix.set_nonblock fd;
      let pong = P.frame (P.encode_response P.Pong) in
      let inb = Bytes.create 65536 and len = ref 0 in
      let out = Buffer.create 4096 and sent = ref 0 in
      let answered = ref 0 and eof = ref false in
      let deadline = Unix.gettimeofday () +. give_up_s in
      let pending () = Buffer.length out - !sent in
      while
        (!answered < n || pending () > 0) && (not !eof) && Unix.gettimeofday () < deadline
      do
        let wr = if pending () > 0 then [ fd ] else [] in
        let r, w, _ = Unix.select [ fd ] wr [] 0.05 in
        (if r <> [] then
           match Unix.read fd inb !len (Bytes.length inb - !len) with
           | 0 -> eof := true
           | k ->
               len := !len + k;
               let frames, consumed = P.parse_frames inb !len in
               Bytes.blit inb consumed inb 0 (!len - consumed);
               len := !len - consumed;
               List.iter
                 (fun _ ->
                   Buffer.add_string out pong;
                   incr answered)
                 frames
           | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ());
        if w <> [] then
          match Unix.write_substring fd (Buffer.contents out) !sent (pending ()) with
          | k -> sent := !sent + k
          | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
      done;
      if !answered < n || pending () > 0 then Unix.shutdown fd Unix.SHUTDOWN_ALL)

let test_open_loop_schedule () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Tiny socket buffers: most of the stalled traffic has to wait in the
     sender's own buffer, so a blocking sender would fall behind. *)
  Unix.setsockopt_int client Unix.SO_SNDBUF 4096;
  Unix.setsockopt_int server Unix.SO_RCVBUF 4096;
  let rate = 4000.0 and duration = 0.5 in
  let n = int_of_float (rate *. duration) in
  let stall_s = 0.3 in
  let receiver = stalled_receiver server ~stall_s ~n ~give_up_s:10.0 in
  let conn = Loadgen.of_fd client in
  let req = P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" } in
  let r = Loadgen.open_loop ~conns:[| conn |] ~next:(fun () -> req) ~rate ~duration in
  Domain.join receiver;
  Loadgen.close conn;
  Unix.close server;
  Alcotest.(check int) "all sent" n r.Loadgen.sent;
  Alcotest.(check int) "all answered" n r.Loadgen.completed;
  Alcotest.(check int) "none failed" 0 r.Loadgen.failed;
  let late_max = Report.quantile r.Loadgen.lateness 1.0 in
  if late_max > 0.05 then
    Alcotest.failf "sender fell %.1f ms behind schedule during the stall" (1e3 *. late_max);
  let first = r.Loadgen.latencies.(0) in
  if first < stall_s -. 0.05 then
    Alcotest.failf "first request's latency %.3f s does not include the %.1f s stall" first
      stall_s

let () =
  Alcotest.run "perfbench"
    [
      ( "stages",
        [
          Alcotest.test_case "replay matches site loop" `Quick test_replay_matches;
          Alcotest.test_case "replay detects drift" `Quick test_replay_detects_drift;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "key count" `Quick test_key_count;
          Alcotest.test_case "determinism" `Quick test_key_determinism;
        ] );
      ( "loadgen",
        [ Alcotest.test_case "open loop keeps schedule" `Quick test_open_loop_schedule ] );
    ]
