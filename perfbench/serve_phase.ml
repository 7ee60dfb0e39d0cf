(* The serve workload's in-process parts.

   - [setup]: the daemon's churn log — c = 300 sweeps of both measured
     epochs, Synth.generate over 24 epochs at 2 % churn, Log.create and
     one Log.append per epoch.
   - [loadgen]: one round of load — 2 connections, a closed-loop phase
     of [closed_requests], then [open_s] of open loop at [open_rate],
     keys from Keygen.
   - [check]: rebuilds the daemon's state locally from the same snapshot
     and log, exactly as `webdep serve` does, and compares sampled daemon
     replies byte for byte with the local State.answer encoding.  Traced,
     it also times the serve layers' public functions one by one. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Log = Webdep_epoch.Log
module R = Webdep_epoch.Replay
module Serve = Webdep_serve
module P = Webdep_serve.Protocol
module Keygen = Perfbench.Keygen
module Loadgen = Perfbench.Loadgen
module Clock = Perfbench.Clock
module Report = Perfbench.Report
module J = Webdep_json

let c = 300
let log_epochs = 24
let closed_requests = 40_000
let open_rate = 10_000.0
let open_s = 0.5

(* Daemon replies the check compares with the local State.answer. *)
let check_samples = 1000

let measured_epochs = [ "2023-05"; "2025-05" ]
let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

let setup ~seed ~path =
  let world = World.create ~c ~seed () in
  let ds23 = Measure.measure_all ~jobs:2 world in
  let ds25 = Measure.measure_all ~jobs:2 ~epoch:World.May_2025 world in
  let base = List.map (D.country_exn ds23) (D.countries ds23) in
  let donors =
    List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) (D.countries ds25)
  in
  let events =
    Webdep_epoch.Synth.generate ~seed ~fraction:Epoch_phase.churn ~epochs:log_epochs
      ~base_epoch:0 ~base ~donors
  in
  if Sys.file_exists path then Sys.remove path;
  Log.create ~path ~meta:[ ("seed", J.Int seed); ("c", J.Int c) ] ~base_epoch:0 ~base ();
  List.iter (fun (ev : Log.event) -> Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes) events

(* Measured epochs answer every kind; churn-log epochs only score-backed
   kinds. *)
let space_of ~epochs ~countries =
  let warm, scored = List.partition (fun e -> P.epoch_of_name e <> None) epochs in
  Keygen.space ~warm ~scored ~countries

(* Per-window statistics (see Loadgen.window_bounds). *)
let windows = 10

let lat_fields prefix (r : Loadgen.result) =
  let us q =
    Report.floats
      (Array.map (fun v -> 1e6 *. v) (Loadgen.window_quantiles ~windows r.Loadgen.latencies q))
  in
  [
    (prefix ^ "sent", J.Int r.Loadgen.sent);
    (prefix ^ "completed", J.Int r.Loadgen.completed);
    (prefix ^ "failed", J.Int r.Loadgen.failed);
    (prefix ^ "broken", J.Bool r.Loadgen.broken);
    (prefix ^ "p50_us", us 0.5);
    (prefix ^ "p99_us", us 0.99);
    (prefix ^ "max_us", J.Float (1e6 *. Report.quantile r.Loadgen.latencies 1.0));
  ]

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let loadgen ~socket ~seed ~mix =
  let conns = [| Loadgen.connect socket; Loadgen.connect socket |] in
  let epochs =
    match P.decode_response (Loadgen.call_raw conns.(0) P.Epochs) with
    | Ok (P.Epoch_list l) -> l
    | _ -> failwith "epochs query failed"
  in
  let countries =
    match
      P.decode_response
        (Loadgen.call_raw conns.(0)
           (P.Ranking { epoch = List.hd epochs; layer = D.Hosting; k = 10_000 }))
    with
    | Ok (P.Ranks ranks) -> List.sort String.compare (List.map fst ranks)
    | _ -> failwith "country list query failed"
  in
  let space = space_of ~epochs ~countries in
  let stream = Keygen.stream space ~seed mix in
  let seen = Keygen.seen space in
  let next () =
    let i = stream () in
    Keygen.mark seen i;
    Keygen.key space i
  in
  let cpu0 = cpu_s () in
  let closed = Loadgen.closed ~conns ~next ~count:closed_requests in
  let opened = Loadgen.open_loop ~conns ~next ~rate:open_rate ~duration:open_s in
  let cpu = cpu_s () -. cpu0 in
  Array.iter Loadgen.close conns;
  [
    ("key_space", J.Int (Keygen.size space));
    ("distinct_keys", J.Int (Keygen.distinct seen));
    ("mix", J.String (Keygen.mix_name mix));
    ("qps", Report.floats (Loadgen.window_rates ~windows closed));
    ("cpu_s", J.Float cpu);
    ("late_p99_ms", J.Float (1e3 *. Report.quantile opened.Loadgen.lateness 0.99));
  ]
  @ lat_fields "closed_" closed @ lat_fields "open_" opened

(* --- the daemon's state, rebuilt locally --------------------------------- *)

(* As `webdep serve --epoch-log` does: one scores-only epoch per
   committed log epoch. *)
let scored_of_log path =
  match Log.load ~path with
  | Log.Loaded log ->
      let acc = ref [] in
      let observe r =
        let rows =
          List.map
            (fun l ->
              ( l,
                List.filter_map
                  (fun cc ->
                    match R.score r l cc with
                    | s ->
                        Some
                          ( cc,
                            { Serve.State.s; hhi = R.hhi r l cc; insularity = R.insularity r l cc }
                          )
                    | exception Not_found -> None)
                  (R.countries r) ))
            layers
        in
        acc := (Printf.sprintf "e%d" (R.epoch r), rows) :: !acc
      in
      ignore (R.replay ~observe log);
      List.rev !acc
  | Log.Absent | Log.Mismatch _ -> failwith (path ^ ": epoch log unusable")

let fingerprint world =
  J.to_string
    (J.Obj (Webdep_store.Fingerprint.to_meta (Measure.store_fingerprint world)))

let load_snapshot ~path ~fingerprint ~countries =
  match Serve.Snapshot.load ~path ~fingerprint ~countries with
  | Serve.Snapshot.Loaded shards -> shards
  | _ -> failwith (path ^ ": snapshot not loadable")

let datasets_of shards ~countries =
  Serve.Snapshot.to_datasets ~epochs:measured_epochs ~countries
    ~fill:(fun e cc -> failwith (Printf.sprintf "snapshot lacks %s/%s" e cc))
    shards

let make_state ~fingerprint ~scored datasets =
  let st = Serve.State.make ~fingerprint ~scored datasets in
  Serve.State.warm st;
  st

(* Mean seconds per call of [f] over [xs], timed as one batch. *)
let per_call f xs =
  let t0 = Clock.now () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  (Clock.now () -. t0) /. float_of_int (max 1 (Array.length xs))

let median_of k f = Report.median (Array.init k (fun _ -> snd (Report.time f)))

let layer_timings ~world ~snapshot ~log ~space ~seed =
  let fp = fingerprint world and countries = World.countries world in
  let shards = load_snapshot ~path:snapshot ~fingerprint:fp ~countries in
  let datasets = datasets_of shards ~countries in
  let scored = scored_of_log log in
  let snapshot_load_s =
    median_of 3 (fun () -> load_snapshot ~path:snapshot ~fingerprint:fp ~countries)
  in
  let scored_s = median_of 3 (fun () -> scored_of_log log) in
  let state_make_s = median_of 3 (fun () -> make_state ~fingerprint:fp ~scored datasets) in
  let st = make_state ~fingerprint:fp ~scored datasets in
  let rng = Random.State.make [| seed; 0x6c6179 |] in
  let sample kind n =
    let first, count = Keygen.range space kind in
    Array.init n (fun _ -> Keygen.key space (first + Random.State.int rng count))
  in
  let answer_us =
    List.map
      (fun kind ->
        ( "serve.answer_us." ^ Keygen.kind_name kind,
          J.Float (1e6 *. per_call (Serve.State.answer st) (sample kind 4000)) ))
      Keygen.kinds
  in
  let stream = Keygen.stream space ~seed:(seed + 1) Keygen.Spread in
  let reqs = Array.init 20_000 (fun _ -> Keygen.key space (stream ())) in
  let payloads = Array.map P.encode_request reqs in
  let resps = Array.map (Serve.State.answer st) reqs in
  [
    ("serve.snapshot.load_s", J.Float snapshot_load_s);
    ("serve.state.make_s", J.Float state_make_s);
    ("serve.epoch_log.scored_s", J.Float scored_s);
    ("serve.protocol.decode_us", J.Float (1e6 *. per_call P.decode_request payloads));
    ("serve.protocol.encode_us", J.Float (1e6 *. per_call P.encode_response resps));
  ]
  @ answer_us

let check ~socket ~seed ~mix ~snapshot ~log ~trace =
  let world = World.create ~c ~seed () in
  let fp = fingerprint world and countries = World.countries world in
  let datasets = datasets_of (load_snapshot ~path:snapshot ~fingerprint:fp ~countries) ~countries in
  let st = make_state ~fingerprint:fp ~scored:(scored_of_log log) datasets in
  let space =
    space_of ~epochs:(Serve.State.epochs st)
      ~countries:(List.sort String.compare (Serve.State.countries st))
  in
  (* The load's own key stream: its first keys were served during the
     load, so cached replies are checked as well as fresh ones. *)
  let stream = Keygen.stream space ~seed mix in
  let conn = Loadgen.connect socket in
  let mismatches = ref 0 and first = ref None in
  for i = 0 to check_samples do
    let req = if i = 0 then P.Epochs else Keygen.key space (stream ()) in
    let got = Loadgen.call_raw conn req in
    let want = P.encode_response (Serve.State.answer st req) in
    if not (String.equal got want) then begin
      incr mismatches;
      if !first = None then
        first := Some (J.to_string (P.request_to_json req))
    end
  done;
  Loadgen.close conn;
  let layers =
    if trace then [ ("layers", J.Obj (layer_timings ~world ~snapshot ~log ~space ~seed)) ]
    else []
  in
  [
    ("checked", J.Int check_samples);
    ("mismatches", J.Int !mismatches);
    ("first_mismatch", match !first with None -> J.Null | Some s -> J.String s);
    ("correct", J.Bool (!mismatches = 0));
  ]
  @ layers

let setup_main get =
  Webdep_par.set_jobs 2;
  setup ~seed:(int_of_string (get "seed")) ~path:(get "log");
  Report.write (get "out") [ ("epochs", J.Int log_epochs) ]

let loadgen_main get =
  (* A daemon that drops a connection costs failed requests, not the
     generator. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fields =
    loadgen ~socket:(get "socket")
      ~seed:(int_of_string (get "seed"))
      ~mix:(Keygen.mix_of_string (get "mix"))
  in
  Report.write (get "out") fields

let check_main get get_opt =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Webdep_par.set_jobs 1;
  let fields =
    check ~socket:(get "socket")
      ~seed:(int_of_string (get "seed"))
      ~mix:(Keygen.mix_of_string (get "mix"))
      ~snapshot:(get "snapshot") ~log:(get "log")
      ~trace:(get_opt "trace" "0" = "1")
  in
  Report.write (get "out") fields
