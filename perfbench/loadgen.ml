(* Client-side load generation against a `webdep serve` daemon.

   One process, one thread, a few connections multiplexed with select.
   Two shapes:

   - closed loop: each connection keeps exactly one request outstanding
     and sends the next as soon as the reply arrives, so the daemon's
     speed paces the load; a round trip is timed from just before the
     write to the reply's arrival;
   - open loop: requests fall due on a fixed schedule (rate r, request i
     due at t0 + i/r) and are handed to the socket when due whatever the
     replies are doing — writes are non-blocking and unsent bytes wait
     in a user-space buffer — so a stalled daemon shows up as latency,
     timed from when the request was due, instead of as a slower
     sender.

   A reply whose tag is Overloaded, Error or Draining, and every request
   outstanding on a connection that broke, counts as failed. *)

module P = Webdep_serve.Protocol

(* Growable float array for latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

exception Broken

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable out : Bytes.t;  (* unsent bytes are out.[off..len) *)
  mutable off : int;
  mutable len : int;
  pending : float Queue.t;
      (* per outstanding request, oldest first: its send time (closed
         loop) or its index in the schedule (open loop) *)
}

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    rbuf = Bytes.create 65536;
    rlen = 0;
    out = Bytes.create 65536;
    off = 0;
    len = 0;
    pending = Queue.create ();
  }

let connect spec = of_fd (Webdep_serve.Client.connect spec).Webdep_serve.Client.fd
let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let enqueue c s =
  let n = String.length s in
  if c.len + n > Bytes.length c.out then begin
    let live = c.len - c.off in
    let cap = ref (Bytes.length c.out) in
    while live + n > !cap do
      cap := 2 * !cap
    done;
    let b = if !cap = Bytes.length c.out then c.out else Bytes.create !cap in
    Bytes.blit c.out c.off b 0 live;
    c.out <- b;
    c.off <- 0;
    c.len <- live
  end;
  Bytes.blit_string s 0 c.out c.len n;
  c.len <- c.len + n

let has_output c = c.len > c.off

(* Write what the socket takes now; never blocks. *)
let flush c =
  let rec go () =
    if has_output c then
      match Unix.single_write c.fd c.out c.off (c.len - c.off) with
      | w ->
          c.off <- c.off + w;
          if c.off = c.len then begin
            c.off <- 0;
            c.len <- 0
          end
          else go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> raise Broken
  in
  go ()

let read_some c =
  if c.rlen + 65536 > Bytes.length c.rbuf then begin
    let b = Bytes.create (2 * (c.rlen + 65536)) in
    Bytes.blit c.rbuf 0 b 0 c.rlen;
    c.rbuf <- b
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> raise Broken
  | n -> c.rlen <- c.rlen + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> raise Broken

(* Every complete reply payload in the read buffer, oldest first; a
   corrupt length prefix breaks the connection. *)
let take_replies c =
  match P.parse_frames c.rbuf c.rlen with
  | payloads, consumed ->
      Bytes.blit c.rbuf consumed c.rbuf 0 (c.rlen - consumed);
      c.rlen <- c.rlen - consumed;
      payloads
  | exception P.Protocol_error _ -> raise Broken

(* Overloaded (5), Error (7) and Draining (8) replies. *)
let failed_reply payload =
  match payload.[0] with '\005' | '\007' | '\008' -> true | _ -> false

let select_conns conns timeout =
  let rds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wrs =
    Array.fold_left (fun acc c -> if has_output c then c.fd :: acc else acc) [] conns
  in
  match Unix.select rds wrs [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

type result = {
  sent : int;
  completed : int;
  failed : int;  (* failure replies plus requests lost to a broken connection *)
  broken : bool;
  latencies : float array;
      (* seconds per completed request: closed loop in completion order,
         open loop in send order (nan where the reply never came) *)
  done_at : float array;  (* closed loop: completion times, same order *)
  lateness : float array;  (* open loop: seconds behind schedule, per send *)
}

(* Service every readable connection: [on_reply conn id failed now] per
   reply, where [id] is what its request pushed on [pending]. *)
let service conns readable on_reply =
  List.iter
    (fun fd ->
      match Array.find_opt (fun c -> c.fd == fd) conns with
      | None -> ()
      | Some c ->
          read_some c;
          List.iter
            (fun payload ->
              let id = Queue.pop c.pending in
              on_reply c id (failed_reply payload) (Clock.now ()))
            (take_replies c))
    readable

let outstanding conns = Array.fold_left (fun n c -> n + Queue.length c.pending) 0 conns

(* [count] requests, each connection keeping one outstanding. *)
let closed ~conns ~next ~count =
  let lat = Fbuf.create () and done_at = Fbuf.create () in
  let sent = ref 0 and completed = ref 0 and failed = ref 0 in
  let t0 = Clock.now () in
  let last = ref t0 in
  let send c =
    let frame = P.frame (P.encode_request (next ())) in
    Queue.push (Clock.now ()) c.pending;
    enqueue c frame;
    flush c;
    incr sent
  in
  let broken =
    try
      Array.iter (fun c -> if !sent < count then send c) conns;
      while outstanding conns > 0 do
        let readable = select_conns conns 1.0 in
        if readable = [] && Clock.now () -. !last > 30.0 then raise Broken;
        Array.iter flush conns;
        service conns readable (fun c t bad now ->
            Fbuf.add lat (now -. t);
            Fbuf.add done_at now;
            incr completed;
            if bad then incr failed;
            last := now;
            if !sent < count then send c)
      done;
      false
    with Broken -> true
  in
  {
    sent = !sent;
    completed = !completed;
    failed = !failed + (!sent - !completed);
    broken;
    latencies = Fbuf.to_array lat;
    done_at = Fbuf.to_array done_at;
    lateness = [||];
  }

(* How long after the last due time the open loop waits for replies
   before it counts the connection as broken. *)
let grace_s = 10.0

(* [rate * duration] requests, request i handed to connection i mod n at
   t0 + i/rate; a reply's latency counts from its request's due time. *)
let open_loop ~conns ~next ~rate ~duration =
  let n_total = max 1 (int_of_float (rate *. duration)) in
  let lat = Array.make n_total Float.nan and late = Fbuf.create () in
  let completed = ref 0 and failed = ref 0 in
  let t0 = Clock.now () +. 0.001 in
  let due i = t0 +. (float_of_int i /. rate) in
  let hard_deadline = t0 +. duration +. grace_s in
  let i = ref 0 in
  let nc = Array.length conns in
  let broken =
    try
      while !i < n_total || outstanding conns > 0 do
        if Clock.now () > hard_deadline then raise Broken;
        while !i < n_total && due !i <= Clock.now () do
          let c = conns.(!i mod nc) in
          enqueue c (P.frame (P.encode_request (next ())));
          Queue.push (float_of_int !i) c.pending;
          Fbuf.add late (Clock.now () -. due !i);
          incr i
        done;
        Array.iter flush conns;
        let timeout =
          if !i < n_total then Float.max 0.0 (due !i -. Clock.now ()) else 0.05
        in
        let readable = select_conns conns timeout in
        service conns readable (fun _ id bad now ->
            let k = int_of_float id in
            lat.(k) <- now -. due k;
            incr completed;
            if bad then incr failed)
      done;
      false
    with Broken -> true
  in
  {
    sent = !i;
    completed = !completed;
    failed = !failed + (!i - !completed);
    broken;
    latencies = lat;
    done_at = [||];
    lateness = Fbuf.to_array late;
  }

(* Per-window summaries: a run split into [windows] equal runs of
   requests, one statistic per window.  The caller reports the median
   over windows, so a short stall or a burst of interference from
   outside moves one window, not the result. *)
let window_bounds n windows =
  let w = max 1 (min windows n) in
  Array.init w (fun k -> (k * n / w, (k + 1) * n / w))

let window_quantiles ~windows xs q =
  Array.map
    (fun (lo, hi) ->
      let answered =
        List.filter (fun v -> not (Float.is_nan v)) (Array.to_list (Array.sub xs lo (hi - lo)))
      in
      Report.quantile (Array.of_list answered) q)
    (window_bounds (Array.length xs) windows)

(* Completions per second, per window of completions. *)
let window_rates ~windows (r : result) =
  let n = Array.length r.done_at in
  Array.map
    (fun (lo, hi) ->
      let start = if lo = 0 then r.done_at.(0) -. r.latencies.(0) else r.done_at.(lo - 1) in
      float_of_int (hi - lo) /. (r.done_at.(hi - 1) -. start))
    (window_bounds n windows)

(* One request, one raw reply payload (for byte-level checks). *)
let call_raw c req =
  enqueue c (P.frame (P.encode_request req));
  let reply = ref None in
  while !reply = None do
    flush c;
    if select_conns [| c |] 5.0 = [] && not (has_output c) then raise Broken;
    read_some c;
    match take_replies c with payload :: _ -> reply := Some payload | [] -> ()
  done;
  Option.get !reply
