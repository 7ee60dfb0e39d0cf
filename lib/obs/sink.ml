(* Trace sinks: where finished spans go.

   The default is [null] — emitting to it is a single indirect call that
   does nothing, so instrumentation can stay on unconditionally.  The
   console sink pretty-prints through [Logs] (level App, so it shows even
   without -v once a reporter is installed); the jsonl sink appends one
   JSON object per span to a file for offline analysis; [tee] fans one
   stream out to two sinks (console + trace file, collector + export).

   Spans may finish on any domain, so the console and jsonl sinks
   serialize their writes through a lock — each emitted line is atomic
   with respect to other domains. *)

module Json = Webdep_json

(* GC-counter movement across a span: minor/promoted/major words are the
   allocation story ([Gc.quick_stat] deltas, so words not bytes), major
   collections say whether the span paid for a full marking cycle. *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

let zero_gc =
  { minor_words = 0.0; promoted_words = 0.0; major_words = 0.0; major_collections = 0 }

type event = {
  name : string;
  attrs : (string * string) list;
  start_s : float;  (* seconds since process start *)
  duration_s : float;
  depth : int;  (* nesting depth at span entry, outermost = 0 *)
  lane : int;  (* emitting lane: pool worker index, or the raw domain id *)
  gc : gc_delta;  (* GC counter movement while the span was open *)
}

type t = { emit : event -> unit; flush : unit -> unit }

let null = { emit = ignore; flush = ignore }

let active = ref null

let set t =
  (!active).flush ();
  active := t

let current () = !active
let emit ev = (!active).emit ev
let flush () = (!active).flush ()

(* Run [f] with [t] installed, restoring the previous sink afterwards. *)
let with_sink t f =
  let prev = !active in
  set t;
  let restore () =
    (!active).flush ();
    active := prev
  in
  match f () with
  | v -> restore (); v
  | exception e -> restore (); raise e

(* Every event goes to [a] then [b]; flush in the same order. *)
let tee a b =
  {
    emit = (fun ev -> a.emit ev; b.emit ev);
    flush = (fun () -> a.flush (); b.flush ());
  }

(* --- console ----------------------------------------------------------- *)

let pp_duration ppf s =
  if s >= 1.0 then Fmt.pf ppf "%.2fs" s
  else if s >= 1e-3 then Fmt.pf ppf "%.2fms" (s *. 1e3)
  else Fmt.pf ppf "%.0fus" (s *. 1e6)

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Fmt.pf ppf " {%a}"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        attrs

let console () =
  let lock = Mutex.create () in
  {
    emit =
      (fun ev ->
        Mutex.protect lock (fun () ->
            Logs.app (fun m ->
                m "%*sspan %-28s %a%a" (2 * ev.depth) "" ev.name pp_duration ev.duration_s
                  pp_attrs ev.attrs)));
    flush = ignore;
  }

(* --- JSON lines -------------------------------------------------------- *)

let json_of_event ev =
  Json.Obj
    [
      ("name", Json.String ev.name);
      ("start_s", Json.Float ev.start_s);
      ("duration_s", Json.Float ev.duration_s);
      ("depth", Json.Int ev.depth);
      ("lane", Json.Int ev.lane);
      ("minor_words", Json.Float ev.gc.minor_words);
      ("promoted_words", Json.Float ev.gc.promoted_words);
      ("major_words", Json.Float ev.gc.major_words);
      ("major_collections", Json.Int ev.gc.major_collections);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.attrs));
    ]

let jsonl path =
  let oc = open_out path in
  let lock = Mutex.create () in
  {
    emit =
      (fun ev ->
        Mutex.protect lock (fun () ->
            output_string oc (Json.to_string (json_of_event ev));
            output_char oc '\n'));
    flush = (fun () -> Mutex.protect lock (fun () -> Stdlib.flush oc));
  }
