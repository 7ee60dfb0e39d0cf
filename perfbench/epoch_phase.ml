(* Epoch replay over a 48-epoch, 2 %-churn log.

   The baseline is the 2023 dataset the sweep phase just measured in
   this process.  Set-up (counted in setup_s): the 2025 sweep at
   --jobs 2, which supplies the arriving sites, and Synth.generate.

   Timed, once per round: Log.create and one Log.append per epoch;
   Log.load + Replay.replay + four-layer scores at the head (the warm
   start); Replay.compact ~keep_last:4 + Log.write (compaction); the
   compacted log's warm start, each from a compacted heap.  Each metric
   is the median of its samples over the rounds: one per round, or one
   per epoch for the appends.  The first round's check recomputes the
   head cold from Replay.materialize and demands bit-identity in all
   four layers; every round's raw and compacted heads must then equal
   the first round's bit for bit. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Log = Webdep_epoch.Log
module Replay = Webdep_epoch.Replay
module M = Webdep_obs.Metrics
module Clock = Perfbench.Clock
module Report = Perfbench.Report
module J = Webdep_json

let epochs = 48
let keep_last = 4

(* Share of each country's sites that change per epoch, here and in the
   serve workload's churn log. *)
let churn = 0.02

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

type inputs = { base : D.country_data list; events : Log.event list }

let setup ~c ~seed ~base:ds23 =
  let world = World.create ~c ~seed () in
  let ds25 = Measure.measure_all ~jobs:2 ~epoch:World.May_2025 world in
  let base = List.map (D.country_exn ds23) (D.countries ds23) in
  let donors =
    List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) (D.countries ds25)
  in
  let events =
    Webdep_epoch.Synth.generate ~seed ~fraction:churn ~epochs ~base_epoch:0 ~base ~donors
  in
  { base; events }

let file_size path = (Unix.stat path).Unix.st_size

let load_exn path =
  match Log.load ~path with
  | Log.Loaded log -> log
  | Log.Absent -> failwith (path ^ ": log absent")
  | Log.Mismatch msg -> failwith (path ^ ": " ^ msg)

(* Every layer's (country, S) at the replay head. *)
let head_scores r = List.map (fun l -> (l, Replay.scores r l)) layers

let warm_start path =
  let log = load_exn path in
  let r = Replay.replay log in
  (log, r, head_scores r)

(* Write the log epoch by epoch; per-append seconds and bytes. *)
let build_log ~path ~c ~seed { base; events } =
  if Sys.file_exists path then Sys.remove path;
  let (), create_s =
    Report.time (fun () ->
        Log.create ~path ~meta:[ ("seed", J.Int seed); ("c", J.Int c) ] ~base_epoch:0 ~base ())
  in
  let appends =
    List.map
      (fun (ev : Log.event) ->
        let before = file_size path in
        let (), dt =
          Report.time (fun () -> Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes)
        in
        (dt, float_of_int (file_size path - before)))
      events
  in
  (create_s, Array.of_list (List.map fst appends), Array.of_list (List.map snd appends))

let same_scores a b =
  List.for_all2
    (fun (l1, xs) (l2, ys) ->
      l1 = l2
      && List.length xs = List.length ys
      && List.for_all2 (fun (c1, s1) (c2, s2) -> c1 = c2 && Report.bits_equal s1 s2) xs ys)
    a b

(* Replayed head against a cold recompute of the materialized dataset. *)
let cold_identical r scores =
  let ds = D.of_country_data (Replay.materialize r) in
  List.for_all
    (fun (l, warm) ->
      let cold = Webdep.Metrics.all_scores ds l in
      List.length cold = List.length warm
      && List.for_all
           (fun (cc, s) ->
             match List.assoc_opt cc warm with
             | Some w -> Report.bits_equal w s
             | None -> false)
           cold)
    scores

type t = {
  inputs : inputs;
  c : int;
  seed : int;
  raw : string;
  compacted : string;
  setup_s : float;
  mutable head : (D.layer * (string * float) list) list option;  (* first round's *)
  mutable correct : bool;
  mutable appends : float list;  (* samples, newest first *)
  mutable warm : float list;
  mutable compact : float list;
  mutable cwarm : float list;
}

let create ~c ~seed ~base ~dir =
  let inputs, setup_s = Report.time (fun () -> setup ~c ~seed ~base) in
  { inputs; c; seed; raw = Filename.concat dir "epoch.log";
    compacted = Filename.concat dir "epoch.compact.log"; setup_s; head = None;
    correct = true; appends = []; warm = []; compact = []; cwarm = [] }

let round t =
  Gc.compact ();
  let _, appends, _ = build_log ~path:t.raw ~c:t.c ~seed:t.seed t.inputs in
  t.appends <- List.rev_append (Array.to_list appends) t.appends;
  let (log, r, scores), warm_s = Report.time_compacted (fun () -> warm_start t.raw) in
  let (), compact_s =
    Report.time_compacted (fun () ->
        Log.write ~path:t.compacted (Replay.compact log ~keep_last))
  in
  let (_, _, cscores), cwarm_s = Report.time_compacted (fun () -> warm_start t.compacted) in
  t.warm <- warm_s :: t.warm;
  t.compact <- compact_s :: t.compact;
  t.cwarm <- cwarm_s :: t.cwarm;
  let head =
    match t.head with
    | Some head -> head
    | None ->
        t.correct <- cold_identical r scores;
        t.head <- Some scores;
        scores
  in
  t.correct <- t.correct && same_scores head scores && same_scores head cscores

let report t =
  let samples xs = Array.of_list (List.rev xs) in
  let appends = samples t.appends and warm = samples t.warm in
  let compact = samples t.compact and cwarm = samples t.cwarm in
  [
    ("setup_s", J.Float t.setup_s);
    ("appends", J.Int (Array.length appends));
    ("append_ms", J.Float (1e3 *. Report.median appends));
    ("warm_start_s", J.Float (Report.median warm));
    ("compact_s", J.Float (Report.median compact));
    ("compacted_warm_start_s", J.Float (Report.median cwarm));
    ("warm_samples", Report.floats warm);
    ("compact_samples", Report.floats compact);
    ("cwarm_samples", Report.floats cwarm);
    ("peak_rss_mb", J.Float (Report.peak_rss_mb ()));
    ("correct", J.Bool (t.correct && t.head <> None));
  ]

(* One cycle with every step timed on its own. *)
let traced ~c ~seed ~base ~dir =
  let inputs, setup_s = Report.time (fun () -> setup ~c ~seed ~base) in
  let raw = Filename.concat dir "epoch.log" and compacted = Filename.concat dir "epoch.compact.log" in
  Gc.compact ();
  let create_s, appends, append_bytes = build_log ~path:raw ~c ~seed inputs in
  let bytes_raw = file_size raw in
  let log, load_s = Report.time (fun () -> load_exn raw) in
  let r, start_s = Report.time (fun () -> Replay.start log) in
  let apply_s =
    Array.of_list
      (List.map (fun ev -> snd (Report.time (fun () -> Replay.apply r ev))) log.Log.events)
  in
  let scores, scores_s = Report.time (fun () -> head_scores r) in
  (* Rescoring after every epoch, as `webdep serve --epoch-log` does:
     how often a dirty score needs the full distribution rebuild. *)
  let full = M.counter "store.metrics.full_solve"
  and inc = M.counter "store.metrics.incremental" in
  let full0 = M.value full and inc0 = M.value inc in
  ignore (Replay.replay ~observe:(fun r -> ignore (head_scores r)) log);
  let full = M.value full - full0 and inc = M.value inc - inc0 in
  let clog, compact_replay_s = Report.time (fun () -> Replay.compact log ~keep_last) in
  let (), write_s = Report.time (fun () -> Log.write ~path:compacted clog) in
  let bytes_compacted = file_size compacted in
  let _, _, cscores = warm_start compacted in
  let identical = cold_identical r scores and compact_identical = same_scores scores cscores in
  [
    ("setup_s", J.Float setup_s);
    ("appends", J.Int (Array.length appends));
    ( "layers",
      J.Obj
        [
          ("epoch.log.create_s", J.Float create_s);
          ("epoch.log.load_s", J.Float load_s);
          ("epoch.log.load_mb_per_s", J.Float (float_of_int bytes_raw /. 1e6 /. load_s));
          ("epoch.replay.start_s", J.Float start_s);
          ("epoch.replay.apply_ms", J.Float (1e3 *. Report.median apply_s));
          ("epoch.replay.scores_ms", J.Float (1e3 *. scores_s));
          ( "store.incremental.full_solve_ratio",
            J.Float (float_of_int full /. float_of_int (max 1 (full + inc))) );
          ("epoch.log.append_ms", J.Float (1e3 *. Report.median appends));
          ("epoch.log.append_bytes", J.Float (Report.median append_bytes));
          ("epoch.compact.replay_s", J.Float compact_replay_s);
          ("epoch.log.write_s", J.Float write_s);
          ("epoch.log.bytes_raw", J.Float (float_of_int bytes_raw));
          ("epoch.log.bytes_compacted", J.Float (float_of_int bytes_compacted));
        ] );
    ("correct", J.Bool (identical && compact_identical));
  ]
