(* The cold sweep: what `webdep scores` does for all four layers.

   Untraced, each sweep is World.create ~c, Measure.measure_sweep at
   --jobs 2, then S and insularity for every (country, layer): one
   before the epoch set-up, whose dataset is the churn log's baseline,
   then one per round; the result is the median wall time.  The traced
   variant runs the same sweep sequentially with every layer boundary
   timed from here: World.create, World.prepare, per country
   World.snapshot, the site loop (Measure.measure_snapshot, then split
   into stages by Stages.replay, whose time is kept out of the total),
   the interning fold (Dataset.builder_add) and the metric solve.  The
   rows add up to the traced total by construction. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Scores = Webdep_reference.Paper_scores
module Stages = Perfbench.Stages
module Clock = Perfbench.Clock
module Report = Perfbench.Report
module J = Webdep_json

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

(* (layer, country, S, insularity) for every pair, in dataset order. *)
let score_table ds =
  Array.of_list
    (List.concat_map
       (fun layer ->
         List.map
           (fun cc ->
             let get f = try f ds layer cc with Not_found -> Float.nan in
             ( layer,
               cc,
               get Webdep.Metrics.centralization,
               get Webdep.Regionalization.insularity ))
           (D.countries ds))
       layers)

let same_table a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (l1, c1, s1, i1) (l2, c2, s2, i2) ->
         l1 = l2 && String.equal c1 c2 && Report.bits_equal s1 s2
         && Report.bits_equal i1 i2)
       a b

(* Pearson rho per layer between the measured S column and Appendix F. *)
let paper_rho table =
  List.map
    (fun layer ->
      let rows = List.filter (fun (l, _, _, _) -> l = layer) (Array.to_list table) in
      let measured = Array.of_list (List.map (fun (_, _, s, _) -> s) rows) in
      let paper = Scores.scores_in_country_order layer (List.map (fun (_, cc, _, _) -> cc) rows) in
      (Scores.layer_name layer, (Webdep_stats.Correlation.pearson measured paper).rho))
    layers

let cold ~c ~seed ~jobs =
  let world = World.create ~c ~seed () in
  let sw = Measure.measure_sweep ~jobs world in
  let table = score_table sw.Measure.dataset in
  let sites, failed =
    List.fold_left
      (fun (n, f) (cov : Measure.country_coverage) ->
        let t = cov.Measure.tally in
        (n + Webdep_faults.Degrade.total t, f + t.Webdep_faults.Degrade.failed))
      (0, 0) sw.Measure.coverage
  in
  (table, sites, failed, sw.Measure.dataset)

type traced = {
  rows : (string * float * float) list;  (* stage, seconds, minor words *)
  stages : Stages.t;
  total_s : float;
  sites : int;
  table : (D.layer * string * float * float) array;
  dataset : D.t;
  replay_mismatch : string option;
}

let traced ~c ~seed =
  let rows = ref [] in
  let total = ref 0.0 in
  let row name f =
    let w0 = Gc.minor_words () and t0 = Clock.now () in
    let v = f () in
    let dt = Clock.now () -. t0 and dw = Gc.minor_words () -. w0 in
    total := !total +. dt;
    (match List.assoc_opt name !rows with
    | Some (s, w) -> rows := (name, (s +. dt, w +. dw)) :: List.remove_assoc name !rows
    | None -> rows := (name, (dt, dw)) :: !rows);
    v
  in
  let world = row "worldgen.create" (fun () -> World.create ~c ~seed ()) in
  let countries = World.countries world in
  row "worldgen.prepare" (fun () -> World.prepare world countries);
  let stages = Stages.create () in
  let mismatch = ref None in
  let b = D.builder () in
  List.iter
    (fun cc ->
      let snap = row "worldgen.snapshot" (fun () -> World.snapshot world cc) in
      let data = row "pipeline.site_loop" (fun () -> Measure.measure_snapshot world snap) in
      let replayed = Stages.replay stages world snap in
      if !mismatch = None then mismatch := Stages.mismatch data replayed;
      row "core.intern" (fun () -> D.builder_add b data))
    countries;
  let ds = row "core.intern" (fun () -> D.builder_finish b) in
  let table = row "core.metric" (fun () -> score_table ds) in
  {
    rows = List.rev_map (fun (n, (s, w)) -> (n, s, w)) !rows;
    stages;
    total_s = !total;
    sites = stages.Stages.sites;
    table;
    dataset = ds;
    replay_mismatch = !mismatch;
  }

let per_site n v = v /. float_of_int n

(* Untraced: the timed sweeps must agree bit for bit with each other and
   track Appendix F; --jobs invariance is checked by the traced run,
   which compares its --jobs 1 table with a --jobs 2 sweep. *)
type sweeps = {
  c : int;
  seed : int;
  first : (D.layer * string * float * float) array;
  peak_rss_mb : float;  (* after the first sweep, before the epoch set-up *)
  mutable samples : float list;  (* newest first *)
  mutable sites : int;
  mutable failed : int;
  mutable identical : bool;
}

(* The first sweep, and its dataset. *)
let first ~c ~seed =
  let (table, sites, failed, ds), dt = Report.time_compacted (fun () -> cold ~c ~seed ~jobs:2) in
  ( { c; seed; first = table; peak_rss_mb = Report.peak_rss_mb (); samples = [ dt ]; sites;
      failed; identical = true },
    ds )

let again t =
  let (table, sites, failed, _), dt =
    Report.time_compacted (fun () -> cold ~c:t.c ~seed:t.seed ~jobs:2)
  in
  t.samples <- dt :: t.samples;
  t.sites <- t.sites + sites;
  t.failed <- t.failed + failed;
  t.identical <- t.identical && same_table t.first table

let report t =
  let samples = Array.of_list (List.rev t.samples) in
  let rho = paper_rho t.first in
  let rho_ok = List.for_all (fun (_, r) -> r >= 0.98) rho in
  [
    ("sweep_s", J.Float (Report.median samples));
    ("sweep_samples", Report.floats samples);
    ("peak_rss_mb", J.Float t.peak_rss_mb);
    ("sites", J.Int t.sites);
    ("failed", J.Int t.failed);
    ("repeat_identical", J.Bool t.identical);
    ("rho", J.Obj (List.map (fun (l, r) -> (l, J.Float r)) rho));
    ("correct", J.Bool (t.identical && rho_ok));
  ]

let run_traced ~c ~seed =
  Gc.compact ();
  let tr = traced ~c ~seed in
  let (t1, _, _, _), untraced1_s = Report.time_compacted (fun () -> cold ~c ~seed ~jobs:1) in
  let (t2, sites, failed, _), sweep2_s =
    Report.time_compacted (fun () -> cold ~c ~seed ~jobs:2)
  in
  let row name = match List.find_opt (fun (n, _, _) -> n = name) tr.rows with
    | Some (_, s, w) -> (s, w)
    | None -> (0.0, 0.0)
  in
  let n = tr.sites in
  let us s = J.Float (1e6 *. per_site n s) and words w = J.Float (per_site n w) in
  let st = tr.stages.Stages.rows in
  let prepare_s, prepare_w = row "worldgen.prepare" in
  let snapshot_s, snapshot_w = row "worldgen.snapshot" in
  let create_s, _ = row "worldgen.create" in
  let loop_s, _ = row "pipeline.site_loop" in
  let intern_s, intern_w = row "core.intern" in
  let metric_s, _ = row "core.metric" in
  let six = Stages.total_s tr.stages in
  let unattributed_s = loop_s -. six in
  let stage_sum =
    create_s +. prepare_s +. snapshot_s +. six +. unattributed_s +. intern_s +. metric_s
  in
  let pairs = Array.length tr.table in
  let identical = same_table tr.table t1 && same_table tr.table t2 in
  let rho_ok = List.for_all (fun (_, r) -> r >= 0.98) (paper_rho tr.table) in
  let stage_rows =
    [ ("worldgen.create", create_s); ("worldgen.prepare", prepare_s);
      ("worldgen.snapshot", snapshot_s) ]
    @ Array.to_list (Array.mapi (fun i (r : Stages.row) -> (Stages.names.(i), r.Stages.s)) st)
    @ [ ("pipeline.unattributed", unattributed_s); ("core.intern", intern_s);
        ("core.metric", metric_s) ]
  in
  ( [
    ("stage_rows_s", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) stage_rows));
    ("traced_total_s", J.Float tr.total_s);
    ("stage_sum_s", J.Float stage_sum);
    ("untraced_jobs1_s", J.Float untraced1_s);
    ("sweep_jobs2_s", J.Float sweep2_s);
    ("sites", J.Int sites);
    ("failed", J.Int failed);
    ( "layers",
      J.Obj
        [
          ("worldgen.prepare_us", us prepare_s);
          ("worldgen.prepare_words", words prepare_w);
          ("worldgen.snapshot_us", us snapshot_s);
          ("worldgen.snapshot_words", words snapshot_w);
          ("dnssim.resolve_us", us st.(0).Stages.s);
          ("dnssim.resolve_words", words st.(0).Stages.words);
          ( "dnssim.cache_hit_ratio",
            J.Float
              (float_of_int tr.stages.Stages.cache_hits
              /. float_of_int (max 1 tr.stages.Stages.cache_lookups)) );
          ("netsim.asorg_us", us st.(1).Stages.s);
          ("netsim.geolocate_us", us st.(2).Stages.s);
          ("netsim.anycast_us", us st.(3).Stages.s);
          ("tlssim.handshake_us", us st.(4).Stages.s);
          ("pipeline.langdetect_us", us st.(5).Stages.s);
          ("pipeline.site_loop_us", us loop_s);
          ("pipeline.unattributed_us", us unattributed_s);
          ("core.intern_us", us intern_s);
          ("core.intern_words", words intern_w);
          ("core.metric_us", J.Float (1e6 *. metric_s /. float_of_int (max 1 pairs)));
          ("par.speedup", J.Float (stage_sum /. sweep2_s));
          ("par.serial_share", J.Float ((prepare_s +. intern_s +. metric_s) /. stage_sum));
          ("sweep.traced_total_s", J.Float tr.total_s);
          ("sweep.trace_overhead_ratio", J.Float (tr.total_s /. untraced1_s));
        ] );
    ( "replay_mismatch",
      match tr.replay_mismatch with None -> J.Null | Some m -> J.String m );
    ("jobs_identical", J.Bool identical);
    ("correct", J.Bool (identical && rho_ok && tr.replay_mismatch = None));
  ],
    tr.dataset )
