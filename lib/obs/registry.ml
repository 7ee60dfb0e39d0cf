(* JSON snapshot of every registered counter and histogram.

   The dump is stable — a "schema" version field first, counters and
   histograms in sorted key order — so two runs of the same workload
   (at any --jobs) diff cleanly, and span-duration histograms (names
   starting with "span.") are split into their own section.  Schema:

   {
     "schema": "webdep-metrics/2",
     "counters":   { "<name>": <int>, ... },
     "histograms": { "<name>": { "count", "sum", "mean", "stddev",
                                 "min", "max",
                                 "p50", "p90", "p99", "p999",
                                 "buckets": [{"le","count","sum"}] } },
     "spans":      { "<name>": <same histogram object, seconds> }
   }

   webdep-metrics/2 upgrades /1 with interpolated quantiles (p50..p999)
   and a per-bucket "sum" alongside each count. *)

module Json = Webdep_json

let schema_version = "webdep-metrics/2"

let histogram_json h =
  let opt_float = function None -> Json.Null | Some v -> Json.Float v in
  Json.Obj
    [
      ("count", Json.Int (Metrics.count h));
      ("sum", Json.Float (Metrics.sum h));
      ("mean", Json.Float (Metrics.mean h));
      ("stddev", Json.Float (Metrics.stddev h));
      ("min", opt_float (Metrics.min_value h));
      ("max", opt_float (Metrics.max_value h));
      ("p50", opt_float (Metrics.quantile h 0.5));
      ("p90", opt_float (Metrics.quantile h 0.9));
      ("p99", opt_float (Metrics.quantile h 0.99));
      ("p999", opt_float (Metrics.quantile h 0.999));
      ( "buckets",
        Json.List
          (List.map
             (fun (le, k, s) ->
               Json.Obj
                 [
                   ("le", match le with Some b -> Json.Float b | None -> Json.Null);
                   ("count", Json.Int k);
                   ("sum", Json.Float s);
                 ])
             (Metrics.buckets_with_sums h)) );
    ]

let snapshot () =
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let counters =
    Metrics.fold_counters
      (fun c acc -> (Metrics.counter_name c, Json.Int (Metrics.value c)) :: acc)
      []
  in
  let spans, plain =
    Metrics.fold_histograms (fun h acc -> h :: acc) []
    |> List.partition (fun h ->
           String.length (Metrics.histogram_name h) > String.length Span.histogram_prefix
           && String.sub (Metrics.histogram_name h) 0 (String.length Span.histogram_prefix)
              = Span.histogram_prefix)
  in
  let histo_fields strip hs =
    List.map
      (fun h ->
        let name = Metrics.histogram_name h in
        let name =
          if strip then
            String.sub name (String.length Span.histogram_prefix)
              (String.length name - String.length Span.histogram_prefix)
          else name
        in
        (name, histogram_json h))
      hs
  in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("counters", Json.Obj (by_name counters));
      ("histograms", Json.Obj (by_name (histo_fields false plain)));
      ("spans", Json.Obj (by_name (histo_fields true spans)));
    ]

let dump_json () = Json.to_string (snapshot ())

let write_file path =
  let oc = open_out path in
  output_string oc (dump_json ());
  output_char oc '\n';
  close_out oc

let reset = Metrics.reset
