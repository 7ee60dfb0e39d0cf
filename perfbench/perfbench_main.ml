(* Entry point of the benchmark's OCaml half; perfbench/run.py runs each
   subcommand as its own process.

     offline      cold sweeps (or the traced sweep), then epoch replay
                  over a churn log whose baseline is the swept dataset;
                  untraced, a worker that runs one round of both per
                  "round" line on stdin and reports when stdin closes
     serve-setup  the daemon's churn log
     loadgen      one round of closed- then open-loop load against a
                  daemon
     serve-check  sampled daemon replies against a local State.answer

   The offline phase talks to run.py in '@' lines on stdout (see
   Report.send); the others write their JSON result to --out. *)

module Report = Perfbench.Report
module J = Webdep_json

let offline get get_opt =
  Webdep_par.set_jobs 2;
  let c = int_of_string (get "c") and seed = int_of_string (get "seed") in
  let dir = get "dir" in
  if get_opt "trace" "0" = "1" then begin
    let sweep, base = Sweep_phase.run_traced ~c ~seed in
    let epoch = Epoch_phase.traced ~c ~seed ~base ~dir in
    Report.send [ ("sweep", J.Obj sweep); ("epoch", J.Obj epoch) ]
  end
  else begin
    (* The first sweep's 2023 dataset is the churn log's baseline, so
       the epoch set-up costs no second sweep of it. *)
    let sweeps, base = Sweep_phase.first ~c ~seed in
    let epoch = Epoch_phase.create ~c ~seed ~base ~dir in
    Report.send [ ("setup_s", J.Float epoch.Epoch_phase.setup_s) ];
    let rec rounds () =
      match input_line stdin with
      | "round" ->
          Sweep_phase.again sweeps;
          Epoch_phase.round epoch;
          Report.send [ ("round", J.Bool true) ];
          rounds ()
      | line -> failwith ("unexpected command " ^ line)
      | exception End_of_file -> ()
    in
    rounds ();
    Report.send
      [ ("sweep", J.Obj (Sweep_phase.report sweeps)); ("epoch", J.Obj (Epoch_phase.report epoch)) ]
  end

let usage () =
  prerr_endline
    "usage: perfbench_main (offline|serve-setup|loadgen|serve-check) --key value ...";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let get, get_opt = Report.flags rest in
      match cmd with
      | "offline" -> offline get get_opt
      | "serve-setup" -> Serve_phase.setup_main get
      | "loadgen" -> Serve_phase.loadgen_main get
      | "serve-check" -> Serve_phase.check_main get get_opt
      | _ -> usage ())
  | _ -> usage ()
