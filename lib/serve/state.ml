(* Warm daemon state, keyed by epoch *name*: one warmed
   [Webdep_store.Incremental] per (epoch, layer) for dataset-backed
   epochs, pre-materialized so every query is a tally / cached-score
   lookup instead of a sweep — plus lightweight score-table epochs for
   churn-log histories, where a replayed epoch contributes only its
   per-country S/HHI/insularity rows (a few floats per country) rather
   than a full tally.  [answer] is a pure function of the state and the
   request — the daemon, the bench load generator and the one-shot
   [webdep query] subcommand all go through it, which is what makes
   daemon answers byte-identical to local ones. *)

module D = Webdep.Dataset
module Inc = Webdep_store.Incremental
module P = Protocol

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

type score_row = { s : float; hhi : float; insularity : float }

type epoch_state =
  | Warm of { inc_by_layer : (D.layer * Inc.t) list }
      (** full per-layer tallies: every query kind answers *)
  | Scored of { by_layer : (D.layer * (string, score_row) Hashtbl.t) list }
      (** replayed churn-log epoch: scores only, no provider tallies *)

type t = {
  fingerprint : string;  (* world/store fingerprint keying the response cache *)
  countries : string list;  (* dataset order *)
  datasets : (string * D.t) list;  (* measured inputs, kept for snapshots *)
  epochs : (string * epoch_state) list;
}

let scored_of_rows rows =
  Scored
    {
      by_layer =
        List.map
          (fun (layer, per_country) ->
            let tbl = Hashtbl.create 64 in
            List.iter (fun (cc, row) -> Hashtbl.replace tbl cc row) per_country;
            (layer, tbl))
          rows;
    }

let make ~fingerprint ?(scored = []) datasets =
  let epochs =
    List.map
      (fun (name, ds) ->
        (name, Warm { inc_by_layer = List.map (fun l -> (l, Inc.create ds l)) layers }))
      datasets
    @ List.map (fun (name, rows) -> (name, scored_of_rows rows)) scored
  in
  let countries =
    match datasets with (_, ds) :: _ -> D.countries ds | [] -> []
  in
  { fingerprint; countries; datasets; epochs }

let fingerprint t = t.fingerprint
let countries t = t.countries
let datasets t = t.datasets
let epochs t = List.map fst t.epochs

(* Force every cached score so the first real queries hit warm state. *)
let warm t =
  List.iter
    (fun (_, es) ->
      match es with
      | Scored _ -> ()
      | Warm { inc_by_layer } ->
          List.iter
            (fun (_, inc) ->
              List.iter
                (fun cc ->
                  match Inc.score inc cc with _ -> () | exception Not_found -> ())
                (Inc.countries inc))
            inc_by_layer)
    t.epochs

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* The satellite-2 ergonomics fix: an unknown epoch enumerates what the
   daemon actually has loaded instead of a bare failure. *)
let unknown_epoch t name =
  P.Error
    (Printf.sprintf "epoch %s not loaded (loaded: %s)" name
       (String.concat ", " (List.map fst t.epochs)))

let epoch_state t name = List.assoc_opt name t.epochs

let with_inc t epoch layer f =
  match epoch_state t epoch with
  | None -> unknown_epoch t epoch
  | Some (Warm { inc_by_layer }) -> (
      match List.assoc_opt layer inc_by_layer with
      | Some inc -> f inc
      | None -> P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
  | Some (Scored _) ->
      P.Error
        (Printf.sprintf
           "epoch %s is scores-only (churn-log replay); this query needs a warmed \
            epoch"
           epoch)

let shares_response inc country k =
  match Inc.counts inc country with
  | counts ->
      let total = float_of_int (Inc.total inc country) in
      P.Shares
        (take k counts
        |> List.map (fun ((e : D.entity), n) ->
               { P.provider = e.D.name;
                 home = e.D.country;
                 share = float_of_int n /. total }))
  | exception Not_found -> P.Error (Printf.sprintf "no data for country %s" country)

(* One country's full score row under either epoch representation. *)
let row_of t epoch layer country =
  match epoch_state t epoch with
  | None -> Result.Error (unknown_epoch t epoch)
  | Some (Warm { inc_by_layer }) -> (
      match List.assoc_opt layer inc_by_layer with
      | None -> Result.Error (P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
      | Some inc -> (
          match Inc.score inc country with
          | s ->
              Ok
                { s;
                  hhi = Inc.hhi inc country;
                  insularity = Inc.insularity inc country }
          | exception Not_found ->
              Result.Error (P.Error (Printf.sprintf "no data for country %s" country))))
  | Some (Scored { by_layer }) -> (
      match List.assoc_opt layer by_layer with
      | None -> Result.Error (P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
      | Some tbl -> (
          match Hashtbl.find_opt tbl country with
          | Some row -> Ok row
          | None ->
              Result.Error (P.Error (Printf.sprintf "no data for country %s" country))))

let score_response_any t epoch layer country =
  match row_of t epoch layer country with
  | Ok { s; hhi; insularity } -> P.Scores { s; hhi; insularity }
  | Result.Error e -> e

let ranking_response t epoch layer k =
  match epoch_state t epoch with
  | None -> unknown_epoch t epoch
  | Some es -> (
      let scored =
        match es with
        | Warm { inc_by_layer } -> (
            match List.assoc_opt layer inc_by_layer with
            | None -> None
            | Some inc ->
                Some
                  (List.filter_map
                     (fun cc ->
                       match Inc.score inc cc with
                       | s -> Some (cc, s)
                       | exception Not_found -> None)
                     t.countries))
        | Scored { by_layer } -> (
            match List.assoc_opt layer by_layer with
            | None -> None
            | Some tbl ->
                (* Scored epochs may cover countries beyond the warm
                   datasets' slice; rank what the table has, in a
                   deterministic order. *)
                let ccs =
                  List.sort_uniq String.compare
                    (Hashtbl.fold (fun cc _ acc -> cc :: acc) tbl [])
                in
                Some
                  (List.filter_map
                     (fun cc ->
                       Option.map (fun r -> (cc, r.s)) (Hashtbl.find_opt tbl cc))
                     ccs))
      in
      match scored with
      | None -> P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch)
      | Some scored -> P.Ranks (take k (Webdep.Longitudinal.rank_order scored)))

let delta_response t layer country ~old_epoch ~new_epoch =
  match (row_of t old_epoch layer country, row_of t new_epoch layer country) with
  | Ok o, Ok n ->
      P.Deltas
        { old_epoch; new_epoch; old_s = o.s; new_s = n.s; delta = n.s -. o.s }
  | Result.Error e, _ | _, Result.Error e -> e

let answer t = function
  | P.Ping -> P.Pong
  | P.Shutdown -> P.Bye
  | P.Epochs -> P.Epoch_list (List.map fst t.epochs)
  | P.Score { epoch; layer; country } -> score_response_any t epoch layer country
  | P.Top_shares { epoch; layer; country; k } ->
      with_inc t epoch layer (fun inc -> shares_response inc country k)
  | P.Ranking { epoch; layer; k } -> ranking_response t epoch layer k
  | P.Delta { layer; country; old_epoch; new_epoch } ->
      delta_response t layer country ~old_epoch ~new_epoch
