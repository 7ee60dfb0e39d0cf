(* The append-only churn transaction log (tlog) behind multi-epoch
   replay.

   On disk the log is a [Record] file — a JSON header, then entry
   records, each tagged by its first byte:

     header            {"schema":"webdep-epoch/3","base":K,"countries":N,"meta":{...}}
     0 base            country, sites                (one per country, N in all)
     1 churn           epoch, country, removed domains, added sites
     2 commit          epoch

   The baseline is the compacted head: every site of the base epoch, one
   record per country.  The header declares how many, so a file cut
   inside its baseline — even exactly at a record boundary — is told
   apart from a smaller world and rejected.  Each later epoch is
   recorded as raw churn — removed domains and fully-measured added
   sites — closed by a commit marker.  Sites use the shared [Codec]
   block encoding (a per-record string table, so every record stays
   self-contained and an appended epoch needs nothing from earlier
   records).

   Crash safety mirrors the rest of the persistence plane: [create] and
   [write] go through [Record.write_atomic] (temp + fsync + rename), and
   [append] writes an epoch's churn records before its commit marker and
   fsyncs, so a writer killed mid-append leaves either a torn record
   (dropped by the [Record] fold, as is one with a flipped byte) or a
   commit-marker-less suffix — [load] discards any epoch without its
   commit, keeping the last committed prefix intact. *)

module Json = Webdep_json
module D = Webdep.Dataset
module Codec = Webdep_faults.Codec
module Record = Webdep_faults.Record

let schema = "webdep-epoch/3"

let m_appended = Webdep_obs.Metrics.counter "epoch.log.epochs_appended"
let m_dropped = Webdep_obs.Metrics.counter "epoch.log.epochs_dropped"

type churn = { country : string; removed : string list; added : D.site list }
type event = { epoch : int; changes : churn list }

type t = {
  meta : (string * Json.t) list;
  base_epoch : int;
  base : D.country_data list;  (* canonical country order *)
  events : event list;  (* committed, ascending epoch order *)
  head : int;  (* last committed epoch; [base_epoch] when no events *)
  dropped : bool;  (* a torn tail or uncommitted epoch was discarded *)
}

type verdict = Absent | Mismatch of string | Loaded of t

(* --- records ------------------------------------------------------------ *)

let header ~meta ~base_epoch ~countries =
  Json.Obj
    [ ("schema", Json.String schema);
      ("base", Json.Int base_epoch);
      ("countries", Json.Int countries);
      ("meta", Json.Obj meta) ]

let record tag fill =
  let b = Buffer.create 1024 in
  Codec.put_u8 b tag;
  fill b;
  Buffer.contents b

let base_record (cd : D.country_data) =
  record 0 (fun b ->
      Codec.put_str b cd.D.country;
      Codec.put_sites b cd.D.sites)

let churn_record ~epoch (c : churn) =
  record 1 (fun b ->
      Codec.put_u32 b epoch;
      Codec.put_str b c.country;
      Codec.put_u32 b (List.length c.removed);
      List.iter (Codec.put_str b) c.removed;
      Codec.put_sites b c.added)

let commit_record epoch = record 2 (fun b -> Codec.put_u32 b epoch)

let epoch_records ev =
  List.map (churn_record ~epoch:ev.epoch) ev.changes @ [ commit_record ev.epoch ]

(* --- writing ------------------------------------------------------------ *)

let write ~path t =
  Record.write_atomic ~path
    ~header:(header ~meta:t.meta ~base_epoch:t.base_epoch ~countries:(List.length t.base))
    (List.map base_record t.base @ List.concat_map epoch_records t.events)

let create ~path ?(meta = []) ~base_epoch ~base () =
  write ~path
    { meta; base_epoch; base; events = []; head = base_epoch; dropped = false }

(* Append one committed epoch: churn records, then the commit marker,
   then flush + fsync — O(churn) regardless of how long the log already
   is.  A crash before the commit marker reaches disk makes the whole
   epoch invisible to [load]. *)
let append ~path ~epoch changes =
  Record.append ~path (epoch_records { epoch; changes });
  Webdep_obs.Metrics.incr m_appended

(* --- loading ------------------------------------------------------------ *)

(* Streaming fold state: the header, baseline countries so far
   (reversed) and how many the header still promises, committed events
   (reversed), and the churn records of the epoch whose commit marker has
   not arrived yet. *)
type fstate = {
  meta : (string * Json.t) list;
  base_epoch : int;
  mutable base_left : int;
  mutable base_rev : D.country_data list;
  mutable events_rev : event list;
  mutable pending : (int * churn list) option;  (* epoch, reversed changes *)
  mutable last : int;  (* last committed epoch *)
}

let read_header v =
  let field k = Json.member k v in
  match (field "schema", field "base", field "countries", field "meta") with
  | Some (Json.String s), _, _, _ when not (String.equal s schema) ->
      Codec.fail "schema %s, want %s" s schema
  | Some (Json.String _), Some (Json.Int base_epoch), Some (Json.Int n), Some (Json.Obj meta)
    when n >= 0 ->
      { meta; base_epoch; base_left = n; base_rev = []; events_rev = []; pending = None;
        last = base_epoch }
  | _ -> Codec.fail "malformed header"

type entry = Base of D.country_data | Churn of int * churn | Commit of int

let decode payload =
  let cur = Codec.cursor payload in
  let entry =
    match Codec.get_u8 cur with
    | 0 ->
        let country = Codec.get_str cur in
        Base { D.country; sites = Codec.get_sites cur }
    | 1 ->
        let epoch = Codec.get_u32 cur in
        let country = Codec.get_str cur in
        let removed = Codec.get_list (Codec.get_u32 cur) (fun () -> Codec.get_str cur) in
        Churn (epoch, { country; removed; added = Codec.get_sites cur })
    | 2 -> Commit (Codec.get_u32 cur)
    | tag -> Codec.fail "bad record tag %d" tag
  in
  Codec.finish cur "log record";
  entry

let apply st payload =
  (match decode payload with
  | Base cd ->
      if st.base_left = 0 then Codec.fail "more baseline records than the header declares";
      st.base_left <- st.base_left - 1;
      st.base_rev <- cd :: st.base_rev
  | (Churn _ | Commit _) when st.base_left > 0 -> Codec.fail "churn inside the baseline"
  | Churn (epoch, churn) -> (
      match st.pending with
      | Some (e, acc) when e = epoch -> st.pending <- Some (e, churn :: acc)
      | Some _ -> Codec.fail "interleaved epochs"
      | None ->
          if epoch <= st.last then Codec.fail "epoch %d not after %d" epoch st.last;
          st.pending <- Some (epoch, [ churn ]))
  | Commit epoch -> (
      match st.pending with
      | Some (e, acc) when e = epoch ->
          st.events_rev <- { epoch; changes = List.rev acc } :: st.events_rev;
          st.pending <- None;
          st.last <- epoch
      | Some _ -> Codec.fail "commit for another epoch"
      | None ->
          (* An epoch may legitimately have no churn records at all. *)
          if epoch <= st.last then Codec.fail "epoch %d not after %d" epoch st.last;
          st.events_rev <- { epoch; changes = [] } :: st.events_rev;
          st.last <- epoch));
  st

let load ~path =
  match Record.fold ~path ~header:read_header ~f:apply with
  | Record.Absent -> Absent
  | Record.Rejected msg -> Mismatch msg
  | Record.Folded { acc = st; _ } when st.base_left > 0 ->
      (* Epochs replay on top of the whole baseline: a partial one would
         read as a smaller world. *)
      Mismatch
        (Printf.sprintf "baseline cut: %d of %d countries"
           (List.length st.base_rev)
           (List.length st.base_rev + st.base_left))
  | Record.Folded { acc = st; torn } ->
      (* An uncommitted trailing epoch (the writer died between its churn
         records and its commit marker) is dropped exactly like a torn
         record. *)
      let dropped = torn || st.pending <> None in
      if dropped then Webdep_obs.Metrics.incr m_dropped;
      Loaded
        {
          meta = st.meta;
          base_epoch = st.base_epoch;
          base = List.rev st.base_rev;
          events = List.rev st.events_rev;
          head = st.last;
          dropped;
        }
