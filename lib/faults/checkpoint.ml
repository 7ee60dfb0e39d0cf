(* Checkpoint/resume for interrupted sweeps.

   A [Record] file: a header carrying a schema tag plus the sweep
   parameters, then one record per completed country shard.  On open we
   load every intact entry; a torn or corrupted tail (the process was
   killed mid-write, or a byte rotted) is dropped and the file is
   rewritten with only the intact entries before appending resumes.  A
   header that does not match the current sweep parameters invalidates
   the whole file — resuming under different parameters would silently
   mix two different worlds. *)

module Json = Webdep_json
module D = Webdep.Dataset

let schema = "webdep-checkpoint/2"

let m_written = Webdep_obs.Metrics.counter "checkpoint.countries_written"
let m_resumed = Webdep_obs.Metrics.counter "checkpoint.countries_resumed"
let m_invalidated = Webdep_obs.Metrics.counter "checkpoint.invalidated"
let m_torn = Webdep_obs.Metrics.counter "checkpoint.torn_recovered"

type entry = {
  country : string;
  tally : Degrade.tally;
  data : D.country_data;
}

type t = {
  path : string;
  lock : Mutex.t;
  oc : out_channel;
  loaded : (string, entry) Hashtbl.t;
}

(* --- (de)serialization ------------------------------------------------- *)

let encode e =
  let b = Buffer.create 4096 in
  Codec.put_str b e.country;
  Codec.put_u32 b e.tally.Degrade.clean;
  Codec.put_u32 b e.tally.Degrade.degraded;
  Codec.put_u32 b e.tally.Degrade.failed;
  Codec.put_sites b e.data.D.sites;
  Buffer.contents b

let decode payload =
  let cur = Codec.cursor payload in
  let country = Codec.get_str cur in
  let clean = Codec.get_u32 cur in
  let degraded = Codec.get_u32 cur in
  let failed = Codec.get_u32 cur in
  let sites = Codec.get_sites cur in
  Codec.finish cur "checkpoint entry";
  { country; tally = { Degrade.clean; degraded; failed }; data = { D.country; sites } }

(* --- file handling ----------------------------------------------------- *)

let open_ ~path ~meta =
  let header = Json.Obj (("schema", Json.String schema) :: meta) in
  (* Stream the intact prefix straight into the resume table — one record
     live at a time, no intermediate entry list — remembering country
     order so the rewrite below reproduces file order. *)
  let loaded = Hashtbl.create 64 in
  let order =
    let check h = if h <> header then Codec.fail "foreign checkpoint" in
    let f acc payload =
      let e = decode payload in
      let acc = if Hashtbl.mem loaded e.country then acc else e.country :: acc in
      Hashtbl.replace loaded e.country e;
      acc
    in
    match Record.fold ~path ~header:(fun h -> check h; []) ~f with
    | Record.Absent -> []
    | Record.Rejected _ ->
        Webdep_obs.Metrics.incr m_invalidated;
        []
    | Record.Folded { acc; torn } ->
        if torn then Webdep_obs.Metrics.incr m_torn;
        List.rev acc
  in
  (* Rewrite the file from the intact prefix (atomically, so a kill
     during the rewrite cannot lose the recovered entries): drops a
     damaged tail and stale files from mismatched sweeps in one stroke. *)
  Record.write_atomic ~path ~header
    (List.map (fun cc -> encode (Hashtbl.find loaded cc)) order);
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary ] 0o644 path in
  { path; lock = Mutex.create (); oc; loaded }

let find t country =
  match Hashtbl.find_opt t.loaded country with
  | Some e ->
      Webdep_obs.Metrics.incr m_resumed;
      Some e
  | None -> None

let loaded t = Hashtbl.length t.loaded

let record t e =
  let payload = encode e in
  Mutex.protect t.lock (fun () ->
      Record.output t.oc payload;
      flush t.oc);
  Webdep_obs.Metrics.incr m_written

let close t = close_out t.oc
