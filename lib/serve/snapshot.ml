(* Durable warm-state snapshots for the serving plane.

   A snapshot serializes the daemon's measured inputs — one
   [Dataset.country_data] shard per (epoch, country) — so a restarted
   server rebuilds its warm [Incremental] state from disk in
   milliseconds instead of re-sweeping two epochs.  The format is
   designed around the two crash modes that actually happen:

   - killed mid-*write*: [Record.write_atomic] writes a temp file,
     fsyncs and renames it into place, so the previous snapshot survives
     intact;
   - killed mid-*rename* on a filesystem that lost the tail (or a
     pre-atomic copy truncated or corrupted in transit): every record
     carries its own CRC-32 and length, so [load] keeps the intact prefix
     of shards and reports the file as torn — the caller re-measures only
     the missing (epoch, country) shards.

   Layout: a [Record] file.  The header is JSON (schema tag,
   fingerprint, explicit country list, expected shard count); every
   following record is one shard: epoch, country, then the sites as one
   [Codec] block.  The fingerprint covers the world
   parameters but *not* a [--countries] filter, which is why the header
   carries the country list explicitly — a snapshot taken under a filter
   must not warm a server asked for a different slice.  The shard count
   makes a cut exactly at a record boundary read as torn too. *)

module D = Webdep.Dataset
module Json = Webdep_json
module Codec = Webdep_faults.Codec
module Record = Webdep_faults.Record

(* /3: the shared [Record] framing with a JSON header. *)
let schema = "webdep-snapshot/3"

let m_saved = Webdep_obs.Metrics.counter "serve.snapshot.saved"
let m_loaded = Webdep_obs.Metrics.counter "serve.snapshot.loaded"
let m_rejected = Webdep_obs.Metrics.counter "serve.snapshot.rejected"
let m_torn = Webdep_obs.Metrics.counter "serve.snapshot.torn_recovered"

type shard = { epoch : string; data : D.country_data }

type load =
  | Absent
  | Rejected  (** unreadable header, schema/fingerprint/countries mismatch *)
  | Loaded of shard list
  | Torn of shard list  (** intact prefix of a truncated/corrupted file *)

let encode_shard { epoch; data } =
  let b = Buffer.create (64 * List.length data.D.sites) in
  Codec.put_str b epoch;
  Codec.put_str b data.D.country;
  Codec.put_sites b data.D.sites;
  Buffer.contents b

let decode_shard payload =
  let cur = Codec.cursor payload in
  let epoch = Codec.get_str cur in
  let country = Codec.get_str cur in
  let sites = Codec.get_sites cur in
  Codec.finish cur "shard";
  { epoch; data = { D.country; sites } }

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let save ~path ~fingerprint datasets =
  let countries =
    match datasets with (_, ds) :: _ -> D.countries ds | [] -> []
  in
  let header =
    Json.Obj
      [ ("schema", Json.String schema);
        ("fingerprint", Json.String fingerprint);
        ("countries", strings countries);
        ("shards", Json.Int (List.length datasets * List.length countries)) ]
  in
  Record.write_atomic ~path ~header
    (List.concat_map
       (fun (epoch, ds) ->
         List.map (fun cc -> encode_shard { epoch; data = D.country_exn ds cc }) countries)
       datasets);
  Webdep_obs.Metrics.incr m_saved

(* The header yields the fold state: shards still expected, and the
   shards read so far (reversed). *)
let check_header ~fingerprint ~countries v =
  match Json.member "shards" v with
  | Some (Json.Int n)
    when Json.member "schema" v = Some (Json.String schema)
         && Json.member "fingerprint" v = Some (Json.String fingerprint)
         && Json.member "countries" v = Some (strings countries) ->
      (n, [])
  | _ -> Codec.fail "different world or countries"

let load ~path ~fingerprint ~countries =
  let f (n, acc) payload =
    if n = 0 then Codec.fail "more shards than the header declares";
    (n - 1, decode_shard payload :: acc)
  in
  match Record.fold ~path ~header:(check_header ~fingerprint ~countries) ~f with
  | Record.Absent -> Absent
  | Record.Rejected _ ->
      Webdep_obs.Metrics.incr m_rejected;
      Rejected
  | Record.Folded { acc = n, acc; torn } ->
      if torn || n > 0 then (
        Webdep_obs.Metrics.incr m_torn;
        Torn (List.rev acc))
      else (
        Webdep_obs.Metrics.incr m_loaded;
        Loaded (List.rev acc))

(* --- rebuilding datasets from shards ------------------------------------ *)

(* Regroup loaded shards into per-epoch datasets, in snapshot country
   order.  [fill] supplies any shard the snapshot was missing (the torn
   case) — typically a re-measure of just that (epoch, country); the
   complete [Loaded] case never calls it. *)
let to_datasets ~epochs ~countries ~fill shards =
  let tbl = Hashtbl.create 512 in
  List.iter (fun s -> Hashtbl.replace tbl (s.epoch, s.data.D.country) s.data) shards;
  List.map
    (fun epoch ->
      let b = D.builder () in
      List.iter
        (fun cc ->
          let data =
            match Hashtbl.find_opt tbl (epoch, cc) with
            | Some d -> d
            | None -> fill epoch cc
          in
          D.builder_add b data)
        countries;
      (epoch, D.builder_finish b))
    epochs
