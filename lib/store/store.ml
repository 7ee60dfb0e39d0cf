module Json = Webdep_json
module D = Webdep.Dataset
module Degrade = Webdep_faults.Degrade
module Codec = Webdep_faults.Codec
module Record = Webdep_faults.Record

let schema = "webdep-store/2"

let m_hits = Webdep_obs.Metrics.counter "store.hits"
let m_misses = Webdep_obs.Metrics.counter "store.misses"
let m_invalidated = Webdep_obs.Metrics.counter "store.invalidated"

type entry = { site : D.site; outcome : Degrade.outcome }

type t = {
  fingerprint : Fingerprint.t;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
}

let create ~fingerprint () =
  { fingerprint; lock = Mutex.create (); entries = Hashtbl.create 4096 }

let fingerprint t = t.fingerprint
let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)

(* '|' cannot appear in an epoch name, resolution name, country code or
   domain, so the joined key is injective — and splits back into its
   four components for the spill file. *)
let key ~epoch ~resolution ~vantage domain =
  String.concat "|" [ epoch; resolution; vantage; domain ]

let find t ~epoch ~resolution ~vantage domain =
  let k = key ~epoch ~resolution ~vantage domain in
  let r = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries k) in
  (match r with
  | Some _ -> Webdep_obs.Metrics.incr m_hits
  | None -> Webdep_obs.Metrics.incr m_misses);
  r

let find_all t ~epoch ~resolution ~vantage domains =
  let r =
    Mutex.protect t.lock @@ fun () ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | d :: rest -> (
          match Hashtbl.find_opt t.entries (key ~epoch ~resolution ~vantage d) with
          | Some e -> go (e :: acc) rest
          | None -> None)
    in
    go [] domains
  in
  (match r with
  | Some es -> Webdep_obs.Metrics.incr ~by:(List.length es) m_hits
  | None -> ());
  r

let add t ~epoch ~resolution ~vantage domain entry =
  let k = key ~epoch ~resolution ~vantage domain in
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.entries k entry)

(* --- spill file -------------------------------------------------------- *)

(* One [Record] per entry: the key's first three components, the
   outcome, then the site as a one-row [Codec] block (the domain is the
   key's fourth component). *)
let encode ~epoch ~resolution ~vantage e =
  let b = Buffer.create 256 in
  Codec.put_str b epoch;
  Codec.put_str b resolution;
  Codec.put_str b vantage;
  Codec.put_u8 b
    (match e.outcome with Degrade.Clean -> 0 | Degrade.Degraded -> 1 | Degrade.Failed -> 2);
  Codec.put_sites b [ e.site ];
  Buffer.contents b

let decode payload =
  let cur = Codec.cursor payload in
  let epoch = Codec.get_str cur in
  let resolution = Codec.get_str cur in
  let vantage = Codec.get_str cur in
  let outcome =
    match Codec.get_u8 cur with
    | 0 -> Degrade.Clean
    | 1 -> Degrade.Degraded
    | 2 -> Degrade.Failed
    | n -> Codec.fail "bad outcome %d" n
  in
  let site =
    match Codec.get_sites cur with
    | [ s ] -> s
    | _ -> Codec.fail "spill entry holds one site"
  in
  Codec.finish cur "spill entry";
  (key ~epoch ~resolution ~vantage site.D.domain, { site; outcome })

let header fp = Json.Obj (("schema", Json.String schema) :: Fingerprint.to_meta fp)

let save t path =
  let items =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.entries [])
  in
  let items = List.sort (fun (a, _) (b, _) -> String.compare a b) items in
  let payloads =
    List.map
      (fun (k, e) ->
        match String.split_on_char '|' k with
        | [ epoch; resolution; vantage; _domain ] -> encode ~epoch ~resolution ~vantage e
        | _ -> assert false)
      items
  in
  (* Atomic replace: a sweep killed mid-save leaves the previous spill
     intact instead of a truncated file. *)
  Record.write_atomic ~path ~header:(header t.fingerprint) payloads

let m_torn = Webdep_obs.Metrics.counter "store.spill.torn_recovered"

let load ~path ~fingerprint =
  let t = create ~fingerprint () in
  let expected = header fingerprint in
  let check h = if h <> expected then Codec.fail "foreign spill" in
  (* Stream the spill straight into the table — one record live at a
     time, so loading a large spill never materializes the whole file. *)
  let f () payload =
    let k, e = decode payload in
    Hashtbl.replace t.entries k e
  in
  (match Record.fold ~path ~header:check ~f with
  | Record.Absent -> ()
  | Record.Rejected _ -> Webdep_obs.Metrics.incr m_invalidated
  | Record.Folded { acc = (); torn } ->
      (* A torn tail can only come from a filesystem that lost the
         rename or a rotted byte; keep the intact prefix — everything
         from the first bad record on is suspect. *)
      if torn then Webdep_obs.Metrics.incr m_torn);
  t
