(* Byte codec shared by the durable files (checkpoint, store spill, epoch
   log, serve snapshot — all framed by [Record]) and the serve wire
   protocol.  Everything is big-endian and length-checked on both sides,
   so [decode ∘ encode = id] byte-for-byte and a short payload always
   raises instead of misparsing. *)

module D = Webdep.Dataset

exception Malformed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

(* --- writing ------------------------------------------------------------ *)

let put_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xff))

let put_u16 b v =
  if v < 0 || v > 0xffff then fail "u16 out of range: %d" v;
  Buffer.add_uint16_be b v

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then fail "u32 out of range: %d" v;
  Buffer.add_int32_be b (Int32.of_int v)

let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let put_str b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

(* --- reading ------------------------------------------------------------ *)

type cursor = { data : string; mutable off : int }

let cursor data = { data; off = 0 }

let need cur n =
  if cur.off + n > String.length cur.data then fail "truncated payload"

let get_u8 cur =
  need cur 1;
  let v = Char.code cur.data.[cur.off] in
  cur.off <- cur.off + 1;
  v

let get_u16 cur =
  need cur 2;
  let v = String.get_uint16_be cur.data cur.off in
  cur.off <- cur.off + 2;
  v

let get_u32 cur =
  need cur 4;
  let v = Int32.to_int (String.get_int32_be cur.data cur.off) land 0xffff_ffff in
  cur.off <- cur.off + 4;
  v

let get_f64 cur =
  need cur 8;
  let v = Int64.float_of_bits (String.get_int64_be cur.data cur.off) in
  cur.off <- cur.off + 8;
  v

let get_str cur =
  let n = get_u16 cur in
  need cur n;
  let s = String.sub cur.data cur.off n in
  cur.off <- cur.off + n;
  s

let get_list n read =
  let rec go acc i = if i = n then List.rev acc else go (read () :: acc) (i + 1) in
  go [] 0

let finish cur what =
  if cur.off <> String.length cur.data then fail "trailing bytes in %s" what

(* --- sites -------------------------------------------------------------- *)

(* Per-block string table: entity names, country codes, geo labels and
   language tags are written once per block and referenced by u16 id;
   domains stay raw (they are unique).  Option fields store [id + 1],
   with 0 for [None]. *)
type table = { ids : (string, int) Hashtbl.t; mutable rev : string list; mutable n : int }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id = t.n in
      Hashtbl.add t.ids s id;
      t.rev <- s :: t.rev;
      t.n <- id + 1;
      id

let put_opt_entity t b = function
  | None -> put_u16 b 0
  | Some (e : D.entity) ->
      put_u16 b (intern t e.D.name + 1);
      put_u16 b (intern t e.D.country)

let put_opt_str t b = function
  | None -> put_u16 b 0
  | Some s -> put_u16 b (intern t s + 1)

let put_sites b sites =
  (* Intern while encoding the rows, then emit the table ahead of them. *)
  let t = { ids = Hashtbl.create 64; rev = []; n = 0 } in
  let rows = Buffer.create (64 * List.length sites) in
  put_u32 rows (List.length sites);
  List.iter
    (fun (s : D.site) ->
      put_str rows s.D.domain;
      put_opt_entity t rows s.D.hosting;
      put_opt_entity t rows s.D.dns;
      put_opt_entity t rows s.D.ca;
      put_u16 rows (intern t s.D.tld.D.name);
      put_u16 rows (intern t s.D.tld.D.country);
      put_opt_str t rows s.D.hosting_geo;
      put_opt_str t rows s.D.ns_geo;
      put_opt_str t rows s.D.language;
      put_u8 rows
        ((if s.D.hosting_anycast then 1 else 0) lor if s.D.ns_anycast then 2 else 0))
    sites;
  put_u16 b t.n;
  List.iter (put_str b) (List.rev t.rev);
  Buffer.add_buffer b rows

let get_sites cur =
  let strings = Array.of_list (get_list (get_u16 cur) (fun () -> get_str cur)) in
  let str id =
    if id >= Array.length strings then fail "string id %d out of table" id;
    strings.(id)
  in
  let opt_str () = match get_u16 cur with 0 -> None | id -> Some (str (id - 1)) in
  let opt_entity () =
    match get_u16 cur with
    | 0 -> None
    | id ->
        let name = str (id - 1) in
        Some { D.name; country = str (get_u16 cur) }
  in
  let n = get_u32 cur in
  (* Every row takes at least 19 bytes: reject an absurd count before
     looping on it. *)
  if n > (String.length cur.data - cur.off) / 19 then fail "absurd site count %d" n;
  get_list n (fun () ->
      let domain = get_str cur in
      let hosting = opt_entity () in
      let dns = opt_entity () in
      let ca = opt_entity () in
      let tld_name = str (get_u16 cur) in
      let tld = { D.name = tld_name; country = str (get_u16 cur) } in
      let hosting_geo = opt_str () in
      let ns_geo = opt_str () in
      let language = opt_str () in
      let flags = get_u8 cur in
      {
        D.domain;
        hosting;
        dns;
        ca;
        tld;
        hosting_geo;
        ns_geo;
        hosting_anycast = flags land 1 <> 0;
        ns_anycast = flags land 2 <> 0;
        language;
      })
