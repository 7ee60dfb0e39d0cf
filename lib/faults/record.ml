(* CRC-checked record framing shared by every durable file.  See the
   interface for the layout and the three crash-safety invariants. *)

(* --- CRC-32 (IEEE, reflected) ------------------------------------------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFF_FFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFF_FFFF

(* --- writing ------------------------------------------------------------ *)

let output oc payload =
  let frame = Bytes.create 8 in
  Bytes.set_int32_be frame 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be frame 4 (Int32.of_int (crc32 payload));
  output_bytes oc frame;
  output_string oc payload

(* The temp name carries the pid so two writers cannot collide on it;
   rename within one directory is atomic. *)
let write_atomic ~path ~header payloads =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output oc (Webdep_json.to_string header);
     List.iter (output oc) payloads;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  Unix.rename tmp path

let append ~path payloads =
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (output oc) payloads;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

(* --- reading ------------------------------------------------------------ *)

type 'acc folded =
  | Absent
  | Rejected of string
  | Folded of { acc : 'acc; torn : bool }

type next = End | Bad | Payload of string

(* The next record of [ic], [remaining] bytes before end of file.  A
   length running past the end is a torn tail; checking it before
   allocating also keeps a flipped length byte from asking for gigabytes.
   A CRC mismatch poisons everything after it — offsets are no longer
   trustworthy — so the caller stops rather than resyncs. *)
let next ic remaining =
  if !remaining = 0 then End
  else if !remaining < 8 then Bad
  else
    let frame = really_input_string ic 8 in
    let len = Int32.to_int (String.get_int32_be frame 0) land 0xFFFF_FFFF in
    let crc = Int32.to_int (String.get_int32_be frame 4) land 0xFFFF_FFFF in
    remaining := !remaining - 8;
    if len > !remaining then Bad
    else begin
      let payload = really_input_string ic len in
      remaining := !remaining - len;
      if crc32 payload = crc then Payload payload else Bad
    end

let fold ~path ~header ~f =
  if not (Sys.file_exists path) then Absent
  else
    In_channel.with_open_bin path @@ fun ic ->
    let remaining = ref (Int64.to_int (In_channel.length ic)) in
    match next ic remaining with
    | End | Bad -> Rejected "unreadable header"
    | Payload h -> (
        match header (Webdep_json.parse h) with
        | exception Webdep_json.Parse_error _ -> Rejected "unreadable header"
        | exception Codec.Malformed msg -> Rejected msg
        | init ->
            let rec go acc =
              match next ic remaining with
              | End -> Folded { acc; torn = false }
              | Bad -> Folded { acc; torn = true }
              | Payload p -> (
                  match f acc p with
                  | acc -> go acc
                  | exception Codec.Malformed _ -> Folded { acc; torn = true })
            in
            go init)
