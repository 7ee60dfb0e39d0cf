(** The one durable file framing: checkpoint, store spill, epoch log and
    serve snapshot are all sequences of CRC-checked records.

    Each record is [[u32 len][u32 crc32(payload)][payload]], big-endian.
    Record 0 is the header, a small JSON object carrying the schema tag
    and whatever identifies the file's world; every later record is one
    entry, encoded with {!Codec}.  This module owns the crash-safety
    invariants all four files need:

    - {!write_atomic} never exposes a half-written file (temp file in the
      same directory, fsync, rename);
    - {!append} makes a batch of records durable before returning
      (flush + fsync);
    - {!fold} recovers the intact prefix of a damaged file: it stops at
      the first short record, CRC mismatch or undecodable payload, so a
      torn tail {e or} a flipped byte anywhere loses only the entries
      from that record on — never returns a changed one. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, reflected, as in zlib and PNG) on native ints:
    [crc32 "123456789" = 0xCBF43926], [crc32 "" = 0]. *)

val output : out_channel -> string -> unit
(** Frame one payload onto a (binary) channel.  No flush. *)

val write_atomic : path:string -> header:Webdep_json.t -> string list -> unit
(** Write the header record then one record per payload to [path]
    atomically: readers see the old file or the complete new one. *)

val append : path:string -> string list -> unit
(** Append one record per payload to an existing file, then flush and
    fsync.  A crash mid-append leaves a torn tail that {!fold} drops. *)

type 'acc folded =
  | Absent  (** [path] does not exist *)
  | Rejected of string
      (** the header record is missing or damaged, or [header] refused
          it — the file belongs to another world and is ignored
          wholesale *)
  | Folded of { acc : 'acc; torn : bool }
      (** the accumulator after the last intact entry; [torn] is set
          when folding stopped before the end of the file *)

val fold :
  path:string ->
  header:(Webdep_json.t -> 'acc) ->
  f:('acc -> string -> 'acc) ->
  'acc folded
(** Stream the records of [path]: [header] checks the parsed header
    and yields the initial accumulator, then [f] folds each entry
    payload in file order.  Only one record is in memory at a time.
    A header that is not JSON, or [header] raising {!Codec.Malformed},
    rejects the file (the message becomes the reason); [f] raising it
    marks the torn tail. *)
