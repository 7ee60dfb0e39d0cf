(** Byte codec shared by every durable file and the serve wire protocol.

    Fixed-width big-endian integers, IEEE-754 doubles and u16-length-
    prefixed strings, read back through a bounds-checked cursor so a
    truncated or mangled payload raises {!Malformed} instead of being
    misparsed — plus the one site codec every on-disk format stores
    sites with. *)

exception Malformed of string
(** A payload that does not decode: truncated, trailing bytes, a value
    out of range, or a header a reader refuses. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Malformed} with the formatted message. *)

(** {2 Writing} *)

val put_u8 : Buffer.t -> int -> unit
(** Low 8 bits of the value. *)

val put_u16 : Buffer.t -> int -> unit
(** @raise Malformed outside [0, 0xffff]. *)

val put_u32 : Buffer.t -> int -> unit
(** @raise Malformed outside [0, 0xffffffff]. *)

val put_f64 : Buffer.t -> float -> unit

val put_str : Buffer.t -> string -> unit
(** u16 length, then the bytes.  @raise Malformed past 65535 bytes. *)

(** {2 Reading} *)

type cursor = { data : string; mutable off : int }

val cursor : string -> cursor
val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_f64 : cursor -> float
val get_str : cursor -> string

val get_list : int -> (unit -> 'a) -> 'a list
(** [get_list n read] calls [read] [n] times, strictly in order (cursor
    reads are sequential, which [List.init] does not promise). *)

val finish : cursor -> string -> unit
(** @raise Malformed ("trailing bytes in ...") unless the cursor has
    consumed the whole payload. *)

(** {2 Sites} *)

val put_sites : Buffer.t -> Webdep.Dataset.site list -> unit
(** A self-contained block of sites: a string table interning every
    entity name, country code, geo label and language tag once (u16
    ids in first-encounter order), then the site count and one row per
    site with its raw domain, the table ids and an anycast flag byte.
    Deterministic: equal lists encode to equal bytes. *)

val get_sites : cursor -> Webdep.Dataset.site list
(** Inverse of {!put_sites}: [get_sites (cursor (put_sites l)) = l]. *)
