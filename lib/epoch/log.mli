(** Append-only churn transaction log: a baseline snapshot (the
    compacted head, one interned site block per country) followed by
    per-epoch churn records, each epoch closed by a commit marker.

    The on-disk format is a {!Webdep_faults.Record} file (schema
    [webdep-epoch/3]) sharing the crash-safety machinery of the other
    durable files: whole-file writes are atomic (temp + fsync + rename),
    appends are epoch-at-a-time with the commit marker last, and
    {!load} recovers from a torn or corrupted record and from a
    commit-marker-less suffix by dropping everything after the last
    committed epoch. *)

type churn = {
  country : string;
  removed : string list;  (** domains leaving the country's toplist *)
  added : Webdep.Dataset.site list;  (** fully-measured arriving sites *)
}

type event = { epoch : int; changes : churn list }

type t = {
  meta : (string * Webdep_json.t) list;
      (** caller metadata from the header (world seed, size, ...) *)
  base_epoch : int;
  base : Webdep.Dataset.country_data list;  (** baseline, canonical country order *)
  events : event list;  (** committed epochs, ascending *)
  head : int;  (** last committed epoch; [base_epoch] when no events *)
  dropped : bool;  (** a torn tail or uncommitted epoch was discarded *)
}

type verdict = Absent | Mismatch of string | Loaded of t

val schema : string

val create :
  path:string ->
  ?meta:(string * Webdep_json.t) list ->
  base_epoch:int ->
  base:Webdep.Dataset.country_data list ->
  unit ->
  unit
(** Write a fresh log holding only the baseline, atomically. *)

val append : path:string -> epoch:int -> churn list -> unit
(** Append one committed epoch — churn records, then the commit marker,
    then fsync.  O(churn), independent of log length.  A crash before
    the marker reaches disk leaves the epoch invisible to {!load}.
    [epoch] must exceed the log's current head (checked on load). *)

val write : path:string -> t -> unit
(** Atomic whole-log rewrite — how compaction publishes its result. *)

val load : path:string -> verdict
(** Parse the log back, keeping the longest committed prefix.  [Mismatch]
    reports a foreign or unreadable header, or a baseline with fewer
    countries than the header declares (a cut inside the baseline);
    [dropped] on the loaded log flags recovered-over damage. *)
