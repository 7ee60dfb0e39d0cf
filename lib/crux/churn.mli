(** Toplist evolution between measurement snapshots.

    The paper's May-2023 → May-2025 comparison finds a mean Jaccard index
    of 0.37 between countries' toplists.  [evolve] produces a second
    snapshot with a chosen target Jaccard: it keeps a retention fraction
    [k = 2J / (1 + J)] of the old domains (so that
    [J = k/(2−k)] exactly when replacements are fresh), replaces the rest
    with new domains, and locally perturbs ranks. *)

val retention_for_jaccard : float -> float
(** [retention_for_jaccard j] = 2j/(1+j).  @raise Invalid_argument if [j]
    outside [0, 1]. *)

val evolve :
  Webdep_stats.Rng.t ->
  target_jaccard:float ->
  fresh:(int -> string) ->
  Toplist.t ->
  Toplist.t
(** [evolve rng ~target_jaccard ~fresh t] is a same-length successor list.
    [fresh i] must mint a domain not present in [t] (checked).  Survivor
    ranks are jittered by a bounded shuffle; replacements fill the freed
    slots. *)
