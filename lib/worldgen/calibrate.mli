(** Distribution calibration: construct an integer provider-count vector
    over [c] websites whose centralization score 𝒮 hits a target.

    The family is a fixed top share plus a Zipf tail: the top bucket gets
    share [p₁] (the paper's Cloudflare anecdotes where known, otherwise
    solved for), the remaining mass is spread over the tail with exponent
    α found by bisection so that HHI = p₁² + (1−p₁)²·Σzᵢ² matches the
    target.  After integer rounding, a fine-tuning pass moves single
    websites between buckets (each move changes HHI by
    2(c_j − c_i + 1)/c², so steps as small as 2/c² are available) until
    the achieved 𝒮 is within [tolerance] of the target. *)

type result = {
  counts : int array;  (** nonincreasing, positive, sums to [c] *)
  achieved : float;  (** the 𝒮 of [counts] *)
}

val counts :
  ?tolerance:float ->
  ?top_share:float ->
  ?second_share:float ->
  ?pinned:float list ->
  c:int ->
  n_providers:int ->
  target:float ->
  unit ->
  result
(** @param tolerance default [5e-5]
    @param top_share desired share of the largest bucket; clamped to
           [sqrt (0.995 · HHI_target)] when it alone would overshoot
    @param second_share desired share of the second bucket (e.g. a
           dominant regional provider); clamped against the remaining
           HHI budget; ignored without [top_share]
    @param pinned exact shares for additional buckets (a ccTLD, a
           partner country's ccTLD); the head is clamped — and the
           pinned buckets scaled as a last resort — so the fixed part
           stays within the HHI budget, and the tail widens beyond
           [n_providers] when needed to absorb the remaining mass
    @raise Invalid_argument if [c <= 0], [n_providers <= 1],
           [n_providers > c], or the target is outside the attainable
           range [(1/n − 1/c, 1 − 1/c)]. *)

val split_buckets : n:int -> int array -> int array
(** [split_buckets ~n counts] restores a provider count lost to integer
    rounding: while fewer than [n] buckets remain, the smallest bucket
    [k >= 2] becomes the pair [(k-1, 1)].  Nonpositive entries are
    dropped; the result is nonincreasing with the same sum.  Linear in
    the number of buckets, the largest bucket and the splits. *)

val score_of_counts : int array -> float
(** 𝒮 of a counts vector (convenience re-export). *)
