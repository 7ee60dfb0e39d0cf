(* Deterministic, seeded request keys for the serve load.

   The key space is every distinct (kind, epoch, layer, country, k)
   request the daemon answers without an error:

   - score:      every epoch x layer x country;
   - top_shares: every tally-backed (measured) epoch x layer x country x
                 k in 1..top_k_max (scores-only epochs cannot answer it);
   - ranking:    every epoch x layer x k in 1..(number of countries);
   - delta:      every layer x country x ordered pair of distinct epochs.

   Keys are addressed by a dense index, so a stream is a sequence of
   indices drawn from a seeded PRNG and the count of distinct keys a run
   sent is a bitmap popcount. *)

module P = Webdep_serve.Protocol
module D = Webdep.Dataset

let layers = [| D.Hosting; D.Dns; D.Ca; D.Tld |]
let n_layers = Array.length layers
let top_k_max = 50

type t = {
  warm : string array;  (* tally-backed epochs *)
  epochs : string array;  (* warm, then scores-only epochs *)
  countries : string array;
  n_score : int;
  n_top : int;
  n_rank : int;
  n_delta : int;
}

let space ~warm ~scored ~countries =
  let warm = Array.of_list warm in
  let epochs = Array.append warm (Array.of_list scored) in
  let countries = Array.of_list countries in
  let e = Array.length epochs and c = Array.length countries in
  {
    warm;
    epochs;
    countries;
    n_score = e * n_layers * c;
    n_top = Array.length warm * n_layers * c * top_k_max;
    n_rank = e * n_layers * c;
    n_delta = n_layers * c * e * (e - 1);
  }

let size t = t.n_score + t.n_top + t.n_rank + t.n_delta

type kind = Score | Top_shares | Ranking | Delta

let kinds = [ Score; Top_shares; Ranking; Delta ]

let kind_name = function
  | Score -> "score"
  | Top_shares -> "top_shares"
  | Ranking -> "ranking"
  | Delta -> "delta"

(* Index range [(first, count)] of one kind's keys. *)
let range t = function
  | Score -> (0, t.n_score)
  | Top_shares -> (t.n_score, t.n_top)
  | Ranking -> (t.n_score + t.n_top, t.n_rank)
  | Delta -> (t.n_score + t.n_top + t.n_rank, t.n_delta)

(* The [i]-th key, 0 <= i < size t. *)
let key t i =
  if i < 0 || i >= size t then invalid_arg "Keygen.key: index out of range";
  let c = Array.length t.countries in
  if i < t.n_score then
    let country = t.countries.(i mod c) and r = i / c in
    P.Score
      { epoch = t.epochs.(r / n_layers); layer = layers.(r mod n_layers); country }
  else
    let i = i - t.n_score in
    if i < t.n_top then
      let k = 1 + (i mod top_k_max) and r = i / top_k_max in
      let country = t.countries.(r mod c) and r = r / c in
      P.Top_shares
        { epoch = t.warm.(r / n_layers); layer = layers.(r mod n_layers); country; k }
    else
      let i = i - t.n_top in
      if i < t.n_rank then
        let k = 1 + (i mod c) and r = i / c in
        P.Ranking
          { epoch = t.epochs.(r / n_layers); layer = layers.(r mod n_layers); k }
      else
        let i = i - t.n_rank in
        let e = Array.length t.epochs in
        let pair = i mod (e * (e - 1)) and r = i / (e * (e - 1)) in
        let old_i = pair / (e - 1) and j = pair mod (e - 1) in
        let new_i = if j >= old_i then j + 1 else j in
        P.Delta
          {
            layer = layers.(r mod n_layers);
            country = t.countries.(r / n_layers);
            old_epoch = t.epochs.(old_i);
            new_epoch = t.epochs.(new_i);
          }

(* Position of [x] in [a]. *)
let find a x =
  let rec go i =
    if i = Array.length a then invalid_arg "Keygen.index: key outside the space"
    else if a.(i) = x then i
    else go (i + 1)
  in
  go 0

(* The index of a key: [index t (key t i) = i]. *)
let index t req =
  let c = Array.length t.countries and e = Array.length t.epochs in
  let l = find layers and cc = find t.countries and ep = find t.epochs in
  match req with
  | P.Score { epoch; layer; country } -> (((ep epoch * n_layers) + l layer) * c) + cc country
  | P.Top_shares { epoch; layer; country; k } ->
      t.n_score
      + (((((find t.warm epoch * n_layers) + l layer) * c) + cc country) * top_k_max)
      + (k - 1)
  | P.Ranking { epoch; layer; k } ->
      t.n_score + t.n_top + (((ep epoch * n_layers) + l layer) * c) + (k - 1)
  | P.Delta { layer; country; old_epoch; new_epoch } ->
      let o = ep old_epoch and n = ep new_epoch in
      t.n_score + t.n_top + t.n_rank
      + (((cc country * n_layers) + l layer) * e * (e - 1))
      + (o * (e - 1))
      + (if n > o then n - 1 else n)
  | _ -> invalid_arg "Keygen.index: not a keyed request"

(* How requests pick keys:

   - [Spread]: uniformly over the whole space;
   - [Serve_mix]: the request pattern of the reproduction bench's serve
     phase (bench/main.ml, serve_mix): request i is the (i mod 5)-th of
     score, top_shares k=10, ranking k=20, delta between the two
     measured epochs and ping, on country i mod c, layer i mod 4 and
     measured epoch i mod 2.  Pings carry no key and are left out, which
     leaves 184 distinct keys at 150 countries; the seed picks where in
     the pattern a stream starts. *)
type mix = Spread | Serve_mix

let mix_name = function Spread -> "spread" | Serve_mix -> "serve_mix"

let mix_of_string = function
  | "spread" -> Spread
  | "serve_mix" -> Serve_mix
  | s -> invalid_arg ("Keygen.mix_of_string: " ^ s)

let serve_mix_key t i =
  let country = t.countries.(i mod Array.length t.countries) in
  let layer = layers.(i mod n_layers) in
  let epoch = t.warm.(i mod 2) in
  match i mod 5 with
  | 0 -> Some (P.Score { epoch; layer; country })
  | 1 -> Some (P.Top_shares { epoch; layer; country; k = 10 })
  | 2 -> Some (P.Ranking { epoch; layer; k = 20 })
  | 3 -> Some (P.Delta { layer; country; old_epoch = t.warm.(0); new_epoch = t.warm.(1) })
  | _ -> None

(* An endless index stream; the same (space, seed, mix) always yields
   the same sequence. *)
let stream t ~seed mix =
  let rng = Random.State.make [| seed; 0x6b657973 |] in
  match mix with
  | Spread ->
      let n = size t in
      fun () -> Random.State.int rng n
  | Serve_mix ->
      let i = ref (Random.State.int rng 1_000_000) in
      let rec next () =
        let k = serve_mix_key t !i in
        incr i;
        match k with Some req -> index t req | None -> next ()
      in
      next

(* Distinct-key accounting over a run. *)
type seen = { bits : Bytes.t; mutable distinct : int }

let seen t = { bits = Bytes.make ((size t + 7) / 8) '\000'; distinct = 0 }

let mark s i =
  let byte = Char.code (Bytes.get s.bits (i lsr 3)) and bit = 1 lsl (i land 7) in
  if byte land bit = 0 then begin
    Bytes.set s.bits (i lsr 3) (Char.chr (byte lor bit));
    s.distinct <- s.distinct + 1
  end

let distinct s = s.distinct
