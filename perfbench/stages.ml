(* Stage replay of one country's site loop.

   [Measure.measure_snapshot] runs six stages per site, interleaved:
   resolve (A + NS with glue), AS-org lookup, geolocation, anycast
   check, TLS handshake with CCADB owner lookup, and language
   detection.  [replay] calls the same public functions of each layer
   on the same snapshot, site by site in the same order, and times each
   stage, so the site loop's cost splits into named rows.  Its
   per-site outputs must equal the fields [measure_snapshot] produced
   ([mismatch]); the time the six rows leave unexplained is the site
   loop's bookkeeping (counters, outcome accounting, record
   construction). *)

module World = Webdep_worldgen.World
module Internet = Webdep_netsim.Internet
module Resolver = Webdep_dnssim.Resolver
module Handshake = Webdep_tlssim.Handshake
module Ca = Webdep_tlssim.Ca
module D = Webdep.Dataset
module M = Webdep_obs.Metrics

let names = [| "resolve"; "asorg"; "geolocate"; "anycast"; "handshake"; "langdetect" |]

type row = { mutable s : float; mutable words : float }

type t = {
  rows : row array;  (* indexed like [names] *)
  mutable sites : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
}

let create () =
  {
    rows = Array.init (Array.length names) (fun _ -> { s = 0.0; words = 0.0 });
    sites = 0;
    cache_hits = 0;
    cache_lookups = 0;
  }

let total_s t = Array.fold_left (fun acc r -> acc +. r.s) 0.0 t.rows

(* The fields one replayed site contributes to its dataset record. *)
type site = {
  hosting : D.entity option;
  dns : D.entity option;
  hosting_geo : string option;
  ns_geo : string option;
  hosting_anycast : bool;
  ns_anycast : bool;
  ca : D.entity option;
  language : string option;
}

let cache_counters =
  List.map
    (fun n -> (M.counter (n ^ ".hits"), M.counter (n ^ ".misses")))
    [ "dns.cache.response"; "dns.cache.glue" ]

let cache_totals () =
  List.fold_left
    (fun (h, l) (hit, miss) -> (h + M.value hit, l + M.value hit + M.value miss))
    (0, 0) cache_counters

let org_entity (o : Webdep_netsim.Org.t) =
  { D.name = o.Webdep_netsim.Org.name; country = o.Webdep_netsim.Org.country }

let first = function x :: _ -> Some x | [] -> None

let replay t world (snap : World.snapshot) =
  let vantage = Webdep_pipeline.Measure.default_vantage in
  let internet = World.internet world and ca_db = World.ca_db world in
  let cache = Resolver.make_cache () in
  let h0, l0 = cache_totals () in
  let clock = ref 0.0 and words = ref 0.0 in
  let start () =
    clock := Clock.now ();
    words := Gc.minor_words ()
  in
  (* [v], with the time and minor words since the last lap charged to
     stage [i]. *)
  let lap i v =
    let now = Clock.now () and w = Gc.minor_words () in
    let row = t.rows.(i) in
    row.s <- row.s +. (now -. !clock);
    row.words <- row.words +. (w -. !words);
    clock := now;
    words := w;
    v
  in
  let lookup f ip = Option.bind ip (f internet) in
  let anycast = function Some a -> Internet.is_anycast_addr internet a | None -> false in
  (* One site, stage after stage in [measure_site]'s order, so each stage
     finds the caches as the site loop leaves them. *)
  let site domain =
    start ();
    let h, ns =
      lap 0
        (match Resolver.resolve ~cache snap.World.zones ~vantage domain with
        | Ok { Resolver.a; ns_addrs; _ } -> (first a, first ns_addrs)
        | Error _ -> (None, None))
    in
    let hosting = Option.map org_entity (lookup Internet.org_of_addr h) in
    let dns = lap 1 (Option.map org_entity (lookup Internet.org_of_addr ns)) in
    let hosting_geo = lookup Internet.geolocate h in
    let ns_geo = lap 2 (lookup Internet.geolocate ns) in
    let hosting_anycast = anycast h in
    let ns_anycast = lap 3 (anycast ns) in
    let ca =
      lap 4
        (match h with
        | None -> None
        | Some addr ->
            Option.bind (Handshake.handshake snap.World.tls ~addr ~sni:domain) (fun cert ->
                Option.map
                  (fun (o : Ca.owner) -> { D.name = o.Ca.name; country = o.Ca.country })
                  (Ca.owner_of_issuer ca_db cert.Webdep_tlssim.Cert.issuer_cn)))
    in
    let language =
      lap 5
        (match h with
        | None -> None
        | Some _ ->
            Option.map
              (fun truth -> Webdep_pipeline.Langdetect.detect ~domain truth)
              (Hashtbl.find_opt snap.World.content_language domain))
    in
    { hosting; dns; hosting_geo; ns_geo; hosting_anycast; ns_anycast; ca; language }
  in
  let sites = Array.map site (Array.of_list (Webdep_crux.Toplist.domains snap.World.toplist)) in
  let h1, l1 = cache_totals () in
  t.cache_hits <- t.cache_hits + (h1 - h0);
  t.cache_lookups <- t.cache_lookups + (l1 - l0);
  t.sites <- t.sites + Array.length sites;
  sites

(* The first site whose replayed fields differ from the measured record,
   or a length mismatch; [None] when the replay reproduces the loop. *)
let mismatch (measured : D.country_data) replayed =
  let sites = Array.of_list measured.D.sites in
  if Array.length sites <> Array.length replayed then
    Some
      (Printf.sprintf "%s: %d measured sites, %d replayed" measured.D.country
         (Array.length sites) (Array.length replayed))
  else
    let bad = ref None in
    Array.iteri
      (fun i (s : D.site) ->
        let r = replayed.(i) in
        if
          !bad = None
          && not
               (s.D.hosting = r.hosting && s.D.dns = r.dns
              && s.D.hosting_geo = r.hosting_geo && s.D.ns_geo = r.ns_geo
              && s.D.hosting_anycast = r.hosting_anycast
              && s.D.ns_anycast = r.ns_anycast && s.D.ca = r.ca
              && s.D.language = r.language)
        then bad := Some (Printf.sprintf "%s: site %s differs" measured.D.country s.D.domain))
      sites;
    !bad
