(* Wire protocol of the dependence-query daemon.

   Frames are 4-byte big-endian length prefixes followed by a binary
   payload; requests and responses are tagged records with fixed-width
   integers, 64-bit IEEE-754 big-endian floats and u16-length-prefixed
   strings, so [encode ∘ decode = id] holds byte-for-byte and a
   truncated buffer is always rejected instead of misparsed.  A JSON
   debug representation (one [Webdep_json] object per message, used by
   the daemon's JSON-lines mode) mirrors the same shapes for poking the
   server with a line-oriented client. *)

module D = Webdep.Dataset
module World = Webdep_worldgen.World
module Json = Webdep_json

(* The payload primitives — fixed-width big-endian fields, u16-prefixed
   strings, the bounds-checked cursor — are the durable files' [Codec];
   its [Malformed] is this module's [Protocol_error]. *)
open Webdep_faults.Codec

exception Protocol_error = Malformed

(* --- message types ------------------------------------------------------ *)

(* Epochs travel as names (u16-length-prefixed strings), not enum codes:
   the serving plane is no longer limited to the two measured worlds —
   a churn-log replay registers one epoch per committed log entry. *)
type request =
  | Ping
  | Score of { epoch : string; layer : D.layer; country : string }
  | Top_shares of { epoch : string; layer : D.layer; country : string; k : int }
  | Ranking of { epoch : string; layer : D.layer; k : int }
  | Delta of {
      layer : D.layer;
      country : string;
      old_epoch : string;
      new_epoch : string;
    }
  | Shutdown
  | Epochs

type share = { provider : string; home : string; share : float }

type response =
  | Pong
  | Scores of { s : float; hhi : float; insularity : float }
  | Shares of share list
  | Ranks of (string * float) list
  | Deltas of {
      old_epoch : string;
      new_epoch : string;
      old_s : float;
      new_s : float;
      delta : float;
    }
  | Overloaded
  | Bye
  | Draining
  | Epoch_list of string list
  | Error of string

(* --- enum codes --------------------------------------------------------- *)

let layer_code = function D.Hosting -> 0 | D.Dns -> 1 | D.Ca -> 2 | D.Tld -> 3

let layer_of_code = function
  | 0 -> D.Hosting
  | 1 -> D.Dns
  | 2 -> D.Ca
  | 3 -> D.Tld
  | c -> fail "bad layer code %d" c

let layer_name = function
  | D.Hosting -> "hosting"
  | D.Dns -> "dns"
  | D.Ca -> "ca"
  | D.Tld -> "tld"

let layer_of_name s =
  match String.lowercase_ascii s with
  | "hosting" -> Some D.Hosting
  | "dns" -> Some D.Dns
  | "ca" -> Some D.Ca
  | "tld" -> Some D.Tld
  | _ -> None

let epoch_of_name = function
  | "2023" | "2023-05" -> Some World.May_2023
  | "2025" | "2025-05" -> Some World.May_2025
  | _ -> None

(* Short forms of the two measured worlds normalize to their canonical
   names; anything else (a churn-log epoch like "e7") passes through
   verbatim and is resolved — or rejected with the loaded-epoch list —
   by the server. *)
let canonical_epoch name =
  match epoch_of_name name with
  | Some e -> World.epoch_name e
  | None -> name

(* --- binary encoding ---------------------------------------------------- *)

let encode_request req =
  let b = Buffer.create 32 in
  (match req with
  | Ping -> put_u8 b 0
  | Score { epoch; layer; country } ->
      put_u8 b 1;
      put_str b epoch;
      put_u8 b (layer_code layer);
      put_str b country
  | Top_shares { epoch; layer; country; k } ->
      put_u8 b 2;
      put_str b epoch;
      put_u8 b (layer_code layer);
      put_str b country;
      put_u16 b k
  | Ranking { epoch; layer; k } ->
      put_u8 b 3;
      put_str b epoch;
      put_u8 b (layer_code layer);
      put_u16 b k
  | Delta { layer; country; old_epoch; new_epoch } ->
      put_u8 b 4;
      put_u8 b (layer_code layer);
      put_str b country;
      put_str b old_epoch;
      put_str b new_epoch
  | Shutdown -> put_u8 b 5
  | Epochs -> put_u8 b 6);
  Buffer.contents b

let decode_request_exn payload =
  let cur = { data = payload; off = 0 } in
  let req =
    match get_u8 cur with
    | 0 -> Ping
    | 1 ->
        let epoch = get_str cur in
        let layer = layer_of_code (get_u8 cur) in
        let country = get_str cur in
        Score { epoch; layer; country }
    | 2 ->
        let epoch = get_str cur in
        let layer = layer_of_code (get_u8 cur) in
        let country = get_str cur in
        let k = get_u16 cur in
        Top_shares { epoch; layer; country; k }
    | 3 ->
        let epoch = get_str cur in
        let layer = layer_of_code (get_u8 cur) in
        let k = get_u16 cur in
        Ranking { epoch; layer; k }
    | 4 ->
        let layer = layer_of_code (get_u8 cur) in
        let country = get_str cur in
        let old_epoch = get_str cur in
        let new_epoch = get_str cur in
        Delta { layer; country; old_epoch; new_epoch }
    | 5 -> Shutdown
    | 6 -> Epochs
    | t -> fail "bad request tag %d" t
  in
  if cur.off <> String.length payload then fail "trailing bytes after request";
  req

let decode_request payload =
  match decode_request_exn payload with
  | req -> Ok req
  | exception Protocol_error msg -> Result.Error msg

let encode_response resp =
  let b = Buffer.create 64 in
  (match resp with
  | Pong -> put_u8 b 0
  | Scores { s; hhi; insularity } ->
      put_u8 b 1;
      put_f64 b s;
      put_f64 b hhi;
      put_f64 b insularity
  | Shares shares ->
      put_u8 b 2;
      put_u16 b (List.length shares);
      List.iter
        (fun { provider; home; share } ->
          put_str b provider;
          put_str b home;
          put_f64 b share)
        shares
  | Ranks ranks ->
      put_u8 b 3;
      put_u16 b (List.length ranks);
      List.iter
        (fun (cc, s) ->
          put_str b cc;
          put_f64 b s)
        ranks
  | Deltas { old_epoch; new_epoch; old_s; new_s; delta } ->
      put_u8 b 4;
      put_str b old_epoch;
      put_str b new_epoch;
      put_f64 b old_s;
      put_f64 b new_s;
      put_f64 b delta
  | Overloaded -> put_u8 b 5
  | Bye -> put_u8 b 6
  | Error msg ->
      put_u8 b 7;
      put_str b msg
  | Draining -> put_u8 b 8
  | Epoch_list epochs ->
      put_u8 b 9;
      put_u16 b (List.length epochs);
      List.iter (fun e -> put_str b e) epochs);
  Buffer.contents b

let decode_response_exn payload =
  let cur = { data = payload; off = 0 } in
  let resp =
    match get_u8 cur with
    | 0 -> Pong
    | 1 ->
        let s = get_f64 cur in
        let hhi = get_f64 cur in
        let insularity = get_f64 cur in
        Scores { s; hhi; insularity }
    | 2 ->
        let n = get_u16 cur in
        let shares =
          List.init n (fun _ ->
              let provider = get_str cur in
              let home = get_str cur in
              let share = get_f64 cur in
              { provider; home; share })
        in
        Shares shares
    | 3 ->
        let n = get_u16 cur in
        let ranks =
          List.init n (fun _ ->
              let cc = get_str cur in
              let s = get_f64 cur in
              (cc, s))
        in
        Ranks ranks
    | 4 ->
        let old_epoch = get_str cur in
        let new_epoch = get_str cur in
        let old_s = get_f64 cur in
        let new_s = get_f64 cur in
        let delta = get_f64 cur in
        Deltas { old_epoch; new_epoch; old_s; new_s; delta }
    | 5 -> Overloaded
    | 6 -> Bye
    | 7 -> Error (get_str cur)
    | 8 -> Draining
    | 9 ->
        let n = get_u16 cur in
        Epoch_list (List.init n (fun _ -> get_str cur))
    | t -> fail "bad response tag %d" t
  in
  if cur.off <> String.length payload then fail "trailing bytes after response";
  resp

let decode_response payload =
  match decode_response_exn payload with
  | resp -> Ok resp
  | exception Protocol_error msg -> Result.Error msg

(* --- framing ------------------------------------------------------------ *)

let max_payload = 1 lsl 24

let frame payload =
  let n = String.length payload in
  if n = 0 || n > max_payload then fail "bad frame length %d" n;
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

(* Split every complete frame out of [buf.[0..len)].  Returns the
   payloads in arrival order and the bytes consumed; a trailing partial
   frame stays unconsumed until more data arrives.
   @raise Protocol_error on a corrupt length prefix — the stream has no
   resynchronization point, so the connection must be dropped. *)
let parse_frames buf len =
  let rec go off acc =
    if len - off < 4 then (List.rev acc, off)
    else
      let n = Int32.to_int (Bytes.get_int32_be buf off) in
      if n <= 0 || n > max_payload then fail "bad frame length %d" n
      else if len - off < 4 + n then (List.rev acc, off)
      else go (off + 4 + n) (Bytes.sub_string buf (off + 4) n :: acc)
  in
  go 0 []

(* --- JSON debug representation ------------------------------------------ *)

let request_to_json req =
  let open Json in
  match req with
  | Ping -> Obj [ ("kind", String "ping") ]
  | Score { epoch; layer; country } ->
      Obj
        [ ("kind", String "score");
          ("epoch", String epoch);
          ("layer", String (layer_name layer));
          ("country", String country) ]
  | Top_shares { epoch; layer; country; k } ->
      Obj
        [ ("kind", String "topk");
          ("epoch", String epoch);
          ("layer", String (layer_name layer));
          ("country", String country);
          ("k", Int k) ]
  | Ranking { epoch; layer; k } ->
      Obj
        [ ("kind", String "ranking");
          ("epoch", String epoch);
          ("layer", String (layer_name layer));
          ("k", Int k) ]
  | Delta { layer; country; old_epoch; new_epoch } ->
      Obj
        [ ("kind", String "delta");
          ("layer", String (layer_name layer));
          ("country", String country);
          ("old_epoch", String old_epoch);
          ("new_epoch", String new_epoch) ]
  | Shutdown -> Obj [ ("kind", String "shutdown") ]
  | Epochs -> Obj [ ("kind", String "epochs") ]

let json_str j key =
  match Json.member key j with
  | Some (Json.String s) -> s
  | _ -> fail "missing string field %S" key

let json_int j key =
  match Json.member key j with
  | Some (Json.Int i) -> i
  | _ -> fail "missing int field %S" key

let json_float j key =
  match Json.member key j with
  | Some (Json.Float v) -> v
  | Some (Json.Int i) -> float_of_int i
  | _ -> fail "missing float field %S" key

let json_epoch j = canonical_epoch (json_str j "epoch")

let json_layer j =
  let s = json_str j "layer" in
  match layer_of_name s with Some l -> l | None -> fail "bad layer %S" s

let request_of_json j =
  match json_str j "kind" with
  | "ping" -> Ping
  | "score" ->
      Score { epoch = json_epoch j; layer = json_layer j; country = json_str j "country" }
  | "topk" ->
      Top_shares
        { epoch = json_epoch j;
          layer = json_layer j;
          country = json_str j "country";
          k = json_int j "k" }
  | "ranking" -> Ranking { epoch = json_epoch j; layer = json_layer j; k = json_int j "k" }
  | "delta" ->
      (* Epoch-range form; the range defaults to the paper's 2023→2025
         pair when the fields are absent. *)
      let epoch_field key default =
        match Json.member key j with
        | Some (Json.String s) -> canonical_epoch s
        | _ -> default
      in
      Delta
        {
          layer = json_layer j;
          country = json_str j "country";
          old_epoch = epoch_field "old_epoch" (World.epoch_name World.May_2023);
          new_epoch = epoch_field "new_epoch" (World.epoch_name World.May_2025);
        }
  | "shutdown" -> Shutdown
  | "epochs" -> Epochs
  | kind -> fail "bad request kind %S" kind

let request_of_json_string line =
  match Json.parse line with
  | j -> ( match request_of_json j with req -> Ok req | exception Protocol_error msg -> Result.Error msg)
  | exception Json.Parse_error msg -> Result.Error msg

let response_to_json resp =
  let open Json in
  match resp with
  | Pong -> Obj [ ("kind", String "pong") ]
  | Scores { s; hhi; insularity } ->
      Obj
        [ ("kind", String "scores");
          ("s", Float s);
          ("hhi", Float hhi);
          ("insularity", Float insularity) ]
  | Shares shares ->
      Obj
        [ ("kind", String "shares");
          ( "shares",
            List
              (List.map
                 (fun { provider; home; share } ->
                   Obj
                     [ ("provider", String provider);
                       ("home", String home);
                       ("share", Float share) ])
                 shares) ) ]
  | Ranks ranks ->
      Obj
        [ ("kind", String "ranking");
          ( "ranks",
            List
              (List.map
                 (fun (cc, s) -> Obj [ ("country", String cc); ("s", Float s) ])
                 ranks) ) ]
  | Deltas { old_epoch; new_epoch; old_s; new_s; delta } ->
      Obj
        [ ("kind", String "delta");
          ("old_epoch", String old_epoch);
          ("new_epoch", String new_epoch);
          ("old", Float old_s);
          ("new", Float new_s);
          ("delta", Float delta) ]
  | Overloaded -> Obj [ ("kind", String "overloaded") ]
  | Bye -> Obj [ ("kind", String "bye") ]
  | Draining -> Obj [ ("kind", String "draining") ]
  | Epoch_list epochs ->
      Obj
        [ ("kind", String "epochs");
          ("epochs", List (List.map (fun e -> String e) epochs)) ]
  | Error msg -> Obj [ ("kind", String "error"); ("message", String msg) ]

let response_of_json j =
  match json_str j "kind" with
  | "pong" -> Pong
  | "scores" ->
      Scores
        { s = json_float j "s";
          hhi = json_float j "hhi";
          insularity = json_float j "insularity" }
  | "shares" ->
      let items =
        match Json.member "shares" j with
        | Some (Json.List l) -> l
        | _ -> fail "missing shares list"
      in
      Shares
        (List.map
           (fun item ->
             { provider = json_str item "provider";
               home = json_str item "home";
               share = json_float item "share" })
           items)
  | "ranking" ->
      let items =
        match Json.member "ranks" j with
        | Some (Json.List l) -> l
        | _ -> fail "missing ranks list"
      in
      Ranks (List.map (fun item -> (json_str item "country", json_float item "s")) items)
  | "delta" ->
      Deltas
        {
          old_epoch = json_str j "old_epoch";
          new_epoch = json_str j "new_epoch";
          old_s = json_float j "old";
          new_s = json_float j "new";
          delta = json_float j "delta";
        }
  | "overloaded" -> Overloaded
  | "bye" -> Bye
  | "draining" -> Draining
  | "epochs" ->
      let items =
        match Json.member "epochs" j with
        | Some (Json.List l) -> l
        | _ -> fail "missing epochs list"
      in
      Epoch_list
        (List.map
           (function Json.String s -> s | _ -> fail "epoch list entry not a string")
           items)
  | "error" -> Error (json_str j "message")
  | kind -> fail "bad response kind %S" kind

(* --- query-language front end ------------------------------------------- *)

(* The positional syntax shared by [webdep query] (one-shot and
   [--connect] client): layer and country are words, k is a count, and
   delta optionally names an epoch range (defaulting to the paper's
   2023→2025 pair). *)
let parse_query ~epoch words =
  let epoch = canonical_epoch epoch in
  let layer s =
    match layer_of_name s with
    | Some l -> Ok l
    | None -> Result.Error (Printf.sprintf "unknown layer %S (hosting|dns|ca|tld)" s)
  in
  let int_arg what s =
    match int_of_string_opt s with
    | Some k when k >= 1 && k <= 0xffff -> Ok k
    | _ -> Result.Error (Printf.sprintf "bad %s %S (want 1..65535)" what s)
  in
  let ( let* ) = Result.bind in
  match words with
  | [ "ping" ] -> Ok Ping
  | [ "shutdown" ] -> Ok Shutdown
  | [ "epochs" ] -> Ok Epochs
  | [ "score"; l; cc ] ->
      let* layer = layer l in
      Ok (Score { epoch; layer; country = String.uppercase_ascii cc })
  | [ "topk"; l; cc; k ] ->
      let* layer = layer l in
      let* k = int_arg "k" k in
      Ok (Top_shares { epoch; layer; country = String.uppercase_ascii cc; k })
  | [ "ranking"; l; k ] ->
      let* layer = layer l in
      let* k = int_arg "k" k in
      Ok (Ranking { epoch; layer; k })
  | [ "delta"; l; cc ] ->
      let* layer = layer l in
      Ok
        (Delta
           {
             layer;
             country = String.uppercase_ascii cc;
             old_epoch = World.epoch_name World.May_2023;
             new_epoch = World.epoch_name World.May_2025;
           })
  | [ "delta"; l; cc; old_e; new_e ] ->
      let* layer = layer l in
      Ok
        (Delta
           {
             layer;
             country = String.uppercase_ascii cc;
             old_epoch = canonical_epoch old_e;
             new_epoch = canonical_epoch new_e;
           })
  | _ ->
      Result.Error
        "usage: ping | epochs | score LAYER CC | topk LAYER CC K | \
         ranking LAYER K | delta LAYER CC [OLD_EPOCH NEW_EPOCH] | shutdown"

(* Human rendering shared by the one-shot CLI and the [--connect]
   client, so daemon answers are byte-identical to local ones. *)
let render resp =
  let b = Buffer.create 256 in
  (match resp with
  | Pong -> Buffer.add_string b "pong\n"
  | Scores { s; hhi; insularity } ->
      Buffer.add_string b
        (Printf.sprintf "S = %.6f, HHI = %.6f, insularity = %.1f%%\n" s hhi
           (100.0 *. insularity))
  | Shares shares ->
      List.iteri
        (fun i { provider; home; share } ->
          Buffer.add_string b
            (Printf.sprintf "%-3d %-28s [%s] %6.2f%%\n" (i + 1) provider home
               (100.0 *. share)))
        shares
  | Ranks ranks ->
      List.iteri
        (fun i (cc, s) ->
          Buffer.add_string b (Printf.sprintf "%-3d %-4s %10.4f\n" (i + 1) cc s))
        ranks
  | Deltas { old_epoch; new_epoch; old_s; new_s; delta } ->
      Buffer.add_string b
        (Printf.sprintf "%s %.6f -> %s %.6f, delta %+.6f\n" old_epoch old_s
           new_epoch new_s delta)
  | Overloaded -> Buffer.add_string b "overloaded\n"
  | Bye -> Buffer.add_string b "bye\n"
  | Draining -> Buffer.add_string b "draining\n"
  | Epoch_list epochs ->
      List.iter (fun e -> Buffer.add_string b (e ^ "\n")) epochs
  | Error msg -> Buffer.add_string b (Printf.sprintf "error: %s\n" msg));
  Buffer.contents b
