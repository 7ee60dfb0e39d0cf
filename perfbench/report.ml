(* Phase results: flat JSON objects written to the file run.py names
   with --out, plus the small statistics the phases share. *)

module J = Webdep_json

let write path fields =
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj fields));
  output_char oc '\n';
  close_out oc

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let s = sorted xs in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank quantile; nan when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else (sorted xs).(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let floats xs = J.List (Array.to_list (Array.map (fun v -> J.Float v) xs))

(* Peak resident set (VmHWM) of this process so far, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* [f ()] and its wall time in seconds. *)
let time f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t0)

(* The same, from a compacted heap, as a fresh process would start. *)
let time_compacted f =
  Gc.compact ();
  time f

(* One message of a long-running phase to run.py: a line on stdout
   starting with '@', so that anything else printed there is not taken
   for one. *)
let send fields =
  print_string ("@" ^ J.to_string (J.Obj fields) ^ "\n");
  flush stdout

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Command-line flags as --key value pairs. *)
let flags argv =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | k :: _ -> failwith ("unexpected argument " ^ k)
  in
  go argv;
  let get k =
    match Hashtbl.find_opt tbl k with Some v -> v | None -> failwith ("missing --" ^ k)
  in
  let get_opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  (get, get_opt)
