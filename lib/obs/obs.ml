(* Process-wide metrics registry.  See obs.mli for the contract.

   Design constraints:
   - the disabled path must be a single bool load per increment site
     (no allocation, no hashing, no clock read);
   - cells are created once at module-init time and then mutated in
     place, so hot loops touch only record fields. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* Monotonic clock (CLOCK_MONOTONIC via the C stub): seconds since an
   arbitrary fixed origin, immune to wall-clock steps.  A backwards step
   of the old gettimeofday source could flatten spans to zero, which
   would silently corrupt latency percentiles.  The non-decreasing
   contract is still enforced by a CAS-max clamp — it makes [now] safe
   against any residual source anomaly and keeps reads from concurrent
   domains totally ordered. *)
external monotonic_ns : unit -> int64 = "xvm_obs_monotonic_ns"

let last = Atomic.make 0.

let now () =
  let t = Int64.to_float (monotonic_ns ()) *. 1e-9 in
  let rec clamp () =
    let prev = Atomic.get last in
    if t <= prev then prev
    else if Atomic.compare_and_set last prev t then t
    else clamp ()
  in
  clamp ()

let duration f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type counter = { c_key : string; mutable count : int }
type timer = { t_key : string; mutable secs : float; mutable nspans : int }

(* Cells are plain mutable records owned by the main domain; an
   increment on any other domain would race, so it is dropped.  The
   disabled path is still a single bool load; the enabled path adds only
   [Domain.is_main_domain]. *)
module Counter = struct
  type t = counter

  let incr c =
    if !on && Domain.is_main_domain () then c.count <- c.count + 1

  let add c n =
    if !on && Domain.is_main_domain () then c.count <- c.count + n

  let value c = c.count
  let key c = c.c_key
end

module Timer = struct
  type t = timer

  let add_span tm s =
    if !on && Domain.is_main_domain () then begin
      tm.secs <- tm.secs +. s;
      tm.nspans <- tm.nspans + 1
    end

  let time tm f =
    if !on then begin
      let r, s = duration f in
      add_span tm s;
      r
    end
    else f ()

  let seconds tm = tm.secs
  let spans tm = tm.nspans
  let key tm = tm.t_key
end

(* Registry: scope name -> cells, in registration order per scope. *)
type cell = C of counter | T of timer

let registry : (string, cell list ref) Hashtbl.t = Hashtbl.create 32

module Scope = struct
  type t = string

  let v name =
    if not (Hashtbl.mem registry name) then Hashtbl.add registry name (ref []);
    name

  let name s = s

  let cells s =
    match Hashtbl.find_opt registry s with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add registry s l;
      l

  let counter s metric =
    let key = s ^ "." ^ metric in
    let l = cells s in
    let rec find = function
      | C c :: _ when c.c_key = key -> Some c
      | _ :: rest -> find rest
      | [] -> None
    in
    match find !l with
    | Some c -> c
    | None ->
      let c = { c_key = key; count = 0 } in
      l := !l @ [ C c ];
      c

  let timer s metric =
    let key = s ^ "." ^ metric in
    let l = cells s in
    let rec find = function
      | T t :: _ when t.t_key = key -> Some t
      | _ :: rest -> find rest
      | [] -> None
    in
    match find !l with
    | Some t -> t
    | None ->
      let t = { t_key = key; secs = 0.; nspans = 0 } in
      l := !l @ [ T t ];
      t
end

let scopes () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let iter_cells f =
  List.iter (fun s -> List.iter f !(Scope.cells s)) (scopes ())

(* Snapshots *)

type snapshot = {
  snap_counters : (string * int) list; (* sorted by key *)
  snap_timers : (string * float * int) list; (* sorted by key *)
}

let snapshot () =
  let cs = ref [] and ts = ref [] in
  iter_cells (function
    | C c -> cs := (c.c_key, c.count) :: !cs
    | T t -> ts := (t.t_key, t.secs, t.nspans) :: !ts);
  {
    snap_counters = List.sort compare !cs;
    snap_timers = List.sort compare !ts;
  }

(* [b] was taken after [a]; cells only ever get added, so walk [b] and
   subtract [a]'s value when the key existed before. *)
let diff a b =
  let base_c = Hashtbl.create 64 and base_t = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace base_c k v) a.snap_counters;
  List.iter (fun (k, s, n) -> Hashtbl.replace base_t k (s, n)) a.snap_timers;
  {
    snap_counters =
      List.map
        (fun (k, v) ->
          match Hashtbl.find_opt base_c k with
          | Some v0 -> (k, v - v0)
          | None -> (k, v))
        b.snap_counters;
    snap_timers =
      List.map
        (fun (k, s, n) ->
          match Hashtbl.find_opt base_t k with
          | Some (s0, n0) -> (k, s -. s0, n - n0)
          | None -> (k, s, n))
        b.snap_timers;
  }

let with_scope ?(enable = true) f =
  let prev = !on in
  let before = snapshot () in
  on := (if enable then true else prev);
  let restore () = on := prev in
  let r =
    try f ()
    with e ->
      restore ();
      raise e
  in
  restore ();
  (r, diff before (snapshot ()))

let timers s = s.snap_timers

let counter_value s key =
  match List.assoc_opt key s.snap_counters with Some v -> v | None -> 0

let timer_find s key =
  List.find_opt (fun (k, _, _) -> k = key) s.snap_timers

let timer_seconds s key =
  match timer_find s key with Some (_, secs, _) -> secs | None -> 0.

let timer_spans s key =
  match timer_find s key with Some (_, _, n) -> n | None -> 0

let nonzero_counters s = List.filter (fun (_, v) -> v <> 0) s.snap_counters

(* Export *)

let strip_scope scope key =
  let p = scope ^ "." in
  let lp = String.length p in
  if String.length key > lp && String.sub key 0 lp = p then
    String.sub key lp (String.length key - lp)
  else key

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let to_json ?snapshot:snap () =
  let s = match snap with Some s -> s | None -> snapshot () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"version\":1,\"enabled\":%b,\"scopes\":{" !on);
  let first_scope = ref true in
  List.iter
    (fun scope ->
      if not !first_scope then Buffer.add_char buf ',';
      first_scope := false;
      Buffer.add_string buf (Printf.sprintf "\"%s\":{" (json_escape scope));
      let prefix = scope ^ "." in
      let mine key =
        String.length key > String.length prefix
        && String.sub key 0 (String.length prefix) = prefix
      in
      let cs = List.filter (fun (k, _) -> mine k) s.snap_counters in
      let ts = List.filter (fun (k, _, _) -> mine k) s.snap_timers in
      Buffer.add_string buf "\"counters\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%d" (json_escape (strip_scope scope k)) v))
        cs;
      Buffer.add_string buf "},\"timers\":{";
      List.iteri
        (fun i (k, secs, n) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":{\"seconds\":%s,\"spans\":%d}"
               (json_escape (strip_scope scope k))
               (json_float secs) n))
        ts;
      Buffer.add_string buf "}}")
    (scopes ());
  Buffer.add_string buf "}}";
  Buffer.contents buf

let dump_kv ?snapshot:snap () =
  let s = match snap with Some s -> s | None -> snapshot () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d\n" k v))
    s.snap_counters;
  List.iter
    (fun (k, secs, n) ->
      Buffer.add_string buf (Printf.sprintf "%s_s=%.6f\n%s_spans=%d\n" k secs k n))
    s.snap_timers;
  Buffer.contents buf

let kv_line s =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (nonzero_counters s))

(* Prometheus text exposition format (0.0.4). Every registry cell
   becomes its own metric family: counters as [xvm_<key>_total], timers
   as the [_seconds_total] / [_spans_total] pair. Cell keys are dotted
   ("dewey.arena.interned"); metric names allow [A-Za-z0-9_:] only, so
   every other character maps to '_'. *)
let prometheus_name key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    key

let to_prometheus ?snapshot:snap () =
  let s = match snap with Some s -> s | None -> snapshot () in
  let buf = Buffer.create 2048 in
  let emit name value =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (k, v) ->
      emit ("xvm_" ^ prometheus_name k ^ "_total") (string_of_int v))
    s.snap_counters;
  List.iter
    (fun (k, secs, n) ->
      let base = "xvm_" ^ prometheus_name k in
      emit (base ^ "_seconds_total") (Printf.sprintf "%.9f" secs);
      emit (base ^ "_spans_total") (string_of_int n))
    s.snap_timers;
  Buffer.contents buf

(* Shared helpers for bench/tests *)

module Stats = struct
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.
    else if n mod 2 = 1 then a.(n / 2)
    else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

  let time_median ?(repeats = 9) ?(iters = 40) f =
    for _ = 1 to 2 do
      ignore (Sys.opaque_identity (f ()))
    done;
    median
      (List.init repeats (fun _ ->
           let t0 = now () in
           for _ = 1 to iters do
             ignore (Sys.opaque_identity (f ()))
           done;
           (now () -. t0) /. float_of_int iters))
end

module Fmt = struct
  let phase_header ?(label_width = 8) label cols =
    Printf.printf "  %-*s" label_width label;
    List.iter (fun c -> Printf.printf " %9s" c) cols;
    Printf.printf " %10s\n" "total(ms)"

  let phase_row ?(label_width = 8) label secs =
    Printf.printf "  %-*s" label_width label;
    List.iter (fun s -> Printf.printf " %9.2f" (s *. 1000.)) secs;
    Printf.printf " %10.2f\n%!" (1000. *. List.fold_left ( +. ) 0. secs)
end
