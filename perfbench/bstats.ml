(* Sample statistics, metric records, correctness accounting and the
   host reference loop shared by every workload. *)

let now = Obs.now

(* Growable float sample buffer (no per-sample list cells on hot paths). *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let count s = s.n
  let sum s = Array.fold_left ( +. ) 0. (Array.sub s.a 0 s.n)
  let mean s = if s.n = 0 then 0. else sum s /. float_of_int s.n
end

(* Percentiles and medians are formed in run.py only; the driver
   reports raw samples, and means where a traced run needs one figure. *)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* {1 Metrics} printed by name with a unit, in insertion order. *)

type metrics = { mutable rows : (string * float * string) list }

let metrics () = { rows = [] }
let put m name unit v = m.rows <- (name, v, unit) :: m.rows
let rows m = List.rev m.rows

(* {1 Correctness accounting}: every checked operation is attempted;
   a failed check or an exception is a failure. *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_errors : string list;
}

let checks () = { attempted = 0; failed = 0; first_errors = [] }

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.first_errors < 5 then c.first_errors <- msg :: c.first_errors

let attempt c n = c.attempted <- c.attempted + n
let check c ok msg = if not ok then fail c (Lazy.force msg)

(* {1 Host reference}: a fixed allocation-and-arithmetic loop timed
   beside each run. It is recorded, never used to rescale a metric: it
   tells host drift apart from a regression. *)
let host_ref_ms () =
  let t0 = now () in
  let acc = ref 0. in
  for i = 1 to 400_000 do
    let a = Array.make 8 (float_of_int i) in
    for j = 1 to 7 do
      a.(j) <- (a.(j - 1) *. 1.0000001) +. float_of_int j
    done;
    acc := !acc +. a.(7)
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1e3

(* {1 Output}: one JSON line, the last of standard output. A traced
   run carries its per-layer [metrics]; an untraced run carries raw
   [samples] and run.py pools the runs of one invocation into the
   end-to-end metrics. *)

let json_num v = Printf.sprintf "%.17g" v
let json_list xs = "[" ^ String.concat ", " (List.map json_num xs) ^ "]"
let json_samples s = json_list (Array.to_list (Array.sub s.Samples.a 0 s.Samples.n))

let print_result c body =
  List.iter (Printf.printf "  check failed: %s\n") (List.rev c.first_errors);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, %s}\n%!"
    (c.failed = 0) (max 1 c.attempted) c.failed body

let metrics_json m =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %16.6f %s\n" name v unit)
    (rows m);
  "\"metrics\": {"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         (rows m))
  ^ "}"

let samples_json fields =
  "\"samples\": {"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"
