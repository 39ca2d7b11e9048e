(* Shared-work batch maintenance helpers: the relevance pre-filter and the
   domain pool used by View_set.update. See batch.mli for the contracts. *)

type update_labels =
  | Labels of Delta.Shared.t
  | Text_only

let touches labels tag =
  match labels with
  | Labels sh ->
    if tag = "*" then Delta.Shared.has_elements sh
    else Delta.Shared.mem_label sh tag
  | Text_only -> tag = "#text"

(* A star node matches elements only, so a star view is relevant exactly
   when the update region holds an element: attribute-only deletes,
   text-only inserts, replace-value and target-less statements leave it
   untouched. *)
let relevant mv labels =
  let fp = mv.Mview.footprint in
  (fp.Mview.fp_star && touches labels "*")
  || Array.exists (touches labels) fp.Mview.fp_tags

(* Skip-safety (the argument is spelled out in DESIGN.md): with a disjoint
   footprint every Δ table of the view is empty, so every union term is
   pruned and no embedding is added or removed; no footprint-labeled node
   lies inside a deleted region, so no view entry or snowcap row is
   purged; a payload can only go stale on an ancestor-or-self of an
   insertion point or deleted root's parent, and no val/cont node of the
   view carries a label on those root paths; value-predicate flips are
   guarded separately by the caller's watches. *)
let can_skip mv labels affected =
  (not (relevant mv labels)) && Maint.payload_safe mv affected

(* Heavy-routing test for adaptive maintenance: the update's delta
   enters the view through a heavy label. Exact tags check the delta's
   label map against [heavy]; a star node routes heavy as soon as any
   heavy element label was touched (conservative: the star column would
   scan those entries). Replace-value updates route through the text
   partition only. *)
let routes_heavy ~heavy mv labels =
  match labels with
  | Text_only ->
    heavy "#text"
    && (mv.Mview.footprint.Mview.fp_star
       || Array.exists (( = ) "#text") mv.Mview.footprint.Mview.fp_tags)
  | Labels sh ->
    let fp = mv.Mview.footprint in
    (fp.Mview.fp_star && Delta.Shared.exists_label sh heavy)
    || Array.exists
         (fun tag -> heavy tag && Delta.Shared.mem_label sh tag)
         fp.Mview.fp_tags

(* {2 Reusable domain pool}

   [Domain.spawn] costs hundreds of microseconds — comparable to the
   whole propagation work of a small update batch — so spawning fresh
   domains on every [View_set.update ~jobs] dominated the parallel
   path's latency. Workers are instead spawned once, parked on a
   per-worker mutex/condition, and handed one stripe closure per call;
   completion is signalled through a result cell the caller awaits.
   Stripe assignment, Obs contribution merge order and first-exception
   selection are all by stripe index, exactly as with fresh domains, so
   pooling never changes observable behavior — only wall-clock. *)
module Pool = struct
  (* Beyond this many persistent workers, extra stripes fall back to a
     throwaway [Domain.spawn] (OCaml domains are a bounded resource). *)
  let max_workers = 15

  type worker = {
    mu : Mutex.t;
    cv : Condition.t;
    mutable job : (unit -> unit) option;
    mutable stop : bool;
    mutable busy : bool; (* guarded by [lock], not [mu] *)
  }

  let lock = Mutex.create ()
  let workers : (worker * unit Domain.t) list ref = ref []
  let exit_hook = ref false

  let worker_loop w =
    let running = ref true in
    while !running do
      Mutex.lock w.mu;
      while Option.is_none w.job && not w.stop do
        Condition.wait w.cv w.mu
      done;
      let j = w.job in
      w.job <- None;
      let stopping = w.stop in
      Mutex.unlock w.mu;
      match j with
      | Some job -> job ()
      | None -> if stopping then running := false
    done

  let submit w job =
    Mutex.lock w.mu;
    w.job <- Some job;
    Condition.signal w.cv;
    Mutex.unlock w.mu

  let stop_all () =
    let ws = !workers in
    List.iter
      (fun (w, _) ->
        Mutex.lock w.mu;
        w.stop <- true;
        Condition.signal w.cv;
        Mutex.unlock w.mu)
      ws;
    List.iter (fun (_, d) -> Domain.join d) ws;
    workers := []

  (* Lease [k] workers: idle pooled ones first, growing the pool up to
     [max_workers]; the returned count may fall short, in which case the
     caller covers the remaining stripes with throwaway domains. *)
  let lease k =
    Mutex.lock lock;
    if not !exit_hook then begin
      exit_hook := true;
      at_exit stop_all
    end;
    let leased = ref [] and got = ref 0 in
    List.iter
      (fun (w, _) ->
        if !got < k && not w.busy then begin
          w.busy <- true;
          leased := w :: !leased;
          incr got
        end)
      !workers;
    while !got < k && List.length !workers < max_workers do
      let w =
        {
          mu = Mutex.create ();
          cv = Condition.create ();
          job = None;
          stop = false;
          busy = true;
        }
      in
      let d = Domain.spawn (fun () -> worker_loop w) in
      workers := (w, d) :: !workers;
      leased := w :: !leased;
      incr got
    done;
    Mutex.unlock lock;
    List.rev !leased

  let release ws =
    Mutex.lock lock;
    List.iter (fun w -> w.busy <- false) ws;
    Mutex.unlock lock

  let size () =
    Mutex.lock lock;
    let n = List.length !workers in
    Mutex.unlock lock;
    n
end

(* A one-shot result slot: the worker fills it, the caller awaits it. *)
type 'a cell = {
  c_mu : Mutex.t;
  c_cv : Condition.t;
  mutable c_val : ('a, exn) result option;
}

let cell () = { c_mu = Mutex.create (); c_cv = Condition.create (); c_val = None }

let fill c v =
  Mutex.lock c.c_mu;
  c.c_val <- Some v;
  Condition.signal c.c_cv;
  Mutex.unlock c.c_mu

let await c =
  Mutex.lock c.c_mu;
  while Option.is_none c.c_val do
    Condition.wait c.c_cv c.c_mu
  done;
  let v = c.c_val in
  Mutex.unlock c.c_mu;
  match v with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let pool_size = Pool.size

(* Round-robin striping: task [i] runs on stripe [i mod jobs], stripe 0 on
   the calling (main) domain, stripes 1.. on pooled worker domains (plus
   throwaway domains past the pool cap). Results are reassembled by index
   and any task exception is re-raised (first in stripe order) after every
   stripe has been awaited, so [jobs] never changes observable behavior —
   only wall-clock. Worker domains hand their buffered Obs increments back
   to be merged on the main domain, in stripe order. *)
let parallel_map ~jobs tasks =
  let n = Array.length tasks in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.map (fun f -> f ()) tasks
  else begin
    let run_stripe k =
      let acc = ref [] and exn = ref None and i = ref k in
      while !i < n && !exn = None do
        (match tasks.(!i) () with
        | v -> acc := (!i, v) :: !acc
        | exception e -> exn := Some e);
        i := !i + jobs
      done;
      (!acc, !exn, Obs.Par.drain ())
    in
    let leased = Pool.lease (jobs - 1) in
    let pooled = List.length leased in
    let cells = Array.init (jobs - 1) (fun _ -> cell ()) in
    List.iteri
      (fun d w ->
        Pool.submit w (fun () ->
            fill cells.(d)
              (match run_stripe (d + 1) with
              | v -> Ok v
              | exception e -> Error e)))
      leased;
    (* Stripes past the pool capacity run on throwaway domains. *)
    let doms =
      Array.init
        (jobs - 1 - pooled)
        (fun d -> Domain.spawn (fun () -> run_stripe (pooled + d + 1)))
    in
    let acc0, exn0, _ = run_stripe 0 in
    let results = Array.make n None in
    List.iter (fun (i, v) -> results.(i) <- Some v) acc0;
    let first_exn = ref exn0 in
    let absorb (acc, exn, contrib) =
      Obs.Par.merge contrib;
      List.iter (fun (i, v) -> results.(i) <- Some v) acc;
      if !first_exn = None then first_exn := exn
    in
    for d = 0 to pooled - 1 do
      absorb (await cells.(d))
    done;
    Pool.release leased;
    Array.iter (fun d -> absorb (Domain.join d)) doms;
    (match !first_exn with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
