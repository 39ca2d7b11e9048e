(* The serving loop: a mutex/condition admission queue drained on the
   main domain, with snapshot publication through Atomics. See the mli
   for the domain discipline. *)

let scope = Obs.Scope.v "serve"
let c_applied = Obs.Scope.counter scope "applied"
let c_batches = Obs.Scope.counter scope "batches"
let c_epochs = Obs.Scope.counter scope "epochs"
let t_batch = Obs.Scope.timer scope "batch"

type publication = {
  p_epoch : int;
  p_applied : int;
  p_durable_seq : int;
  p_time : float;
}

type t = {
  set : View_set.t;
  max_batch : int;
  durable : Durable.t option;
  checkpoint_requested : bool Atomic.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : Update.t Queue.t;
  mutable stopping : bool;  (* under [mutex] *)
  published : Snapshot.t Atomic.t;
  published_metrics : Obs.snapshot Atomic.t;
  (* Main-domain-only bookkeeping. *)
  mutable applied : int;
  mutable batch_count : int;
  mutable log : publication list;  (* newest first *)
}

let create ?(max_batch = 64) ?durable set =
  {
    set;
    max_batch = max 1 max_batch;
    durable;
    checkpoint_requested = Atomic.make false;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    stopping = false;
    published = Atomic.make (Snapshot.initial set);
    published_metrics = Atomic.make (Obs.snapshot ());
    applied = 0;
    batch_count = 0;
    log = [];
  }

let submit t u =
  Mutex.lock t.mutex;
  let admitted = not t.stopping in
  if admitted then begin
    Queue.push u t.queue;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mutex;
  admitted

let stop t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let snapshot t = Atomic.get t.published

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let batches t = t.batch_count
let publish_log t = List.rev t.log

(* A view is unchanged by a statement when the relevance pre-filter
   skipped it, or when propagation touched nothing: no embeddings in or
   out, no payload refresh, and no rebuild (a rebuild can rewrite
   payloads without being itemized in the counts). A deferred view gets
   an all-zero report, so its image counts as unchanged until the drain. *)
let report_changes r =
  (not r.Maint.skipped_irrelevant)
  && (r.Maint.embeddings_added > 0
     || r.Maint.embeddings_removed > 0
     || r.Maint.tuples_modified > 0
     || r.Maint.fallback_recompute)

let drain_batch t =
  (* Caller holds [t.mutex]. *)
  let batch = ref [] in
  let k = ref 0 in
  while (not (Queue.is_empty t.queue)) && !k < t.max_batch do
    batch := Queue.pop t.queue :: !batch;
    incr k
  done;
  List.rev !batch

let apply_batch t batch =
  let changed = Hashtbl.create 16 in
  Obs.Timer.time t_batch (fun () ->
      List.iter
        (fun u ->
          let reports = View_set.update t.set u in
          List.iter
            (fun (mv, r) ->
              if report_changes r then
                Hashtbl.replace changed mv.Mview.pat.Pattern.name ())
            reports;
          t.applied <- t.applied + 1;
          Obs.Counter.incr c_applied)
        batch);
  t.batch_count <- t.batch_count + 1;
  Obs.Counter.incr c_batches;
  Obs.Counter.incr c_epochs;
  (* Snapshot publication is a read: under adaptive (heavy-light)
     maintenance any view with deferred work must be drained before its
     image is captured, and a drained view is a changed view. No-op
     without a classifier installed. *)
  List.iter
    (fun name -> Hashtbl.replace changed name ())
    (View_set.drain_all t.set);
  (* Durable ack: the batch's journal records are group-committed to
     disk {e before} the snapshot publishes. Publication is the
     acknowledgement — a reader can never observe state a crash would
     forget. *)
  let durable_seq =
    match t.durable with
    | None -> -1
    | Some d ->
      Durable.sync d;
      Durable.durable_seq d
  in
  let prev = Atomic.get t.published in
  let snap =
    Snapshot.advance prev ~applied:t.applied ~changed:(Hashtbl.mem changed)
      t.set
  in
  (* Data first, then metrics: a reader pairing the two can see metrics
     at most one epoch behind, never ahead. *)
  Atomic.set t.published snap;
  if Obs.enabled () then Atomic.set t.published_metrics (Obs.snapshot ());
  t.log <-
    {
      p_epoch = snap.Snapshot.epoch;
      p_applied = snap.Snapshot.applied;
      p_durable_seq = durable_seq;
      p_time = Obs.now ();
    }
    :: t.log

(* Checkpoints run on the writer domain, between batches — always at a
   statement boundary. *)
let service_checkpoint t =
  if Atomic.exchange t.checkpoint_requested false then
    match t.durable with
    | None -> ()
    | Some d ->
      (* A checkpoint persists view images; stale (deferred) images
         must never reach disk or recovery would resurrect them. *)
      ignore (View_set.drain_all t.set);
      Durable.checkpoint d t.set

let request_checkpoint t =
  Atomic.set t.checkpoint_requested true;
  (* Wake a blocked [step]; the broadcast is taken under the mutex so it
     cannot land in the window between its predicate check and wait. *)
  Mutex.lock t.mutex;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let durable_seq t =
  match t.durable with None -> -1 | Some d -> Durable.durable_seq d

let step ?(block = false) t =
  Mutex.lock t.mutex;
  if block then
    while
      Queue.is_empty t.queue && (not t.stopping)
      && not (Atomic.get t.checkpoint_requested)
    do
      Condition.wait t.nonempty t.mutex
    done;
  let batch = drain_batch t in
  Mutex.unlock t.mutex;
  match batch with
  | [] ->
    service_checkpoint t;
    0
  | _ ->
    apply_batch t batch;
    service_checkpoint t;
    List.length batch

let run t =
  let rec loop () =
    let n = step ~block:true t in
    if n > 0 then loop ()
    else begin
      Mutex.lock t.mutex;
      let finished = t.stopping && Queue.is_empty t.queue in
      Mutex.unlock t.mutex;
      if not finished then loop ()
    end
  in
  loop ()

let prometheus t =
  let metrics_snap = Atomic.get t.published_metrics in
  let s = Atomic.get t.published in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Obs.to_prometheus ~snapshot:metrics_snap ());
  let gauge name v =
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" name name v)
  in
  gauge "xvm_serve_epoch" s.Snapshot.epoch;
  gauge "xvm_serve_applied_statements" s.Snapshot.applied;
  gauge "xvm_serve_pending_updates" (pending t);
  gauge "xvm_serve_node_count" s.Snapshot.node_count;
  if Array.length s.Snapshot.views > 0 then begin
    Buffer.add_string b "# TYPE xvm_serve_view_tuples gauge\n";
    Array.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "xvm_serve_view_tuples{view=%S} %d\n"
             v.Snapshot.v_name
             (Array.length v.Snapshot.v_tuples)))
      s.Snapshot.views
  end;
  Buffer.contents b
