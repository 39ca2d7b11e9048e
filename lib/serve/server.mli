(** The always-on serving loop.

    One {!Server.t} owns a {!View_set} and runs the paper's maintenance
    machinery as a long-lived writer: update statements are {e admitted}
    from any domain into a pending queue ({!submit}), and the main
    domain drains them in batches ({!step} / {!run}), applying each
    through {!View_set.update} — shared Δ index, relevance skip —
    then publishing one fresh {!Snapshot.t} per batch.

    Reader domains call {!snapshot} (a single [Atomic.get]) and answer
    queries from the returned immutable epoch; they never take the
    queue lock and never block on {!Store.commit}. Writes and reads
    meet only at the two [Atomic] publication cells (data snapshot and
    metrics snapshot).

    Main-domain discipline: {!step}, {!run} and {!stop}'s drain run on
    the domain that owns the store ({!Store.commit} enforces this);
    {!submit}, {!snapshot}, {!metrics}, {!prometheus} and {!pending}
    are safe from any domain. *)

type t

(** One publication-log entry. [p_durable_seq] is the durable-epoch
    watermark: the highest WAL sequence fsynced before this epoch
    published ([-1] on a non-durable server) — every statement visible
    in the epoch survives a crash. *)
type publication = {
  p_epoch : int;
  p_applied : int;
  p_durable_seq : int;
  p_time : float;
}

(** [create ?max_batch ?durable set] wraps a committed view set and
    publishes epoch 0. [max_batch] (default 64, clamped to >= 1) caps
    how many queued statements one {!step} applies before publishing.
    [durable] attaches a durability engine whose journal
    hook is already installed on [set] (see [Durable.init] /
    [Durable.recover]): each batch is group-committed to the log —
    one fsync — {e before} its snapshot publishes, so publication
    doubles as the durable acknowledgement. *)
val create : ?max_batch:int -> ?durable:Durable.t -> View_set.t -> t

(** [submit t u] enqueues a statement; returns [false] (statement
    dropped) once {!stop} has been called. Any domain. *)
val submit : t -> Update.t -> bool

(** [step ?block t] drains up to [max_batch] pending statements, applies
    them, publishes the next epoch and returns the batch size. With
    [block] (default [false]) an empty queue waits on the condition
    variable until a statement arrives or {!stop} is called; otherwise
    an empty queue returns 0 immediately. *)
val step : ?block:bool -> t -> int

(** [run t] loops [step ~block:true] until {!stop} has been called {e
    and} the queue is drained — every statement admitted before [stop]
    is applied and published before [run] returns. *)
val run : t -> unit

(** Signal termination; wakes a blocked {!step}. Any domain,
    idempotent. *)
val stop : t -> unit

(** The current published snapshot. Any domain. *)
val snapshot : t -> Snapshot.t

(** Queue length right now. Any domain. *)
val pending : t -> int

(** Batches published so far (main domain, or after {!run} returned). *)
val batches : t -> int

(** Publication log, oldest first. Read it after {!run} returned (or
    from the main domain between steps). *)
val publish_log : t -> publication list

(** Highest WAL sequence known durable ([-1] on a non-durable server).
    Main domain (or after {!run} returned). *)
val durable_seq : t -> int

(** Ask the writer loop to checkpoint at the next statement boundary
    (after the in-flight batch, or immediately when idle). No-op on a
    non-durable server. Any domain; wakes a blocked {!step}. *)
val request_checkpoint : t -> unit

(** Prometheus text-format exposition (version 0.0.4): every Obs
    counter and timer from the last published metrics snapshot
    ({!Obs.to_prometheus}), followed by [xvm_serve_*] gauges — epoch,
    applied statements, pending queue length, node count and per-view
    tuple counts. Any domain. *)
val prometheus : t -> string
