(** A pgbench-style load driver for {!Server}.

    Runs, for a fixed wall-clock duration:

    - [readers] reader domains, each looping snapshot queries (point
      tuple lookups, bounded scans, aggregates) against the currently
      published epoch and recording per-operation latencies;
    - at most one {e submitter} domain feeding generated update
      statements — {e open-loop} at a target arrival rate
      ([write_rate] > 0: submissions are scheduled by the clock,
      backlog reveals saturation) or {e closed-loop}
    ([closed_loop = true]: the next statement is submitted only once
      the previous one is visible in a published snapshot);
    - the serving loop itself on the {e calling} domain (the store's
      writer), plus a small timer domain that stops it at the deadline.

    The report carries read throughput and p50/p95/p99 latencies, and —
    when writing — applied-statement counts, batch sizes, and the
    submit-to-published {e visibility} latency distribution computed
    from the server's publication log. *)

type config = {
  readers : int;  (** reader domains; >= 0 *)
  duration : float;  (** seconds of wall-clock load *)
  write_rate : float;  (** target statements/s for open loop; 0 = none *)
  closed_loop : bool;  (** submit-wait-visible instead of paced *)
  max_batch : int;  (** statements per published batch, >= 1 *)
  seed : int;  (** reader/op-mix determinism *)
}

val default : config

(** Latency digest in milliseconds. *)
type latency = { p50 : float; p95 : float; p99 : float; mean : float; max : float }

type report = {
  wall_s : float;
  epochs : int;  (** published epochs (= batches) *)
  reads : int;
  read_rps : float;
  read_ms : latency option;  (** [None] when [readers = 0] *)
  writes_submitted : int;  (** statements the server {e admitted} *)
  writes_rejected : int;
      (** statements turned away at admission (post-[stop] shutdown
          race) — distinct from submitted, so
          [writes_applied < writes_submitted] always means a statement
          was genuinely lost in flight *)
  writes_applied : int;
  write_visible_ms : latency option;
      (** submit → first snapshot containing the statement; [None] when
          nothing was written *)
  max_batch_fill : int;  (** largest published batch *)
}

(** [percentile sorted q] with [q] in [0,1]; [sorted] ascending,
    non-empty (nearest-rank). Exposed for tests. *)
val percentile : float array -> float -> float

(** [run config set ~gen] drives the load. [gen i] must produce the
    [i]-th update statement (0-based); it runs on the submitter domain,
    so it must not touch the store or views — build statements from
    pre-rendered strings via {!Update.parse}, or pure constructors.
    Must be called on the main domain (it runs {!Server.run}). The view
    set is mutated by the applied statements.

    [on_server] is called with the freshly created server before any
    load starts — the hook for attaching a {!Metrics_http} endpoint to
    the run. The server outlives [run] only for reads (snapshot /
    prometheus); it is stopped and drained by the time [run] returns.
    If the serving loop (or a spawned domain) raises, [run] stops the
    load, joins every domain it spawned, and re-raises the first
    exception. *)
val run :
  ?on_server:(Server.t -> unit) -> config -> View_set.t ->
  gen:(int -> Update.t) -> report
