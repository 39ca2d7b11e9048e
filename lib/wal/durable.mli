(** The durability engine: checkpoint + write-ahead log + recovery.

    Protocol (write-ahead ordering):
    + a statement is journaled (by the view set's [View_set.set_journal]
      hook that {!init} and {!recover} install) {e before} any document
      mutation;
    + after a batch of statements is applied, {!sync} makes their records
      durable with one group fsync — only then may the batch be
      acknowledged or published;
    + {!checkpoint} persists the full state at the current statement
      boundary, rotates to a fresh log segment, and garbage-collects
      everything the new checkpoint covers.

    {!recover} rebuilds the state after a crash: load the last committed
    checkpoint, then replay every logged statement above the checkpoint
    sequence through [View_set.update]. Damaged log tails (torn writes,
    bit flips, forged CRCs) are detected by the {!Wal} scanner and
    truncated at the last valid record — recovery never applies a record
    it cannot prove intact, and never raises on corrupt input. *)

type t

(** Recovery summary: what was rebuilt and how. *)
type outcome = {
  set : View_set.t;  (** the recovered view set, journal hook installed *)
  engine : t;
  ck_seq : int;  (** checkpoint sequence replay started from *)
  replayed : int;  (** statements re-applied from the log *)
  skipped : int;  (** records at or below [ck_seq] — checked no-ops *)
  rebuilt_views : string list;
      (** views whose image was corrupt and were re-materialized *)
  truncated : (string * Wal.damage) list;
      (** damaged log segments (file name, first damage), truncated at
          their last valid record *)
}

(** [init ~dir set] starts durability for a fresh view set: writes
    checkpoint generation 0 (the current state), opens log segment
    [wal-1.log], and installs the journal hook on [set]. [dir] is
    created if missing; it must not already contain a manifest. *)
val init : dir:string -> View_set.t -> t

(** [recover ~dir ~parse_pattern ()] rebuilds state from [dir]: [None]
    when no checkpoint was ever committed there, otherwise the recovered
    set with every intact logged statement re-applied (via
    [View_set.update]) and the journal hook re-installed. Corrupt
    log tails are truncated on disk; appending resumes after the last
    valid record.
    @raise Checkpoint.Corrupt when the checkpoint document itself is
    unreadable — that state is unrecoverable by design. *)
val recover :
  dir:string ->
  parse_pattern:(name:string -> string -> Pattern.t) ->
  unit ->
  outcome option

(** Last sequence journaled (equals the checkpoint
    sequence right after {!init}/{!recover}/{!checkpoint}). *)
val last_seq : t -> int

(** Highest sequence known to be on disk ({!sync} moves it). *)
val durable_seq : t -> int

(** [sync t] group-commits every buffered record (single fsync). *)
val sync : t -> unit

(** [checkpoint t set] persists the current state at the current
    statement boundary: syncs the log, writes generation
    [ck-]{!last_seq}, rotates to segment [wal-<last_seq+1>.log], commits
    the manifest, and garbage-collects covered segments and stale
    generations. No-op fast path when nothing was journaled since the
    last checkpoint. *)
val checkpoint : t -> View_set.t -> unit

(** [close t] syncs and releases the log descriptor (the hook stays; a
    subsequent [journal] raises). *)
val close : t -> unit

(** [crash t] drops every unsynced record and closes the descriptor —
    simulating a process kill at this instant, for recovery testing.
    What {!sync} acknowledged stays on disk; nothing else does. *)
val crash : t -> unit
