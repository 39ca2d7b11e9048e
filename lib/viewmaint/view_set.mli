(** A set of materialized views over one store, maintained together: each
    update statement locates its targets and mutates the document {e
    once}, then propagates to every view (the canonical relations commit
    after the last propagation). This is the "several views materialized"
    deployment the paper's Section 3.5 discusses. *)

type t

val create : Store.t -> t

val store : t -> Store.t

(** [add set ?policy pat] materializes a new view in the set and returns
    it. Views are keyed by their pattern's [name].
    @raise Invalid_argument if a view with the same name exists. *)
val add : t -> ?policy:Mview.policy -> Pattern.t -> Mview.t

(** [add_view set mv] installs an already-materialized view (e.g. one
    restored from an {!Mview_codec} image by the recovery path).
    @raise Invalid_argument if a view with the same name exists or [mv]
    was materialized over a different store. *)
val add_view : t -> Mview.t -> unit

(** [set_journal set hook] installs (or, with [None], removes) a
    write-ahead hook: {!update} calls it with the statement {e before}
    any document mutation, so a crash between journaling and commit
    replays the statement in full. The durability layer ([Durable])
    points this at its log appender. *)
val set_journal : t -> (Update.t -> unit) option -> unit

(** {1 Adaptive (heavy-light) maintenance}

    With a classifier installed ({!set_adaptive}), {!update} defers
    propagation for any view the update's delta reaches through a
    heavy-partitioned label (see [Hl] and [Batch.routes_heavy]): the
    view is marked {e stale}, its report is {!Maint.deferred_report}
    (zeroed, not counted as a skip),
    and the deferred delta work is accounted against the classifier's
    drain budget. No payload is buffered — a drain is an exact
    [Mview.rebuild] from the committed store, so it reconciles any mix
    of deferred inserts, deletes, replaces and value-predicate flips.
    Drains happen when a view's accumulated work crosses the budget, or
    explicitly via {!drain_view} / {!drain_all} — which readers
    (snapshot publication in [Serve], any direct [Mview] consumer) must
    call before trusting view contents. Non-heavy-routing updates take
    the usual eager path, so on documents with no heavy labels adaptive
    maintenance behaves exactly like eager maintenance. *)

(** [set_adaptive set hl] installs (or, with [None], removes) the
    heavy-light classifier. Any stale views are drained first, and the
    previous classifier's store partition is detached. *)
val set_adaptive : t -> Hl.t option -> unit

(** The installed classifier, if any. *)
val adaptive : t -> Hl.t option

(** Names of views whose materialized image is stale (deferred work
    pending), in insertion order. *)
val stale : t -> string list

(** [drain_view set name] rebuilds the named view from the committed
    store if it was stale. Returns whether a drain happened. *)
val drain_view : t -> string -> bool

(** Drain every stale view; returns the drained names in insertion
    order. *)
val drain_all : t -> string list

(** [find set name] — the view named [name], if any. O(1): views are
    name-indexed in a hash table besides the insertion-ordered list. *)
val find : t -> string -> Mview.t option

(** [remove set name] drops a view from the set (the store is
    untouched). *)
val remove : t -> string -> unit

(** Views in insertion order. *)
val views : t -> Mview.t list

(** [update set u] applies [u] to the document once and maintains
    every view from a shared update-region index ({!Delta.Shared}, built
    once per update); reports are in view insertion order. The shared
    work — target location, document mutation, index build, the single
    store commit — is timed into the first report and into the
    [maint.phase] timers.

    Views the update provably cannot touch are skipped outright and get
    a zeroed report with [Maint.skipped_irrelevant] set: the label
    footprint is disjoint from the update region, and no val/cont node
    carries a label on the root paths of the update's payload-affected
    nodes ({!Batch.can_skip}).

    The remaining views propagate in insertion order on the calling
    domain: clean views incrementally against the pre-update relations
    (read-only on the store), then the single store commit, then views
    needing a rebuild (flipped value-predicate watch, or a replace-value
    against a view with structural ["#text"] nodes). *)
val update : t -> Update.t -> (Mview.t * Maint.report) list
