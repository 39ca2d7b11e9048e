(** Shared-work batch maintenance helpers for [View_set].

    Two ingredients: the {e relevance pre-filter} — decide from an
    [Mview]'s cached label footprint whether an update can possibly touch
    it — and the {e domain pool} used to propagate an update to many
    clean views in parallel.

    Read-only-store contract: tasks handed to {!parallel_map} run on
    child domains and therefore must not mutate shared state. View
    propagation with [~commit:false] qualifies: it reads the store's
    committed relations and writes only view-private structures
    ({!Store.commit} additionally raises off the main domain). Obs
    counter/timer increments performed inside tasks are buffered
    per-domain and merged into the registry before [parallel_map]
    returns. *)

(** The label set an applied update touches: for inserts/deletes, the
    shared index's label map; for replace-value, only text contents
    change. *)
type update_labels =
  | Labels of Delta.Shared.t
  | Text_only

(** [touches labels tag]: the update region contains a node matching
    [tag] ([*] matches any element). *)
val touches : update_labels -> string -> bool

(** [relevant mv labels]: the view's footprint intersects the update's
    labels. A [*] node intersects any update region holding an element. *)
val relevant : Mview.t -> update_labels -> bool

(** [can_skip mv labels affected]: propagation for [mv] would provably be
    a no-op — disjoint footprint, and no val/cont node of [mv] carries a
    label on the root paths of the update's payload-affected nodes
    ({!Maint.payload_safe}). The caller must additionally check its
    value-predicate watches; a flipped watch forces the rebuild path
    regardless. *)
val can_skip : Mview.t -> update_labels -> Maint.affected -> bool

(** [routes_heavy ~heavy mv labels]: the update's delta reaches [mv]
    through a label the [heavy] predicate classifies as heavy — the
    adaptive maintenance path defers such deltas into the view's side
    buffer instead of propagating eagerly. *)
val routes_heavy : heavy:(string -> bool) -> Mview.t -> update_labels -> bool

(** [parallel_map ~jobs tasks] runs the thunks across [jobs] domains
    (round-robin striping, stripe 0 on the calling domain) and returns
    their results in task order. [jobs] is clamped to
    [1 .. Array.length tasks], so [jobs <= 1] — including zero and
    negative values — degenerates to a plain sequential map on the
    calling domain: same results, no spawning.

    Worker domains come from a lazily-grown persistent pool (spawned
    once, parked between calls, stopped at exit) rather than a fresh
    [Domain.spawn] per call; stripe assignment, Obs contribution merge
    order and exception selection are by stripe index either way, so
    results are bit-identical to the unpooled implementation.
    If a task raises, the exception is re-raised after all stripes have
    been awaited and their Obs contributions merged. *)
val parallel_map : jobs:int -> (unit -> 'a) array -> 'a array

(** Persistent worker domains currently in the pool (for tests). *)
val pool_size : unit -> int
