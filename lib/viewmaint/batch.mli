(** Shared-work batch maintenance helpers for [View_set].

    The {e relevance pre-filter} decides from an [Mview]'s cached label
    footprint whether an update can possibly touch it; {!routes_heavy}
    decides whether the adaptive path defers the view instead of
    propagating eagerly. *)

(** The label set an applied update touches: for inserts/deletes, the
    shared index's label map; for replace-value, only text contents
    change. *)
type update_labels =
  | Labels of Delta.Shared.t
  | Text_only

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
