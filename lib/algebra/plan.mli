(** Algebraic evaluation of tree patterns — the semantics of Figure 4: one
    canonical-relation atom per pattern node, with the node's value
    selection applied, combined bottom-up with structural joins along the
    pattern edges. *)

(** [entries_matching_handles store pat i] is the raw canonical relation
    for pattern node [i]'s tag (a merge of every element relation for
    [*]), before value selection, paired with the parallel array of
    {!Store.arena} handles; both in document order. Do not mutate the
    returned arrays. *)
val entries_matching_handles :
  Store.t -> Pattern.t -> int -> Store.entry array * int array

(** [root_anchor_ok pat i id]: when the pattern root uses the [Child]
    axis, only the document root (depth 1) may bind to node [0]; always
    true for other nodes. Used when building atoms and delta tables. *)
val root_anchor_ok : Pattern.t -> int -> Dewey.t -> bool

(** [selected_handles pat i (entries, handles)] keeps the handles of the
    entries that satisfy pattern node [i]'s value predicate and root
    anchor; [entries] and [handles] are parallel and the result keeps
    their order. Always a fresh array. *)
val selected_handles : Pattern.t -> int -> Store.entry array * int array -> int array

(** [atom_of_store store pat i] is the selected canonical relation
    [σ_i(R_i)] of pattern node [i]: all store nodes matching the node's
    tag ([*] unions every element relation) and value predicate, as a
    single-column table in document order. *)
val atom_of_store : Store.t -> Pattern.t -> int -> Tuple_table.t

(** [eval_subtree pat ~atom ~within ~root] joins the atoms of the pattern
    nodes reachable from [root] through nodes satisfying [within],
    following the pattern edges. [atom] supplies the per-node input
    tables. *)
val eval_subtree :
  Pattern.t -> atom:(int -> Tuple_table.t) -> within:(int -> bool) -> root:int ->
  Tuple_table.t

(** [eval store pat] evaluates the whole pattern against the committed
    relations of [store]; output columns are all pattern nodes. *)
val eval : Store.t -> Pattern.t -> Tuple_table.t
