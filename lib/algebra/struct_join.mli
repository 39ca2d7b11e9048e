(** Structural joins over tuple tables.

    One physical implementation: a stack-based sort-merge structural
    join (the Stack-Tree algorithm recast on {!Dewey_arena} handles).
    Both inputs are walked once in document order; a stack holds the
    ancestor-side groups lying on the current root path, so both [Child]
    and [Descendant] axes complete in O(|left| + |right| + |output|)
    comparisons once the inputs are sorted. *)

(** [join left right ~parent ~child ~axis] joins on the structural
    predicate [left.parent ≺ right.child] (axis [Child]) or
    [left.parent ≺≺ right.child] (axis [Descendant]). An input whose
    sortedness metadata does not prove document order on its join column
    is first sorted {e in place} ({!Tuple_table.sort_by_node}), so both
    inputs must be owned by the caller. Output columns are
    [left.cols @ right.cols], sorted (and marked sorted) on [child].
    @raise Not_found if [parent] (resp. [child]) is not a column of
    [left] (resp. [right]).
    @raise Invalid_argument if the inputs carry different arenas. *)
val join :
  Tuple_table.t ->
  Tuple_table.t ->
  parent:int ->
  child:int ->
  axis:Pattern.axis ->
  Tuple_table.t
