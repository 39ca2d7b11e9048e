(** Tuple tables: the intermediate results of the algebraic evaluation.

    A table binds a fixed set of pattern-node indices (its columns) to
    structural identifiers; every row is one partial embedding. The
    layout is columnar: one unboxed {!Dewey_arena} handle column per
    pattern node, all over the arena the table carries, so structural
    predicates are flat int arithmetic. Identifiers are boxed only on
    demand, one cell at a time ({!cell_id}).

    Each table tracks {e sortedness metadata}: the column (if any) whose
    identifiers are known to be in non-decreasing document order. The
    structural join uses it to skip redundant sorts. *)

type t

(** {1 Construction}

    All handle columns of one table index the same arena; operators that
    combine two tables require both to carry the same arena. *)

(** [empty ~arena ~cols] is an empty table over [cols]. *)
val empty : arena:Dewey_arena.t -> cols:int array -> t

(** Single-column table over [node]; takes ownership of [handles].
    [sorted] asserts the handles are already in document order (e.g. a
    canonical-relation scan). *)
val of_handles : ?sorted:bool -> arena:Dewey_arena.t -> node:int -> int array -> t

(** [of_cols ~arena ~cols ~len data] wraps one handle array per column,
    taking ownership; the arrays share a capacity that may exceed [len].
    No order is known ({!mark_sorted_by} asserts one). *)
val of_cols : arena:Dewey_arena.t -> cols:int array -> len:int -> int array array -> t

(** {1 Access} *)

(** The handle columns, in {!cols} order, each compacted to [length t].
    Do not mutate. *)
val columns : t -> int array array

(** The arena every handle of the table indexes. *)
val arena : t -> Dewey_arena.t

val length : t -> int
val is_empty : t -> bool

(** Column set, in construction order. Do not mutate. *)
val cols : t -> int array

(** [cell_id t i p] is the identifier at row [i], column position [p]. *)
val cell_id : t -> int -> int -> Dewey.t

(** The rows as boxed identifiers, in {!cols} order: a fresh array built
    on every call, for tests and diagnostics. *)
val rows : t -> Dewey.t array array

(** [col_pos t node] is the column position of pattern node [node].
    @raise Not_found if the node is not a column. *)
val col_pos : t -> int -> int

(** {1 Sortedness metadata} *)

(** The column whose identifiers are known to be in document order, if
    any. Kept up to date by {!append_table} (checked against the
    incoming rows), preserved by {!remove_ids}, set by {!sort_by_node}. *)
val sorted_by : t -> int option

(** [sorted_on t node]: the rows are known to be in document order of
    column [node] (trivially true for tables of at most one row). *)
val sorted_on : t -> int -> bool

(** [mark_sorted_by t node] records that the rows are in document order
    of column [node]. Caller-asserted: used by operators whose
    construction guarantees the order (e.g. a merge join emitting in
    right-input order). *)
val mark_sorted_by : t -> int -> unit

(** {1 Mutation} *)

(** [append_table t src] appends every row of [src] to [t], lining the
    columns up by pattern node: [src] must bind every column of [t], in
    any order. One blit per
    column; the sortedness metadata stays only if the appended column is
    still in order. An empty [src] is a no-op.
    @raise Not_found if [src] lacks a column of [t].
    @raise Invalid_argument if the tables carry different arenas. *)
val append_table : t -> t -> unit

(** [remove_ids t keys] drops, in place, every row whose column for
    pattern node [j] holds an identifier of the single-column table [d],
    for some [(j, d)] in [keys] — an anti-semijoin on handles, with one
    int set per key. Keys with an empty [d] are ignored, so with no
    non-empty key the table is not scanned at all. Sortedness is
    preserved.
    @raise Not_found if some [j] is not a column of [t].
    @raise Invalid_argument if some [d] carries another arena. *)
val remove_ids : t -> (int * t) list -> unit

(** [sort_by_node t node] sorts rows by document order of the [node]
    column, in place; a no-op when the metadata already proves the
    order. *)
val sort_by_node : t -> int -> unit

val copy : t -> t
