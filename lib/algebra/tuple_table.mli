(** Tuple tables: the intermediate results of the algebraic evaluation.

    A table binds a fixed set of pattern-node indices (its columns) to
    structural identifiers; every row is one partial embedding. Rows live
    in an amortized growable buffer, so repeated {!append_row} calls are
    O(1) amortized rather than O(rows).

    Two physical layouts coexist behind this interface: the original
    boxed row-major layout, and a {e columnar} struct-of-arrays layout
    of unboxed {!Dewey_arena} handle columns ({!of_handles} /
    {!of_cols}), on which structural predicates are flat int arithmetic.
    The boxed row API ({!rows}/{!get}/{!iter}) works on both — on a
    columnar table it is a materialized compatibility view — so
    operators migrate to {!columns}/{!cell_id} incrementally.

    Each table tracks {e sortedness metadata}: the column (if any) whose
    identifiers are known to be in non-decreasing document order. The
    physical operators use it to pick a sort-merge structural join over
    the hash fallback and to skip redundant sorts. *)

type t

(** {1 Layout toggle}

    Scan builders ([Plan.atom_of_store], [Delta]) consult this global
    toggle when constructing base tables. Columnar by default; boxed via
    [XVM_BOXED_TABLES=1] in the environment or {!set_columnar}[ false]
    (the [xvmcli --boxed] escape hatch). Precedence: an explicit
    {!set_columnar} call (e.g. the [--boxed] flag) always wins over the
    environment, which wins over the columnar default. *)

val columnar_enabled : unit -> bool
val set_columnar : bool -> unit

(** [boxed_requested env] — does the value of [XVM_BOXED_TABLES] request
    the boxed layout? Only the explicit truthy spellings ["1"] and
    ["true"] (case-insensitive, surrounding whitespace ignored) do; any
    other value, like an unset variable, means columnar. Pure — exposed
    so the parse is testable without touching the real environment. *)
val boxed_requested : string option -> bool

(** [create ~cols] is an empty table over [cols]. *)
val create : cols:int array -> t

(** [of_rows ?sorted_by ~cols rows] wraps [rows] (taking ownership of the
    array). [sorted_by] asserts that the rows are already in document
    order of that column. *)
val of_rows : ?sorted_by:int -> cols:int array -> Dewey.t array array -> t

(** Single-column table over pattern node [node]. [sorted] asserts the
    ids are already in document order (e.g. a canonical-relation scan). *)
val of_ids : ?sorted:bool -> node:int -> Dewey.t array -> t

(** {1 Columnar construction}

    Columnar tables reference identifiers by {!Dewey_arena} handle; all
    handle columns of one table index the same arena. *)

(** Columnar single-column table over [node]; takes ownership of
    [handles]. *)
val of_handles : ?sorted:bool -> arena:Dewey_arena.t -> node:int -> int array -> t

(** [of_cols ?sorted_by ~arena ~cols ~len data] wraps one handle array
    per column, taking ownership; the arrays share a capacity that may
    exceed [len]. An empty [cols] degrades to an empty boxed table. *)
val of_cols :
  ?sorted_by:int -> arena:Dewey_arena.t -> cols:int array -> len:int ->
  int array array -> t

(** [columns t] is [Some (arena, cols)] when the table is columnar, with
    each column compacted to [length t]. Operators use it to dispatch
    onto handle fast paths (both join inputs must return the {e same}
    arena). Do not mutate. *)
val columns : t -> (Dewey_arena.t * int array array) option

(** The arena of a columnar table. *)
val arena : t -> Dewey_arena.t option

val length : t -> int
val is_empty : t -> bool

(** Column set, in construction order. Do not mutate. *)
val cols : t -> int array

(** Snapshot of the rows as a plain array (compacted in place, O(1) when
    the buffer has no slack). Do not mutate. *)
val rows : t -> Dewey.t array array

(** [get t i] is row [i]. *)
val get : t -> int -> Dewey.t array

val iter : (Dewey.t array -> unit) -> t -> unit

(** [cell_id t i p] is the identifier at row [i], column position [p] —
    O(1) on either layout, with no row materialization on columnar
    tables. *)
val cell_id : t -> int -> int -> Dewey.t

(** [col_pos t node] is the row offset of pattern node [node].
    @raise Not_found if the node is not a column. *)
val col_pos : t -> int -> int

(** {1 Sortedness metadata} *)

(** The column whose identifiers are known to be in document order, if
    any. Kept up to date by {!append_row}/{!append_rows} (checked against
    the incoming rows), preserved by {!filter}, set by {!sort_by_node}. *)
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

val append_row : t -> Dewey.t array -> unit
val append_rows : t -> Dewey.t array array -> unit

(** [append_table t src] appends every row of [src] (same column sets,
    in the same order). Columnar→columnar over one arena is a
    per-column int blit; any other combination goes through the boxed
    view. Sortedness metadata is checked like {!append_rows}. *)
val append_table : t -> t -> unit

(** [filter t keep] drops rows not satisfying [keep], in place, in one
    pass. Sortedness is preserved. *)
val filter : t -> (Dewey.t array -> bool) -> unit

(** [remove_ids t keys] drops, in place, every row whose column for
    pattern node [j] holds an identifier of the single-column table [d],
    for some [(j, d)] in [keys] — an anti-semijoin on identifiers. On a
    columnar table it tests handle membership in an int set per key, with
    no row materialization; boxed tables compare identifiers. Keys with
    an empty [d] are ignored, so with no non-empty key the table is not
    scanned at all. Sortedness is preserved.
    @raise Not_found if some [j] is not a column of [t]. *)
val remove_ids : t -> (int * t) list -> unit

(** [sort_by_node t node] sorts rows by document order of the [node]
    column; a no-op when the metadata already proves the order. *)
val sort_by_node : t -> int -> unit

val copy : t -> t
