(** Materialized views with derivation counts.

    A materialized view keeps, per distinct projected tuple (the stored
    attributes of the annotated pattern nodes), a derivation count — the
    number of embeddings projecting to it (Section 2.2) — plus the
    materialized [val] / [cont] payloads. Depending on the materialization
    {e policy} (Section 6.7) it also keeps auxiliary snowcap tables:

    - [Snowcaps]: one snowcap per lattice level (the preorder-prefix
      chain) is materialized, besides the lattice leaves (the canonical
      relations held by the store);
    - [Leaves]: nothing is materialized; interior joins are recomputed
      from the canonical relations on the fly. *)

type policy =
  | Snowcaps  (** one snowcap per lattice level (the preorder-prefix chain) *)
  | Leaves  (** nothing materialized; interior joins recomputed on the fly *)
  | Chosen of Lattice.nset list
      (** an explicit set of snowcaps, e.g. from the cost-based
          {!Advisor}. Each set must be a snowcap of the pattern. *)

type cell = {
  cell_id : Dewey.t;
  cell_h : int;
      (** the arena handle of [cell_id] in the view's store, [-1] for a
          restored identifier the store never interned *)
  mutable cell_value : string option;
  mutable cell_content : string option;
}

type entry = {
  mutable count : int;
  cells : cell array;
  key : string;
      (** the sort key: the concatenated {!Dewey.encode} of the cells'
          identifiers, built once when the entry is created *)
}

(** Label footprint of the pattern, cached at materialization: the set of
    exact tags plus whether any node is the wildcard [*].  The batch
    engine's relevance pre-filter intersects this with the update's label
    set (see [Batch]). *)
type footprint = { fp_star : bool; fp_tags : string array }

(** Payloads resolved during one pass (see {!sharing_payloads}). *)
type payloads

(** The entries, in a table keyed by the arena handles of their stored
    cells. *)
type table

type t = private {
  pat : Pattern.t;
  store : Store.t;
  policy : policy;
  stored : int array;  (** annotated pattern nodes, preorder *)
  cvn : int array;  (** pattern nodes storing val or cont *)
  all_snowcaps : Lattice.nset list;  (** cached, ascending size *)
  footprint : footprint;  (** cached label footprint of [pat] *)
  mutable mats : (Lattice.nset * Tuple_table.t) list;
  entries : table;
  mutable shared : payloads option;  (** set inside {!sharing_payloads} *)
}

(** [materialize ?policy store pat] evaluates the pattern algebraically
    over the committed relations and materializes the view and (under
    [Snowcaps], the default) its auxiliary snowcap tables. Under
    [Snowcaps] one left-deep pass builds both: each level of the chain is
    the one below joined with the next preorder node's atom, and the last
    level is the view, so a k-node view costs k-1 joins. [Leaves]
    evaluates the view with {!Plan.eval}; [Chosen] evaluates each set on
    its own. Each row is added to the entry table by the handles of its
    stored columns; payloads and the sort key are built once per distinct
    tuple, when its entry is created. *)
val materialize : ?policy:policy -> Store.t -> Pattern.t -> t

(** [rebuild mv] discards the view contents and snowcap tables and
    re-evaluates them from the store's committed relations — the exact
    fallback used when an update changes the string value of an existing
    node watched by a value predicate (see [Maint]). *)
val rebuild : t -> unit

(** {1 Contents} *)

(** Number of distinct (projected) tuples. *)
val cardinality : t -> int

(** Sum of derivation counts = number of embeddings. *)
val total_count : t -> int

val iter_entries : t -> (entry -> unit) -> unit

(** Deterministic dump [(key, count, cells)] sorted by key — for tests and
    display; the key is the concatenated encoding of the stored IDs. *)
val dump : t -> (string * int * cell array) list

(** The live entries sorted by key — the read path of answering from
    views ({!dump} copies out of it). Do not mutate. *)
val entries_in_order : t -> entry list

(** {1 Maintenance primitives} (used by [Maint]) *)

(** [stored_columns mv t] are the handle columns of [t] for the stored
    nodes of [mv], in [mv.stored] order: the [cols] of {!add_binding}
    and {!remove_binding}, resolved once per table. Empty columns when
    [t] has no rows, whatever columns it has. *)
val stored_columns : t -> Tuple_table.t -> int array array

(** [add_binding mv cols r] registers one new embedding, row [r] of the
    stored columns [cols] (handles in the view's store). Creates the
    entry (resolving payloads by handle from the current document and
    building its sort key) or bumps its count; a bump allocates
    nothing. *)
val add_binding : t -> int array array -> int -> unit

(** [count_of mv cols r] is the derivation count of the tuple of row [r]
    of the stored columns [cols], [0] when the view does not hold it. *)
val count_of : t -> int array array -> int -> int

(** [remove_binding mv cols r] decrements the derivation count of the
    projected tuple of row [r], removing it at zero. Allocates nothing.
    @raise Invalid_argument if the tuple is absent (view out of sync). *)
val remove_binding : t -> int array array -> int -> unit

(** Materialized table for exactly this snowcap, if any. *)
val mat_for : t -> Lattice.nset -> Tuple_table.t option

(** How a refresh gets the new [cont] payload of a node whose subtree
    changed, from the old one:
    - [Reserialize]: serialize the node;
    - [Append f]: the statement appended last children that serialize
      to [f], and nothing else changed below the node: [f] is spliced in
      before the closing tag;
    - [Cut k]: the statement detached the node's last content child,
      [k] bytes long, another stayed, and nothing else changed below the
      node: [k] bytes are cut before the closing tag.

    An edit applies only inside {!sharing_payloads}, to an element with
    content; otherwise the node is serialized. Each payload computed is
    counted in [maint.payload.spliced] or [maint.payload.reserialized]. *)
type edit = Reserialize | Append of string Lazy.t | Cut of int Lazy.t

(** Recompute the [val] / [cont] payload of [cell] for the current
    document, resolving the node by [cell_h], the [cont] by [edit];
    returns [true] if it was present and refreshed. *)
val refresh_cell : t -> stored_node:int -> edit:edit -> cell -> bool

(** [share_content mv h s]: inside {!sharing_payloads}, [s] is the
    [cont] payload of the node of handle [h] for the rest of the pass
    (the caller knows its serialization); a no-op outside one. *)
val share_content : t -> int -> string -> unit

(** [sharing_payloads mv f] runs [f] as one pass over an unchanging
    document: every [val] / [cont] payload that {!add_binding} and
    {!refresh_cell} compute is resolved once per node, and all entries
    binding that node share one string (a node under many entries is
    otherwise serialized, and held, once per entry). [materialize] and
    [rebuild] are such passes; a maintenance pass wraps its view
    updates in one. Nested calls join the outer pass. *)
val sharing_payloads : t -> (unit -> 'a) -> 'a

(** {1 Entry table layout}

    For tests that force probe collisions: the entry table's slot count
    (a power of two, at most three quarters full), and the home slot of
    a stored-handle tuple at that size. *)

val slot_count : t -> int
val home_slot : t -> int array -> int

(** {1 Restoration primitives} (used by [Mview_codec])

    [empty_shell] builds a view with no tuples but with the auxiliary
    snowcap tables of the given policy evaluated from the store;
    [restore_entry] injects one persisted tuple verbatim.
    @raise Invalid_argument on a cell-arity mismatch, a tuple already
    restored, or a cell whose identifier the store never interned
    ([cell_h = -1]): maintenance could never find that entry. *)

val empty_shell : ?policy:policy -> Store.t -> Pattern.t -> t

val restore_entry : t -> count:int -> cells:cell array -> unit

(** [restored_cell mv id ~value ~content] is a persisted cell, its handle
    found by a walk of the store's arena. *)
val restored_cell :
  t -> Dewey.t -> value:string option -> content:string option -> cell
