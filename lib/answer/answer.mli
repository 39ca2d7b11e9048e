(** Answering fresh tree-pattern queries from the materialized view set
    (view-based rewriting in the Cautis/Deutsch/Ileana/Onose style,
    specialized to this dialect).

    A query is answered {e tuple-for-tuple} — same projected cells, same
    derivation counts — from:

    - a {b single view} whose pattern is tree-isomorphic to the query up
      to {e compensations} executable over the stored tuples alone: a
      residual value filter where the query carries an extra [[val='c']]
      (the view must store [val] there), and a parent-of filter where the
      query's [/]-edge relaxes to the view's [//]-edge (the view must
      store [ID] at both endpoints — checked via {!Dewey.parent});
    - or the {b intersection of two views}: the query is split at a node
      [j] into [Pattern.prune q j] (the query minus [j]'s strict
      descendants) and [Pattern.subpattern q j] (the subtree of [j],
      re-anchored by [//]), each leg answered from a view as above, and
      the legs hash-joined on [j]'s stored ID with derivation counts
      multiplying — valid because embeddings of a tree pattern factor
      exactly at any node;
    - otherwise {b fallback}: algebraic recomputation over the base
      document's canonical relations.

    Exactness (not just soundness) of the single-view step requires the
    isomorphism. A homomorphism [h] from the view's pattern into the
    query's proves only that the query's result {e set} is contained in
    the view's: [h] need not be one-to-one or onto, so distinct query
    embeddings can compose with [h] into the same view embedding, and
    derivation counts differ. An isomorphism is a bijection of nodes
    and edges, so embeddings, and with them counts, correspond one to
    one.

    Every plan returns {e canonical} rows (see {!canonical}), ordered and
    merged by their ID keys; no payload is copied into a key. The
    [answer] {!Obs} scope counts plans by shape ([plans_single],
    [plans_join], [plans_fallback]), base fallbacks taken by {!answer}
    ([base_fallbacks]) and rows returned ([rows_out]). *)

(** One projected tuple: derivation count plus, per stored query node in
    preorder, [(id, val, cont)] — the same cell shape the serve layer's
    snapshots use. *)
type row = {
  count : int;
  cells : (Dewey.t * string option * string option) array;
}

(** A queryable view: its pattern plus its current tuples (cells in the
    pattern's stored-node preorder), re-read at every execution, so a
    plan stays valid across maintenance. *)
type source

(** [source ~name pat rows]: a view given as a function producing its
    tuples, in any order (e.g. a snapshot image). *)
val source : name:string -> Pattern.t -> (unit -> row list) -> source

(** Adapt a live materialized view: its entries are read in key order
    with their stored keys, and compensations filter entries before rows
    are built. *)
val source_of_mview : Mview.t -> source

(** Residual filters over a view's stored cells (positions index the
    view's stored-node list). *)
type comp =
  | Val_eq of int * string  (** stored value at position = literal *)
  | Child_of of int * int  (** first ID is a document child of the second *)
  | Root_at of int  (** stored ID is the document root *)

type single
type join

type plan = Single of single | Join of join | Fallback

(** Human-readable plan summary, e.g. ["single(Q1), 1 compensation"]. *)
val describe : plan -> string

(** [plan ~sources q] — first single-view rewriting found, else the first
    two-view intersection, else [Fallback]. *)
val plan : sources:source list -> Pattern.t -> plan

(** Execute a plan; [None] on [Fallback]. Rows are canonical (merged and
    sorted, see {!canonical}). *)
val run : plan -> row list option

(** Base-document recomputation of the query (the algebraic engine over
    the committed canonical relations), as canonical rows. *)
val base_rows : Store.t -> Pattern.t -> row list

(** [answer ?store ~sources q]: plan, then execute; falls back to
    {!base_rows} when a store is at hand, otherwise [None] on
    [Fallback]. *)
val answer : ?store:Store.t -> sources:source list -> Pattern.t -> (plan * row list) option

(** Canonical form: rows sorted by ID key — the concatenated
    {!Dewey.encode} of the cells' IDs, the key {!Mview} keeps per entry —
    then by payloads cell by cell ([val] before [cont], absent before
    present), and merged (counts summed) only when IDs and payloads are
    all equal. Encodings are self-delimiting, so for rows whose payloads
    are a function of their IDs this is the order of the per-cell
    encodings, compared lexicographically. *)
val canonical : row list -> row list

(** First discrepancy between two canonical row lists, if any, walking
    both in the canonical order. *)
val diff : expect:row list -> got:row list -> string option

val row_to_string : ?dict:Label_dict.t -> row -> string
