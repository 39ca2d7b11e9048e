(** Document store: assigns structural Dewey identifiers to every node of a
    document and maintains the {e virtual canonical relations} [R_a] — for
    each label [a], the list of [(ID, node)] entries of the [a]-labeled
    nodes in document order (Section 2.2 of the paper; [val] and [cont] are
    computed from the node on demand).

    Updates follow a two-phase discipline so that view-maintenance code can
    evaluate algebraic terms against the {e pre-update} canonical relations
    while the tree (and the IDs of freshly inserted nodes) already reflect
    the update:

    + {!attach} / {!detach} mutate the tree, assign or invalidate IDs, and
      stage the change;
    + {!commit} folds staged changes into the canonical relations.

    Every node attached since the last commit is staged in its label's
    {e run}, in document order: the statement's Δ⁺. The shared Δ index
    reads the runs ({!staged_runs}) and {!commit} merges the same arrays
    into the relations, so neither re-walks nor re-sorts the new nodes.

    Within one commit no identifier is minted twice: the identifiers of
    live nodes and of detached-but-uncommitted ones are all reserved, and
    an attach that would reuse one raises [Invalid_argument]. *)

type t

type entry = { id : Dewey.t; node : Xml_tree.node }

(** [sort_pairs arena entries handles] reorders aligned entry and handle
    arrays into document order (fresh arrays). *)
val sort_pairs :
  Dewey_arena.t -> entry array -> int array -> entry array * int array

(** A document-ordered run of entries with their parallel arena handles,
    filled by preorder walks. Each walk is one segment (any int distinct
    from the previous push's): order is checked only where a segment
    starts, in O(1) per segment, and {!Run.seal} sorts the run only if a
    segment started out of order. *)
module Run : sig
  type t

  val create : unit -> t
  val push : Dewey_arena.t -> t -> seg:int -> entry -> int -> unit

  (** Exact-length arrays in document order. They are never written
      again — a later push grows into fresh arrays — so they may be
      shared. *)
  val seal : Dewey_arena.t -> t -> entry array * int array
end

(** [of_document ?dict ?ord_of root] indexes a document. [ord_of], when
    given, supplies the sibling ordinal of each non-root node instead of
    the canonical [1..n] numbering; checkpoint recovery uses it (with a
    restored dictionary) to re-intern exactly the identifiers a previous
    store had minted, including the fractional ordinals of sibling
    insertions — so identifiers persisted beside the document (view
    images, logs) stay valid. *)
val of_document :
  ?dict:Label_dict.t -> ?ord_of:(Xml_tree.node -> Dewey.Ord.o) ->
  Xml_tree.node -> t

val root : t -> Xml_tree.node
val dict : t -> Label_dict.t

(** The store's Dewey intern arena. One per store, populated at
    registration time (every live identifier and all its ancestors are
    interned) and append-only, so view propagation only looks
    identifiers up. *)
val arena : t -> Dewey_arena.t

(** [handle_of_node store node] is the arena handle of [node]'s
    identifier — a pure lookup by the node's serial, safe from any
    domain.
    @raise Not_found if [node] does not belong to the store. *)
val handle_of_node : t -> Xml_tree.node -> int

(** Total number of indexed (live) nodes. *)
val node_count : t -> int

(** [id_of store node].
    @raise Not_found if [node] does not belong to the store. *)
val id_of : t -> Xml_tree.node -> Dewey.t

(** [mem store node]: the node is live (indexed and not detached). *)
val mem : t -> Xml_tree.node -> bool

(** [node_of store id] finds a live node by identifier: a walk of the
    arena's child index ({!Dewey_arena.find}), for cold paths. *)
val node_of : t -> Dewey.t -> Xml_tree.node option

(** [node_of_handle store h] is the live node holding the arena handle
    [h], with {!node_of}'s checks: [None] when no node holds it (never
    attached, or swept by a commit) or when it lies in a subtree detached
    since the last commit. [node_of_handle s h] equals
    [node_of s (Dewey_arena.to_dewey (arena s) h)] for every handle, in
    O(depth) with no hashing. *)
val node_of_handle : t -> int -> Xml_tree.node option

(** [relation store label] is the committed canonical relation of [label],
    sorted in document order. Returns [||] for unseen labels. *)
val relation : t -> string -> entry array

(** [relation_handles store label] is the committed canonical relation
    paired with the parallel array of arena handles, both in document
    order. Columnar scans build handle columns from it directly. Do not
    mutate either array. *)
val relation_handles : t -> string -> entry array * int array

(** [relation_runs store label] is the committed relation as its sorted
    runs: the main part, then the pending tail when it is non-empty (see
    heavy-light partitioning below). Each run pairs entries with their
    arena handles, in document order. Nothing is copied or merged and no
    [store.scan] row is counted. Do not mutate the arrays. *)
val relation_runs : t -> string -> (entry array * int array) list

(** [settled store]: no node was attached or detached since the last
    {!commit}, so the committed relations hold exactly the live tree. *)
val settled : t -> bool

(** Labels having a non-empty committed relation. *)
val relation_labels : t -> string list

(** Committed rows of [label] (main part + pending tail). *)
val relation_size : t -> string -> int

(** {1 Heavy-light partitioning}

    Each canonical relation is physically two sorted runs: an eagerly
    merge-maintained main part and a (normally empty) pending tail.
    With no partition predicate installed — the default — the tail is
    never populated and the store behaves exactly as before. With a
    predicate, {!commit} routes the staged batches of {e heavy} labels
    into the tail (cost O(|tail| + |batch|) instead of O(|R|)), folding
    the tail into the main run only when it crosses the configured
    budget or on an explicit drain. Readers always see the union of the
    two runs, in document order, and never mutate the relation — a
    non-empty tail costs them a fresh merged copy, so drains should
    happen at the serialization points the caller controls. *)

(** [set_partition store ?tail_budget pred] installs (or, with [None],
    removes) the heavy-label predicate, first draining every pending
    tail so routing invariants restart clean. [tail_budget] caps the
    pending rows a single relation may buffer before {!commit}
    force-merges it (default: unbounded). *)
val set_partition : t -> ?tail_budget:int -> (string -> bool) option -> unit

(** Total rows currently buffered in pending tails. *)
val pending_rows : t -> int

(** Fold [label]'s pending tail into its main run. *)
val drain_label : t -> string -> unit

(** Fold every pending tail into its main run. *)
val drain_all : t -> unit


(** {1 Per-label statistics} *)

type label_stat = {
  ls_count : int;  (** live nodes with this label *)
  ls_parents : int;  (** distinct parents of those nodes *)
  ls_max_fanout : int;  (** max same-label siblings under one parent *)
}

(** [label_stat store label] scans the relation once — O(|R_label|);
    callers amortize (see [Viewmaint.Hl]). *)
val label_stat : t -> string -> label_stat

(** {1 Updates} *)

(** Number of nodes attached since the last commit (including any
    detached again since). *)
val staged_count : t -> int

(** [staged_runs store] is the nodes attached since the last commit,
    grouped by label, each run in document order with its parallel
    arena handles. The arrays are shared with the store: do not mutate
    them. Main domain only (sealing a run may sort it once). *)
val staged_runs : t -> (string * entry array * int array) list

(** The element nodes among {!staged_runs}, all labels together, in
    document order. *)
val staged_elements : t -> entry array * int array

(** The label codes of a forest, one tree of codes per forest tree, in
    the store's dictionary: computed once ({!shape}) and passed to every
    {!attach} of a copy of the forest, so that attaching copies looks up
    no label. *)
type shape

(** [shape store forest] interns the labels of [forest]'s nodes. *)
val shape : t -> Xml_tree.node list -> shape list

(** [attach store ?shape ~parent forest] appends the trees of [forest] as
    the last children of [parent], assigns IDs to every new node and
    stages them for {!commit}. The forest nodes must be detached (no
    parent). [shape], when given, must be the {!shape} of a forest of
    the same structure and labels. Each new node's identifier is one
    probe of the arena's child index from its parent's handle; a
    re-inserted identifier reuses its canonical boxed id. *)
val attach :
  t -> ?shape:shape list -> parent:Xml_tree.node -> Xml_tree.node list -> unit

(** [attach_beside store ~sibling ~where forest] inserts the trees of
    [forest] immediately before or after [sibling], assigning fresh
    ordinals strictly between the neighbours' — no existing identifier is
    touched (the dynamic-Dewey "no relabeling" property).
    @raise Invalid_argument if [sibling] has no parent. *)
val attach_beside :
  t -> ?shape:shape list -> sibling:Xml_tree.node -> where:[ `Before | `After ] ->
  Xml_tree.node list -> unit

(** [detach store node] removes the subtree rooted at [node] from the tree
    and stages the removal of all its nodes. IDs of detached nodes resolve
    to [None] immediately, but stay reserved until {!commit}. *)
val detach : t -> Xml_tree.node -> unit

(** Folds staged insertions and removals into the canonical relations.

    Must be called from the main domain, the store's only writer: the
    serving loop applies statements there, while its reader domains
    answer from immutable snapshots and never touch the store.
    @raise Invalid_argument when called from another domain. *)
val commit : t -> unit
