(** Intern arena for Dewey identifiers.

    Every distinct identifier interned into an arena gets a dense [int]
    {e handle}; the arena stores, per handle, the last step of the
    identifier packed into one growable flat [int] buffer plus flat int
    side-arrays (ordinal offset/length, parent handle, label code,
    depth), and indexes every handle by its parent handle and last step
    in a flat open-addressing table (the {e child index}). Handles are
    canonical — two handles of one arena are equal
    iff the identifiers are — so equality is [(=)] on ints, and
    [compare] / [is_prefix] / ancestor navigation are branchy int
    arithmetic over contiguous arrays with no allocation.

    Ancestor closure invariant: interning an identifier interns all its
    step-prefixes, so {!parent} always yields a valid handle (or [-1]
    for roots) and lifting a handle to any ancestor depth stays inside
    the arena.

    Domain contract (matching {!Store.commit}): {!intern} and
    {!intern_child} may add to the arena only on the main domain, the
    store's only writer; off the main domain they are allowed only when
    the identifier is already present (a lookup; {!intern_child} also
    records the handle it returns, a hint any value of which is
    correct, since it is checked by the exact key comparison before
    use). A growing child index is published as a fresh array. All
    other operations are read-only. *)

type t

(** Dense handle. Valid handles are [0 .. size arena - 1]. *)
type handle = int

val create : unit -> t

(** Number of interned identifiers (= smallest invalid handle). *)
val size : t -> int

(** Hash tables keyed by handles, or by any other dense small ints
    (node serials), hashed as themselves rather than through the
    polymorphic hash. *)
module Tbl : Hashtbl.S with type key = int

(** [intern a id] is the canonical handle of [id], interning [id] and
    all its ancestors on first sight: a root-to-leaf walk of child
    probes, counted in [dewey.arena.walks] like {!find}.
    @raise Invalid_argument when [id] is not yet interned and the caller
    is not the main domain. *)
val intern : t -> Dewey.t -> handle

(** [find_child a ~parent ~lab ~ord] is the handle of the child of
    [parent] ([-1] for a root) whose last step has label [lab] and
    ordinal [ord], or [-1] when none is interned: one probe of the
    child index, no allocation, safe from any domain. *)
val find_child : t -> parent:handle -> lab:int -> ord:Dewey.Ord.o -> handle

(** [intern_child a ~parent ~lab ~ord] is {!find_child}, interning the
    child on a miss (its boxed id extends [to_dewey a parent] by one
    step). A hit returns the canonical handle, whose {!to_dewey} is the
    already boxed id: the caller builds no [Dewey.child]. The handle
    after the one the previous call returned is compared with the key
    first, and the child index is probed only when it differs: a
    fragment re-inserted where an undo freed its identifiers is found
    handle after handle, without hashing.
    @raise Invalid_argument on a miss off the main domain. *)
val intern_child : t -> parent:handle -> lab:int -> ord:Dewey.Ord.o -> handle

(** Pure lookup by a root-to-leaf walk of child probes; never mutates,
    safe from any domain. *)
val find : t -> Dewey.t -> handle option

(** [to_dewey a h] is the boxed identifier of [h] (O(1), cached). *)
val to_dewey : t -> handle -> Dewey.t

val depth : t -> handle -> int

(** Label code of the node itself. *)
val label : t -> handle -> int

(** Parent handle, [-1] for roots. *)
val parent : t -> handle -> handle

(** [ancestor_at a h d] is the ancestor-or-self of [h] at depth [d];
    requires [1 <= d <= depth a h]. *)
val ancestor_at : t -> handle -> int -> handle

(** Document order; agrees with [Dewey.compare] on {!to_dewey}. *)
val compare : t -> handle -> handle -> int

(** [is_prefix a h d]: [h] is an ancestor-or-self of [d]. *)
val is_prefix : t -> handle -> handle -> bool

val is_ancestor : t -> handle -> handle -> bool
val is_parent : t -> handle -> handle -> bool

(** [gallop a hs lo n h] is the index of the first handle in
    [hs.(lo .. n-1)] not before [h] in document order ([n] if none), for
    [hs] sorted in document order. Exponential probing from [lo], then a
    binary search: O(log gap) comparisons, so walking a sorted batch
    through a sorted run costs O(batch × log(|run| / batch)). *)
val gallop : t -> handle array -> int -> int -> handle -> int
