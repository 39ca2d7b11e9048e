(** Membership tests against a set of subtree roots, given by identifier:
    "is this node inside one of the (possibly nested) deleted/inserted
    subtrees?" — answered from the ID alone, without touching the tree. *)

type t

val of_roots : Dewey.t list -> t

val is_empty : t -> bool

(** The normalized subtree roots: disjoint, in document order. Do not
    mutate. *)
val roots : t -> Dewey.t array

(** [mem region id]: [id] is one of the roots or a descendant of one. *)
val mem : t -> Dewey.t -> bool

(** [strictly_inside region id]: some strict ancestor of [id] is in the
    region — i.e. [id] lies strictly inside one of the subtrees. *)
val strictly_inside : t -> Dewey.t -> bool

(** [root_of region id] is the (normalized) subtree root containing [id],
    if any. *)
val root_of : t -> Dewey.t -> Dewey.t option
