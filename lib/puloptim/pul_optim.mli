(** Optimization of sequences of atomic update operations — the subset of
    the Cavalieri et al. rules used in Section 5 of the paper: reduction
    rules O1, O3 and I5; conflict rules IO, LO and NLO for parallel PULs;
    aggregation rules A1, A2 and D6 for sequential PULs.

    An atomic operation targets a node by structural identifier:
    [ins↘(n, F)] appends the forest [F] as last children of [n]; [del(n)]
    removes [n] with its subtree. Statement-level updates are lowered to
    such operations with {!atomic_ops} (the paper's CP / compute-pul step),
    optimized, and then propagated one by one with {!propagate_op}. *)

type op =
  | Ins of { target : Dewey.t; forest : Xml_tree.node list }
  | Del of { target : Dewey.t }

(** Target identifier of an operation. *)
val target : op -> Dewey.t

(** {1 compute-pul} *)

(** [atomic_ops store u] locates the targets of the statement [u] and
    lowers it to atomic operations (no document mutation; insertion
    forests are fresh copies). *)
val atomic_ops : Store.t -> Update.t -> op list

(** {1 Reduction (rules O1, O3, I5)} *)

(** [reduce ops] simplifies a sequence:
    - O1 — an insertion-into or deletion of [n] followed by [del(n)] is
      dropped in favour of the deletion;
    - O3 — an operation on [n] followed by the deletion of an ancestor of
      [n] is dropped;
    - I5 — two insertions into the same node merge into one (forests
      concatenated in order). *)
val reduce : op list -> op list

(** {1 Conflicts between parallel PULs (rules IO, LO, NLO)} *)

type conflict_kind =
  | Insertion_order  (** IO: two insertions into the same target *)
  | Local_override  (** LO: a deletion and an insertion on the same target *)
  | Non_local_override
      (** NLO: a deletion whose target is an ancestor of an insertion's *)

type conflict = { kind : conflict_kind; left : int; right : int }
    (** indices into the two PULs *)

(** [conflicts pul1 pul2] lists the conflicts preventing a blind parallel
    integration of the two PULs. *)
val conflicts : op list -> op list -> conflict list

(** {1 Aggregation of sequential PULs (rules A1, A2, D6)} *)

(** [aggregate store pul1 pul2] merges [pul1; pul2] into one sequence:
    same-target insertions are combined (A1/A2) and operations of [pul2]
    whose target lies inside a forest inserted by [pul1] are folded into
    that insertion's parameter (D6). [store] resolves identifiers when
    checking containment; operations folded by D6 mutate the forest
    template in place. *)
val aggregate : Store.t -> op list -> op list -> op list

(** {1 Propagation} *)

(** [propagate_op ?commit ?on_missing mv op] applies one atomic operation
    to the document and incrementally maintains [mv] through the
    machinery of {!Maint}. An operation whose target no longer resolves
    (e.g. a duplicate deletion in an unreduced sequence) raises
    [Invalid_argument] under [`Fail] (the default) or becomes a no-op
    under [`Skip].
    @return [None] only when a missing target was skipped. *)
val propagate_op :
  ?commit:bool -> ?on_missing:[ `Fail | `Skip ] -> Mview.t -> op -> Maint.report option
