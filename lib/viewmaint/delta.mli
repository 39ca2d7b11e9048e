(** Δ⁺ / Δ⁻ tables (algorithm CD+ of Section 3.5 and its deletion
    counterpart CD-): for every view node, the inserted (resp. deleted)
    document nodes that match the node's tag and value predicate, in
    document order. Also carries the ID-level context used by the
    data-driven pruning rules (Props 3.6, 3.8 and 4.7). *)

type t = {
  tables : Tuple_table.t array;
      (** indexed by pattern node: single-column table σ_n(Δ_n) *)
  region : Id_region.t;  (** inserted / deleted subtree roots *)
  target_ids : Dewey.t list;
      (** insertion points (parents of new trees) or deletion roots *)
}

(** Shared update-region index: a label → document-ordered entries map
    over the update region, built {e once per applied update} and then
    consumed per view by lookup ({!of_shared}).  The [maint.delta]
    [nodes]/[extractions] counters are charged at build time, so the
    per-update scan work they report is independent of how many views
    consume the index; each consuming view still charges [rows]. *)
module Shared : sig
  type t

  (** The store's staged runs ({!Store.staged_runs}): the inserted nodes
      per label in document order, exactly as [Store.commit] will merge
      them — no walk, no sort.
      @raise Invalid_argument if the store holds staged nodes besides
      [applied]'s (the insertion must be the only change staged since
      the last commit). *)
  val of_insert : Store.t -> Update.applied_insert -> t

  (** One preorder walk of the detached subtrees (still resolvable until
      the commit), grouped by label into document-ordered runs.

      [wanted] narrows the indexed labels to the consuming views' pattern
      tags (["*"] standing for every element label); labels outside it
      are absent from the index and must not be looked up. Default: every
      label in the store. *)
  val of_delete : ?wanted:string list -> Store.t -> Update.applied_delete -> t

  val region : t -> Id_region.t
  val target_ids : t -> Dewey.t list

  val mem_label : t -> string -> bool
  (** The update region contains at least one node with this label
      (["@name"] for attributes, ["#text"] for text). *)

  val has_elements : t -> bool
  (** The update region contains at least one element node — i.e. a [*]
      pattern tag is touched. *)

  val exists_label : t -> (string -> bool) -> bool
  (** Some label in the update region satisfies the predicate. The
      heavy-light router uses it to decide whether a delta touches the
      heavy partition at all. *)

  val label_counts : t -> (string * int) list
  (** Indexed labels with their region entry counts — the unit of the
      heavy-light amortization (deferred delta work) accounting. *)
end

(** [of_shared sh pat] extracts the view-specific Δ tables from the shared
    index: per pattern node, a label lookup plus the view's vpred /
    root-anchor filter.  Equivalent to {!of_insert} / {!of_delete} on the
    same applied update.  Reads only the index (and the nodes it already
    references), so every view of a set extracts from one index. *)
val of_shared : Shared.t -> Pattern.t -> t

(** [of_insert store pat applied] extracts Δ⁺ from a pending update list
    whose forests are already attached (so every new node has an ID).
    Builds a throwaway {!Shared} index — single-view convenience. *)
val of_insert : Store.t -> Pattern.t -> Update.applied_insert -> t

(** [of_delete store pat applied] extracts Δ⁻ from the detached subtrees:
    {!of_shared} over a {!Shared.of_delete} index narrowed to the
    pattern's tags. *)
val of_delete : Store.t -> Pattern.t -> Update.applied_delete -> t

(** [nonempty d i]: Δ table of pattern node [i] is non-empty. *)
val nonempty : t -> int -> bool
