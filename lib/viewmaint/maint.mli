(** The paper's update-propagation algorithms.

    Insertions run the combined PINT/PIMT driver (Algorithms 1–4): develop
    the union terms (Proposition 3.12: one per snowcap, plus the all-Δ
    term), prune them with the update semantics and the Δ⁺-driven rules
    (Props 3.3, 3.6, 3.8), evaluate the survivors with structural joins
    (ET-INS), add the resulting embeddings to the view with derivation
    counting, refresh the [val]/[cont] payloads whose nodes gained
    descendants (PIMT), and finally maintain the materialized snowcaps
    bottom-up (Proposition 3.13) and commit the canonical relations.

    Deletions run the combined PDDT/PDMT driver (Algorithms 5–6): the
    deletion expression is evaluated in its derivation-count-exact form —
    for every proper snowcap [S], the term [⋈_{n∈S}(R_n \ Δ⁻_n) ⋈
    ⋈_{n∉S}Δ⁻_n] — pruned by Props 4.2, 4.3 and 4.7; every resulting
    embedding decrements its tuple's derivation count, removing the tuple
    at zero; payloads of surviving ancestors are refreshed (PDMT); snowcap
    tables and relations are purged. *)

type report = {
  timing : Timing.breakdown;
  terms_developed : int;  (** candidate union terms for the view *)
  terms_surviving : int;  (** terms left after data-driven pruning *)
  embeddings_added : int;
  embeddings_removed : int;
  tuples_modified : int;  (** payload refreshes by PIMT / PDMT *)
  fallback_recompute : bool;
      (** [true] when a value-predicate flip forced a full rebuild *)
  skipped_irrelevant : bool;
      (** [true] when the batch engine's relevance pre-filter proved the
          update could not touch this view and skipped propagation *)
}

(** Zeroed report for a view skipped by the relevance pre-filter
    ([skipped_irrelevant] set); counted in
    [maint.work.skipped_irrelevant]. *)
val skipped_report : unit -> report

(** Zeroed report for a view whose propagation the adaptive path
    deferred: [skipped_irrelevant] is {e not} set and the skip counter
    is not bumped ([maint.defer.deferrals] counts deferrals). Like a
    skip, it reports no change to the view's image. *)
val deferred_report : unit -> report

(** The Figure 18/19 phase setters: each adds a span to the breakdown
    {e and} to the matching [maint.phase.*] timer. [View_set] times its
    shared per-statement phases through them. *)
module Phase : sig
  val find_target : Timing.breakdown -> float -> unit
  val apply_doc : Timing.breakdown -> float -> unit
  val compute_delta : Timing.breakdown -> float -> unit
  val update_aux : Timing.breakdown -> float -> unit
end

(** [propagate ?prune mv u] applies [u] to the underlying document {e and}
    incrementally maintains [mv]. When several views share one store,
    apply the update through one of them and use {!propagate_applied} for
    the others. [prune] (default [true]) controls the {e data-driven}
    pruning rules (Props 3.6 / 3.8 / 4.7); disabling it evaluates every
    candidate term — still correct (pruned terms are provably empty),
    only slower. The update-independent pruning of Props 3.3 / 4.2 is
    structural and always applies. *)
val propagate : ?prune:bool -> Mview.t -> Update.t -> report

val propagate_insert : ?prune:bool -> Mview.t -> Update.t -> report
val propagate_delete : ?prune:bool -> Mview.t -> Update.t -> report

(** {1 Sharing one document update across several views}

    [apply_only store u] performs the document side of [u] (find targets,
    mutate, assign IDs) without touching any view; the returned
    application can then be propagated to any number of views over the
    same store with [propagate_applied]. The store is committed by the
    {e last} propagation ([~commit:true]). *)

type applied =
  | Ins of Update.applied_insert
  | Del of Update.applied_delete
  | Repl of Update.applied_delete * Update.applied_insert
      (** replace-value: the removed text nodes and the content-changed
          targets with their fresh text *)

val apply_only : Store.t -> Update.t -> applied * Timing.breakdown

(** {1 Value-predicate guard}

    The paper's delta model assumes that an update only {e adds to} or
    {e removes from} the canonical relations; but inserting or deleting
    text below an {e existing} node watched by a [[val = c]] predicate can
    flip that node's selection status. Watches record, before the
    document mutates, the predicate status of the (rare) candidate nodes
    — the target ancestors carrying a vpred-matching tag. If a flip is
    detected after application, the propagation falls back to an exact
    full rebuild of the view ([fallback_recompute] is set). *)

(** One watch per (vpred pattern node, candidate node): the pattern node,
    the candidate's arena handle, and whether the predicate held before
    the mutation. *)
type watches = (int * int * bool) list

(** [vpred_watches mv targets] must be called {e before} the document is
    mutated. Each target's ancestor walk stops at the first node an
    earlier walk visited. *)
val vpred_watches : Mview.t -> Xml_tree.node list -> watches

(** [watches_flipped mv watches] — re-check the watches after the
    document mutated, resolving each node by its handle; [true] means the
    incremental path is unsound for this view and propagation must
    rebuild instead. *)
val watches_flipped : Mview.t -> watches -> bool

(** {1 Payload-affected nodes}

    An update can change the [val]/[cont] payload of exactly the
    ancestors-or-self of its insertion points and the strict ancestors
    of its deleted roots. [affected_of store applied] collects those
    nodes' arena handles and their label codes once per statement, from
    the handles the applied update carries and their parent chains in
    the store's arena; refreshing then tests each payload cell by its
    handle. Each handle carries its {!Mview.edit}: a target of a
    text-built [insert into], or the parent of a deleted last content
    child, that is the only change point at or below it has its [cont]
    edited in place; every other one is serialized. The copies of each
    root of such an insertion's fragment share one serialization. *)

type affected

val affected_of : Store.t -> applied -> affected

(** [payload_safe mv aff]: no [val]/[cont] node of [mv] carries a label
    of [aff] (a [*] node matches any), so no stored payload of [mv] can
    have gone stale. Always true when [mv] stores no payloads. *)
val payload_safe : Mview.t -> affected -> bool

(** [propagate_applied ?commit ?flipped ?shared ?affected mv applied] incrementally
    maintains [mv]. [flipped] is {!watches_flipped} of the view's
    watches for this application, checked once by the caller; when
    [true] the view is rebuilt exactly ([fallback_recompute]). Without
    it, predicate flips are assumed absent (true whenever updates never
    put text below a vpred-matching ancestor). [shared] supplies a prebuilt {!Delta.Shared} index for the
    same applied update, so Δ extraction is a per-pattern-node lookup
    instead of a fresh scan — the batch engine builds one index per
    update and passes it to every view. [affected] likewise supplies
    {!affected_of}[ applied], computed once per statement; the payload
    refresh (PIMT/PDMT) only visits a view's entries when
    {!payload_safe} fails, and then only its at-risk cells.

    With [~commit:false] and [flipped] false, propagation of an
    [Ins]/[Del] application only {e reads} the store (relations, spans,
    node resolution) and mutates view-private state, so every such view
    of a set sees the same pre-commit relations and one hoisted
    {!Store.commit} serves them all (see [View_set.update]). The [Repl]
    rebuild path (a ["#text"] structural view) and a flipped watch both
    commit, so the batch engine runs those views after the shared
    commit. *)
val propagate_applied :
  ?commit:bool -> ?flipped:bool -> ?prune:bool -> ?shared:Delta.Shared.t ->
  ?affected:affected -> Mview.t -> applied -> report

(** {1 Union-term introspection}

    The term machinery, exposed for tests (pruning-soundness oracles) and
    ablation benchmarks. *)
module Terms : sig
  (** Candidate terms for maintaining the sub-pattern [scope]: the
      R-parts, i.e. one snowcap strictly inside [scope] per term, plus the
      all-Δ term (the empty set). *)
  val candidates : Mview.t -> scope:Lattice.nset -> Lattice.nset list

  (** Data-driven pruning verdict for one term. *)
  val survives :
    Mview.t -> Delta.t -> scope:Lattice.nset -> kind:[ `Insert | `Delete ] ->
    Lattice.nset -> bool

  (** Evaluate one term; [survivors_only] restricts the R-part to
      [R \ Δ⁻] (the deletion reading). *)
  val eval :
    Mview.t -> Delta.t -> scope:Lattice.nset -> s_set:Lattice.nset ->
    survivors_only:bool -> Tuple_table.t
end

(** The tuple-modification pass alone (PIMT for insertions, PDMT for
    deletions): refresh the [val]/[cont] payloads affected by [applied];
    returns the number of refreshed cells. Exposed for baselines that
    maintain tuples by other means. *)
val refresh_payloads : Mview.t -> applied -> int
