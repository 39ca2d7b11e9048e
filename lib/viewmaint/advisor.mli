(** Cost-based choice of the snowcaps to materialize — the optimization
    the paper sketches in Section 3.5 ("Optimal choice of snowcaps") and
    delegates to the database's cost-based machinery.

    The decision weighs, per candidate snowcap [S]:

    - {e how often} [S] would serve as the R-part of a surviving union
      term, derived from an {e update profile} — the expected relative
      update rate per element label (Section 3.5's workload statistics);
      a term with R-part [S] fires when the update produces Δs for every
      node outside [S], so its frequency is bounded by the scarcest such
      rate;
    - {e what it saves}: recomputing [S] from the lattice leaves costs on
      the order of the summed canonical-relation sizes of its nodes;
    - {e what it costs}: keeping [S] materialized costs upkeep and space
      proportional to its estimated cardinality.

    The estimates use the store's relation statistics only — no view
    evaluation happens here. *)

(** Relative update rate per element label; labels not listed get
    rate 1. *)
type profile = (string * float) list

(** The uniform profile: every label equally likely to be updated. *)
val uniform : profile

(** [choose ?max_mats store pat ~profile] returns the snowcaps with
    positive score, best first, at most [max_mats] (default: one per
    lattice level, as in the paper's experiments). *)
val choose :
  ?max_mats:int -> Store.t -> Pattern.t -> profile:profile -> Lattice.nset list

(** [policy ?max_mats store pat ~profile] wraps {!choose} as a
    materialization policy; an empty choice degenerates to [Leaves]. *)
val policy :
  ?max_mats:int -> Store.t -> Pattern.t -> profile:profile -> Mview.policy
