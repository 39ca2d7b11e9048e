(** Shared substrate of the randomized harnesses ([Fuzz_oracle] and
    [Difftest]): the seeded-RNG helpers, the bounded failure recorder
    both report through, and the canonical-tree generator — so the two
    harnesses draw their documents from one definition of "canonical"
    and cannot drift apart.

    Trees are generated {e canonical} — attributes before content, no
    adjacent text siblings, no whitespace-only text — because those are
    exactly the invariants the parser normalizes to; on canonical trees
    [parse ∘ serialize] must be the identity node-for-node, and two
    stores built from a tree and its reparse index the same nodes. *)

(** {1 Reports}

    The shape every randomized harness reports in: how many inputs ran,
    how many failed, and the first few failure descriptions. *)

type report = {
  iterations : int;
  failed : int;
  failures : string list;  (** the first 5 *)
}

val ok : report -> bool

(** [summary label r] — one line when green, failure details otherwise. *)
val summary : string -> report -> string

(** A mutable failure accumulator feeding {!report_of}. *)
type recorder

val fresh_recorder : unit -> recorder
val record : recorder -> string -> unit
val report_of : recorder -> iterations:int -> report

(** {1 RNG helpers} *)

(** [pick rnd arr] — uniform draw from a non-empty array. *)
val pick : Random.State.t -> 'a array -> 'a

(** [abbrev s] truncates long strings for failure messages. *)
val abbrev : string -> string

(** {1 Canonical trees}

    A profile fixes the vocabulary a generated tree draws from. The
    {!ingestion} profile stresses the parser (exotic names,
    escaping-critical text, multi-byte UTF-8); the {!plain} profile
    uses the small label/word pools the pattern-matching harnesses
    need so that random views actually hit random documents. *)

type profile = {
  labels : string array;
  attr_names : string array;
  text_pieces : string array;
}

val ingestion : profile
val plain : profile

(** [gen_element profile rnd depth] — one canonical element of the
    given maximum depth. *)
val gen_element : profile -> Random.State.t -> int -> Xml_tree.node

(** [random_document ?profile rnd] — one randomized canonical tree of
    depth 1–4 (default profile: {!ingestion}). *)
val random_document : ?profile:profile -> Random.State.t -> Xml_tree.node

(** [skewed_document ?profile rnd] — a canonical tree with Zipfian
    label concentration and occasional large same-label sibling runs:
    the degenerate shapes the heavy-light classifier and its
    differential oracle need to exercise (default profile:
    {!plain}). *)
val skewed_document : ?profile:profile -> Random.State.t -> Xml_tree.node
