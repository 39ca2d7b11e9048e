(** Statement-level XML updates (Section 2.3):

    - [delete q] — remove every node returned by [q] (with its subtree);
    - [for $x in q insert xml into $x] — append a copy of the forest [xml]
      as last children of every node returned by [q]; the forest may be a
      function of the target to cover the general [insert q2 into q1]
      form.

    Applying an update is split into target location, pending-update-list
    construction, and side-effecting application on the store, so that the
    view-maintenance code can time and interleave these phases exactly as
    in the paper. *)

(** Where an insertion lands relative to its target: as last children
    ([Into], the paper's statement form), or as preceding/following
    siblings ([Before] / [After], the XQuery Update extension enabled by
    the dynamic ordinals — no existing ID is relabeled). *)
type placement = Into | Before | After

type t =
  | Delete of Xpath.path
  | Insert of {
      target : Xpath.path;
      forest : Xml_tree.node -> Xml_tree.node list;
      placement : placement;
      template : Xml_tree.node list option;
          (** The parsed fragment behind [forest] when the insertion was
              built from text ([insert]/[insert_before]/[insert_after]/
              [parse]); [None] for the opaque [insert_forest] form. A
              [Some] template makes the statement journalable: [to_string]
              round-trips through [parse]. *)
    }
  | Replace_value of { target : Xpath.path; text : string }
      (** XQuery Update's [replace value of node q with "text"]: every
          target's text children are removed and one fresh text node is
          appended (after any element children). Node identity is
          untouched (IDs never change), so views see it as a deletion
          followed by an insertion. *)

(** {1 Constructors} *)

(** [delete path] parses [path] and builds a deletion.
    @raise Xpath.Parse_error on a malformed path. *)
val delete : string -> t

(** [insert ~into fragment] parses both arguments; the forest is constant.
    @raise Xpath.Parse_error / @raise Xml_parse.Parse_error accordingly. *)
val insert : into:string -> string -> t

(** [insert_before ~target fragment] / [insert_after ~target fragment] —
    sibling insertions at every node returned by [target]. *)
val insert_before : target:string -> string -> t

val insert_after : target:string -> string -> t

val insert_forest : into:Xpath.path -> (Xml_tree.node -> Xml_tree.node list) -> t

(** [replace_value ~target text] parses [target].
    @raise Xpath.Parse_error on a malformed path. *)
val replace_value : target:string -> string -> t

(** [parse s] accepts the textual forms ["delete PATH"],
    ["insert into|before|after PATH FRAGMENT"],
    ["replace value of PATH with \"TEXT\""] (TEXT an OCaml-escaped string
    literal) and ["for $x in PATH insert FRAGMENT [into $x]"] (the
    statement shape of Section 2.3; the trailing [into $x] is implied).
    @raise Invalid_argument on other shapes. *)
val parse : string -> t

(** [to_string u] renders the statement back to [parse]d syntax. For every
    [journalable] statement the round trip is faithful:
    [parse (to_string u)] applies identically to [u] — the property the
    write-ahead log relies on. Opaque [insert_forest] statements render
    their fragment as ["<...>"], which [parse] rejects. *)
val to_string : t -> string

(** [journalable u] is [true] iff [to_string u] round-trips through
    [parse] — every statement except the opaque [insert_forest] form. *)
val journalable : t -> bool

(** {1 Phased application} *)

(** [select store path] is the live nodes [path] selects in the store's
    document, distinct and in document order. The leading [/] steps
    expand tree children from the root; every step from the first [//]
    on is a semi-join of its label's committed relation with the
    previous step's nodes; predicates are checked on each candidate.
    Where the relations cannot stand in for the tree — the store holds
    nodes attached or detached since its last commit, or a [*] test
    follows a [//] step — it falls back to the tree-walking
    [Xpath.eval], keeping live nodes only. The [xpath] Obs scope counts
    relation steps, relation rows read and tree fallbacks. *)
val select : Store.t -> Xpath.path -> Xml_tree.node list

(** [targets store u] is [select] on the update's target path — the
    "find target nodes" phase. *)
val targets : Store.t -> t -> Xml_tree.node list

(** Result of applying an insertion: for every target, the identifier of
    the node whose {e content} changed (the target itself for [Into], its
    parent for sibling placements) and the freshly attached forest roots
    (carrying their new identifiers). *)
type applied_insert = {
  pairs : (Dewey.t * Xml_tree.node list) list;
  changed : int list;
      (** The arena handles of the pairs' identifiers, in the same
          order. *)
  fresh : int;
      (** Nodes the application attached, descendants included: the
          length of the statement's Δ⁺ in the store's staged runs. *)
  fragment : Xml_tree.node list option;
      (** For a text-built [insert into]: the parsed fragment, of which
          every forest in [pairs] is a copy appended as its target's
          last children. [None] for sibling placements and for forests
          that are not copies of one parsed fragment. *)
}

(** Result of applying a deletion: the detached subtree roots, plus all
    deleted nodes (descendants included) with their identifiers. The full
    enumeration is lazy — detached subtrees stay internally resolvable
    until the store commits — so its cost lands where the paper puts it:
    in the Δ⁻-table computation, not in the document update. *)
type applied_delete = {
  roots : Dewey.t list;
  root_nodes : Xml_tree.node list;
  root_handles : int list;  (** the arena handles of [roots], in order *)
  last_content : bool list;
      (** Per root, in order: when detached, it was its parent's last
          content (non-attribute) child and another content child
          stayed. Its serialization then ended the parent's content. *)
  deleted : (Dewey.t * Xml_tree.node) list Lazy.t;
}

(** [apply_insert store u ~targets] copies and attaches the forest under
    every target; canonical relations are staged, not committed. *)
val apply_insert : Store.t -> t -> targets:Xml_tree.node list -> applied_insert

(** [apply_delete store ~targets] detaches every target subtree (nested
    targets are handled once); staged, not committed. *)
val apply_delete : Store.t -> targets:Xml_tree.node list -> applied_delete

(** [apply_insert_at store ~target forest] attaches the given (detached)
    trees as last children of [target] — the atomic [ins↘] operation used
    by the pending-update-list machinery. The forest nodes are attached as
    is, not copied. *)
val apply_insert_at :
  Store.t -> target:Xml_tree.node -> Xml_tree.node list -> applied_insert

(** [apply_replace store ~text ~targets] detaches every target's text
    children and attaches one fresh text node (none when [text] is
    empty); returns the two halves of the composite update. Every target
    appears in the insertion pairs even when nothing was attached, so
    payload refreshing covers it. *)
val apply_replace :
  Store.t -> text:string -> targets:Xml_tree.node list ->
  applied_delete * applied_insert
