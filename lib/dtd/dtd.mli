(** DTDs as extended context-free grammars (Section 3.3): one rule per
    element label, whose right-hand side is a regular expression over
    child labels. Used to detect, at update time and by reasoning on the
    Δ⁺ tables, insertions that would invalidate the document.

    Only element children participate in content models; attributes and
    text are transparent. *)

type regex =
  | Empty  (** the empty language *)
  | Epsilon  (** the empty word *)
  | Sym of string
  | Seq of regex * regex
  | Alt of regex * regex
  | Star of regex
  | Plus of regex
  | Opt of regex

type t

(** [create ~root rules]: one [(label, content-model)] pair per element;
    labels without a rule accept any content. *)
val create : root:string -> (string * regex) list -> t

val root : t -> string

(** [rule dtd label] is the content model of [label], if constrained. *)
val rule : t -> string -> regex option

(** Labels having a rule, sorted. *)
val labels : t -> string list

exception Parse_error of string

(** [parse s] reads a compact textual syntax, one rule per line:
    [label = expr] with [,] for concatenation, [|] for alternation,
    postfix [* + ?], parentheses and [EMPTY] for the empty word; the first
    rule's label is the root. Lines starting with [#] are comments.
    @raise Parse_error on malformed input. *)
val parse : string -> t

(** {1 Regex semantics} (Brzozowski derivatives) *)

val nullable : regex -> bool

(** [word_matches re w]: [w] ∈ L([re]). *)
val word_matches : regex -> string list -> bool

(** Symbols occurring in {e every} word of the language — the mandatory
    children used to derive Δ⁺ constraints (Examples 3.9 / 3.10). *)
val mandatory : regex -> string list

(** {1 Δ⁺ reasoning} *)

(** Transitively closed implications [(a, b)]: any inserted [a] element
    must come with a [b] element in the same forest
    ([Δ⁺a ≠ ∅ ⇒ Δ⁺b ≠ ∅]). *)
val delta_constraints : t -> (string * string) list

(** [check_delta dtd ~present] evaluates the Δ⁺ constraints against the
    set of labels present in the inserted forests; returns the violated
    pairs. *)
val check_delta : t -> present:(string -> bool) -> (string * string) list

(** {1 Full validation} *)

(** [validate_tree dtd node] checks every element of the subtree against
    its content model. *)
val validate_tree : t -> Xml_tree.node -> (unit, string) result

(** [check_insert dtd ~parent ~forest] decides whether appending [forest]
    under [parent] keeps the document valid: the parent's new child word
    must match its model and every inserted tree must be internally
    valid. *)
val check_insert :
  t -> parent:Xml_tree.node -> forest:Xml_tree.node list -> (unit, string) result
