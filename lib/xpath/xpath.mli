(** XPath{/,//,*,[]} — the fragment used by the paper's update statements:
    child and descendant axes, name and [*] node tests, attribute steps,
    and predicates combining relative paths, string-value comparisons,
    [and], [or] and parentheses.

    Examples accepted by {!parse}:
    {[
      /site/people/person/@id
      //open_auction[privacy and bidder]/bidder
      /site/regions[namerica or samerica]//item
      //item[description and (name or mailbox)]
      /site/people/person[@id='person0']
    ]} *)

type axis = Child | Descendant

type test =
  | Name of string  (** element name test *)
  | Star  (** [*]: any element *)
  | Attr of string  (** [@name]: attribute step *)

type pred =
  | Exists of path  (** a relative path with a non-empty result *)
  | Eq of path * string
      (** [path = 'lit']; the empty path compares the context node itself *)
  | And of pred * pred
  | Or of pred * pred

and step = { axis : axis; test : test; preds : pred list }

and path = step list

exception Parse_error of string

(** [parse s] parses an absolute path (leading [/] or [//]).
    @raise Parse_error on malformed input. *)
val parse : string -> path

(** [to_string p] renders a parsed path back to XPath syntax. *)
val to_string : path -> string

(** [eval root p] evaluates [p] against the document rooted at [root] by
    walking the tree; the first step's axis is taken relative to a
    virtual root above [root]. Results are distinct nodes in document
    order. This is the store-less evaluator; callers holding a store use
    [Update.select], which reads the store's label relations. *)
val eval : Xml_tree.node -> path -> Xml_tree.node list

(** [holds node pred] evaluates a predicate with [node] as context. The
    search is depth-first and stops at the first witness. *)
val holds : Xml_tree.node -> pred -> bool

(** [accepts step n]: [n] passes [step]'s node test and all its
    predicates (the step's axis is not consulted). *)
val accepts : step -> Xml_tree.node -> bool
