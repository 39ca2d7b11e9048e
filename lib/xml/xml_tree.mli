(** Ordered labeled XML trees: element, attribute and text nodes.

    Nodes are mutable (children and parent links) so that XQuery-Update
    style modifications can be applied in place. Every node carries a
    process-unique serial, used by stores to attach identifiers without
    polluting the tree representation. *)

type kind = Element | Attribute | Text

type node = private {
  serial : int;
  kind : kind;
  name : string;  (** element / attribute name; ["#text"] for text nodes *)
  text : string;  (** attribute value or text content; [""] for elements *)
  mutable children : node list;  (** attributes first, then content nodes *)
  mutable parent : node option;
}

(** {1 Construction} *)

val element : ?children:node list -> string -> node
val text : string -> node
val attribute : string -> string -> node

(** [append_child parent child] attaches [child] as the last child.
    @raise Invalid_argument if [child] already has a parent. *)
val append_child : node -> node -> unit

(** [append_children parent kids] bulk variant of {!append_child}. *)
val append_children : node -> node list -> unit

(** [remove_child parent child] detaches [child]; no-op if absent. *)
val remove_child : node -> node -> unit

(** [insert_children parent ~anchor ~where kids] splices [kids] into
    [parent]'s child list immediately before or after [anchor].
    @raise Invalid_argument if [anchor] is not a child of [parent] or a
    kid is already attached. *)
val insert_children :
  node -> anchor:node -> where:[ `Before | `After ] -> node list -> unit

(** Deep copy with fresh serials and no parent. *)
val copy : node -> node

(** {1 Inspection} *)

(** Label as used in identifiers: element name, ["@" ^ name] for
    attributes, ["#text"] for text nodes. *)
val label : node -> string

(** XPath string value: attribute value, text content, or concatenation of
    the text descendants of an element in document order. *)
val string_value : node -> string

(** [iter f n] applies [f] to [n] and all its descendants in document
    order (attributes before element content). *)
val iter : (node -> unit) -> node -> unit

(** All descendants-or-self in document order. *)
val descendants_or_self : node -> node list

(** Children that are elements (excludes attributes and text). *)
val element_children : node -> node list

(** Attribute child with the given name, if any. *)
val attribute_node : node -> string -> node option

(** Number of descendant-or-self nodes. *)
val size : node -> int

(** [is_ancestor a d]: [a] is a strict ancestor of [d] via parent links. *)
val is_ancestor : node -> node -> bool

(** [equal a b]: structural equality — kind, name, text and children,
    recursively — ignoring serials and parent links. This is the
    round-trip oracle's notion of "same tree". *)
val equal : node -> node -> bool

(** {1 Serialization} *)

(** [serialize ?decl n] renders the subtree as XML text. *)
val serialize : ?decl:bool -> node -> string

(** Byte length of {!serialize} output without materializing it,
    escapes included. *)
val serialized_size : node -> int

(** {2 Editing a serialization in place}

    Both work on the {!serialize} output of an element {e with content}
    (one that ends in a closing tag) and return [None] for any other
    string: a self-closing element, an attribute or a text. *)

(** [splice_content s fragment] is [s] with [fragment] inserted just
    before its closing tag: the serialization of the element after
    appending last children that serialize to [fragment]. *)
val splice_content : string -> string -> string option

(** [cut_content s k] is [s] without the [k] bytes before its closing
    tag: the serialization of the element after detaching its last
    content children, [k] their {!serialized_size}s summed. [None]
    also when the cut would leave no content byte. *)
val cut_content : string -> int -> string option
