(** Tree patterns — the view dialect {b P} of the paper (Section 2.2).

    A pattern is a rooted tree. Each node carries an element/attribute
    label (or [*]), the axis of the edge to its parent ([/] or [//]; for
    the root, the axis from a virtual node above the document root), an
    optional value predicate [[val = c]], and {e stored attributes}
    declaring which items the view materializes for that node: its
    structural [ID], its string [val]ue, and/or its serialized [cont]ent.

    Nodes are indexed in preorder: node [0] is the root. *)

type axis = Child | Descendant

type annot = { store_id : bool; store_val : bool; store_cont : bool }

val no_annot : annot

type t = private {
  name : string;
  tags : string array;
  axes : axis array;  (** [axes.(0)] anchors the root below a virtual root *)
  parents : int array;  (** [parents.(0) = -1] *)
  annots : annot array;
  vpreds : string option array;
}

(** {1 Construction} *)

type spec

(** [n tag children] describes one pattern node. [axis] defaults to
    [Descendant]. [id], [value], [content] select stored attributes;
    [vpred] attaches a [[val = c]] predicate. *)
val n :
  ?axis:axis ->
  ?id:bool ->
  ?value:bool ->
  ?content:bool ->
  ?vpred:string ->
  string ->
  spec list ->
  spec

(** [compile ~name root] freezes a spec tree into a pattern. Nodes storing
    [val] or [cont] are implicitly given [ID] storage as well, as required
    by the tuple-modification algorithms (Section 3.6). *)
val compile : name:string -> spec -> t

(** {1 Inspection} *)

val node_count : t -> int

(** Children of a node, in preorder. *)
val children : t -> int -> int list

(** Indices of nodes with at least one stored attribute, in preorder. *)
val stored_nodes : t -> int list

(** Indices of nodes storing [val] or [cont] (the set {e cvn} of the
    paper), in preorder. *)
val cvn : t -> int list

(** Descendant node indices of [i] (strict), in preorder. *)
val descendants : t -> int -> int list

(** [tag_matches tag node] — does a pattern tag accept this document
    node? [*] accepts any element; ["@x"] accepts attribute [x]. *)
val tag_matches : string -> Xml_tree.node -> bool

(** [subpattern pat i ~name] is the subtree of [pat] rooted at node [i]
    as a standalone pattern: the root's axis becomes [Descendant] (a
    standalone evaluation must reach the node anywhere in the document)
    and its stored attributes are reduced to [ID] alone — the join key
    the intersection planner stitches on. Descendant nodes keep their
    axes, predicates and stored attributes. *)
val subpattern : t -> int -> name:string -> t

(** [prune pat i ~name] is [pat] with the strict descendants of node [i]
    removed; node [i] additionally stores its [ID] (again the join key).
    @raise Invalid_argument if [i] is out of range. *)
val prune : t -> int -> name:string -> t

(** [vpred_holds pat i node]: value predicate of node [i] (if any) holds
    on [node]. *)
val vpred_holds : t -> int -> Xml_tree.node -> bool

(** Compact rendering, e.g. ["//a{id}[//b]//c{id,val}"]. *)
val to_string : t -> string

(** [rename pat name] is [pat] with a different display name. *)
val rename : t -> string -> t

(** [with_annots pat annots] replaces stored attributes (array indexed by
    node); val/cont nodes again get implicit ID storage.
    @raise Invalid_argument on a length mismatch. *)
val with_annots : t -> annot array -> t
