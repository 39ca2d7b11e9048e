(** Dynamic Dewey structural identifiers.

    Stand-in for the Compact Dynamic Dewey IDs of Xu et al. (2009), keeping
    the four properties the maintenance algorithms rely on:

    - structural comparisons: parent / ancestor tests by step-prefix;
    - the IDs and labels of all ancestors are recoverable from an ID;
    - no relabeling under updates: sibling ordinals are non-empty integer
      sequences ordered lexicographically, so a fresh ordinal strictly
      between any two existing ones (or after the last one) always exists;
    - compact encoding: zig-zag varint packing into a byte string.

    An identifier is a sequence of steps, one per ancestor-or-self node;
    each step carries the label code of that node and its dynamic ordinal
    among its siblings. *)

type step = { lab : int; ord : int array }

type t = private step array

(** {1 Ordinals} *)

module Ord : sig
  type o = int array

  (** Ordinal of a first child. *)
  val first : o

  (** [after o] is an ordinal strictly greater than [o]. *)
  val after : o -> o

  (** [before o] is an ordinal strictly smaller than [o]. *)
  val before : o -> o

  (** [between a b] is an ordinal strictly between [a] and [b].
      @raise Invalid_argument if [compare a b >= 0]. *)
  val between : o -> o -> o

  (** Lexicographic order; a strict prefix sorts before its extensions. *)
  val compare : o -> o -> int
end

(** {1 Construction} *)

(** [root ~lab] is the identifier of a document root labeled [lab]. *)
val root : lab:int -> t

(** [child parent ~lab ~ord] extends [parent] with one step. *)
val child : t -> lab:int -> ord:Ord.o -> t

(** [of_steps steps] validates and casts a raw step array.
    @raise Invalid_argument on an empty array. *)
val of_steps : step array -> t

(** {1 Structure} *)

val depth : t -> int

(** Label code of the node itself (last step). *)
val label : t -> int

(** Label codes from the root down to the node itself. *)
val label_path : t -> int array

(** Ordinal of the node among its siblings (last step). *)
val last_ord : t -> Ord.o

(** [parent id] is [None] on a root identifier. *)
val parent : t -> t option

(** All strict-ancestor identifiers, root first. *)
val ancestors : t -> t list

(** [has_ancestor_label ?self id ~lab] tells whether some strict ancestor
    (or the node itself when [self] is [true]) carries label [lab]. *)
val has_ancestor_label : ?self:bool -> t -> lab:int -> bool

(** {1 Comparisons} *)

(** Document order: ancestors sort before their descendants, siblings by
    ordinal. Total on the identifiers of one document. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int

(** [is_parent p c]: [p] is the parent of [c]. *)
val is_parent : t -> t -> bool

(** [is_ancestor a d]: [a] is a strict ancestor of [d]. *)
val is_ancestor : t -> t -> bool

val is_ancestor_or_self : t -> t -> bool

(** {1 Codec} *)

(** Compact binary encoding; injective, so usable as a hash key. It is
    self-delimiting (length-prefixed): no encoding is a proper prefix of
    another. *)
val encode : t -> string

(** [encoded_size id] is [String.length (encode id)], computed without
    encoding. *)
val encoded_size : t -> int

(** [blit_encoded id b pos] writes [encode id] into [b] at [pos] and
    returns the position after it.
    @raise Invalid_argument if it does not fit, after writing the bytes
    that do. *)
val blit_encoded : t -> Bytes.t -> int -> int

(** [compare_encoded a b] orders [a] and [b] as [String.compare] orders
    [encode a] and [encode b], without encoding. Since encodings are
    self-delimiting, comparing tuples of identifiers lexicographically
    with it orders them as their concatenated encodings (a view's
    projection key) sort. *)
val compare_encoded : t -> t -> int

(** Inverse of {!encode}.
    @raise Invalid_argument on malformed input. *)
val decode : string -> t

(** [to_string ?dict id] renders e.g. ["a1.c1.b2"]; label codes are printed
    numerically when no dictionary is given. *)
val to_string : ?dict:Label_dict.t -> t -> string
