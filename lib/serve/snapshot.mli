(** Epoch-tagged immutable snapshots of a {!View_set}.

    The serving loop ({!Server}) applies update statements on the main
    domain and, after each batch, {e publishes} a snapshot through one
    [Atomic.set]. Reader domains load the current snapshot with one
    [Atomic.get] and answer every query from it without ever touching
    the live store or views — so readers never block on
    {!Store.commit} and never observe a half-applied batch.

    A snapshot is plain immutable data: per view, the canonical dump
    (sorted by projection key) copied into arrays of {!tuple}; plus the
    committed canonical-relation cardinalities. Publication safety
    follows from the OCaml memory model: immutable data fully written
    before an [Atomic.set] is visible after the matching [Atomic.get].

    Snapshots {e structure-share} across epochs: {!advance} re-captures
    only the views the batch actually changed (per the caller's
    [changed] predicate) and reuses the previous epoch's arrays for the
    rest, so the steady-state cost of an epoch bump is proportional to
    the touched views, not the total materialized state. *)

(** One projected view tuple: the injective projection key (concatenated
    {!Dewey.encode} of the stored identifiers), its derivation count,
    and per stored pattern node the identifier with its materialized
    [val] / [cont] payloads. *)
type tuple = {
  t_key : string;
  t_count : int;
  t_cells : (Dewey.t * string option * string option) array;
}

(** An immutable copy of one materialized view, tuples sorted by
    [t_key]. *)
type view = {
  v_name : string;
  v_pattern : string;  (** [Pattern.to_string] rendering *)
  v_tuples : tuple array;
  v_total : int;  (** sum of derivation counts *)
}

type t = {
  epoch : int;  (** 0 for {!initial}, +1 per {!advance} *)
  applied : int;  (** update statements applied so far *)
  views : view array;  (** view-set insertion order *)
  relations : (string * int) array;  (** committed label cardinalities, sorted *)
  node_count : int;
}

(** Capture every view of the set. Main domain; the set must be
    committed (no staged store changes). *)
val initial : View_set.t -> t

(** [advance prev ~applied ~changed set] is the next epoch: views for
    which [changed name] is [false] reuse [prev]'s arrays, the rest are
    re-captured from the live views. Main domain, between batches. *)
val advance : t -> applied:int -> changed:(string -> bool) -> View_set.t -> t

(** {1 Reads} — safe from any domain on a published snapshot. *)

val find_view : t -> string -> view option

val cardinality : view -> int

(** [mem v key] — binary search over the sorted tuples. *)
val mem : view -> string -> bool

(** [relation_count t label] is the committed cardinality of [label]'s
    canonical relation (0 for unseen labels). *)
val relation_count : t -> string -> int

(** {1 Comparison} — the snapshot-isolation oracle.

    [view_equal] is bit-for-bit: keys, counts, identifiers and payloads
    must all agree. [view_diff] renders the first discrepancy for test
    failure messages. *)

val view_equal : view -> view -> bool
val view_diff : view -> view -> string option
