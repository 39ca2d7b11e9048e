(** Binary persistence for materialized views — format v2.

    Layout: a 4-byte magic/version tag ["XVM2"], the varint-framed tuple
    stream (derivation counts, Dewey-encoded cell ids, optional val/cont
    payloads), and a CRC-32 footer over everything before it. Auxiliary
    snowcap tables are re-derived at load time from the view policy, so
    views can be shut down and reopened with a store without
    re-evaluating the pattern.

    Robustness contract: {!load} on arbitrary bytes either reconstructs
    a correct view or raises {!Corrupt} — never any other exception.
    Varints are bounded (9 bytes max for a 63-bit int), every declared
    length and entry count is validated against the bytes remaining
    before allocation, and the checksum rejects truncations and
    bit-flips up front. v1 images (magic ["XVM1"]) are rejected with a
    [Corrupt] explaining that the view must be re-saved. *)

(** [save mv] serializes the view contents in format v2. *)
val save : Mview.t -> string

exception Corrupt of string

(** [load ?policy store pat data] reconstructs a materialized view saved
    from an equal pattern over an equally-identified document.
    @raise Corrupt on malformed/corrupted input, an unsupported format
    version, a pattern/arity mismatch, a tuple stored twice, or a cell
    whose identifier the store never interned. *)
val load : ?policy:Mview.policy -> Store.t -> Pattern.t -> string -> Mview.t

(** [save_to_file mv path] / [load_from_file ?policy store pat path] —
    file-based convenience wrappers. [save_to_file] writes to
    [path ^ ".tmp"], fsyncs, and atomically renames over [path], so a
    crash mid-save never clobbers the previous good image. *)
val save_to_file : Mview.t -> string -> unit

val load_from_file :
  ?policy:Mview.policy -> Store.t -> Pattern.t -> string -> Mview.t
