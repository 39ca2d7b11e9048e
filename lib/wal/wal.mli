(** Write-ahead log of update statements — record codec, group-commit
    writer, and a corrupt-or-correct scanner.

    A log file is the 8-byte magic header {!header} followed by records:

    {v
      +------------+------------+---------------+------------+
      | length u32 |  seq  u64  |    payload    |  CRC  u32  |
      |  big-end.  |  big-end.  | length bytes  |  big-end.  |
      +------------+------------+---------------+------------+
    v}

    The CRC-32 (reusing {!Crc32}, the codec-v2 polynomial) covers the
    length, sequence and payload bytes, so a torn length prefix, a torn
    payload and a bit-flip anywhere in the record are all detected.
    Sequence numbers are monotone: consecutive records carry consecutive
    sequences. Payload length is capped at 1 MiB so a forged
    length can never drive allocation.

    Robustness contract: {!scan_bytes} / {!scan_file} never raise on any
    byte string — they return the longest valid record prefix plus a
    description of the first damage found, and {!repair_file} truncates
    the file to exactly that prefix. *)

(** First bytes of every log file. *)
val header : string

(** Why a scan stopped before the end of the file. The [int] is the byte
    offset of the offending record's length prefix. *)
type damage =
  | Bad_header  (** file shorter than, or not starting with, {!header} *)
  | Torn_length of int  (** fewer than 12 header bytes remain *)
  | Oversized of int * int  (** declared payload length exceeds the 1 MiB cap *)
  | Torn_record of int  (** payload + CRC extend past end of file *)
  | Crc_mismatch of int  (** stored CRC disagrees with the bytes *)
  | Bad_sequence of int * int * int  (** offset, expected seq, found seq *)

val damage_to_string : damage -> string

type scan = {
  records : (int * string) array;  (** (sequence, payload), log order *)
  offsets : int array;
      (** byte offset of each record's length prefix (parallel to
          [records]) — lets recovery {!truncate_at} a record boundary *)
  valid_bytes : int;
      (** length of the longest valid prefix (header included) — the
          truncation point for {!repair_file} *)
  file_bytes : int;  (** total bytes examined *)
  damage : damage option;  (** [None] iff the whole file is valid *)
}

(** [encode_record ~seq payload] is the exact byte string {!append}
    writes.
    @raise Invalid_argument if [payload] exceeds the 1 MiB cap. *)
val encode_record : seq:int -> string -> string

(** [scan_bytes ?expect_seq data] decodes records until end-of-data or
    the first damage. [expect_seq] (default: accept any) pins the first
    record's sequence; later records must each follow their predecessor
    by exactly one. Never raises. *)
val scan_bytes : ?expect_seq:int -> string -> scan

(** [scan_file ?expect_seq path] — {!scan_bytes} over a file's contents.
    A missing file scans as an empty, undamaged log of zero bytes. *)
val scan_file : ?expect_seq:int -> string -> scan

(** [repair_file path] truncates [path] to its longest valid prefix (a
    header-only file if even the header is damaged) and returns the scan
    that justified the cut. A missing file is left missing. *)
val repair_file : ?expect_seq:int -> string -> scan

(** [truncate_at path len] truncates the file to exactly [len] bytes
    (never below the header) and fsyncs — used by recovery to drop a
    CRC-valid but semantically unusable tail at a record boundary. *)
val truncate_at : string -> int -> unit

(** {1 Group-commit writer}

    [append] buffers a record; [sync] flushes the batch and issues one
    [fsync] — the group-commit point. Nothing is durable until [sync]
    returns. *)

type writer

(** [create_writer ~path ~next_seq] opens [path] for appending (creating
    it with the header when absent or empty). The caller is responsible
    for having scanned/repaired the file first; [next_seq] is the
    sequence the next appended record will carry. *)
val create_writer : path:string -> next_seq:int -> writer

val writer_path : writer -> string

(** Sequence the next {!append} will assign. *)
val next_seq : writer -> int

(** Highest sequence known durable (0 before any [sync]). *)
val durable_seq : writer -> int

(** [append w payload] buffers one record and returns its sequence.
    @raise Invalid_argument if [payload] exceeds the 1 MiB cap. *)
val append : writer -> string -> int

(** [sync w] flushes buffered records and fsyncs the file; afterwards
    [durable_seq w = next_seq w - 1]. No-op on an already-synced log. *)
val sync : writer -> unit

(** [close_writer w] syncs and closes the descriptor. *)
val close_writer : writer -> unit

(** [crash w] closes the descriptor {e without} flushing buffered
    records — simulating a process kill for recovery testing. Records
    never acknowledged by {!sync} are lost, exactly as a real crash
    loses them. *)
val crash : writer -> unit
