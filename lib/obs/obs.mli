(** Process-wide metrics & tracing registry.

    Monotonic [Counter] and [Timer] cells are grouped into named [Scope]s;
    the full key of a cell is ["<scope>.<metric>"], e.g.
    ["algebra.join.comparisons"].  Cells are created once, at module
    initialisation time, and incremented from hot paths.  When the registry
    is disabled (the default) every increment reduces to a single load of
    one [bool ref] — no allocation, no hashing, no clock reads. *)

(** {1 Global enable switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Monotonic clock}

    [now] reads the operating system's monotonic clock
    ([CLOCK_MONOTONIC]): seconds since an arbitrary fixed origin — {e
    not} a wall-clock time — immune to NTP slews and manual clock
    resets, and additionally clamped to be non-decreasing across calls
    (from any domain), so durations derived from it are never
    negative. *)

val now : unit -> float

(** [duration f] runs [f] and returns its result paired with the elapsed
    seconds measured with {!now}. *)
val duration : (unit -> 'a) -> 'a * float

(** {1 Cells} *)

module Counter : sig
  type t

  val incr : t -> unit
  (** No-op while the registry is disabled. *)

  val add : t -> int -> unit
  (** No-op while the registry is disabled. *)

  val value : t -> int
  val key : t -> string
end

module Timer : sig
  type t

  val add_span : t -> float -> unit
  (** Record one span of the given length in seconds.  No-op while the
      registry is disabled. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, recording one span.  When disabled, runs the thunk
      directly without reading the clock. *)

  val seconds : t -> float
  val spans : t -> int
  val key : t -> string
end

module Scope : sig
  type t

  val v : string -> t
  (** [v name] creates (or finds) the scope [name].  Names follow the
      ["layer.operator"] convention, e.g. ["algebra.join"]. *)

  val name : t -> string

  val counter : t -> string -> Counter.t
  (** Create-or-find; the cell's key is ["<scope>.<metric>"]. *)

  val timer : t -> string -> Timer.t
end

(** {1 Domains}

    Registry cells are plain mutable records owned by the main domain:
    counters and timers count on the main domain only; increments on
    other domains are ignored.  Serve's reader and metrics domains
    therefore never race the writer's cells, and their work does not
    show in snapshots. *)

val scopes : unit -> string list
(** All registered scope names, sorted. *)

(** {1 Snapshots} *)

type snapshot
(** An immutable view of (a delta of) the registry. *)

val with_scope : ?enable:bool -> (unit -> 'a) -> 'a * snapshot
(** [with_scope f] runs [f] with the registry enabled (unless
    [~enable:false]) and returns its result together with a snapshot of
    exactly the counter/timer increments performed during the call.  The
    previous enabled state is restored afterwards, including on
    exceptions.  Nesting is supported: an inner [with_scope]'s increments
    are also visible to the outer one. *)

val snapshot : unit -> snapshot
(** Absolute snapshot of current cell values. *)

val timers : snapshot -> (string * float * int) list
(** All timers as [full_key, seconds, spans], sorted by key. *)

val counter_value : snapshot -> string -> int
(** Value of a counter by full key; [0] when absent. *)

val timer_seconds : snapshot -> string -> float
val timer_spans : snapshot -> string -> int

val nonzero_counters : snapshot -> (string * int) list
(** Counters with a non-zero value, sorted by key. *)

(** {1 Export} *)

val to_json : ?snapshot:snapshot -> unit -> string
(** Single-line JSON object:
    [{"version":1,"enabled":bool,
      "scopes":{"<scope>":{"counters":{...},
                           "timers":{"<m>":{"seconds":s,"spans":n}}}}}]
    Defaults to the live registry contents. *)

val dump_kv : ?snapshot:snapshot -> unit -> string
(** Flat dump, one ["key=value"] line per cell; timers emit
    ["key_s"] (seconds) and ["key_spans"] lines. *)

val kv_line : snapshot -> string
(** Space-separated ["key=value"] digest of the non-zero counters of a
    snapshot — compact enough for failure messages. *)

val prometheus_name : string -> string
(** Sanitize a dotted cell key into a valid Prometheus metric-name
    fragment: every character outside [[A-Za-z0-9_]] becomes ['_']. *)

val to_prometheus : ?snapshot:snapshot -> unit -> string
(** Prometheus text exposition format (0.0.4): one metric family per
    cell — counters as [xvm_<key>_total], timers as the
    [xvm_<key>_seconds_total] / [xvm_<key>_spans_total] pair — each
    preceded by its [# TYPE … counter] line.  Defaults to the live
    registry contents. *)

(** {1 Shared numeric/printing helpers} *)

module Stats : sig
  val median : float list -> float

  val time_median : ?repeats:int -> ?iters:int -> (unit -> 'a) -> float
  (** Median over [repeats] trials of the mean time of [iters] calls,
      after two warm-up calls.  Uses the monotonic {!now}. *)
end

module Fmt : sig
  val phase_header : ?label_width:int -> string -> string list -> unit
  (** Print an aligned header: the label column then one 9-char column
      per phase name, then a ["total(ms)"] column. *)

  val phase_row : ?label_width:int -> string -> float list -> unit
  (** Print one row of phase durations (given in seconds, shown in ms)
      followed by their sum. *)
end
