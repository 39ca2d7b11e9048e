(** Differential oracles.

    The paper's whole claim is an equivalence: after any bulk insertion
    or deletion, the incrementally maintained view
    (PINT/PIMT/ET-INS/CD+/PDDT/PDMT/CD-) must equal the view recomputed
    from scratch. This harness checks that equivalence, and five more
    like it, on {e randomized} inputs. A seeded generator draws
    scenarios — documents, tree patterns over the labels actually
    present in them, and bulk statements including the degenerate
    shapes where IVM bugs hide (empty target sets, root-adjacent
    targets, nested/overlapping subtrees) — and one checker holds each
    against an independent reference.

    A failing scenario is greedily {e shrunk} — read points, statements
    and views dropped, subtrees dropped from the document, nodes dropped
    from the query and views, steps and predicates dropped from the
    statements — before being reported, together with an
    [xvmcli difftest --replay] command line that reproduces it.

    Exposed to the test suite, the CLI ([xvmcli difftest --property])
    and the bench harness (section [difftest]). *)

(** {1 Scenarios} *)

(** The claim a scenario is checked against.
    - [Engines]: [Maint] (the paper's algorithms, [Snowcaps] policy) and
      [Ivma] (node-at-a-time, [Leaves]) each equal [Recompute] after the
      statement — projected IDs, derivation counts, val/cont payloads.
    - [Batch]: one [View_set.update] over the whole view set (shared
      update-region index, relevance skipping, hoisted commit) equals
      one-by-one [Maint] propagation on a fresh store per view.
    - [Serve]: a live [Server] fed the statements by a submitter domain
      while a reader domain polls published snapshots: every observed
      epoch equals a sequential replay of exactly the statements it
      claims, epochs appear in publication order, and none is lost.
    - [Recover]: a durable run killed after [crash_after] statements and
      recovered from its last checkpoint plus the write-ahead log equals
      an uninterrupted run — every view, then the document — and again
      after finishing the sequence and a second kill.
    - [Answer]: the query answered from the materialized views (single
      view with compensations, two-view intersection, or base fallback)
      equals brute-force embedding enumeration, before and after the
      statement.
    - [Heavy]: with a heavy-light classifier installed, every read
      point (a drain of one view or the whole set) equals eager
      maintenance of the same statements, as do the final full drain
      and the documents. *)
type property = Engines | Batch | Serve | Recover | Answer | Heavy

(** Every property with its name — the [--property] values and the tag
    of a reproducer. *)
val properties : (string * property) list

(** Heavy-light read points and [Hl] thresholds. *)
type heavy = {
  reads : (int * int) list;
      (** (statement index, view index or [-1] for all): drain and
          compare after that statement *)
  heavy_count : int;  (** [Hl.heavy_count] — deliberately tiny *)
  heavy_fanout : int;  (** [Hl.heavy_fanout] *)
  drain_budget : int;  (** [Hl.drain_budget] *)
  tail_budget : int;  (** store tail budget *)
}

(** Where a durable run is killed. *)
type crash = {
  crash_after : int;  (** statements applied and synced before the kill *)
  checkpoint_at : int option;
      (** checkpoint boundary, [<= crash_after]; [None] = log only *)
  unsynced_tail : bool;
      (** one more statement is journaled but never synced *)
}

type scenario = {
  prop : property;
  doc : Xml_tree.node;  (** the pristine document *)
  views : Pattern.t list;
      (** named [v0], [v1], …; exactly one for [Engines], at most 64 *)
  stmts : string list;
      (** {!Update.parse} statements, applied in order; exactly one for
          [Engines], [Batch] and [Answer] *)
  query : Pattern.t option;  (** [Answer] only *)
  heavy : heavy option;  (** [Heavy] only *)
  crash : crash option;  (** [Recover] only *)
}

(** [gen prop rnd] — one random scenario of the property. *)
val gen : property -> Random.State.t -> scenario

(** {1 Engines}

    An engine materializes a view over a {e fresh} store of a copy of
    the document, applies the statement, and returns the resulting
    view. Engines never share state: each sees its own pristine copy. *)

type engine = {
  ename : string;
  eval : Xml_tree.node -> Pattern.t -> Update.t -> Mview.t;
}

val recompute_engine : engine  (** the ground truth *)

val maint_engine : engine  (** the paper's algorithms, [Snowcaps] policy *)

val ivma_engine : engine  (** node-at-a-time baseline, [Leaves] policy *)

(** {1 The checker} *)

type failure = {
  cx : scenario;  (** the (possibly shrunk) counterexample *)
  detail : string;
      (** the first divergence: disagreeing engines and tuple, view,
          epoch, phase or read point, or an escaped exception *)
  work : (string * int) list;
      (** [Engines] only: non-zero {!Obs} counters recorded while
          checking — the counterexample's work profile *)
}

(** [check s] holds the scenario against its property's reference;
    [None] when it holds. [engines] (default recompute, maint, ivma; the
    head is the reference) applies to [Engines]. An exception escaping
    the system under test is a failure too.
    @raise Invalid_argument if the scenario lacks its property's field
    group. *)
val check : ?engines:engine list -> scenario -> failure option

(** [work_profile s] — the non-zero counter profile of checking [s],
    whether or not it holds; for [Engines] scenarios a pure function of
    the scenario and engine list, the basis of replay-equality tests. *)
val work_profile : ?engines:engine list -> scenario -> (string * int) list

(** [shrink f] greedily minimizes the counterexample. Candidate
    families, in order: drop a read point; drop a statement (remapping
    read points, crash point and checkpoint); drop a view (remapping
    read points); reduce the document (drop a subtree, hoist children);
    reduce one statement (drop a step, a predicate, part of the inserted
    fragment); reduce the query; reduce one view (drop a node, a value
    predicate, an annotation). The first candidate that still fails is
    taken; one budget of checks bounds the whole loop. [oracle]
    (default [check ?engines]) decides whether a candidate still
    fails. *)
val shrink :
  ?engines:engine list ->
  ?oracle:(scenario -> failure option) ->
  failure ->
  failure

(** Structured multi-line report: property, views, statements, the
    field groups, document, detail, work profile and the replay command
    line. *)
val describe : failure -> string

(** {1 Reproducers}

    [xvmdt2|PROP|K|LEN:VIEW…|N|LEN:STMT…|LEN:QUERY|LEN:HEAVY|LEN:CRASH|LEN:DOC]
    — printable and length-prefixed, fit for a command line. Views and
    query are in the compact {!Pattern.to_string} syntax; an absent
    field group is empty; HEAVY is
    [count,fanout,budget,tail;stmt/view,…] and CRASH is
    [after,checkpoint-or-minus,unsynced-0-or-1]. *)

val to_repro : scenario -> string

(** Every count, index and threshold is range-checked, every statement
    parsed, and the field groups must match the property.
    @raise Invalid_argument on a malformed reproducer, naming the fault;
    reproducers of the older formats are rejected with a message naming
    [xvmdt2]. *)
val of_repro : string -> scenario

(** [view_of_compact ~name s] parses the compact rendering of
    {!Pattern.to_string} (e.g. ["//a{id}[//b[val='x']]//c{id,val}"])
    back into a pattern — the inverse used by {!of_repro}.
    @raise Invalid_argument on malformed input. *)
val view_of_compact : name:string -> string -> Pattern.t

(** {1 Seeded runs} *)

(** [run prop ~seed ~iters] draws and checks [iters] scenarios of the
    property; every failure is shrunk and its description recorded
    (first few) in the report's failure list. *)
val run :
  ?engines:engine list ->
  property ->
  seed:int ->
  iters:int ->
  unit ->
  Qgen.report
