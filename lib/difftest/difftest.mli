(** Differential maintenance oracle.

    The paper's whole claim is an equivalence: after any bulk insertion
    or deletion, the incrementally maintained view
    (PINT/PIMT/ET-INS/CD+/PDDT/PDMT/CD-) must equal the view recomputed
    from scratch. This harness checks that equivalence on {e randomized}
    inputs: a seeded generator draws (document, view, update) triples —
    tree patterns over the labels actually present in the document,
    bulk insertions/deletions including the degenerate shapes where IVM
    bugs hide (empty target sets, root-adjacent targets,
    nested/overlapping subtrees) — and a three-way oracle applies the
    update via [Maint] (the paper's algorithms), [Recompute] (the
    ground truth) and [Ivma] (the node-at-a-time competitor), comparing
    the resulting view extents tuple-for-tuple under a canonical sort.

    A failing triple is greedily {e shrunk} — subtrees dropped from the
    document, nodes dropped from the view, steps and predicates dropped
    from the update — before being reported, together with an
    [xvmcli difftest --replay] command line that reproduces it.

    Exposed to the test suite ([test/test_difftest.ml]), the CLI
    ([xvmcli difftest]) and the bench harness (section [difftest]). *)

(** {1 Triples} *)

type triple = {
  doc : Xml_tree.node;  (** the pristine pre-update document *)
  view : Pattern.t;
  update : string;
      (** textual statement, ["delete PATH"] or
          ["insert into PATH FRAGMENT"] ({!Update.parse} syntax) *)
}

(** Number of nodes of the triple's document (the shrinker's measure). *)
val doc_nodes : triple -> int

(** [gen_triple rnd] — one random triple: a canonical document over the
    {!Qgen.plain} vocabulary, a view pattern drawn over the labels
    present in it, and a bulk update statement. *)
val gen_triple : Random.State.t -> triple

(** {1 Engines}

    An engine materializes the triple's view over a {e fresh} store of a
    copy of the document, applies the update, and returns the resulting
    view. Engines never share state: each sees its own pristine copy. *)

type engine = {
  ename : string;
  eval : Xml_tree.node -> Pattern.t -> Update.t -> Mview.t;
}

val recompute_engine : engine  (** the ground truth; listed first *)

val maint_engine : engine  (** the paper's algorithms, [Snowcaps] policy *)

val ivma_engine : engine  (** node-at-a-time baseline, [Leaves] policy *)

(** [[recompute; maint; ivma]] — the head of the list is the reference
    every other engine is compared against. *)
val default_engines : engine list

(** {1 The oracle} *)

type mismatch = {
  cx : triple;  (** the (possibly shrunk) counterexample *)
  left : string;  (** name of the disagreeing engine *)
  right : string;  (** name of the reference engine *)
  detail : string;  (** first differing tuple, or an escaped exception *)
  work : (string * int) list;
      (** non-zero {!Obs} counters recorded while checking this triple —
          the counterexample's work profile, replayed with it *)
}

(** [check triple] runs every engine and compares each view against the
    reference (head engine) tuple-for-tuple — projected IDs, derivation
    counts and val/cont payloads, under the canonical dump sort. An
    exception escaping an engine is a mismatch too. The check runs under
    an {!Obs.with_scope} snapshot; a mismatch carries its work profile. *)
val check : ?engines:engine list -> triple -> mismatch option

(** [work_profile triple] — the non-zero counter profile of checking the
    triple (deterministic for a given triple and engine list, whether or
    not the engines agree): the basis of replay-equality tests. *)
val work_profile : ?engines:engine list -> triple -> (string * int) list

(** [shrink m] greedily minimizes the counterexample: candidate
    reductions of the document (drop a subtree, hoist children), the
    view (drop a leaf node, a predicate, an annotation) and the update
    (drop a step, a predicate, part of the inserted fragment) are
    accepted whenever the reduced triple still fails the oracle. *)
val shrink : ?engines:engine list -> mismatch -> mismatch

(** Structured multi-line report: engines, view, update, document,
    first differing tuple, and the replay command line. *)
val describe : mismatch -> string

(** {1 Replay}

    A reproducer is a printable, length-prefixed encoding of a triple
    (view in the compact pattern syntax, update statement, document
    XML) fit for a command line. *)

val repro_of_triple : triple -> string

(** @raise Invalid_argument on a malformed reproducer. *)
val triple_of_repro : string -> triple

(** The [xvmcli difftest --replay '…'] line, shell-quoted. *)
val replay_command : triple -> string

(** [view_of_compact ~name s] parses the compact rendering of
    {!Pattern.to_string} (e.g. ["//a{id}[//b[val='x']]//c{id,val}"])
    back into a pattern — the inverse used by {!triple_of_repro}.
    @raise Invalid_argument on malformed input. *)
val view_of_compact : name:string -> string -> Pattern.t

(** {1 Batch runs} *)

(** [run ~seed ~iters] draws and checks [iters] triples; every mismatch
    is shrunk and recorded (first few) in the report's failure list. *)
val run : ?engines:engine list -> seed:int -> iters:int -> unit -> Qgen.report

(** {1 Multi-view sets}

    The batch-maintenance oracle: a random 2–4-view set over one store,
    maintained by a single [View_set.update] — shared update-region
    index, relevance skipping, hoisted commit, domain fan-out — is
    cross-checked tuple-for-tuple against one-by-one [Maint] propagation
    of the same update on a fresh store per view, and [jobs > 1] is
    additionally required to be bit-identical (tables and non-timing
    report counters) to [jobs = 1]. *)

type set_triple = {
  sdoc : Xml_tree.node;
  sviews : Pattern.t list;  (** 2–4 views with distinct names v0, v1, … *)
  supdate : string;
}

type set_mismatch = { scx : set_triple; sdetail : string }

val gen_set_triple : Random.State.t -> set_triple

(** [check_set ?jobs t] (default [jobs = 2]): batched [jobs=1] vs the
    per-view oracle, then batched [jobs] vs batched [jobs=1]. [jobs <= 1]
    skips the parallel cross-check. *)
val check_set : ?jobs:int -> set_triple -> set_mismatch option

(** Greedy minimization; whole views are dropped first, then document
    subtrees, update steps, and nodes inside the surviving views. *)
val shrink_set : ?jobs:int -> set_mismatch -> set_mismatch

val describe_set : set_mismatch -> string

(** Reproducer codec for view sets
    (["xvmdtm1|k|len:view…|len:update|len:doc"]); the CLI replay
    dispatches on the prefix. *)
val repro_of_set : set_triple -> string

(** @raise Invalid_argument on a malformed reproducer. *)
val set_of_repro : string -> set_triple

(** [run_sets ?jobs ~seed ~iters] draws and checks [iters] view sets;
    mismatches are shrunk and recorded in the report's failure list. *)
val run_sets : ?jobs:int -> seed:int -> iters:int -> unit -> Qgen.report

(** {1 Heavy-light adaptive maintenance oracle}

    The adaptive path's correctness claim: with a heavy-light
    classifier installed ([View_set.set_adaptive]), every {e read} —
    a drain of one view or of the whole set — observes view contents
    tuple-for-tuple identical to eager maintenance of the same
    statement sequence, whatever partition migrations, budget-forced
    drains and store tail merges happened in between. Cases draw
    skewed or uniform random documents, deliberately tiny thresholds
    (so rebalance storms and drains fire constantly), and seeded read
    points that interleave single-view drains with further deferred
    updates; after the final statement everything is drained and the
    documents must serialize identically too. *)

type heavy_case = {
  hc_set : set_triple;  (** document, views, first statement *)
  hc_stmts : string list;  (** full statement sequence, head = [supdate] *)
  hc_reads : (int * int) list;
      (** (statement index, view index or [-1] for all): drain+compare *)
  hc_count : int;  (** [Hl.heavy_count] — deliberately tiny *)
  hc_fanout : int;  (** [Hl.heavy_fanout] *)
  hc_budget : int;  (** [Hl.drain_budget] *)
  hc_tailb : int;  (** store tail budget *)
}

type heavy_mismatch = { hcx : heavy_case; hdetail : string }

val gen_heavy_case : Random.State.t -> heavy_case

(** [check_heavy c]: adaptive vs eager on [c]; [None] when every read
    point (and the final full drain) agreed. *)
val check_heavy : heavy_case -> heavy_mismatch option

val shrink_heavy : heavy_mismatch -> heavy_mismatch

val describe_heavy : heavy_mismatch -> string

(** Reproducer codec
    (["xvmdth1|len:cfg|len:reads|k|len:view…|n|len:stmt…|len:doc"]);
    the CLI replay dispatches on the prefix. *)
val repro_of_heavy : heavy_case -> string

(** @raise Invalid_argument on a malformed reproducer. *)
val heavy_of_repro : string -> heavy_case

(** [run_heavy ~seed ~iters] draws and checks [iters] heavy cases;
    mismatches are shrunk and recorded in the report's failure list. *)
val run_heavy : seed:int -> iters:int -> unit -> Qgen.report

(** {1 Serve snapshot-isolation oracle}

    The live-server counterpart of {!run_sets}: a random view set plus a
    {e sequence} of 2–5 update statements is fed through a running
    {!Server} by a submitter domain while a concurrent reader domain
    polls published snapshots. Every observed epoch — including those
    captured mid-run, between batches — must be bit-identical
    (tuple-for-tuple, payloads included) to a {e sequential} replay of
    exactly the first [applied] statements on a fresh store; epochs must
    be observed in publication order and no admitted statement may be
    lost. This is the snapshot-isolation guarantee: a reader never sees
    a half-committed batch, a torn view, or a stale share of a view that
    actually changed. *)

type serve_case = {
  sc_set : set_triple;
  sc_stmts : string list;  (** applied in order; 2–5 statements *)
}

val gen_serve_case : Random.State.t -> serve_case

(** [check_serve ?jobs c] (default [jobs = 1]) runs the live server on
    the calling domain ([max_batch = 2], forcing multi-epoch runs) with
    a submitter and a polling reader domain; [Some message] describes
    the first isolation violation. *)
val check_serve : ?jobs:int -> serve_case -> string option

val run_serve : ?jobs:int -> seed:int -> iters:int -> unit -> Qgen.report

(** {1 Kill-and-recover durability oracle}

    The durability guarantee, differentially: a run killed at a seeded
    statement boundary and recovered from its last checkpoint plus the
    write-ahead log must be tuple-for-tuple identical — every view
    payload, then the document itself — to a sequential run that was
    never interrupted. Cases vary the crash point, the checkpoint
    boundary (including none, and exactly at the crash point), and
    whether a final statement was journaled but never synced (a real
    kill loses it; recovery must agree). The recovered engine then
    finishes the statement sequence and is killed and recovered a
    second time, proving appends resume contiguously into a recovered
    log segment. *)

type recover_case = {
  rc_set : set_triple;
  rc_stmts : string list;  (** 3–8 journalable statements, in order *)
  rc_crash_after : int;  (** statements applied and synced before the kill *)
  rc_checkpoint_at : int option;
      (** checkpoint boundary, [<= rc_crash_after]; [None] = log only *)
  rc_unsynced_tail : bool;
      (** when set, one more statement is journaled but never synced *)
}

val gen_recover_case : Random.State.t -> recover_case

(** [check_recover ?jobs c] (default [jobs = 1]) runs the durable
    engine in a fresh temporary directory, kills and recovers it twice,
    and compares against the uninterrupted oracle; [Some message]
    describes the first divergence. The directory is removed on exit
    either way. *)
val check_recover : ?jobs:int -> recover_case -> string option

val run_recover : ?jobs:int -> seed:int -> iters:int -> unit -> Qgen.report

(** {1 Answer-from-views oracle}

    The rewriting planner's claim, differentially: a query answered from
    the materialized view set ([Answer.answer] — single view with
    compensations, two-view intersection, or base fallback) is
    tuple-for-tuple equal (cells, payloads, derivation counts) to
    brute-force embedding enumeration over the document, both {e before}
    and {e after} a maintenance round through [View_set.update]. The
    generator mixes verbatim-view queries, weakened view derivatives,
    queries whose [prune]/[subpattern] legs are planted as extra views
    (so intersection plans fire), and unrelated queries (fallback). *)

type answer_case = { aset : set_triple; aquery : Pattern.t }

type answer_mismatch = { acx : answer_case; adetail : string }

val gen_answer_case : Random.State.t -> answer_case

(** [Some message] describes the first divergence, tagged with the plan
    that produced it and the phase (before/after the update). *)
val check_answer : answer_case -> answer_mismatch option

val shrink_answer : answer_mismatch -> answer_mismatch

(** [xvmdta1|k|views…|query|update|doc] — replayed by
    [xvmcli difftest --replay]. *)
val repro_of_answer : answer_case -> string

val answer_of_repro : string -> answer_case

val describe_answer : answer_mismatch -> string

val run_answer : seed:int -> iters:int -> unit -> Qgen.report
