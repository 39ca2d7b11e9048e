(* The single registry of benchmark-harness sections. The bench
   executable derives both its [--only] validation list and its dispatch
   order from [all], and [xvmcli workload] prints the same list — so a
   new section registered here cannot be silently absent from either
   side, and a section absent from here cannot run. *)

let all =
  [
    ("fig18", "PINT/PIMT time breakdown (insert propagation)");
    ("fig19", "PDDT/MT time breakdown (delete propagation)");
    ("fig20", "insert propagation, all XMark views");
    ("fig21", "delete propagation, all XMark views");
    ("fig22", "update time vs document size (Figures 22-23)");
    ("fig24", "update time vs result size");
    ("fig25", "annotation-density ablation");
    ("fig26", "PINT/PIMT vs full recomputation");
    ("fig27", "PDDT/PDMT vs full recomputation");
    ("fig28", "snowcap construction vs document size");
    ("fig29", "auxiliary-structure sizes (Figures 29-32)");
    ("fig33", "pattern-matching throughput (Figures 33-35)");
    ("ablations", "pruning / advisor / deferred-maintenance ablations");
    ("prims", "Dewey vs arena-handle primitives");
    ("figMV", "batch maintenance of a view set (shared delta)");
    ("figHL", "heavy-light adaptive maintenance under skew");
    ("fuzz", "ingestion & persistence fuzz oracle (bounded smoke)");
    ("difftest", "differential maintenance oracle (bounded smoke)");
    ("serve", "snapshot readers under a concurrent writer");
    ("wal", "write-ahead log append/replay/recovery");
    ("answer", "answering from views vs base recompute");
    ("micro", "Bechamel micro-benchmarks of core operators");
  ]

let names = List.map fst all

let mem name = List.mem_assoc name all
