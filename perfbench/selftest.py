"""Self-tests of the benchmark: `python3 perfbench/run.py --self-test`.

- the same seed gives the same inputs, a different seed a different
  document, and one cycle of each statement stream leaves the node
  count level;
- two traced runs with the same seed report identical per-layer counts
  on bulk-uniform and skew-hot (GC figures within a stated tolerance),
  also when the sampled correctness checks run at every read;
  skew-hot defers and drains, the other workloads never do;
- a view or an answer corrupted on purpose is counted as a failure and
  makes the driver exit non-zero.
"""

# Per-layer metrics in these units are counts or ratios of counts: on
# one domain they repeat exactly. GC figures are compared with a
# tolerance, time-based metrics not at all.
EXACT_UNITS = {"count", "ratio", "stmts", "bytes"}
GC_TOLERANCE = {
    # relative: identical traced runs allocated up to 4e-4 more or less
    # (skew-hot; a run that checked at every read, 2e-4)
    "gc.minor_words_per_stmt": ("relative", 1e-3),
    # absolute: identical runs differed by one collection, a run that
    # checked at every read by two
    "gc.major_collections": ("absolute", 2.0),
}


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(run_driver, last_json):
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def describe(workload, seed):
        code, out = run_driver(["--describe", "--workload", workload,
                                "--seed", str(seed)])
        fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
        return code, fields

    for w in ["bulk-uniform", "skew-hot", "serve-durable"]:
        c1, a = describe(w, 1)
        c2, b = describe(w, 1)
        c3, other = describe(w, 2)
        expect(c1 == c2 == c3 == 0, "%s: describe runs" % w)
        expect(a == b, "%s: same seed gives the same document and statements" % w)
        expect(a.get("document") != other.get("document"),
               "%s: another seed gives another document" % w)
        expect(a.get("statements") == other.get("statements"),
               "%s: the statement texts do not depend on the seed" % w)
        before, after = a.get("nodes", "0 1").split()
        expect(before == after,
               "%s: one statement cycle leaves the node count level (%s -> %s)"
               % (w, before, after))

    def traced(w, *extra):
        code, out = run_driver(["--workload", w, "--seed", "1", "--seconds", "2",
                                "--trace", "1"] + list(extra))
        return code, last_json(out)

    def same_counts(w, r1, r2, what):
        v1, v2 = values(r1), values(r2)
        units = {k: m["unit"] for k, m in r1["metrics"].items()}
        exact = [k for k in v1 if units[k] in EXACT_UNITS and k not in GC_TOLERANCE]
        differing = [k for k in exact if v1[k] != v2.get(k)]
        expect(not differing, "%s: %d per-layer counts %s%s"
               % (w, len(exact), what,
                  "" if not differing else " (differ: %s)" % differing))
        for k, (kind, tol) in GC_TOLERANCE.items():
            diff = abs(v1[k] - v2[k])
            bound = tol * max(abs(v1[k]), 1.0) if kind == "relative" else tol
            expect(diff <= bound, "%s: %s within %s tolerance %g (%g vs %g)"
                   % (w, k, kind, tol, v1[k], v2[k]))

    for w in ["bulk-uniform", "skew-hot"]:
        (c1, r1), (c2, r2) = traced(w), traced(w)
        expect(c1 == 0 and c2 == 0 and r1 is not None and r2 is not None
               and r1["correct"] and r2["correct"], "%s: traced runs pass their checks" % w)
        if r1 is None or r2 is None:
            continue
        v1 = values(r1)
        same_counts(w, r1, r2, "repeat exactly")
        if w == "skew-hot":
            # A check at every read instead of every 20th: the sampled
            # checks must add nothing to the traced counts.
            c3, r3 = traced(w, "--check-every", "1")
            expect(c3 == 0 and r3 is not None and r3["correct"],
                   "%s: traced run with a check at every read passes" % w)
            if r3 is not None:
                same_counts(w, r1, r3, "are the same with a check at every read")
        deferring = w == "skew-hot"
        for k in ["maint.defer.deferrals", "maint.defer.drains"]:
            expect((v1[k] > 0) == deferring,
                   "%s: %s is %s (%g)" % (w, k, "non-zero" if deferring else "zero", v1[k]))

    code, r = traced("serve-durable")
    expect(code == 0 and r is not None and r["correct"]
           and values(r)["maint.defer.deferrals"] == 0
           and values(r)["wal.replayed"] > 0,
           "serve-durable: traced run passes, never defers, replays its log tail")

    for w, what in [("skew-hot", "view"), ("bulk-uniform", "answer"),
                    ("serve-durable", "view")]:
        code, r = traced(w, "--inject", what)
        expect(code != 0 and r is not None and not r["correct"] and r["failed"] > 0
               and values(r)["error_rate"] > 0,
               "%s: an injected wrong %s is counted (failed %s, exit %d)"
               % (w, what, None if r is None else r["failed"], code))

    print("%d self-test failure(s)" % len(failures))
    return 1 if failures else 0
