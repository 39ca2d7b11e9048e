#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk-uniform --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The driver's output is passed through; its last line is the JSON result
(`correct`, `attempted`, `failed`, `metrics`). The exit code is the
driver's: 0 only when every correctness check passed. See NOTES.md.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench/xvmbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "xvmbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Build the driver with dune; the repository's libraries must be
    present beside this directory."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; the benchmark needs the "
                 "repository's sources to build" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed (exit %d)" % done.returncode)


def run_driver(args, timeout=RUN_TIMEOUT_S):
    """Run the driver; return (exit code, stdout). The driver's work
    directory is removed afterwards, also when it was killed."""
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 124, out
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"), ignore_errors=True)
    return done.returncode, done.stdout


def last_json(out):
    """The driver's result: the last line of its output, as a dict."""
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = sorted(result)
    if keys not in (["attempted", "correct", "failed", "metrics"],
                    ["attempted", "correct", "failed", "samples"]):
        return None
    return result


# Driver processes one untraced run is split into. The speed of one
# process on a shared 2-vCPU VM differs from the next by up to ±10%
# whatever its length, so a run pools the samples of several processes,
# each on its own documents. A bulk-uniform process measures whole
# 46-statement cycles (about 6 s each), so its share of --seconds buys
# one cycle.
SPLIT = {"bulk-uniform": 4, "skew-hot": 5, "serve-durable": 3}


def rank(xs, pct):
    """Nearest-rank percentile; pct is an integer percentage. At least
    ten samples must lie beyond it."""
    xs = sorted(xs)
    r = (pct * len(xs) + 99) // 100
    if len(xs) - r < 10:
        raise ValueError("%d samples leave %d beyond p%d (need 10)"
                         % (len(xs), len(xs) - r, pct))
    return xs[max(r, 1) - 1]


def median(xs):
    return sorted(xs)[(len(xs) + 1) // 2 - 1]


def end_to_end(runs):
    """Pool the raw samples of one invocation's driver processes."""
    pool = {}
    for r in runs:
        for k, v in r["samples"].items():
            pool.setdefault(k, []).extend(v if isinstance(v, list) else [v])
    ms = lambda xs: [x * 1e3 for x in xs]
    upd, vis, reads = ms(pool["update_s"]), ms(pool["visible_s"]), ms(pool["read_s"])
    rows = [
        ("setup_s", "s", median(pool["setup_s"]), len(pool["setup_s"])),
        ("update_ms_mean", "ms", sum(upd) / len(upd), len(upd)),
        ("update_ms_p90", "ms", rank(upd, 90), len(upd)),
        ("stmts_per_s", "1/s", sum(pool["stmts"]) / sum(pool["busy_s"]),
         sum(pool["stmts"])),
        ("read_ms_p50", "ms", rank(reads, 50), len(reads)),
        ("read_ms_p90", "ms", rank(reads, 90), len(reads)),
        ("visible_ms_p50", "ms", rank(vis, 50), len(vis)),
        ("visible_ms_p90", "ms", rank(vis, 90), len(vis)),
        ("recover_s", "s", median(pool["recover_s"]), len(pool["recover_s"])),
        ("heap_mb", "MB", median(pool["heap_mb"]), len(pool["heap_mb"])),
    ]
    for name, unit, v, n in rows:
        print("  %-16s %14.6f %-4s (n=%d)" % (name, v, unit, n))
    print("  host.ref_ms %s" % " ".join("%.2f" % x for x in pool["host_ref_ms"]))
    return {name: {"value": v, "unit": unit} for name, unit, v, _ in rows}


def untraced(workload, seed, seconds):
    k = SPLIT.get(workload, 1)
    runs = []
    for j in range(k):
        code, out = run_driver(
            ["--workload", workload, "--seed", str(seed * k + j),
             "--seconds", repr(seconds / k), "--trace", "0"],
            timeout=RUN_TIMEOUT_S / k)
        result = last_json(out)
        sys.stdout.write("\n".join(out.splitlines()[:-1]) + "\n")
        if result is None or "samples" not in result:
            sys.stderr.write("perfbench: driver run %d failed (exit %d)\n" % (j, code))
            return 1
        runs.append(result)
    try:
        metrics = end_to_end(runs)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv):
    build()
    if argv == ["--self-test"]:
        sys.path.insert(0, HERE)
        import selftest
        return selftest.main(run_driver, last_json)
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or sorted(opts) != ["--seconds", "--seed", "--trace", "--workload"]:
        sys.exit(__doc__)
    if opts["--trace"] == "0":
        try:
            return untraced(opts["--workload"], int(opts["--seed"]),
                            float(opts["--seconds"]))
        except ValueError as e:
            sys.exit("perfbench: %s" % e)
    code, out = run_driver(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and last_json(out) is None:
        sys.stderr.write("perfbench: the driver printed no result line\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
