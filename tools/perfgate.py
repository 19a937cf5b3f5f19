#!/usr/bin/env python3
"""Performance gate: perfbench on a parent checkout and a change, same host.

    python3 tools/perfgate.py run PARENT CHANGE OUT
    python3 tools/perfgate.py compare OUT

`run` calls `python3 <root>/perfbench/run.py` in both checkouts, pair by
pair, alternating which side runs first, and writes every result line to
OUT/results.jsonl (the full output of each run goes to OUT/logs/). Each
side builds into OUT/<side>/.

`compare` reads OUT/results.jsonl, prints one table (also written to
OUT/table.txt) and exits 1 if any rule fails:

  1. every run is correct (perfbench's own checks passed);
  2. per workload, each end-to-end metric's median on the change is no
     worse than the parent's by more than its bound in BENCHMARK.json (the
     one in this script's checkout);
  3. traced runs: noc.host_ns_per_flit_hop on paper16 and mesh256 is no
     worse than the parent's by more than HOST_NS_BOUND;
  4. traced runs of the change: mesh256 cmp.partition_speedup >= MIN_SPEEDUP
     and sampled-replay cmp.sampling_cycle_error <= MAX_SAMPLING_ERROR.

Host speed drifts by tens of percent between runs minutes apart, so the
gate never compares against a committed number; both sides are measured
on the same host, interleaved. See docs/performance.md.
"""
import json
import os
import statistics
import subprocess
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
SIDES = ("parent", "change")
WORKLOADS = ("paper16", "mesh256", "sampled-replay")
PAIRS = 5          # untraced pairs: the end-to-end medians (rule 2)
TRACED_PAIRS = 1   # traced pairs: per-layer metrics (rules 3 and 4)
SECONDS = 10
SEED = 1
HOST_NS_BOUND = 0.25
MIN_SPEEDUP = 1.0
MAX_SAMPLING_ERROR = 0.1354


def results_path(out):
    return os.path.join(out, "results.jsonl")


def run(roots, out):
    """Every pair runs each workload on both sides back to back; the side
    that goes first alternates from pair to pair."""
    os.makedirs(os.path.join(out, "logs"), exist_ok=True)
    plan = [(0, i) for i in range(PAIRS)] + [(1, i) for i in range(TRACED_PAIRS)]
    with open(results_path(out), "w", encoding="utf-8") as results:
        for n, (trace, pair) in enumerate(plan):
            order = SIDES if n % 2 == 0 else SIDES[::-1]
            for workload in WORKLOADS:
                for side in order:
                    rec = run_one(roots[side], out, side, workload, trace, pair)
                    results.write(json.dumps(rec) + "\n")
                    results.flush()
                    print(f"pair {pair} trace {trace} {workload:14s} {side:6s} "
                          f"exit {rec['exit']}", flush=True)
    return 0


def run_one(root, out, side, workload, trace, pair):
    """One perfbench run, built into OUT/<side>/ and logged in full to
    OUT/logs/; returns its perfgate record."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(out, side))
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                       check=False)
    log = os.path.join(out, "logs", f"{side}-{workload}-trace{trace}-pair{pair}.log")
    with open(log, "w", encoding="utf-8") as f:
        f.write(p.stdout + p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"side": side, "workload": workload, "trace": trace, "pair": pair,
            "exit": p.returncode, "result": result}


def run_ok(rec):
    r = rec.get("result")
    return (rec.get("exit") == 0 and isinstance(r, dict) and r.get("correct") is True
            and r.get("failed") == 0 and isinstance(r.get("metrics"), dict))


def median(runs, metric):
    values = [r["result"]["metrics"][metric]["value"] for r in runs
              if run_ok(r) and metric in r["result"]["metrics"]]
    return statistics.median(values) if values else None


def worse_by(parent, change, better):
    """How much worse the change is, as a share of the parent's value."""
    if parent == change:
        return 0.0
    delta = change - parent if better == "lower" else parent - change
    if not parent:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(parent)


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def compare(out):
    with open(BENCHMARK, encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    with open(results_path(out), encoding="utf-8") as f:
        recs = [json.loads(line) for line in f if line.strip()]

    def runs(side, workload, trace):
        return [r for r in recs if r["side"] == side and r["workload"] == workload
                and r["trace"] == trace]

    rows = []

    def row(workload, metric, parent, change, bound, ok):
        rows.append((workload, metric, parent, change, bound, "ok" if ok else "FAIL"))

    def relative(workload, metric, trace, better, bound):
        p = median(runs("parent", workload, trace), metric)
        c = median(runs("change", workload, trace), metric)
        ok = p is not None and c is not None and worse_by(p, c, better) <= bound
        sign = "+" if better == "lower" else "-"
        row(workload, metric, fmt(p), fmt(c), f"{sign}{bound:g}", ok)

    for workload in WORKLOADS:
        for trace in (0, 1):
            tally = {s: runs(s, workload, trace) for s in SIDES}
            good = {s: sum(run_ok(r) for r in tally[s]) for s in SIDES}
            row(workload, f"correct (trace {trace})",
                f"{good['parent']}/{len(tally['parent'])}",
                f"{good['change']}/{len(tally['change'])}", "all",
                all(tally[s] and good[s] == len(tally[s]) for s in SIDES))
        for m in end_to_end:
            relative(workload, m["name"], 0, m["better"], m["bound"])
        if workload in ("paper16", "mesh256"):
            relative(workload, "noc.host_ns_per_flit_hop", 1, "lower", HOST_NS_BOUND)

    for workload, metric, ok_fn, bound in (
            ("mesh256", "cmp.partition_speedup", lambda v: v >= MIN_SPEEDUP,
             f">={MIN_SPEEDUP:g}"),
            ("sampled-replay", "cmp.sampling_cycle_error",
             lambda v: v <= MAX_SAMPLING_ERROR, f"<={MAX_SAMPLING_ERROR:g}")):
        c = median(runs("change", workload, 1), metric)
        row(workload, metric, fmt(median(runs("parent", workload, 1), metric)),
            fmt(c), bound, c is not None and ok_fn(c))

    header = ("workload", "metric", "parent", "change", "bound", "verdict")
    widths = [max(len(str(x[i])) for x in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(str(x[i]).ljust(widths[i]) for i in range(len(header))).rstrip()
             for x in [header, *rows]]
    failed = sum(r[-1] != "ok" for r in rows)
    lines.append(f"perfgate: {'FAIL' if failed else 'PASS'} "
                 f"({failed} of {len(rows)} checks failed)")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    with open(os.path.join(out, "table.txt"), "w", encoding="utf-8") as f:
        f.write(text)
    return 1 if failed else 0


def main(argv):
    if argv[1:2] == ["run"] and len(argv) == 5:
        return run({"parent": os.path.abspath(argv[2]),
                    "change": os.path.abspath(argv[3])}, os.path.abspath(argv[4]))
    if argv[1:2] == ["compare"] and len(argv) == 3:
        return compare(os.path.abspath(argv[2]))
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
