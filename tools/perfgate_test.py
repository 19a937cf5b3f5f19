#!/usr/bin/env python3
"""Self-test for `perfgate.py compare` on fixture result lines.

    python3 tools/perfgate_test.py WORK_DIR

tools/perfgate_fixture.jsonl holds one parent-side perfgate record per
workload and trace mode, cut from real perfbench output (seed 1). Each case
below writes a results file in which the change ran the same lines, with
one edit, and runs `perfgate.py compare` on it. Identical sides must pass.
Each seeded fault must fail, with FAIL on the row that names it (so a crash,
which also exits 1, is not mistaken for a catch).
"""
import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def scale(metric, factor):
    def edit(rec):
        rec["result"]["metrics"][metric]["value"] *= factor
    return edit


def set_metric(metric, value):
    def edit(rec):
        rec["result"]["metrics"][metric]["value"] = value
    return edit


def set_failed(rec):
    rec["result"]["failed"] = 1


# (name, workload, trace, edit of the change's record, row that must fail)
CASES = [
    ("identical", None, None, None, None),
    ("mesh256 sim_kcps 30% worse", "mesh256", 0, scale("sim_kcps", 0.7),
     ("mesh256", "sim_kcps")),
    ("one run with failed: 1", "paper16", 0, set_failed,
     ("paper16", "correct (trace 0)")),
    ("sampling cycle error 0.14", "sampled-replay", 1,
     set_metric("cmp.sampling_cycle_error", 0.14),
     ("sampled-replay", "cmp.sampling_cycle_error")),
]


def main(argv):
    work = os.path.abspath(argv[1])
    with open(os.path.join(HERE, "perfgate_fixture.jsonl"), encoding="utf-8") as f:
        parent = [json.loads(line) for line in f if line.strip()]
    failures = 0
    for n, (name, workload, trace, edit, fail_row) in enumerate(CASES):
        out = os.path.join(work, f"case{n}")
        os.makedirs(out, exist_ok=True)
        change = copy.deepcopy(parent)
        for rec in change:
            rec["side"] = "change"
            if edit and rec["workload"] == workload and rec["trace"] == trace:
                edit(rec)
        with open(os.path.join(out, "results.jsonl"), "w", encoding="utf-8") as f:
            for rec in parent + change:
                f.write(json.dumps(rec) + "\n")
        p = subprocess.run([sys.executable, os.path.join(HERE, "perfgate.py"),
                            "compare", out], capture_output=True, text=True,
                           check=False)
        rows = [line.split() for line in p.stdout.splitlines()]
        if fail_row is None:
            ok = p.returncode == 0 and "perfgate: PASS" in p.stdout
        else:
            ok = p.returncode == 1 and any(
                r[0] == fail_row[0] and " ".join(r[1:]).startswith(fail_row[1] + " ")
                and r[-1] == "FAIL" for r in rows if r)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {p.returncode}")
        if not ok:
            failures += 1
            print(p.stdout + p.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
