#!/usr/bin/env python3
"""Build perfbench from this checkout and run it.

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check

The first form builds (once) and runs one workload; the benchmark's last
stdout line is its JSON result. --check runs the benchmark's own tests: the
record->replay self-test, the default-seed cross-check against tcmpsim, and
the normalized metrics on a held-out seed. See perfbench/README.md.

Build products and run files go to $CARGO_TARGET_DIR (default .bench_build)
under the checkout root.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper16", "mesh256", "sampled-replay")
HELD_OUT_SEED = 424242


def out_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build_dir():
    return os.path.join(out_dir(), "perfbench")


def work_dir():
    return os.path.join(out_dir(), "work")


def bench_binary():
    return os.path.join(build_dir(), "perfbench")


def commit_id():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(targets):
    """Configure once, then build the named targets; CMake output goes to
    stderr so the benchmark's result stays the last line of stdout."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir(), "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir(),
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", build_dir(), "-j", jobs,
                        "--target", *targets], stdout=sys.stderr)
    return r.returncode == 0


def run_bench(args, capture=False):
    os.makedirs(work_dir(), exist_ok=True)
    cmd = [bench_binary(), "--work-dir", work_dir(), "--commit", commit_id(), *args]
    return subprocess.run(cmd, capture_output=capture, text=True, check=False)


def run_cycles(stdout):
    """{(app, config): cycles} from the benchmark's per-run lines."""
    return {tuple(m.group(1).split("/")): int(m.group(2))
            for m in re.finditer(r"^run (\S+)\s+cycles=(\d+)", stdout, re.M)}


def check():
    if not build(["perfbench", "tcmpsim"]):
        return 2
    ok = True
    print("== record->replay self-test", flush=True)
    ok &= run_bench(["--self-test"]).returncode == 0

    print("== default-seed cross-check against tcmpsim", flush=True)
    base = run_bench(["--workload", "paper16", "--seed", "0", "--seconds", "1",
                      "--trace", "0"], capture=True)
    if base.returncode != 0:
        print(base.stdout, base.stderr)
        return 1
    scale = json.loads(re.search(r"^provenance (.*)$", base.stdout, re.M)
                       .group(1))["scale"]
    tcmpsim = os.path.join(build_dir(), "tcmp", "tools", "tcmpsim")
    mismatches = 0
    for (app, config), cycles in sorted(run_cycles(base.stdout).items()):
        out = subprocess.run([tcmpsim, "--app", app, "--config", config,
                              "--scale", str(scale)],
                             capture_output=True, text=True, check=False).stdout
        m = re.search(r"cycles=(\d+)", out)
        theirs = int(m.group(1)) if m else -1
        same = theirs == cycles
        mismatches += not same
        print(f"  {app:14s} {config:8s} perfbench={cycles:<9d} "
              f"tcmpsim={theirs:<9d} {'match' if same else 'MISMATCH'}")
    ok &= mismatches == 0

    print(f"== normalized metrics: default seed vs held-out seed {HELD_OUT_SEED}",
          flush=True)
    held = run_bench(["--workload", "paper16", "--seed", str(HELD_OUT_SEED),
                      "--seconds", "1", "--trace", "0"], capture=True)
    if held.returncode != 0:
        print(held.stdout, held.stderr)
        return 1
    for seed, out in (("0", base.stdout), (str(HELD_OUT_SEED), held.stdout)):
        for line in re.findall(r"^paper norm_.*$", out, re.M):
            print(f"  seed {seed:>6s}: {line}")
    print("check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run the benchmark's own tests instead of a workload")
    a = ap.parse_args()
    if a.check:
        return check()
    if a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not build(["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return run_bench(["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds),
                      "--trace", str(a.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
