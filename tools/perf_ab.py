#!/usr/bin/env python3
"""Same-host interleaved A/B of two git revisions on the repository benchmark.

Usage, from anywhere inside a checkout:

    python3 tools/perf_ab.py BASE NEW [--pairs N] [--workload NAME ...]
                             [--seconds S] [--seed N] [--trace 0|1] [--tiny]

Checks BASE and NEW out into their own `git worktree` under a temporary
directory, builds each one's perfbench with its own CARGO_TARGET_DIR (one
tiny warm-up run through its own perfbench/run.py), then runs
`perfbench/run.py` for N pairs per workload, alternating which revision
goes first. For every end-to-end metric that BENCHMARK.json lists (the
per-layer ones with --trace 1), it prints each side's median and
interquartile range, the ratio NEW/BASE of the medians, and in how many
pairs NEW was better in the metric's direction. Each run's values go to standard error as they arrive.

A speed claim wants at least ten pairs of full-length runs; `--pairs 1
--tiny` only checks that both revisions build and run. The tool gates
nothing and always exits 0 once every run has finished; a failed build
or run exits non-zero. The worktrees and build directories are removed
on exit. Only the standard library is used.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Side:
    """One revision: its worktree, its build directory and its runs."""

    def __init__(self, label, rev, tmp):
        self.label = label
        self.rev = rev
        self.commit = git("rev-parse", "--verify", rev + "^{commit}")
        self.tree = os.path.join(tmp, label)
        self.env = dict(os.environ,
                        CARGO_TARGET_DIR=os.path.join(tmp, label + "-build"))
        self.runs = {}  # workload -> list of result objects

    def run(self, workload, seconds, seed, trace, tiny):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        if tiny:
            cmd.append("--tiny")
        out = subprocess.run(cmd, cwd=self.tree, env=self.env,
                             capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("perf_ab: %s (%s) exited %d:\n%s" % (
                self.label, self.rev, out.returncode, out.stderr[-4000:]))
        return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def failed_frac(result):
    return result["failed"] / result["attempted"] if result["attempted"] else 1.0


def report(workload, base, new, metrics, args):
    a_runs, b_runs = base.runs[workload], new.runs[workload]
    print("\n%s: %d pairs of %g s runs, seed %d%s" % (
        workload, len(a_runs), args.seconds, args.seed,
        ", tiny" if args.tiny else ""))
    print("  %-32s %14s %10s %14s %10s %8s %8s" % (
        "metric", "base median", "base IQR", "new median", "new IQR",
        "ratio", "better"))
    for name, better in metrics:
        a = [r["metrics"][name]["value"] for r in a_runs
             if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in b_runs
             if name in r["metrics"]]
        if len(a) != len(a_runs) or len(b) != len(b_runs):
            print("  %-32s missing from some runs" % name)
            continue
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        wins = sum((y > x) if better == "higher" else (y < x)
                   for x, y in zip(a, b))
        ratio = bm / am if am else float("nan")
        print("  %-32s %14.6g %10.3g %14.6g %10.3g %8.3f %5d/%d" % (
            name, am, a3 - a1, bm, b3 - b1, ratio, wins, len(a)))
    print("  failed jobs, worst run: base %.3g, new %.3g" % (
        max(failed_frac(r) for r in a_runs),
        max(failed_frac(r) for r in b_runs)))


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="baseline revision, e.g. origin/main")
    ap.add_argument("new", help="revision under test, e.g. HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="repeatable; default: every workload")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny workload sizes (a smoke test, not a measurement)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    # A traced run reports the per-layer metrics instead.
    metrics = [(m["name"], m["better"])
               for m in spec["per_layer" if args.trace else "end_to_end"]]

    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    sides = []
    try:
        for label, rev in (("base", args.base), ("new", args.new)):
            side = Side(label, rev, tmp)
            git("worktree", "add", "--detach", side.tree, side.commit)
            sides.append(side)
        base, new = sides
        for side in sides:
            print("perf_ab: building %s = %s (%s)" % (
                side.label, side.rev, side.commit[:12]), file=sys.stderr)
            side.run(workloads[0], 0.1, args.seed, 0, True)
        for workload in args.workload or workloads:
            for side in sides:
                side.runs[workload] = []
            for pair in range(args.pairs):
                order = sides if pair % 2 == 0 else sides[::-1]
                for side in order:
                    result = side.run(workload, args.seconds, args.seed,
                                      args.trace, args.tiny)
                    side.runs[workload].append(result)
                    print("perf_ab: %s pair %d %s %s" % (
                        workload, pair + 1, side.label, json.dumps(
                            {k: v["value"] for k, v in
                             result["metrics"].items()})), file=sys.stderr)
            report(workload, base, new, metrics, args)
    finally:
        for side in sides:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            side.tree], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
