#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, in both untraced and traced mode, checks that the
last output line is the result object, that it names exactly the
metrics BENCHMARK.json lists for that mode, each with its unit, and
that every job passed its output check. Then runs each workload with one
job's result deliberately corrupted and checks that the failure is
counted, so the output check is not vacuous. Exits non-zero on the
first failure.
"""
import json
import os
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--tiny"] + list(extra)
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit("selftest: %s exited %d\n%s" % (" ".join(cmd),
                                                 out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("selftest: unexpected result keys %s" % sorted(result))
    return result, lines


def expect(cond, what):
    if not cond:
        sys.exit("selftest: FAILED: " + what)
    print("ok   " + what)


def main():
    run.build()
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = "%s trace=%d" % (workload, trace)
            expect(got == want, tag + ": every %s metric, with its unit" % key)
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   tag + ": every value is a number")
            printed = {l.split()[1] for l in lines if l.startswith("metric ")}
            expect(set(want) <= printed, tag + ": every metric printed by name")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   tag + ": every job passed its output check")
            expect(any(l.startswith("context ") for l in lines),
                   tag + ": host context recorded")

        result, _ = bench(workload, 1, "--corrupt-job", "0")
        frac = result["metrics"]["failed_frac"]["value"]
        expect(not result["correct"] and result["failed"] == 1 and frac > 0,
               workload + ": a corrupted job result counts in failed_frac "
               "(%d of %d)" % (result["failed"], result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
