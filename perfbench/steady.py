#!/usr/bin/env python3
"""Steadiness check: run each workload several times and report the spread.

    python3 perfbench/steady.py [--runs 10] [--save FILE] [--compare FILE]

Runs every workload of BENCHMARK.json --runs times, each run run_seconds
long with its own seed (1, 2, ..., runs). A set with a failed operation or
a failed whole-run check is not steady. For every end-to-end metric the command prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) as a
share of the median, and that spread against the metric's bound in
BENCHMARK.json: a spread above a third of the bound marks the metric
unsteady (setup_s is reported, not judged). --save writes the raw values
as JSON; --compare reads a saved set and reports, per metric, how far this
set's median moved in the worse direction, against the bound. The share of
failed operations must match exactly between the two sets.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(workload, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d, exit %d):\n%s" %
                 (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def worse_by(name, old, new):
    """How much worse `new` is than `old`, as a share of `old` (<0: better)."""
    if METRICS[name]["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    results = {}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed)
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        results[workload] = {
            "failed_share": failed / attempted,
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: [r["metrics"][name]["value"] for r in runs] for name in METRICS},
        }
        print("%s: attempted %d, failed %d, all correct: %s" %
              (workload, attempted, failed, results[workload]["correct"]))
        steady = steady and failed == 0 and results[workload]["correct"]
        print("  %-14s %12s %12s %12s %8s %7s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, values in results[workload]["metrics"].items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = METRICS[name]["bound"]
            if name == "setup_s":
                verdict = "(not judged)"
            elif spread < bound / 3:
                verdict = "steady"
            else:
                verdict = "UNSTEADY"
                steady = False
            print("  %-14s %12.6g %12.6g %12.6g %7.1f%% %6.0f%% %s" %
                  (name, med, q1, q3, 100 * spread, 100 * bound, verdict))

    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    if args.compare:
        previous = json.loads(Path(args.compare).read_text())
        print("against %s:" % args.compare)
        for workload, now in results.items():
            before = previous.get(workload)
            if before is None:
                continue
            same_share = before["failed_share"] == now["failed_share"]
            print("  %s: failed share %.6g vs %.6g %s" % (
                workload, now["failed_share"], before["failed_share"],
                "(same)" if same_share else "DIFFERENT"))
            steady = steady and same_share
            for name, values in now["metrics"].items():
                old = statistics.median(before["metrics"][name])
                new = statistics.median(values)
                worse = worse_by(name, old, new)
                ok = worse <= METRICS[name]["bound"]
                steady = steady and ok
                print("    %-14s %12.6g -> %12.6g  worse by %+6.1f%% (bound %.0f%%) %s" % (
                    name, old, new, 100 * worse, 100 * METRICS[name]["bound"],
                    "ok" if ok else "REGRESSED"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
