#!/usr/bin/env python3
"""Short self-tests of the benchmark itself.

    python3 perfbench/selftest.py

For every workload:
  * an untraced run ends with a result line carrying every end-to-end
    metric of BENCHMARK.json, all nonzero, no failed operation, correct;
  * a traced run carries every per-layer metric and writes its trace;
  * a run that corrupts one checked answer in every 7 (a wrong CALC result,
    a stale CACHE version) counts each corrupted answer as failed.
Finally the command must refuse to run (nonzero exit, no result line) in a
directory that holds only BENCHMARK.json and perfbench/.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def run(workload, seconds, trace, corrupt_every=0, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt_every:
        cmd += ["--corrupt-every", str(corrupt_every)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def expect(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run(workload, RUN_SECONDS, trace)
            result = result_of(proc)
            label = "%s --trace %d" % (workload, trace)
            expect(result is not None, label + ": exits 0 with a JSON result line")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   label + ": result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   label + ": correct, nothing failed (attempted %d, failed %d)" %
                   (result["attempted"], result["failed"]))
            missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
            expect(not missing, label + ": every metric reported %s" % (missing or ""))
            wrong_unit = [m["name"] for m in names if m["name"] in result["metrics"] and
                          result["metrics"][m["name"]]["unit"] != m["unit"]]
            expect(not wrong_unit, label + ": units match BENCHMARK.json %s" % (wrong_unit or ""))
            if trace == 0:
                zero = [m["name"] for m in names if result["metrics"].get(m["name"], {}).get(
                    "value", 0) <= 0]
                expect(not zero, label + ": no end-to-end metric is 0 %s" % (zero or ""))
            else:
                expect("tracing overhead:" in proc.stdout and "trace: " in proc.stdout,
                       label + ": prints the tracing overhead and the trace path")
                shed = result["metrics"].get("net.packets_shed", {}).get("value")
                expect(shed == 0, label + ": no packet shed (%s)" % shed)

        proc = run(workload, RUN_SECONDS, 0, corrupt_every=7)
        result = result_of(proc)
        match = re.search(r"selftest: injected=(\d+)", proc.stdout)
        injected = int(match.group(1)) if match else -1
        expect(result is not None and injected > 0 and result["failed"] == injected,
               "%s: %d corrupted answers counted as %s failed" %
               (workload, injected, result and result["failed"]))

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = run(SPEC["workloads"][0]["name"], 1, 0, root=bare)
    expect(proc.returncode != 0 and result_of(proc) is None,
           "without the program's sources: exit %d, no result line" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
