"""Self-test of the benchmark at a tiny size (EM budget 1, two pieces per model).

    python3 perfbench/selftest.py [workload ...]

For each workload and for --trace 0 and 1 it checks that the result line
has exactly the contract's keys, that every metric BENCHMARK.json names for
that mode is reported once with its unit and a positive value, that the
correctness checks ran and passed, and that the benchmark refuses to run
without the package sources.  It lives outside tests/, so the tier-1 suite
does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import run

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def check_run(workload, trace, spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected))}")
    printed = [METRIC_LINE.match(line) for line in lines]
    printed = [m.groups() for m in printed if m]
    for name, unit in expected.items():
        hits = [p for p in printed if p[0] == name]
        if len(hits) != 1 or hits[0][2] != unit:
            problems.append(f"{name} printed {len(hits)} times, want once with unit {unit}")
        got = result["metrics"].get(name, {})
        value = got.get("value")
        if got.get("unit") != unit or not (isinstance(value, (int, float))
                                           and math.isfinite(value) and value > 0):
            problems.append(f"{name} reported as {got}")
    if not any(line.startswith("PASS ") for line in lines):
        problems.append("no correctness check ran")
    problems += [line for line in lines if line.startswith("FAIL ")]
    return problems


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as empty:
        saved = run.ROOT
        run.ROOT = empty
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run.main(["--workload", "zoo-fit", "--seed", "0",
                                   "--seconds", "1", "--trace", "0"])
        finally:
            run.ROOT = saved
    problems = []
    if status == 0 or out.getvalue():
        problems.append(f"without sources: status {status}, stdout {out.getvalue()!r}")
    return problems


def main(argv):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    failures = 0
    problems = check_refuses_without_sources()
    print(f"{'FAIL' if problems else 'PASS'} refuses to run without sources {problems or ''}")
    failures += bool(problems)
    cwd = os.getcwd()
    for workload in names:
        for trace in (0, 1):
            problems = check_run(workload, trace, spec)
            os.chdir(cwd)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {workload} --trace {trace}", flush=True)
            for problem in problems:
                print(f"    {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
