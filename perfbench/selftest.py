"""Self-test of the benchmark harness.

Usage, from the repository root:  python3 perfbench/selftest.py

Runs every workload once at tiny size, untraced and traced (twice), and
checks that:
  * the last line is the result object, with every metric that
    BENCHMARK.json names, in its unit, and no other;
  * every op passes its output check on the current code;
  * counts from the traced run (calls, keys, rows, points, bytes) repeat
    exactly between two traced runs;
  * a deliberately wrong reference (--wrong-reference) makes ops fail,
    which proves the output check bites;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNT_UNITS = ("count", "B")


def bench(cwd: Path, workload: str, *extra: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().split("\n")[-1])


def expected_units(trace: str) -> dict:
    section = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def shape_problems(result: dict, trace: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_units(trace):
        missing = set(expected_units(trace)) - set(got)
        extra = set(got) - set(expected_units(trace))
        problems.append(f"metric names/units differ: missing {sorted(missing)}, "
                        f"extra {sorted(extra)}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} is not a number")
    return problems


def main() -> int:
    failed = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failed
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)

    for workload in WORKLOADS:
        code, out = bench(ROOT, workload, "--trace", "0")
        result = result_of(out) if code == 0 else {}
        problems = shape_problems(result, "0") if result else [f"exit {code}"]
        if result and (not result["correct"] or result["failed"] or result["attempted"] < 1):
            problems.append(f"{result['failed']} of {result['attempted']} ops failed")
        report(not problems, f"{workload} untraced: {'; '.join(problems) or 'all metrics, no failures'}")

        runs = [bench(ROOT, workload, "--trace", "1") for _ in range(2)]
        results = [result_of(out) for code, out in runs if code == 0]
        problems = [f"exit {code}" for code, _ in runs if code != 0]
        for result in results:
            problems += shape_problems(result, "1")
        if len(results) == 2:
            counts = [
                {n: r["metrics"][n]["value"] for n, u in expected_units("1").items()
                 if u in COUNT_UNITS and n in r["metrics"]}
                for r in results
            ]
            differ = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
            if differ:
                problems.append(f"counts differ between traced runs: {differ}")
        report(not problems, f"{workload} traced twice: {'; '.join(problems) or 'counts repeat'}")

        code, out = bench(ROOT, workload, "--trace", "0", "--wrong-reference", "0.01")
        result = result_of(out) if code == 0 else {}
        bites = bool(result) and result["failed"] > 0 and not result["correct"]
        report(bites, f"{workload} wrong reference: "
               + (f"{result['failed']} of {result['attempted']} ops failed" if result else
                  f"exit {code}"))

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench(bare, WORKLOADS[0], "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed = '"correct"' in out
    report(code != 0 and not printed,
           f"bare directory: exit {code}, {'a result was' if printed else 'no result'} printed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
