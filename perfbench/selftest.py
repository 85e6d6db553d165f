#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs run.py --tiny untraced and traced (two seeds) and
checks that: the run exits 0; the last line is the result object with
exactly the contract's keys; the untraced metrics are exactly BENCHMARK.json's
end-to-end metrics and the traced ones exactly its per-layer metrics, with
their units; the metrics are also printed under the workload's own names;
only declared known-defect operations fail; and the count metrics repeat
exactly across seeds.  It also checks that a copy holding only
BENCHMARK.json and perfbench/ exits non-zero without printing a result.
Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "build": ("entries_per_s", "fail_frac"),
    "certify": ("zone_points_per_s", "fail_frac"),
    "survey": ("grid_points_per_s", "fail_frac"),
}


def run(root: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_run(workload: str, seed: int, trace: int, problems: list[str]) -> dict:
    where = f"{workload} seed {seed} trace {trace}"
    proc = run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    info = json.loads(lines[0])
    unexpected = [f for f in info["failures"] if not f["known_defect"]]
    if unexpected:
        problems.append(f"{where}: unexpected failures {unexpected}")
    if workload != "certify" and info["failures"]:
        problems.append(f"{where}: failures on a workload without known defects")
    declared = BENCH["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(got.items())} != declared {sorted(want.items())}")
    if not trace:
        printed = {line.split()[1] for line in lines[1:-1]}
        missing = [n for n in NAMED[workload] if n not in printed]
        if missing:
            problems.append(f"{where}: issue metric names not printed: {missing}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_bare_copy(problems: list[str]) -> None:
    bare = HERE / "_work" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "build", 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a copy without the program did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    count_names = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    for w in BENCH["workloads"]:
        name = w["name"]
        check_run(name, 1, 0, problems)
        traced = [check_run(name, seed, 1, problems) for seed in (1, 2)]
        if all(traced):
            differ = [n for n in count_names if traced[0][n] != traced[1][n]]
            if differ:
                problems.append(f"{name}: counts differ across seeds: {differ}")
        print(f"{name}: checked", flush=True)
    check_bare_copy(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
