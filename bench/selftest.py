#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size pass of every workload.

    python3 bench/selftest.py

For each workload it runs run.py with --tiny, untraced and traced, and
checks that:
- the last line is the result object, with every metric BENCHMARK.json
  names and the unit it gives, and no operation failed;
- the report names every end-to-end metric of the workload with its
  unit, fail_ratio among them, and it is 0;
- the traced self times of all layers plus the benchmark's own time add
  up to the traced wall time within 5%.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from tracer import metric_units
from workloads import NAMED_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def check(workload: str, trace: int, spec: dict) -> list[str]:
    where = f"{workload} trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    problems = []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct {result['correct']}, {result['failed']} of {result['attempted']} failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} = {m['value']!r}")
        elif not trace and m["value"] <= 0:
            problems.append(f"{where}: end-to-end {name} = {m['value']} is not positive")

    report = json.loads((ROOT / ".bench_out" / f"report-{workload}-{SEED}-trace{trace}.json").read_text())
    named = dict(report["end_to_end"])
    named.update({f"{k}_s": report["per_kind"].get(f"{k}_s") for k in NAMED_KINDS[workload]})
    for name, m in named.items():
        if m is None or "unit" not in m or "median" not in m:
            problems.append(f"{where}: report lacks {name} with a unit")
    if report["end_to_end"]["fail_ratio"]["median"] != 0:
        problems.append(f"{where}: fail_ratio {report['end_to_end']['fail_ratio']['median']}")
    if trace:
        gap = report["trace_accounting"]["relative_gap"]
        if not gap <= 0.05:
            problems.append(f"{where}: traced self times miss the traced wall time by {100 * gap:.1f}%")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != metric_units():
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_units()")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
