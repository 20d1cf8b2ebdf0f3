#!/usr/bin/env python3
"""Benchmark of ascltlab: one workload per invocation.

    python3 bench/run.py --workload replica|single-path|reference \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from anywhere inside a checkout; it uses the checkout's src/.
It starts SETUP_PROBES fresh interpreters that only set up, then one fresh
worker process (worker.py) that sets up, runs the workload's rounds for S
seconds and checks every op. It prints a report with every end-to-end
metric (median, the highest percentile with at least ten samples beyond
it, and the sample count), the environment fingerprint, and as its last
line one JSON object: with --trace 0 the end-to-end metrics listed in
BENCHMARK.json, with --trace 1 the per-layer metrics of the traced run.
The full report is also written to .bench_out/report-<workload>-<seed>-trace<T>.json.
--tiny runs every op at its small size; selftest.py uses it.

Exit codes: 0 with a result, 2 for bad arguments or a checkout without
ascltlab's sources, 3 when a process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import metric_units
from workloads import NAMED_KINDS, WORKLOADS

SETUP_PROBES = 6  # plus the worker's own set-up: the median of seven
DEADLINE_S = 170.0
# the metrics of the result object; the report adds cpu_s, fail_ratio and per-kind totals
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spread(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it (None below eleven samples), and the sample count."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "count": len(vals), "tail_pct": None, "tail": None}
    if len(vals) >= 11:
        out["tail_pct"] = round(100.0 * (len(vals) - 10) / len(vals), 1)
        out["tail"] = vals[len(vals) - 11]
    return out


class Child:
    """A worker process with a hard deadline; killed when it runs over."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline()

    def finish(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def fingerprint(root: Path, packages: dict) -> dict:
    """Where the numbers come from, so that different machines are never compared."""
    head = root / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ascltlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        **packages,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l3": l3,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ascltlab" / "cli.py").is_file():
        print(f"no ascltlab sources under {src}", file=sys.stderr)
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "ASCLT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    worker = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"), "--root", str(root),
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])

    setup, attempted, failed = [], 0, 0
    result = None
    for probe in range(SETUP_PROBES + 1):
        last = probe == SETUP_PROBES
        child = Child(worker + ([] if last else ["--probe"]), env, deadline)
        ready = child.readline().split()
        if ready[:1] == ["ready"]:
            setup.append(time.perf_counter() - child.started)
            attempted += int(ready[1])
            failed += int(ready[2])
        line = child.readline() if last else ""
        code = child.finish()
        if code != 0 or ready[:1] != ["ready"]:
            print(f"worker exited with code {code} before finishing", file=sys.stderr)
            return 3
        if last:
            result = json.loads(line)
    attempted += result["attempted"]
    failed += result["failed"]

    untraced = result["untraced"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": fingerprint(root, result["packages"]),
        "end_to_end": {
            "wall_s": {"unit": "s", **spread(untraced["wall"])},
            "cpu_s": {"unit": "s", **spread(untraced["cpu"])},
            "setup_s": {"unit": "s", **spread(setup)},
            "peak_rss_mb": {"unit": "MB", **spread([result["peak_rss_mb"]])},
            "fail_ratio": {"unit": "ratio", "median": failed / attempted, "count": attempted},
        },
        "per_kind": {
            f"{kind}_s": {"unit": "s", **spread(totals)} for kind, totals in untraced["kind_totals"].items()
        },
        "failures": result["failures"],
    }
    if args.trace:
        trace = result["trace"]
        layer = dict(trace["metrics"])
        layer["trace.overhead_ratio"] = statistics.median(trace["traced"]["wall"]) / statistics.median(untraced["wall"])
        self_total = sum(trace["self_ns"].values()) - trace["overlap_ns"]
        traced_wall = sum(trace["traced"]["wall"])
        report["per_layer"] = {name: {"value": layer[name], "unit": unit} for name, unit in metric_units().items()}
        report["trace_accounting"] = {
            "self_s_by_layer": {k: v / 1e9 for k, v in trace["self_ns"].items()},
            "thread_overlap_s": trace["overlap_ns"] / 1e9,
            "self_sum_s": self_total / 1e9,
            "traced_wall_s": traced_wall,
            "relative_gap": abs(self_total / 1e9 - traced_wall) / traced_wall,
            "spans": trace["spans"],
            "span_file": trace["span_file"],
        }

    out_file = root / ".bench_out" / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)

    if args.trace:
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in report["per_layer"].items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _fmt(name: str, m: dict) -> str:
    tail = f"p{m['tail_pct']:g} {m['tail']:.6g}" if m.get("tail") is not None else "p-tail n/a (<11 samples)"
    return f"  {name:<22} median {m['median']:.6g} {m['unit']:<5} {tail}  n={m['count']}"


def print_report(report: dict) -> None:
    print(f"ascltlab benchmark: workload {report['workload']} seed {report['seed']}"
          f" seconds {report['seconds']:g} trace {report['trace']}{' tiny' if report['tiny'] else ''}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print("end to end (untraced; wall_s, cpu_s and the *_s totals per kind are per round):")
    for name, m in report["end_to_end"].items():
        if name == "fail_ratio":
            print(f"  {name:<22} {m['median']:.6g} ratio  n={m['count']} ops")
        else:
            print(_fmt(name, m))
    named = NAMED_KINDS[report["workload"]]
    for name, m in report["per_kind"].items():
        print(_fmt(name, m) + ("" if name[:-2] in named else "  (not a named metric)"))
    for failure in report["failures"]:
        print("  FAILED " + failure)
    if "per_layer" in report:
        acc = report["trace_accounting"]
        total = sum(v for k, v in acc["self_s_by_layer"].items() if k != "bench") or 1.0
        print("per layer (traced; totals per round):")
        for name, m in report["per_layer"].items():
            share = ""
            if name.endswith(".self_s"):
                share = f"  ({100.0 * acc['self_s_by_layer'][name[:-7]] / total:.1f}% of layer self time)"
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}{share}")
        print(f"  trace accounting: self sum {acc['self_sum_s']:.4f} s (after {acc['thread_overlap_s']:.4f} s"
              f" thread overlap) vs traced wall {acc['traced_wall_s']:.4f} s, gap {100 * acc['relative_gap']:.2f}%"
              f"; {acc['spans']} spans in {acc['span_file']}")


if __name__ == "__main__":
    sys.exit(main())
