"""One workload process of the ascltlab benchmark; started by run.py.

    python3 bench/worker.py --root R --workload W --seed N --seconds S \
        --trace 0|1 [--tiny] [--probe]

Sets up (imports ascltlab.cli and runs one small warm-up op per kind of
the workload), then prints "ready <attempted> <failed>". A --probe process
stops there; run.py times several of them to get the set-up time.
Otherwise the process runs whole rounds of the workload as a closed loop
with one client until S seconds have passed (S/2 untraced and S/2 traced
with --trace 1), replays one op per kind to check determinism, and prints
one JSON line with everything it measured.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import WORKLOADS


class Runner:
    """Runs ops of one workload and checks their outputs."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool, nproc: int):
        from ascltlab import cli, sources, transform, weights

        self.cli, self.sources, self.transform, self.weights = cli, sources, transform, weights
        self.scratch = root / ".bench_out" / "artifacts"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.schema_path = root / "docs" / "result.schema.json"
        self.validator = None
        self.specs = WORKLOADS[workload]
        self.seed, self.tiny, self.nproc = seed, tiny, nproc
        self.next_index = 0
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.trig_pairs: dict = {}  # trig weights are shared per (n, r), as in real use
        self.tracer = None

    def load_validator(self) -> None:
        import jsonschema

        with open(self.schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        self.validator = jsonschema.Draft202012Validator(schema)

    def new_argv(self, spec, tiny: bool) -> list[str]:
        seed = workloads.op_seed(self.seed, self.next_index)
        self.next_index += 1
        return spec.argv(seed, tiny, self.nproc)

    def run(self, argv: list[str], expect_digest: str | None = None) -> dict:
        """Run one op; returns its times, output digest and problems.
        With expect_digest, an output that differs from it is a failure."""
        self.attempted += 1
        span = self.tracer.bench_span(self.attempted) if self.tracer else contextlib.nullcontext()
        with span:
            if argv[0] == "oracle":
                rec = self._run_oracle(argv)
            else:
                rec = self._run_cli(argv)
        if expect_digest is not None and rec["digest"] not in (None, expect_digest):
            rec["problems"].append("output differs from the first run of this seed")
        if rec["problems"]:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(" ".join(argv) + ": " + "; ".join(rec["problems"]))
        return rec

    def _run_cli(self, argv: list[str]) -> dict:
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            sink = io.StringIO()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(sink):
                    code = self.cli.run(argv + ["--out-dir", out])
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                code = f"exception {exc!r}"
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            rec = {"wall": wall, "cpu": cpu, "digest": None, "bytes": 0, "problems": []}
            if code != 0:
                rec["problems"].append(f"exit code {code}")
                return rec
            files = glob.glob(os.path.join(out, "*"))
            rec["bytes"] = sum(os.path.getsize(f) for f in files)
            docs = [f for f in files if f.endswith(".json")]
            if len(docs) != 1:
                rec["problems"].append(f"{len(docs)} JSON artifacts")
                return rec
            try:
                with open(docs[0], encoding="utf-8") as fh:
                    doc = json.load(fh)
            except ValueError as exc:
                rec["problems"].append(f"unreadable JSON: {exc}")
                return rec
            if self.validator is not None:
                rec["problems"] += workloads.check_artifact(argv, doc, self.validator)
            rec["digest"] = workloads.digest(workloads.canonical_json(doc))
            return rec

    def _run_oracle(self, argv: list[str]) -> dict:
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, r, seed = int(opts["--n"]), int(opts["--r"]), int(opts["--seed"])
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if (n, r) not in self.trig_pairs:
                self.trig_pairs[(n, r)] = self.weights.make_trig_pair(n, r)
            x = self.sources.sample_prefix(self.sources.SourceSpec("rademacher", master_seed=seed), n)
            naive = self.transform.partial_sums(self.trig_pairs[(n, r)], x, force="naive")
            fast = self.transform.partial_sums_fast(n, r, x)
        except Exception as exc:
            return {"wall": time.perf_counter() - w0, "cpu": time.process_time() - c0,
                    "digest": None, "bytes": 0, "problems": [f"exception {exc!r}"]}
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        out = b"".join(a.tobytes() for a in (naive.s, naive.t, fast.s, fast.t))
        return {"wall": wall, "cpu": cpu, "digest": workloads.digest(out), "bytes": 0,
                "problems": workloads.check_oracle(n, naive, fast)}

    def warm_up(self) -> None:
        """One small op per kind: first-call costs land in set-up."""
        seen = set()
        for spec in self.specs:
            if spec.kind not in seen:
                seen.add(spec.kind)
                self.run(self.new_argv(spec, tiny=True))

    def rounds(self, seconds: float) -> list[dict]:
        """Whole rounds until `seconds` have passed (at least one)."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            r0, c0 = time.perf_counter(), time.process_time()
            ops = []
            for spec in self.specs:
                argv = self.new_argv(spec, self.tiny)
                ops.append((spec.kind, argv, self.run(argv)))
            out.append({"wall": time.perf_counter() - r0, "cpu": time.process_time() - c0, "ops": ops})
        return out

    def replay(self, first_round: dict) -> None:
        """Re-run the first op of each kind with its seed; ldp ops also at
        the other thread count. Artifacts must match byte for byte."""
        seen = set()
        for kind, argv, rec in first_round["ops"]:
            if kind in seen or rec["digest"] is None:
                continue
            seen.add(kind)
            again = argv
            if argv[0] == "ldp":
                threads = int(argv[argv.index("--threads") + 1])
                again = workloads.with_threads(argv, self.nproc if threads == 1 else 1)
            self.run(again, expect_digest=rec["digest"])


def _summarize_rounds(rounds: list[dict]) -> dict:
    kinds = dict.fromkeys(kind for kind, _, _ in rounds[0]["ops"])
    return {
        "wall": [r["wall"] for r in rounds],
        "cpu": [r["cpu"] for r in rounds],
        "kind_totals": {k: [sum(rec["wall"] for kk, _, rec in r["ops"] if kk == k) for r in rounds] for k in kinds},
    }


def _packages() -> dict:
    """numpy / scipy versions and the BLAS / LAPACK backend."""
    import numpy
    import scipy

    out = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        out.update({k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")})
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        out.update(blas="unknown", lapack="unknown")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    root = Path(args.root).resolve()

    import ascltlab.cli  # noqa: F401  (the set-up being timed)

    if not Path(ascltlab.cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"ascltlab imported from {ascltlab.cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    runner = Runner(root, args.workload, args.seed, args.tiny, nproc)
    runner.warm_up()
    print("ready", runner.attempted, runner.failed, flush=True)
    if args.probe:
        return 0

    runner.load_validator()
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    measured = runner.rounds(untraced_s)
    runner.replay(measured[0])
    result = {
        "untraced": _summarize_rounds(measured),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if args.trace:
        import ascltlab
        from tracer import LAYERS, Tracer, summarize

        tracer = Tracer()
        tracer.install({name: getattr(ascltlab, name) for name in LAYERS})
        runner.tracer = tracer
        traced = runner.rounds(args.seconds / 2)
        summary = summarize(tracer.spans, len(traced))
        par = [rec for r in traced for kind, _, rec in r["ops"] if kind == "ldp_par"]
        par_wall = sum(rec["wall"] for rec in par)
        summary["metrics"]["experiments.parallel_efficiency"] = (
            sum(rec["cpu"] for rec in par) / (par_wall * nproc) if par_wall else 0.0
        )
        summary["metrics"]["cli.bytes_written"] = sum(rec["bytes"] for r in traced for _, _, rec in r["ops"]) / len(traced)
        summary["traced"] = _summarize_rounds(traced)
        summary["spans"] = len(tracer.spans)
        out = root / ".bench_out" / f"trace-{args.workload}.csv.gz"
        tracer.write(out)
        summary["span_file"] = str(out.relative_to(root))
        result["trace"] = summary

    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
                  packages=_packages())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
