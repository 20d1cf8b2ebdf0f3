"""Command-line front end: config parsing, experiment dispatch, and
persistence of JSON + CSV artifacts.

Config files are plain key=value lines with # comments; the keys mirror
the long CLI flags, and explicit flags always win over file values.
Artifacts are named {experiment}-{seed}-{timestamp}.{json,csv}; the
timestamp lives in its own JSON field so that two runs with identical
config and seed produce byte-identical JSON once that field is excluded.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields

from . import experiments, spectra
from .empirical import normal_cdf
from .sources import SourceSpec
from .weights import (
    TRIG,
    HAAR,
    check_conditions,
    make_trig_pair,
    sample_haar_orthogonal,
    verify_trig_identities,
)

_SUBCOMMANDS = (
    "check-weights",
    "asclt",
    "bivariate",
    "char-decay",
    "clt-fluct",
    "ldp",
    "periodogram",
    "spectrum",
    "gen-weights",
)

# config keys, their parsers, and the RunConfig field they feed
_KEY_TYPES = {
    "family": str,
    "p": float,
    "seed": int,
    "stream": int,
    "kind": str,
    "schedule": str,
    "n": int,
    "r": int,
    "delta": float,
    "x": float,
    "s": float,
    "t": float,
    "a": float,
    "replicas": int,
    "bins": int,
    "ensemble": str,
    "out_dir": str,
    "threads": int,
}


class ConfigError(Exception):
    pass


_RUN_COUNTER = 0


@dataclass
class RunConfig:
    """Fully resolved parameters for one CLI invocation."""

    experiment: str
    family: str = "rademacher"
    p: float | None = None
    seed: int = 0
    stream: int = 0
    kind: str = TRIG
    schedule: str | None = None
    n: int | None = None
    r: int | None = None
    delta: float = 1.0
    x: float = 0.0
    s: float = 1.0
    t: float = 0.0
    a: float = 0.5
    replicas: int = 500
    bins: int = 32
    ensemble: str = "symmetric"
    out_dir: str = "."
    threads: int = 0

    def source_spec(self) -> SourceSpec:
        return SourceSpec(
            family=self.family, master_seed=self.seed, stream_id=self.stream, p=self.p
        )

    def schedule_obj(self) -> experiments.Schedule:
        if self.schedule is not None:
            return experiments.Schedule.parse(self.schedule)
        if self.n is None or self.r is None:
            raise ConfigError("either schedule or both n and r are required")
        return experiments.Schedule(points=((self.n, self.r),))


def load_config(path) -> dict:
    """Parse a key=value config file into a {key: typed value} dict.

    Rejects unknown keys and duplicate keys (naming both line numbers);
    values are converted by the declared type of each key.
    """
    seen: dict[str, int] = {}
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = key.strip(), value.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})"
                )
            seen[key] = lineno
            try:
                out[key] = _KEY_TYPES[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascltlab",
        description="Numerical experiments on weighted-sum central limit behavior.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--family", default=None)
        p.add_argument("--p", type=float, default=None, help="two-point parameter")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--stream", type=int, default=None)
        p.add_argument("--weights", dest="kind", default=None, choices=(TRIG, HAAR))
        p.add_argument("--schedule", default=None, help="comma list of n:r pairs")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--replicas", type=int, default=None)
        p.add_argument("--bins", type=int, default=None)
        p.add_argument("--ensemble", default=None, choices=("symmetric", "reverse"))
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(experiment=args.experiment)
    file_vals = load_config(args.config) if args.config is not None else {}
    for key, value in file_vals.items():
        setattr(cfg, key, value)
    for f in fields(RunConfig):
        if f.name in ("experiment",):
            continue
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            setattr(cfg, f.name, flag_val)
    if getattr(args, "threads", None) is None and "threads" not in file_vals:
        env = os.environ.get("ASCLT_THREADS")
        if env is not None:
            try:
                cfg.threads = int(env)
            except ValueError as exc:
                raise ConfigError(f"ASCLT_THREADS is not an integer: {env!r}") from exc
    if cfg.threads < 0:
        raise ConfigError(
            f"threads (--threads, config key or ASCLT_THREADS) must be >= 0"
            f" (0 or 1 runs serially), got {cfg.threads}"
        )
    return cfg


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_artifacts(cfg: RunConfig, payload: dict, csv_rows: list[dict]) -> tuple[str, str]:
    """Write {experiment}-{seed}-{timestamp}.json and .csv, return paths."""
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}-{_RUN_COUNTER}"
    base = os.path.join(cfg.out_dir, f"{cfg.experiment}-{cfg.seed}-{stamp}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    doc = dict(payload)
    # everything volatile across reruns lives under this one key, so that
    # identical (config, seed) runs are byte-identical once it is dropped
    doc["timestamp"] = {
        "stamp": stamp,
        "wall_clock_s": doc.pop("wall_clock_s", 0.0),
        "threads": cfg.threads,
    }
    json_path = base + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    csv_path = base + ".csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        if csv_rows:
            cols = list(csv_rows[0].keys())
            fh.write(",".join(cols) + "\n")
            for row in csv_rows:
                fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols) + "\n")
    return json_path, csv_path


def _result_payload(cfg: RunConfig, result: experiments.ExperimentResult) -> dict:
    doc = result.to_dict()
    doc["config"] = {
        "experiment": cfg.experiment,
        "family": cfg.family,
        "seed": cfg.seed,
        "stream": cfg.stream,
        "kind": cfg.kind,
    }
    return doc


def _run_check_weights(cfg: RunConfig):
    if cfg.n is None or cfg.r is None:
        raise ConfigError("check-weights requires n and r")
    if cfg.kind == TRIG:
        w = make_trig_pair(cfg.n, cfg.r)
    elif cfg.kind == HAAR:
        w = sample_haar_orthogonal(cfg.n, cfg.source_spec())
    else:
        raise ConfigError(f"check-weights does not support kind {cfg.kind!r}")
    report = check_conditions(w, cfg.delta)
    ident = verify_trig_identities(cfg.n) if cfg.kind == TRIG else None
    point = report.to_dict()
    if ident is not None:
        point["trig_identity_residual"] = ident.worst_residual
    payload = {
        "schema_version": 1,
        "experiment": "check-weights",
        "master_seed": cfg.seed,
        "stream_id": cfg.stream,
        "family": cfg.family,
        "params": {"kind": cfg.kind, "delta": cfg.delta},
        "points": [point],
        "replicas": 1,
        "wall_clock_s": 0.0,
    }
    lines = [
        "check-weights n=%d r=%d eps_entry_u=%.6g eps_orth_u=%.6g eps_cross=%.6g"
        % (cfg.n, cfg.r, report.eps_entry_u, report.eps_orth_u, report.eps_cross or 0.0)
    ]
    return payload, [point], lines


def _run_experiment(cfg: RunConfig):
    spec = cfg.source_spec()
    if cfg.experiment == "asclt":
        result = experiments.asclt_trajectory(spec, cfg.schedule_obj(), cfg.kind)
        lines = [
            "asclt n=%d r=%d ks=%.6g" % (p["n"], p["r"], p["ks_to_normal"])
            for p in result.points
        ]
    elif cfg.experiment == "bivariate":
        result = experiments.asclt_bivariate(spec, cfg.schedule_obj())
        lines = [
            "bivariate n=%d r=%d max_dev=%.6g" % (p["n"], p["r"], p["max_grid_deviation"])
            for p in result.points
        ]
    elif cfg.experiment == "char-decay":
        result = experiments.char_variance_decay(
            spec, cfg.schedule_obj(), cfg.s, cfg.t, cfg.replicas, cfg.threads
        )
        lines = [
            "char-decay n=%d r=%d estimate=%.6g ratio_r=%.4g"
            % (p["n"], p["r"], p["estimate"], p["ratio_to_inverse_r"])
            for p in result.points
        ]
    elif cfg.experiment == "clt-fluct":
        if cfg.n is None or cfg.r is None:
            raise ConfigError("clt-fluct requires n and r")
        result = experiments.clt_fluctuation(
            spec, cfg.n, cfg.r, cfg.x, cfg.replicas, cfg.threads
        )
        p = result.points[0]
        lines = [
            "clt-fluct n=%d r=%d x=%g mean=%.6g variance=%.6g ks_std=%.6g"
            % (p["n"], p["r"], p["x"], p["w_mean"], p["w_variance"], p["ks_standardized_to_normal"])
        ]
    elif cfg.experiment == "ldp":
        if cfg.n is None or cfg.r is None:
            raise ConfigError("ldp requires n and r")
        result = experiments.ldp_rate(spec, cfg.n, cfg.r, cfg.a, cfg.replicas, cfg.threads)
        p = result.points[0]
        lines = [
            "ldp n=%d r=%d a=%g rate=%.6g oracle=%.6g target_rate=%.6g"
            % (p["n"], p["r"], p["a"], p["rate"], p["oracle_rate"], p["target_rate"])
        ]
    else:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    return _result_payload(cfg, result), result.points, lines


def _run_periodogram(cfg: RunConfig):
    if cfg.n is None:
        raise ConfigError("periodogram requires n")
    spec = cfg.source_spec()
    dist = spectra.periodogram_ecdf_distance(cfg.n, spec)
    point = {"n": cfg.n, "ks_to_exponential": dist}
    payload = {
        "schema_version": 1,
        "experiment": "periodogram",
        "master_seed": cfg.seed,
        "stream_id": cfg.stream,
        "family": cfg.family,
        "params": {},
        "points": [point],
        "replicas": 1,
        "wall_clock_s": 0.0,
    }
    return payload, [point], ["periodogram n=%d ks_to_exp=%.6g" % (cfg.n, dist)]


def _run_spectrum(cfg: RunConfig):
    if cfg.n is None:
        raise ConfigError("spectrum requires n")
    spec = cfg.source_spec()
    if cfg.ensemble == "symmetric":
        sp = spectra.symmetric_circulant_spectrum(cfg.n, spec)
        summary = sp.summary(limit_cdf=normal_cdf)
    elif cfg.ensemble == "reverse":
        sp = spectra.reverse_circulant_spectrum(cfg.n, spec)
        summary = sp.summary()
    else:
        raise ConfigError(f"unknown ensemble {cfg.ensemble!r}")
    payload = {
        "schema_version": 1,
        "experiment": "spectrum",
        "master_seed": cfg.seed,
        "stream_id": cfg.stream,
        "family": cfg.family,
        "params": {"ensemble": cfg.ensemble},
        "points": [summary],
        "replicas": 1,
        "wall_clock_s": 0.0,
    }
    rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(sp.eigenvalues)]
    line = "spectrum ensemble=%s n=%d count=%d" % (cfg.ensemble, cfg.n, summary["count"])
    if "ks_to_limit" in summary:
        line += " ks_to_normal=%.6g" % summary["ks_to_limit"]
    return payload, rows, [line]


def _run_gen_weights(cfg: RunConfig):
    if cfg.n is None or cfg.r is None:
        raise ConfigError("gen-weights requires n and r")
    if cfg.kind == TRIG:
        w = make_trig_pair(cfg.n, cfg.r, materialize=True)
    elif cfg.kind == HAAR:
        w = sample_haar_orthogonal(cfg.n, cfg.source_spec())
        if cfg.r < w.r:
            from .weights import custom_pair

            w = custom_pair(w.u[: cfg.r])
    else:
        raise ConfigError(f"gen-weights does not support kind {cfg.kind!r}")
    rows = []
    for k in range(w.r):
        row = {"k": k + 1}
        row.update({f"u{j}": float(w.u[k, j]) for j in range(w.n)})
        rows.append(row)
    point = {"n": w.n, "r": w.r, "kind": cfg.kind}
    payload = {
        "schema_version": 1,
        "experiment": "gen-weights",
        "master_seed": cfg.seed,
        "stream_id": cfg.stream,
        "family": cfg.family,
        "params": {"kind": cfg.kind},
        "points": [point],
        "replicas": 1,
        "wall_clock_s": 0.0,
    }
    return payload, rows, ["gen-weights kind=%s n=%d r=%d" % (cfg.kind, w.n, w.r)]


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags with usage on stderr, which is
        # exactly the contract; normalize any other code to 2
        return 2 if exc.code else 0
    try:
        cfg = _resolve_config(args)
        if cfg.experiment == "check-weights":
            payload, rows, lines = _run_check_weights(cfg)
        elif cfg.experiment in ("asclt", "bivariate", "char-decay", "clt-fluct", "ldp"):
            payload, rows, lines = _run_experiment(cfg)
        elif cfg.experiment == "periodogram":
            payload, rows, lines = _run_periodogram(cfg)
        elif cfg.experiment == "spectrum":
            payload, rows, lines = _run_spectrum(cfg)
        elif cfg.experiment == "gen-weights":
            payload, rows, lines = _run_gen_weights(cfg)
        else:
            raise ConfigError(f"unknown subcommand {cfg.experiment!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    try:
        json_path, csv_path = _write_artifacts(cfg, payload, rows)
    except OSError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(f"wrote {json_path} and {csv_path}")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
