"""Command-line front end: config parsing, experiment dispatch, and
persistence of JSON + CSV artifacts.

Every subcommand is one entry of _COMMANDS: a runner that returns an
ExperimentResult (and, when the CSV rows are not its points, the CSV
rows), the RunConfig fields it needs, and its summary line per point.
run() checks those fields, times the runner, writes the artifacts and
prints the summary lines in the same way for all of them.

Config files are plain key=value lines with # comments.  Their keys are
the RunConfig fields, which mirror the long CLI flags except kind
(--weights) and out_dir (--out-dir); explicit flags always win over
file values.
Artifacts are named {experiment}-{seed}-{timestamp}.{json,csv}; the
timestamp lives in its own JSON field so that two runs with identical
config and seed produce byte-identical JSON once that field is excluded.

Exit codes: 0 success, 2 configuration error (a float setting that is
nan or +-inf among them), 3 runtime failure (a non-finite result or
statistic among them, with nothing written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, islice

import numpy as np

from . import experiments, spectra
from .empirical import normal_cdf
from .sources import SourceSpec
from .weights import (
    _MATERIALIZE_LIMIT,
    TRIG,
    HAAR,
    check_conditions,
    make_trig_pair,
    sample_haar_orthogonal,
    trig_column_sums,
    verify_trig_identities,
)


class ConfigError(Exception):
    pass


_RUN_COUNTER = 0
# cells per CSV write: each block of rows is formatted in C and written at once
_BLOCK_CELLS = 1 << 12
_SIGN = np.uint64(1 << 63)  # the sign bit of a float64


@dataclass
class RunConfig:
    """Fully resolved parameters for one CLI invocation.

    Every field but experiment is one setting: the config key of its name
    and the flag --name (with - for _), parsed by its annotated type.  A
    field's metadata may rename the flag ("flag") and restrict the values
    ("choices"), or give the flag's "help".
    """

    experiment: str
    family: str = "rademacher"
    p: float | None = field(default=None, metadata={"help": "two-point parameter"})
    seed: int = 0
    stream: int = 0
    kind: str = field(default=TRIG, metadata={"flag": "--weights", "choices": (TRIG, HAAR)})
    schedule: str | None = field(default=None, metadata={"help": "comma list of n:r pairs"})
    n: int | None = None
    r: int | None = None
    delta: float = 1.0
    x: float = 0.0
    s: float = 1.0
    t: float = 0.0
    a: float = 0.5
    replicas: int = 500
    ensemble: str = field(default="symmetric", metadata={"choices": ("symmetric", "reverse")})
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


def finite_float(text: str) -> float:
    """float(text), refusing nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# {name: (parser, field metadata)} of the settings; a "T | None" field
# parses as T, and a float one as a finite float
_HINTS = typing.get_type_hints(RunConfig)
_SETTINGS = {
    f.name: ({float: finite_float}.get(tp, tp), f.metadata)
    for f in fields(RunConfig)
    if f.name != "experiment"
    for tp in [(typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0]]
}


def load_config(path) -> dict:
    """Parse a key=value config file into a {key: typed value} dict.

    Rejects unknown keys and duplicate keys (naming both line numbers);
    values are converted by the declared type of each key, and checked
    against its choices.
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
            if key not in _SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})"
                )
            seen[key] = lineno
            parse, meta = _SETTINGS[key]
            try:
                out[key] = parse(value)
                choices = meta.get("choices")
                if choices and out[key] not in choices:
                    raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ascltlab",
        description="Numerical experiments on weighted-sum central limit behavior.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, (parse, meta) in _SETTINGS.items():
            flag = meta.get("flag", "--" + key.replace("_", "-"))
            p.add_argument(flag, dest=key, type=parse, default=None,
                           choices=meta.get("choices"), help=meta.get("help"))
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_vals = load_config(args.config) if args.config is not None else {}
    flag_vals = {key: v for key in _SETTINGS if (v := getattr(args, key)) is not None}
    cfg = RunConfig(experiment=args.experiment, **{**file_vals, **flag_vals})
    if "threads" not in flag_vals and "threads" not in file_vals:
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
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: str, header, rows) -> None:
    """The header line, then one line per row: str of each cell (a Python
    float's str is its shortest round-trip repr), ","-separated.

    Rows are read lazily, about _BLOCK_CELLS cells at a time; each block
    is formatted by one % of the repeated line format, in C, and written
    at once.
    """
    width = len(header)
    per_block = max(1, _BLOCK_CELLS // width)
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        while cells := tuple(chain.from_iterable(islice(rows, per_block))):
            fh.write(line * (len(cells) // width) % cells)


def _floats(a: np.ndarray):
    """The values of a 1-D float array as Python floats, lazily, one
    slice at a time."""
    step = _BLOCK_CELLS
    return chain.from_iterable(a[i:i + step].tolist() for i in range(0, a.size, step))


def _sorted_cells(e: np.ndarray):
    """CSV cells of the sorted float64 array e: its values, or their repr.

    When the lower half is, bit for bit, the negated mirror of the upper
    half and the upper half has no sign bit set (the +- pairs of a reverse
    circulant spectrum), only the upper half is formatted: repr(-x) is
    "-" + repr(x) for such x, 0.0 included.  Its reprs are kept ","-joined
    per slice, a quarter of the memory of separate strings, and split
    again for each half.  A middle element of an odd size stays a value.
    """
    h = e.size // 2
    hi = e[e.size - h:]
    if np.signbit(hi).any() or not np.array_equal(e[:h].view(np.uint64) ^ _SIGN,
                                                  hi[::-1].view(np.uint64)):
        return _floats(e)
    step = _BLOCK_CELLS
    joined = [",".join(map(repr, hi[i:i + step].tolist())) for i in range(0, h, step)]
    lower = (reversed(("-" + s.replace(",", ",-")).split(",")) for s in reversed(joined))
    upper = (s.split(",") for s in joined)
    return chain(chain.from_iterable(lower), _floats(e[h:e.size - h]), chain.from_iterable(upper))


def _write_artifacts(cfg: RunConfig, doc: dict, wall_clock_s: float, table) -> tuple[str, str]:
    """Write {experiment}-{seed}-{timestamp}.json and .csv, return paths."""
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}-{_RUN_COUNTER}"
    # everything volatile across reruns lives under this one key, so that
    # identical (config, seed) runs are byte-identical once it is dropped
    doc["timestamp"] = {"stamp": stamp, "wall_clock_s": wall_clock_s, "threads": cfg.threads}
    # a non-finite value raises ValueError here, before any file is opened
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    base = os.path.join(cfg.out_dir, f"{cfg.experiment}-{cfg.seed}-{stamp}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    json_path = base + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    csv_path = base + ".csv"
    _write_csv(csv_path, *table)
    return json_path, csv_path


def _points_table(points: list[dict]):
    """CSV header and rows, one row per point; a None value is an empty cell."""
    header = list(points[0])
    return header, (["" if p[c] is None else p[c] for c in header] for p in points)


def _result(cfg: RunConfig, params: dict, point: dict) -> experiments.ExperimentResult:
    """The one-point result of a subcommand that runs no harness."""
    return experiments.ExperimentResult(
        cfg.experiment, cfg.seed, cfg.stream, cfg.family, params, [point]
    )


def _harness(call):
    """Runner for call(cfg, spec), a harness of the experiments module;
    its artifact carries the block of resolved settings."""

    def runner(cfg: RunConfig):
        result = call(cfg, cfg.source_spec())
        keys = ("experiment", "family", "seed", "stream", "kind")
        result.config = {k: getattr(cfg, k) for k in keys}
        return result, None

    return runner


def _check_weights(cfg: RunConfig):
    if cfg.kind == TRIG:
        # the structured check reads only the column sums, never the rows
        w = make_trig_pair(cfg.n, cfg.r, materialize=False)
        sums = trig_column_sums(cfg.n)
        point = asdict(check_conditions(w, cfg.delta, sums=sums))
        point["trig_identity_residual"] = verify_trig_identities(cfg.n, sums=sums).worst_residual
    else:
        w = sample_haar_orthogonal(cfg.n, cfg.source_spec(), cfg.r)
        point = asdict(check_conditions(w, cfg.delta))
    return _result(cfg, {"kind": cfg.kind, "delta": cfg.delta}, point), None


def _periodogram(cfg: RunConfig):
    dist = spectra.periodogram_ecdf_distance(cfg.n, cfg.source_spec())
    return _result(cfg, {}, {"n": cfg.n, "ks_to_exponential": dist}), None


def _spectrum(cfg: RunConfig):
    spec = cfg.source_spec()
    if cfg.ensemble == "symmetric":
        sp = spectra.symmetric_circulant_spectrum(cfg.n, spec)
        summary = sp.summary(limit_cdf=normal_cdf)
    else:
        sp = spectra.reverse_circulant_spectrum(cfg.n, spec)
        summary = sp.summary()
    return _result(cfg, {"ensemble": cfg.ensemble}, summary), _spectrum_table(sp.eigenvalues)


def _spectrum_table(e: np.ndarray):
    """CSV header and (index, eigenvalue) rows of the sorted spectrum e."""
    return ["index", "eigenvalue"], zip(range(e.size), _sorted_cells(e))


def _gen_weights(cfg: RunConfig):
    if cfg.kind == TRIG:
        w = make_trig_pair(cfg.n, cfg.r, materialize=False)
        if w.r * w.n > _MATERIALIZE_LIMIT:
            raise MemoryError(f"refusing to write {w.r}x{w.n} trig weights")
    else:
        w = sample_haar_orthogonal(cfg.n, cfg.source_spec(), cfg.r)
    # U streams to the writer one row at a time; a trig pair never holds
    # more than that row, and V is never built
    rows = ((k, *w.rows_u([k])[0].tolist()) for k in range(1, w.r + 1))
    table = (["k"] + [f"u{j}" for j in range(w.n)], rows)
    point = {"n": w.n, "r": w.r, "kind": cfg.kind}
    return _result(cfg, {"kind": cfg.kind}, point), table


def _line(fmt: str, *keys: str):
    """Summary of a point: fmt % (its values at keys)."""
    return lambda cfg, p: fmt % tuple(p[k] for k in keys)


def _check_weights_line(cfg: RunConfig, p: dict) -> str:
    return "check-weights n=%d r=%d eps_entry_u=%.6g eps_orth_u=%.6g eps_cross=%.6g" % (
        p["n"], p["r"], p["eps_entry_u"], p["eps_orth_u"], p["eps_cross"] or 0.0
    )


def _spectrum_line(cfg: RunConfig, p: dict) -> str:
    line = "spectrum ensemble=%s n=%d count=%d" % (cfg.ensemble, p["n"], p["count"])
    if "ks_to_limit" in p:
        line += " ks_to_normal=%.6g" % p["ks_to_limit"]
    return line


# subcommand -> (runner, required RunConfig fields, summary); runner(cfg)
# returns (ExperimentResult, CSV (header, rows of cells), or None for the points),
# and summary(cfg, point) one stdout line per point
_COMMANDS = {
    "check-weights": (_check_weights, ("n", "r"), _check_weights_line),
    "asclt": (
        _harness(lambda cfg, spec: experiments.asclt_trajectory(
            spec, cfg.schedule_obj(), cfg.kind)),
        (),
        _line("asclt n=%d r=%d ks=%.6g", "n", "r", "ks_to_normal"),
    ),
    "bivariate": (
        _harness(lambda cfg, spec: experiments.asclt_bivariate(spec, cfg.schedule_obj())),
        (),
        _line("bivariate n=%d r=%d max_dev=%.6g", "n", "r", "max_grid_deviation"),
    ),
    "char-decay": (
        _harness(lambda cfg, spec: experiments.char_variance_decay(
            spec, cfg.schedule_obj(), cfg.s, cfg.t, cfg.replicas, cfg.threads)),
        (),
        _line("char-decay n=%d r=%d estimate=%.6g ratio_r=%.4g",
              "n", "r", "estimate", "ratio_to_inverse_r"),
    ),
    "clt-fluct": (
        _harness(lambda cfg, spec: experiments.clt_fluctuation(
            spec, cfg.n, cfg.r, cfg.x, cfg.replicas, cfg.threads)),
        ("n", "r"),
        _line("clt-fluct n=%d r=%d x=%g mean=%.6g variance=%.6g ks_std=%.6g",
              "n", "r", "x", "w_mean", "w_variance", "ks_standardized_to_normal"),
    ),
    "ldp": (
        _harness(lambda cfg, spec: experiments.ldp_rate(
            spec, cfg.n, cfg.r, cfg.a, cfg.replicas, cfg.threads)),
        ("n", "r"),
        _line("ldp n=%d r=%d a=%g rate=%.6g oracle=%.6g target_rate=%.6g",
              "n", "r", "a", "rate", "oracle_rate", "target_rate"),
    ),
    "periodogram": (
        _periodogram, ("n",), _line("periodogram n=%d ks_to_exp=%.6g", "n", "ks_to_exponential")
    ),
    "spectrum": (_spectrum, ("n",), _spectrum_line),
    "gen-weights": (
        _gen_weights, ("n", "r"), _line("gen-weights kind=%s n=%d r=%d", "kind", "n", "r")
    ),
}


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
        runner, required, summary = _COMMANDS[cfg.experiment]
        if any(getattr(cfg, name) is None for name in required):
            raise ConfigError(f"{cfg.experiment} requires {' and '.join(required)}")
        t0 = time.perf_counter()
        result, table = runner(cfg)
        wall_clock_s = time.perf_counter() - t0
        lines = [summary(cfg, point) for point in result.points]
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    try:
        json_path, csv_path = _write_artifacts(
            cfg, result.to_dict(), wall_clock_s, table or _points_table(result.points)
        )
    except (OSError, ValueError) as exc:
        # ValueError: a non-finite result, which JSON cannot hold
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
