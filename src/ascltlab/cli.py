"""Command-line front end: config parsing, experiment dispatch, and
persistence of JSON + CSV artifacts.

Every subcommand is one entry of _COMMANDS: a runner, the RunConfig
fields it reads, and its summary line per point.  _resolve_config builds
the run's SourceSpec once, and run() calls runner(cfg, spec), which
returns the ExperimentResult and the CSV table, or None where the rows
are its points.
A subcommand takes the settings of _IDENTITY, which every run reads and
records, and its own fields, and no others: they are its flags, its
config keys and, where the field has no default, its required settings.
run() times the runner, writes the artifacts and prints the summary
lines in the same way for all of them, under one failure handler, and a
write that fails removes both files.  The JSON document is laid out
here alone: the experiment from RunConfig, the run's identity (family,
master_seed, stream_id, p) from its SourceSpec, the rest from the
result.  A CSV is written as bytes.  Its float cells are formatted a
slice at a time by one compiled call (orjson), as repr would.  An
indexed CSV (index, value) is cut into slices of 1000 lines that start at
multiples of 1000, and each slice is one bytes % format: an index is the
slice's prefix lo // 1000 and its last three digits from a table.  No
Python runs per cell or per line except where repr writes an exponent or
a non-finite value.

Config files are plain key=value lines with # comments.  Their keys are
the RunConfig fields, which mirror the long CLI flags except kind
(--weights) and out_dir (--out-dir); explicit flags always win over
file values, and no environment variable is read.  A schedule is given
only as --schedule, a comma list of n:r pairs.  threads sets only how
many workers the replica subcommands use: no result depends on it.
Artifacts are named {experiment}-{seed}-{timestamp}.{json,csv}; the
timestamp lives in its own JSON field so that two runs with identical
config and seed produce byte-identical JSON once that field is excluded.

Exit codes: 0 success, 2 configuration error (a ConfigError, a config
file that cannot be opened or read as UTF-8, a setting the subcommand
does not take, or a float setting that is nan or +-inf), 3 runtime
failure (every other exception, a non-finite result or statistic among
them, with nothing written).
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
from dataclasses import dataclass, field, fields

import numpy as np
import orjson

from . import ConfigError, experiments, spectra
from .sources import FAMILIES, SourceSpec
from .weights import HAAR, TRIG, check_haar, check_trig, haar_rows, trig_u_rows

_RUN_COUNTER = 0
# float cells per slice of a weight row: each slice is formatted by one orjson call
_BLOCK_CELLS = 1 << 12
# lines per slice of an indexed CSV: 1000, so that an index is its slice's
# prefix and three digits
_LINES = 1000


@dataclass
class RunConfig:
    """Fully resolved parameters for one CLI invocation.

    Every field but experiment is one setting: the config key of its name
    and the flag --name (with - for _), parsed by its annotated type.  A
    field's metadata may rename the flag ("flag") and restrict the values
    ("choices"), or give the flag's "help".
    """

    experiment: str
    family: str = field(default="rademacher", metadata={"choices": FAMILIES})
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
    threads: int = field(default=0, metadata={"help": "0 or 1: serial; no result depends on it"})


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


def load_config(path, keys) -> dict:
    """Parse a key=value config file into a {key: typed value} dict.

    Rejects a key outside keys, the settings the subcommand takes, and
    duplicate keys (naming both line numbers); values are converted by
    the declared type of each key, and checked against its choices.  A
    leading UTF-8 BOM is skipped, and a file that cannot be opened or read
    as UTF-8 is a ConfigError too.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    seen: dict[str, int] = {}
    out: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} (the keys are {', '.join(keys)})"
            )
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


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which reports arguments it does not take with
    its own usage and flags."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return parsed, extra


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    keeps no state in it.  A subcommand has a flag for each setting of
    _IDENTITY and of its own, and no other: with no abbreviations, so
    that --r is not taken for --replicas where there is no --r."""
    parser = argparse.ArgumentParser(
        prog="ascltlab",
        description="Numerical experiments on weighted-sum central limit behavior.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, parser_class=_SubcommandParser)
    for name, (_, settings, _) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value config file")
        for key in _IDENTITY + settings:
            parse, meta = _SETTINGS[key]
            flag = meta.get("flag", "--" + key.replace("_", "-"))
            p.add_argument(flag, dest=key, type=parse, default=None,
                           choices=meta.get("choices"), help=meta.get("help"))
    return parser


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, SourceSpec]:
    """The settings of args' subcommand, its flags over its config file,
    and the run's SourceSpec: the identity checked first, then every
    setting without a default set (experiments._replica_map checks threads)."""
    settings = _COMMANDS[args.experiment][1]
    keys = _IDENTITY + settings
    given = load_config(args.config, keys) if args.config is not None else {}
    given.update((key, v) for key in keys if (v := getattr(args, key)) is not None)
    cfg = RunConfig(experiment=args.experiment, **given)
    spec = SourceSpec(family=cfg.family, master_seed=cfg.seed, stream_id=cfg.stream, p=cfg.p)
    missing = [key for key in settings if getattr(cfg, key) is None]
    if missing:
        raise ConfigError(f"{cfg.experiment} requires {' and '.join(missing)}")
    return cfg, spec


def _write_csv(path: str, header, blocks) -> None:
    """The header line, then the byte blocks as they are read."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(blocks)


def _float_text(a: np.ndarray) -> bytes:
    """The comma-joined str (the shortest round-trip repr) of each value of
    the nonempty contiguous 1-D float64 array a, as bytes: orjson's
    shortest digits (Ryu) in one compiled call.  Only where repr writes
    nan, inf or an exponent, at |v| >= 1e16 and at 0 < |v| < 1e-4 (no
    double below 1e-4 prints as 0.0001), are the cells split out and those
    patched with repr's."""
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    mag = np.abs(a)
    idx = np.flatnonzero(~((mag < 1e16) & ((mag >= 1e-4) | (mag == 0.0))))
    if idx.size:
        cells = text.split(b",")
        for i, v in zip(idx.tolist(), a[idx].tolist()):
            cells[i] = repr(v).encode()
        text = b",".join(cells)
    return text


@functools.cache
def _index_endings() -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The last three digits of an index as bytes: plain in the first
    slice, zero-padded after a prefix.  Built on first use, so that a
    process that writes no indexed CSV holds no table."""
    return (tuple(b"%d" % i for i in range(_LINES)),
            tuple(b"%03d" % i for i in range(_LINES)))


def _indexed_lines(e: np.ndarray):
    """The CSV lines "i,e[i]" of the 1-D float array e, as bytes, in slices
    of _LINES lines that start at multiples of _LINES.  One % format per
    slice puts the indices in front of its cells: an index is the slice's
    prefix lo // _LINES (none for the first slice) and its last three
    digits, taken from a table.  No cell holds a %: orjson and repr write
    only digits, signs, ".", "e", "nan" and "inf"."""
    plain, padded = _index_endings()
    for lo in range(0, e.size, _LINES):
        hi = min(lo + _LINES, e.size)
        prefix = b"%d" % (lo // _LINES) if lo else b""
        line = b"\n" + prefix + b"%s,"
        text = prefix + b"%s," + _float_text(e[lo:hi]).replace(b",", line) + b"\n"
        yield text % (padded if lo else plain)[: hi - lo]


def _row_lines(rows):
    """The CSV line "k,row" of each 1-D float array row, k = 1, 2, ..., as
    bytes; a row is formatted a slice at a time."""
    step = _BLOCK_CELLS
    for k, row in enumerate(rows, start=1):
        yield b"%d" % k
        for lo in range(0, row.size, step):
            yield b"," + _float_text(row[lo:lo + step])
        yield b"\n"


def _write_artifacts(cfg: RunConfig, spec: SourceSpec, result: experiments.ExperimentResult,
                     wall_clock_s: float, table) -> tuple[str, str]:
    """Write {experiment}-{seed}-{timestamp}.json and .csv, return paths;
    the JSON is the experiment, the run's identity from spec, then the result."""
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}-{_RUN_COUNTER}"
    doc = {"schema_version": 1, "experiment": cfg.experiment, **vars(spec), **vars(result)}
    # everything volatile across reruns lives under this one key, so that
    # identical (config, seed) runs are byte-identical once it is dropped
    doc["timestamp"] = {"stamp": stamp, "wall_clock_s": wall_clock_s, "threads": cfg.threads}
    # a non-finite value raises ValueError here, before any file is opened
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    base = os.path.join(cfg.out_dir, f"{cfg.experiment}-{cfg.seed}-{stamp}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    json_path, csv_path = base + ".json", base + ".csv"
    try:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_csv(csv_path, *table)
    except BaseException:  # a run that fails while writing leaves neither file
        for path in filter(os.path.exists, (json_path, csv_path)):
            os.remove(path)
        raise
    return json_path, csv_path


def _points_table(points: list[dict]):
    """CSV header and one line per point, as bytes: str of each value,
    None as ""."""
    header = list(points[0])
    return header, ((",".join("" if p[c] is None else str(p[c]) for c in header) + "\n").encode()
                    for p in points)


def _check_weights(cfg: RunConfig, spec: SourceSpec):
    if cfg.kind == TRIG:
        point = check_trig(cfg.n, cfg.r, cfg.delta)
    else:
        point = check_haar(cfg.n, cfg.r, spec, cfg.delta)
    return experiments.ExperimentResult({"kind": cfg.kind, "delta": cfg.delta}, [point]), None


def _periodogram(cfg: RunConfig, spec: SourceSpec):
    dist = spectra.periodogram_ecdf_distance(cfg.n, spec)
    return experiments.ExperimentResult({}, [{"n": cfg.n, "ks_to_exponential": dist}]), None


def _spectrum(cfg: RunConfig, spec: SourceSpec):
    spectrum = {"symmetric": spectra.symmetric_circulant_spectrum,
                "reverse": spectra.reverse_circulant_spectrum}[cfg.ensemble]
    e, point = spectrum(cfg.n, spec)
    result = experiments.ExperimentResult({"ensemble": cfg.ensemble}, [point])
    return result, (["index", "eigenvalue"], _indexed_lines(e))


def _gen_weights(cfg: RunConfig, spec: SourceSpec):
    if cfg.kind == TRIG:
        u = trig_u_rows(cfg.n, cfg.r)
    else:
        u = haar_rows(cfg.n, spec, cfg.r)
    # U streams to the writer one row at a time
    table = (["k"] + [f"u{j}" for j in range(cfg.n)], _row_lines(u))
    point = {"n": cfg.n, "r": cfg.r, "kind": cfg.kind}
    return experiments.ExperimentResult({"kind": cfg.kind}, [point]), table


def _line(fmt: str, *keys: str):
    """Summary of a point: fmt % (its values at keys)."""
    return lambda cfg, p: fmt % tuple(p[k] for k in keys)


def _check_weights_line(cfg: RunConfig, p: dict) -> str:
    return "check-weights n=%d r=%d eps_entry_u=%.6g eps_orth_u=%.6g eps_cross=%.6g" % (
        p["n"], p["r"], p["eps_entry_u"], p["eps_orth_u"], p["eps_cross"] or 0.0
    )


def _spectrum_line(cfg: RunConfig, p: dict) -> str:
    line = "spectrum ensemble=%s n=%d count=%d" % (cfg.ensemble, p["n"], p["count"])
    if cfg.ensemble == "symmetric":
        line += " ks_to_normal=%.6g" % p["ks_to_limit"]
    return line


# the settings every subcommand reads: the run's identity, and where it writes
_IDENTITY = ("family", "p", "seed", "stream", "out_dir")

# subcommand -> (runner, the other RunConfig fields it reads, summary);
# runner(cfg, spec) returns (ExperimentResult, CSV (header, text blocks), or
# None for the points), and summary(cfg, point) one stdout line per point
_COMMANDS = {
    "check-weights": (_check_weights, ("kind", "n", "r", "delta"), _check_weights_line),
    "asclt": (
        lambda cfg, spec: (experiments.asclt_trajectory(
            spec, experiments.Schedule.parse(cfg.schedule), cfg.kind), None),
        ("kind", "schedule"),
        _line("asclt n=%d r=%d ks=%.6g", "n", "r", "ks_to_normal"),
    ),
    "bivariate": (
        lambda cfg, spec: (experiments.asclt_bivariate(
            spec, experiments.Schedule.parse(cfg.schedule)), None),
        ("schedule",),
        _line("bivariate n=%d r=%d max_dev=%.6g", "n", "r", "max_grid_deviation"),
    ),
    "char-decay": (
        lambda cfg, spec: (experiments.char_variance_decay(
            spec, experiments.Schedule.parse(cfg.schedule), cfg.s, cfg.t, cfg.replicas,
            cfg.threads), None),
        ("schedule", "s", "t", "replicas", "threads"),
        _line("char-decay n=%d r=%d estimate=%.6g ratio_r=%.4g",
              "n", "r", "estimate", "ratio_to_inverse_r"),
    ),
    "clt-fluct": (
        lambda cfg, spec: (experiments.clt_fluctuation(
            spec, cfg.n, cfg.r, cfg.x, cfg.replicas, cfg.threads), None),
        ("n", "r", "x", "replicas", "threads"),
        _line("clt-fluct n=%d r=%d x=%g mean=%.6g variance=%.6g ks_std=%.6g",
              "n", "r", "x", "w_mean", "w_variance", "ks_standardized_to_normal"),
    ),
    "ldp": (
        lambda cfg, spec: (experiments.ldp_rate(
            spec, cfg.n, cfg.r, cfg.a, cfg.replicas, cfg.threads), None),
        ("n", "r", "a", "replicas", "threads"),
        _line("ldp n=%d r=%d a=%g rate=%.6g oracle=%.6g target_rate=%.6g",
              "n", "r", "a", "rate", "oracle_rate", "target_rate"),
    ),
    "periodogram": (
        _periodogram, ("n",), _line("periodogram n=%d ks_to_exp=%.6g", "n", "ks_to_exponential")
    ),
    "spectrum": (_spectrum, ("n", "ensemble"), _spectrum_line),
    "gen-weights": (
        _gen_weights, ("kind", "n", "r"), _line("gen-weights kind=%s n=%d r=%d", "kind", "n", "r")
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
        cfg, spec = _resolve_config(args)
        runner, _, summary = _COMMANDS[cfg.experiment]
        t0 = time.perf_counter()
        result, table = runner(cfg, spec)
        wall_clock_s = time.perf_counter() - t0
        lines = [summary(cfg, point) for point in result.points]
        json_path, csv_path = _write_artifacts(
            cfg, spec, result, wall_clock_s, table or _points_table(result.points)
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a non-finite result among them, as JSON's ValueError
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
