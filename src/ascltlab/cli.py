"""Command-line front end: config parsing, experiment dispatch, and
persistence of JSON + CSV artifacts.

Every subcommand is one entry of _COMMANDS: a runner that returns an
ExperimentResult (and, when the CSV rows are not its points, the CSV
rows), the RunConfig fields it reads, and its summary line per point.
A subcommand takes the settings of _IDENTITY, which every run reads and
records, and its own fields, and no others: they are its flags, its
config keys and, where the field has no default, its required settings.
run() times the runner, writes the artifacts and prints the summary
lines in the same way for all of them.  The JSON document is laid out
here alone: the run's identity (experiment, seed, stream, family, p)
comes from RunConfig, the rest from the result.  The float cells of a
CSV are formatted a slice of 4096 at a time by one compiled call, as repr
would, and an indexed slice's lines by one % format: no Python runs per
cell except where repr writes an exponent or a non-finite value.

Config files are plain key=value lines with # comments.  Their keys are
the RunConfig fields, which mirror the long CLI flags except kind
(--weights) and out_dir (--out-dir); explicit flags always win over
file values.  A schedule is given only as --schedule, a comma list of
n:r pairs.  Only the subcommands that read threads consult ASCLT_THREADS.
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
# float cells per slice: each slice is formatted by one orjson call
_BLOCK_CELLS = 1 << 12


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
    threads: int = 0

    def source_spec(self) -> SourceSpec:
        return SourceSpec(
            family=self.family, master_seed=self.seed, stream_id=self.stream, p=self.p
        )


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
    file that cannot be opened or read as UTF-8 is a ConfigError too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
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


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The settings of args' subcommand: its flags over its config file,
    threads from ASCLT_THREADS when it reads threads and neither sets
    them; the identity checked and every setting without a default set."""
    settings = _COMMANDS[args.experiment][1]
    keys = _IDENTITY + settings
    given = load_config(args.config, keys) if args.config is not None else {}
    given.update((key, v) for key in keys if (v := getattr(args, key)) is not None)
    cfg = RunConfig(experiment=args.experiment, **given)
    if "threads" in settings and "threads" not in given:
        env = os.environ.get("ASCLT_THREADS")
        if env is not None:
            try:
                cfg.threads = int(env)
            except ValueError as exc:
                raise ConfigError(f"ASCLT_THREADS is not an integer: {env!r}") from exc
    cfg.source_spec()
    missing = [key for key in settings if getattr(cfg, key) is None]
    if missing:
        raise ConfigError(f"{cfg.experiment} requires {' and '.join(missing)}")
    if cfg.threads < 0:
        raise ConfigError(
            f"threads (--threads, config key or ASCLT_THREADS) must be >= 0"
            f" (0 or 1 runs serially), got {cfg.threads}"
        )
    return cfg


def _write_csv(path: str, header, blocks) -> None:
    """The header line, then the text blocks as they are read."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _float_text(a: np.ndarray) -> str:
    """The comma-joined str (the shortest round-trip repr) of each value of
    the nonempty contiguous 1-D float64 array a: orjson's shortest digits
    (Ryu) in one compiled call.  Only where repr writes nan, inf or an
    exponent, at |v| >= 1e16 and at 0 < |v| < 1e-4 (no double below 1e-4
    prints as 0.0001), are the cells split out and those patched with
    repr's."""
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1]
    mag = np.abs(a)
    idx = np.flatnonzero(~((mag < 1e16) & ((mag >= 1e-4) | (mag == 0.0))))
    if idx.size:
        cells = text.split(",")
        for i, v in zip(idx.tolist(), a[idx].tolist()):
            cells[i] = repr(v)
        text = ",".join(cells)
    return text


def _indexed_lines(e: np.ndarray):
    """The CSV lines "i,e[i]" of the 1-D float array e, a slice at a time:
    one % format per slice puts the indices in front of its cells."""
    step = _BLOCK_CELLS
    for lo in range(0, e.size, step):
        hi = min(lo + step, e.size)
        text = _float_text(e[lo:hi])
        yield ("%d," + text.replace(",", "\n%d,") + "\n") % tuple(range(lo, hi))


def _row_lines(rows):
    """The CSV line "k,row" of each 1-D float array row, k = 1, 2, ...; a
    row is formatted a slice at a time."""
    step = _BLOCK_CELLS
    for k, row in enumerate(rows, start=1):
        yield str(k)
        for lo in range(0, row.size, step):
            yield "," + _float_text(row[lo:lo + step])
        yield "\n"


def _write_artifacts(
    cfg: RunConfig, result: experiments.ExperimentResult, wall_clock_s: float, table
) -> tuple[str, str]:
    """Write {experiment}-{seed}-{timestamp}.json and .csv, return paths;
    the JSON is the run's identity from cfg, then the result."""
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}-{_RUN_COUNTER}"
    doc = {"schema_version": 1, "experiment": cfg.experiment, "master_seed": cfg.seed,
           "stream_id": cfg.stream, "family": cfg.family, "p": cfg.p, **vars(result)}
    # everything volatile across reruns lives under this one key, so that
    # identical (config, seed) runs are byte-identical once it is dropped
    doc["timestamp"] = {"stamp": stamp, "wall_clock_s": wall_clock_s, "threads": cfg.threads}
    # a non-finite value raises ValueError here, before any file is opened
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    base = os.path.join(cfg.out_dir, f"{cfg.experiment}-{cfg.seed}-{stamp}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    json_path = base + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    csv_path = base + ".csv"
    _write_csv(csv_path, *table)
    return json_path, csv_path


def _points_table(points: list[dict]):
    """CSV header and one line per point: str of each value, None as ""."""
    header = list(points[0])
    return header, (",".join("" if p[c] is None else str(p[c]) for c in header) + "\n"
                    for p in points)


def _harness(call):
    """Runner for call(cfg, spec), a harness of the experiments module."""
    return lambda cfg: (call(cfg, cfg.source_spec()), None)


def _check_weights(cfg: RunConfig):
    if cfg.kind == TRIG:
        point = check_trig(cfg.n, cfg.r, cfg.delta)
    else:
        point = check_haar(cfg.n, cfg.r, cfg.source_spec(), cfg.delta)
    return experiments.ExperimentResult({"kind": cfg.kind, "delta": cfg.delta}, [point]), None


def _periodogram(cfg: RunConfig):
    dist = spectra.periodogram_ecdf_distance(cfg.n, cfg.source_spec())
    return experiments.ExperimentResult({}, [{"n": cfg.n, "ks_to_exponential": dist}]), None


def _spectrum(cfg: RunConfig):
    spectrum = {"symmetric": spectra.symmetric_circulant_spectrum,
                "reverse": spectra.reverse_circulant_spectrum}[cfg.ensemble]
    e, point = spectrum(cfg.n, cfg.source_spec())
    result = experiments.ExperimentResult({"ensemble": cfg.ensemble}, [point])
    return result, (["index", "eigenvalue"], _indexed_lines(e))


def _gen_weights(cfg: RunConfig):
    if cfg.kind == TRIG:
        u = trig_u_rows(cfg.n, cfg.r)
    else:
        u = haar_rows(cfg.n, cfg.source_spec(), cfg.r)
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

# subcommand -> (runner, the other RunConfig fields it reads, summary); runner(cfg)
# returns (ExperimentResult, CSV (header, text blocks), or None for the points),
# and summary(cfg, point) one stdout line per point
_COMMANDS = {
    "check-weights": (_check_weights, ("kind", "n", "r", "delta"), _check_weights_line),
    "asclt": (
        _harness(lambda cfg, spec: experiments.asclt_trajectory(
            spec, experiments.Schedule.parse(cfg.schedule), cfg.kind)),
        ("kind", "schedule"),
        _line("asclt n=%d r=%d ks=%.6g", "n", "r", "ks_to_normal"),
    ),
    "bivariate": (
        _harness(lambda cfg, spec: experiments.asclt_bivariate(
            spec, experiments.Schedule.parse(cfg.schedule))),
        ("schedule",),
        _line("bivariate n=%d r=%d max_dev=%.6g", "n", "r", "max_grid_deviation"),
    ),
    "char-decay": (
        _harness(lambda cfg, spec: experiments.char_variance_decay(
            spec, experiments.Schedule.parse(cfg.schedule), cfg.s, cfg.t, cfg.replicas,
            cfg.threads)),
        ("schedule", "s", "t", "replicas", "threads"),
        _line("char-decay n=%d r=%d estimate=%.6g ratio_r=%.4g",
              "n", "r", "estimate", "ratio_to_inverse_r"),
    ),
    "clt-fluct": (
        _harness(lambda cfg, spec: experiments.clt_fluctuation(
            spec, cfg.n, cfg.r, cfg.x, cfg.replicas, cfg.threads)),
        ("n", "r", "x", "replicas", "threads"),
        _line("clt-fluct n=%d r=%d x=%g mean=%.6g variance=%.6g ks_std=%.6g",
              "n", "r", "x", "w_mean", "w_variance", "ks_standardized_to_normal"),
    ),
    "ldp": (
        _harness(lambda cfg, spec: experiments.ldp_rate(
            spec, cfg.n, cfg.r, cfg.a, cfg.replicas, cfg.threads)),
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
        cfg = _resolve_config(args)
        runner, _, summary = _COMMANDS[cfg.experiment]
        t0 = time.perf_counter()
        result, table = runner(cfg)
        wall_clock_s = time.perf_counter() - t0
        lines = [summary(cfg, point) for point in result.points]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    try:
        json_path, csv_path = _write_artifacts(
            cfg, result, wall_clock_s, table or _points_table(result.points)
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
