import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ascltlab import cli, experiments, sources, spectra
from ascltlab.cli import ConfigError, RunConfig, _build_parser, _resolve_config, load_config, run
from ascltlab.sources import SourceSpec
from ascltlab.weights import make_trig_pair, sample_haar_orthogonal

from . import oracles

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "result.schema.json")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def read_artifacts(out_dir):
    names = sorted(os.listdir(out_dir))
    jsons = [n for n in names if n.endswith(".json")]
    csvs = [n for n in names if n.endswith(".csv")]
    return jsons, csvs


def load_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_asclt_subcommand(tmp_path, capsys):
    code = run(
        [
            "asclt",
            "--family",
            "rademacher",
            "--seed",
            "7",
            "--schedule",
            "1024:511,4096:2047",
            "--weights",
            "trig",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ks=") == 2
    jsons, csvs = read_artifacts(tmp_path)
    assert len(jsons) == 1 and len(csvs) == 1
    doc = load_json(tmp_path, jsons[0])
    assert doc["experiment"] == "asclt"
    assert len(doc["points"]) == 2


def test_check_weights_near_zero_residuals(tmp_path, capsys):
    code = run(
        ["check-weights", "--weights", "trig", "--n", "8", "--r", "3", "--delta", "1",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    jsons, _ = read_artifacts(tmp_path)
    point = load_json(tmp_path, jsons[0])["points"][0]
    assert point["eps_orth_u"] < 1e-13
    assert point["eps_cross"] < 1e-13


def test_ldp_json_contains_target(tmp_path):
    code = run(
        ["ldp", "--a", "0.5", "--n", "1024", "--r", "16", "--replicas", "500",
         "--family", "rademacher", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    jsons, _ = read_artifacts(tmp_path)
    doc = load_json(tmp_path, jsons[0])
    assert doc["points"][0]["target_rate"] == 0.125


def test_ldp_without_hits_writes_a_null_rate_bound(tmp_path):
    argv = ["ldp", "--a", "4", "--n", "1024", "--r", "16", "--replicas", "500"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    jsons, _ = read_artifacts(tmp_path)
    point = load_json(tmp_path, jsons[0])["points"][0]
    assert point["hits"] == 0 and point["p_hat_lo"] == 0.0 and point["rate_hi"] is None
    # and an empty cell in the CSV, not the text None
    _, csvs = read_artifacts(tmp_path)
    header, row = (tmp_path / csvs[0]).read_text(encoding="utf-8").splitlines()
    assert dict(zip(header.split(","), row.split(",")))["rate_hi"] == ""


def test_unknown_flag_exits_2(capsys):
    assert run(["asclt", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_config_file_plus_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nfamily = rademacher\nseed = 9\nn = 256\nr = 100\n")
    out = tmp_path / "out"
    # flag overrides the file value of r
    code = run(["asclt", "--config", str(cfg), "--r", "127", "--out-dir", str(out)])
    assert code == 0
    jsons, _ = read_artifacts(out)
    doc = load_json(out, jsons[0])
    assert doc["points"][0]["r"] == 127
    assert doc["master_seed"] == 9


def test_empty_config_with_full_flags(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    code = run(
        ["asclt", "--config", str(cfg), "--family", "normal", "--n", "128", "--r", "63",
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 0


def test_config_duplicate_key_names_both_lines(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("family = normal\nfamily = rademacher\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert "line 1" in str(err.value)
    assert ":2:" in str(err.value)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "unk.cfg"
    cfg.write_text("wibble = 3\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_config_precondition_propagates(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 64\nr = 40\n")
    assert run(["asclt", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "r <= floor((n-1)/2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text",
    [(["check-weights", "--n", "8", "--r", "3"], "kind = custom\n"),
     (["spectrum", "--n", "33"], "ensemble = bogus\n")],
)
def test_config_value_outside_the_choices_exits_2(tmp_path, capsys, argv, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"{cfg}:1:" in capsys.readouterr().err
    assert not out.exists()


# flags follow the field name with - for _, except these
_FLAG_OF = {"kind": "--weights"}
_TEXT_OF = {"kind": "haar", "ensemble": "reverse", "p": "0.25", "n": "65", "r": "7",
            "schedule": "64:31"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.name != "experiment"])
def test_every_setting_is_a_flag_and_a_config_key(tmp_path, monkeypatch, source, name):
    monkeypatch.delenv("ASCLT_THREADS", raising=False)
    default = getattr(RunConfig("asclt"), name)
    text = _TEXT_OF.get(name, "zz" if isinstance(default, str) else "5")
    if source == "flag":
        argv = ["asclt", _FLAG_OF.get(name, "--" + name.replace("_", "-")), text]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {text}\n")
        argv = ["asclt", "--config", str(cfg)]
    value = getattr(_resolve_config(_build_parser().parse_args(argv)), name)
    assert value != default
    assert value == (text if isinstance(value, str) else float(text))
    assert default is None or type(value) is type(default)


def test_config_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert ":1:" in str(err.value)


def test_all_artifacts_validate_against_schema(tmp_path):
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    commands = [
        ["check-weights", "--weights", "trig", "--n", "16", "--r", "7"],
        ["asclt", "--family", "normal", "--n", "128", "--r", "63"],
        ["bivariate", "--family", "normal", "--n", "128", "--r", "63"],
        ["char-decay", "--family", "normal", "--schedule", "64:31", "--replicas", "100"],
        ["clt-fluct", "--family", "normal", "--n", "256", "--r", "16", "--replicas", "100"],
        ["ldp", "--family", "normal", "--n", "256", "--r", "16", "--replicas", "200"],
        ["periodogram", "--family", "normal", "--n", "64"],
        ["spectrum", "--ensemble", "symmetric", "--family", "normal", "--n", "33"],
        ["spectrum", "--ensemble", "reverse", "--family", "normal", "--n", "33"],
        ["gen-weights", "--weights", "trig", "--n", "16", "--r", "7"],
    ]
    out = tmp_path / "arts"
    for argv in commands:
        assert run(argv + ["--out-dir", str(out)]) == 0
    jsons, csvs = read_artifacts(out)
    assert len(jsons) == len(commands)
    assert len(csvs) == len(commands)
    for name in jsons:
        jsonschema.validate(load_json(out, name), schema)


def test_reproducible_json_across_thread_counts(tmp_path):
    argv = ["char-decay", "--family", "rademacher", "--seed", "4", "--schedule",
            "128:63", "--replicas", "200"]
    run(argv + ["--threads", "1", "--out-dir", str(tmp_path / "a")])
    run(argv + ["--threads", "8", "--out-dir", str(tmp_path / "b")])
    ja, _ = read_artifacts(tmp_path / "a")
    jb, _ = read_artifacts(tmp_path / "b")
    da = load_json(tmp_path / "a", ja[0])
    db = load_json(tmp_path / "b", jb[0])
    da.pop("timestamp")
    db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_env_thread_count_and_flag_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ASCLT_THREADS", "3")
    run(["periodogram", "--family", "normal", "--n", "64", "--out-dir", str(tmp_path / "e")])
    je, _ = read_artifacts(tmp_path / "e")
    assert load_json(tmp_path / "e", je[0])["timestamp"]["threads"] == 3
    run(["periodogram", "--family", "normal", "--n", "64", "--threads", "2",
         "--out-dir", str(tmp_path / "f")])
    jf, _ = read_artifacts(tmp_path / "f")
    assert load_json(tmp_path / "f", jf[0])["timestamp"]["threads"] == 2


def test_json_floats_round_trip(tmp_path):
    run(["asclt", "--family", "normal", "--n", "256", "--r", "127",
         "--out-dir", str(tmp_path)])
    jsons, _ = read_artifacts(tmp_path)
    doc = load_json(tmp_path, jsons[0])
    from ascltlab.experiments import Schedule, asclt_trajectory
    from ascltlab.sources import SourceSpec

    res = asclt_trajectory(SourceSpec(family="normal"), Schedule(points=((256, 127),)))
    # serialized value reparses to the exact binary double
    assert doc["points"][0]["ks_to_normal"] == res.points[0]["ks_to_normal"]


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_thread_count_exits_2(tmp_path, monkeypatch, capsys, source):
    argv = ["ldp", "--n", "64", "--r", "4", "--replicas", "100", "--out-dir", str(tmp_path)]
    if source == "flag":
        argv += ["--threads", "-1"]
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = -1\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("ASCLT_THREADS", "-1")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "must be >= 0" in err and "-1" in err
    assert not list(tmp_path.glob("*.json"))


def test_haar_check_weights_checks_the_first_r_rows(tmp_path, capsys):
    common = ["--weights", "haar", "--n", "8", "--r", "3", "--seed", "4"]
    assert run(["check-weights", *common, "--out-dir", str(tmp_path / "c")]) == 0
    assert "check-weights n=8 r=3 " in capsys.readouterr().out
    jc, _ = read_artifacts(tmp_path / "c")
    point = load_json(tmp_path / "c", jc[0])["points"][0]
    assert point["r"] == 3
    assert point["eps_orth_u"] <= 1e-10
    # the checked rows are the rows gen-weights emits for the same seed
    assert run(["gen-weights", *common, "--out-dir", str(tmp_path / "g")]) == 0
    _, cg = read_artifacts(tmp_path / "g")
    with open(tmp_path / "g" / cg[0], encoding="utf-8") as fh:
        rows = [line.split(",")[1:] for line in fh.read().splitlines()[1:]]
    assert len(rows) == 3
    assert point["eps_entry_u"] == max(abs(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("subcommand, r", [("check-weights", 30), ("gen-weights", 20), ("check-weights", 0)])
def test_haar_r_outside_1_to_n_exits_2(tmp_path, capsys, subcommand, r):
    argv = [subcommand, "--weights", "haar", "--n", "8", "--r", str(r), "--out-dir", str(tmp_path)]
    assert run(argv) == 2
    assert "r <= n" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "argv, line, csv_sha256",
    [
        (["gen-weights", "--weights", "trig", "--n", "16", "--r", "7"],
         "gen-weights kind=trig n=16 r=7",
         "cec78f588bba63c7b755e200c9108a7e2fdfea5b1b7cbd1d5fba22554ca504d4"),
        (["gen-weights", "--weights", "haar", "--n", "8", "--r", "3", "--seed", "4"],
         "gen-weights kind=haar n=8 r=3",
         "975b57e24ee7f108df8f07c86cd00561248df1a490e903a7bb24d98f44245df5"),
        # a Haar pair has no V, so eps_cross is null in the JSON, 0 here and an
        # empty cell in the CSV
        (["check-weights", "--weights", "haar", "--n", "8", "--r", "3", "--seed", "4"],
         "check-weights n=8 r=3 eps_entry_u=0.697889 eps_orth_u=4.44089e-16 eps_cross=0",
         "aba79aa1ea78ed20b8afba44ea6bc6f4626aa32706c23760d90bec7e22cc9d00"),
    ],
)
def test_subcommands_outside_the_battery_keep_their_bytes(tmp_path, capsys, argv, line, csv_sha256):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == [line]
    _, csvs = read_artifacts(tmp_path)
    assert hashlib.sha256((tmp_path / csvs[0]).read_bytes()).hexdigest() == csv_sha256


def test_wall_clock_times_every_subcommand(tmp_path):
    assert run(["periodogram", "--n", "4096", "--out-dir", str(tmp_path)]) == 0
    jsons, _ = read_artifacts(tmp_path)
    assert load_json(tmp_path, jsons[0])["timestamp"]["wall_clock_s"] > 0


def test_gen_weights_trig_streams_its_rows(tmp_path):
    # 1023 x 2048 weights are 16 MiB as float64; the rows go to the CSV
    # one at a time, and the sin rows are never built
    tracemalloc.start()
    try:
        code = run(["gen-weights", "--weights", "trig", "--n", "2048", "--r", "1023",
                    "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 40 << 20, f"gen-weights peaked at {peak / 2**20:.1f} MiB"
    _, csvs = read_artifacts(tmp_path)
    with open(tmp_path / csvs[0], encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1024


def test_gen_weights_above_the_size_limit_fails_before_writing(tmp_path, capsys):
    # 600 x 16385 entries exceed the 2^23 limit
    argv = ["gen-weights", "--weights", "trig", "--n", "16385", "--r", "600"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 3
    assert "refusing" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("subcommand", ["check-weights", "gen-weights"])
def test_haar_above_the_size_limit_fails_before_sampling(tmp_path, capsys, subcommand):
    # r * n Haar entries exceed the 2^23 limit, by 2897^2 - 2^23 = 4001 and by
    # 4097 * 2048 - 2^23 = 2048; n = r = 100000 would ask for 80 GB
    for n, r in [(2897, 2897), (4097, 2048)]:
        argv = [subcommand, "--weights", "haar", "--n", str(n), "--r", str(r)]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 3
        assert "refusing" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


def test_haar_asclt_beyond_a_full_matrix(tmp_path):
    # a full 16384 x 16384 Haar matrix would be 2 GiB; the 64 rows are 8 MiB
    argv = ["asclt", "--weights", "haar", "--schedule", "4096:64,16384:64"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    jsons, csvs = read_artifacts(tmp_path)
    assert len(jsons) == 1 and len(csvs) == 1
    assert [p["n"] for p in load_json(tmp_path, jsons[0])["points"]] == [4096, 16384]


def test_cli_import_loads_every_layer_and_no_quadrature():
    # bench/tracer.py reads the eight layers as attributes of the package;
    # scipy.integrate has no use in the pipeline and is slow to import
    script = (
        "import sys, ascltlab, ascltlab.cli\n"
        "layers = ('sources', 'transform', 'experiments', 'empirical', 'spectra', 'cli',"
        " 'weights', 'accum')\n"
        "print(all(hasattr(ascltlab, name) for name in layers), 'scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split() == ["True", "False"]


def _artifact_bytes(out_dir):
    """The JSON without its timestamp and the CSV of each run in out_dir."""
    if not os.path.isdir(out_dir):
        return []
    jsons, csvs = read_artifacts(out_dir)
    docs = [load_json(out_dir, name) for name in jsons]
    for doc in docs:
        doc.pop("timestamp")
    return docs + [(out_dir / name).read_bytes() for name in csvs]


def test_runs_in_one_process_match_fresh_processes(tmp_path):
    # the parser is built once per process: different subcommands, and a
    # refused setting, run one after another as each runs alone
    runs = [
        ["ldp", "--n", "256", "--r", "8", "--a", "0.5", "--replicas", "300"],
        ["periodogram", "--n", "256"],
        ["clt-fluct", "--n", "256", "--r", "8", "--x", "nan", "--replicas", "200"],
        ["spectrum", "--ensemble", "reverse", "--n", "64"],
    ]
    assert _build_parser() is _build_parser()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for i, argv in enumerate(runs):
        argv = argv + ["--seed", "4"]
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        code = run(argv + ["--out-dir", str(here)])
        proc = subprocess.run([sys.executable, "-m", "ascltlab.cli", *argv, "--out-dir", str(fresh)],
                              env=env, capture_output=True, timeout=120)
        assert code == proc.returncode == (2 if "nan" in argv else 0)
        assert _artifact_bytes(here) == _artifact_bytes(fresh)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", ["p", "delta", "x", "s", "t", "a"])
def test_non_finite_float_setting_exits_2(tmp_path, capsys, name, value, source):
    # parsed before any sampling: clt-fluct with x = nan used to run every
    # replica first
    out = tmp_path / "out"
    argv = ["clt-fluct", "--n", "64", "--r", "3", "--replicas", "10", "--out-dir", str(out)]
    if source == "flag":
        argv += [f"--{name}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert (f"{cfg}:1:" if source == "config" else f"--{name}") in err
    assert not out.exists()


def test_non_finite_result_is_a_runtime_failure(tmp_path, capsys):
    # the oracle's target rate overflows to inf at this a
    argv = ["ldp", "--n", "64", "--r", "3", "--a", "1e200", "--replicas", "100"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 3
    assert "runtime failure" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def _nan_prefix(spec, n):
    return np.full(n, np.nan)


@pytest.mark.parametrize(
    "module, name, fake, argv",
    [
        (experiments, "sample_prefix", _nan_prefix, ["asclt", "--n", "256", "--r", "127"]),
        (spectra, "sample_prefix", _nan_prefix, ["spectrum", "--n", "65"]),
        (spectra, "periodogram_all", lambda x: np.full(x.size // 2, np.nan),
         ["periodogram", "--n", "256"]),
    ],
    ids=["partial-sums", "eigenvalues", "empirical-sample"],
)
def test_non_finite_statistic_is_a_runtime_failure(
    tmp_path, capsys, monkeypatch, module, name, fake, argv
):
    # partial sums, eigenvalues and an empirical sample that are nan must
    # exit 3 (runtime), not 2 (configuration)
    monkeypatch.setattr(module, name, fake)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 3
    assert "runtime failure" in capsys.readouterr().err
    assert not out.exists()


def _nan_draw(*args, **kwargs):
    # the replica sampler's own draws, then overwritten with nan: the fake
    # takes whatever arguments the real core takes
    x = sources._draw(*args, **kwargs)
    x[...] = np.nan
    return x


# the statistic each replica harness checks finite, as its error names it
_REPLICA_STATS = {
    "ldp": "replica means",
    "clt-fluct": "partial sums",
    "char-decay": "characteristic function values",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["ldp", "--n", "256", "--r", "8", "--replicas", "200"],
        ["clt-fluct", "--n", "256", "--r", "8", "--replicas", "200"],
        ["char-decay", "--n", "256", "--r", "8", "--replicas", "200"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_replica_statistic_is_a_runtime_failure(tmp_path, capsys, monkeypatch, argv):
    # a nan replica mean or partial sum compares false with a or x; it must
    # not count as a replica without a hit
    monkeypatch.setattr(experiments, "_draw", _nan_draw)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 3
    assert f"runtime failure: non-finite {_REPLICA_STATS[argv[0]]}" in capsys.readouterr().err
    assert not out.exists()


def _csv_bytes(path, write, header, rows) -> bytes:
    write(str(path), header, rows)
    return path.read_bytes()


def _spectrum_csvs(tmp_path, e):
    """The spectrum CSV of the sorted array e from the block writer, and
    from the per-row reference writer."""
    new = _csv_bytes(tmp_path / "new.csv", cli._write_csv, *cli._spectrum_table(e))
    ref = _csv_bytes(tmp_path / "ref.csv", oracles.write_csv_rows, ["index", "eigenvalue"],
                     oracles.csv_cells(range(e.size), e.tolist()))
    return new, ref


@pytest.mark.parametrize("ensemble", ["symmetric", "reverse"])
@pytest.mark.parametrize("n", [3, 4, 5, 64, 65, 4096, 4097, 20001])
def test_spectrum_csv_matches_the_per_row_writer(tmp_path, ensemble, n):
    # 20001 has 10000 pairs, more than one slice of formatted values
    out = tmp_path / "out"
    argv = ["spectrum", "--ensemble", ensemble, "--n", str(n), "--seed", "11"]
    assert run(argv + ["--out-dir", str(out)]) == 0
    _, csvs = read_artifacts(out)
    spectrum = {"symmetric": spectra.symmetric_circulant_spectrum,
                "reverse": spectra.reverse_circulant_spectrum}[ensemble]
    e = spectrum(n, SourceSpec("rademacher", 11, 0)).eigenvalues
    new, ref = _spectrum_csvs(tmp_path, e)
    assert (out / csvs[0]).read_bytes() == new == ref


@pytest.mark.parametrize(
    "values",
    [
        # +-0.0 pairs: the mirror holds bit for bit
        [-1.5, -0.0, 0.0, 1.5],
        [-2.0, -0.0, -0.0, 0.0, 0.0, 2.0],
        # -0.0 in the upper half: "-" + "-0.0" would be wrong
        [-1.5, 0.0, -0.0, 1.5],
        [0.0, -0.0],
        # mirrored at odd size, around any middle element
        [-3.0, -5e-324, 0.5, 5e-324, 3.0],
        [-2.5, -0.0, 2.5],
        [-1e308, 7.0, 1e308],
        [4.0],
        # not mirrored: equal halves, a one-ulp miss, a shifted mirror
        [0.5, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 1.0000000000000002],
        [-3.0, -2.0, -1.0, 1.0, 2.0, 4.0],
        [-1.0, 0.5, 1.0, 2.0],
        [-2.0, -1.0, 1.0],
    ],
)
def test_hand_built_spectra_match_the_per_row_writer(tmp_path, values):
    new, ref = _spectrum_csvs(tmp_path, np.array(values, dtype=float))
    assert new == ref


def test_reverse_spectrum_formats_one_value_per_pair(monkeypatch):
    # a reverse spectrum's +- pairs share one repr, also around a middle
    # value; a symmetric one has no such mirror and its values go to the
    # writer as they are
    calls = []
    monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    spec = SourceSpec("rademacher", 5, 0)
    rev = spectra.reverse_circulant_spectrum(4097, spec).eigenvalues
    for e, count in [(rev, 2048),
                     (np.insert(rev, 2048, 0.0), 2048),
                     (spectra.reverse_circulant_spectrum(4096, spec).eigenvalues, 2047),
                     (spectra.symmetric_circulant_spectrum(4096, spec).eigenvalues, 0)]:
        calls.clear()
        assert list(map(str, cli._sorted_cells(e))) == [repr(v) for v in e.tolist()]
        assert len(calls) == count


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(half=st.lists(_finite_floats, max_size=40), middle=st.none() | _finite_floats,
       mirrored=st.booleans())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sorted_floats_match_the_per_row_writer(tmp_path, half, middle, mirrored):
    if mirrored:
        up = np.sort(np.abs(np.array(half, dtype=float)))
        mid = [] if middle is None else [middle if not up.size else np.clip(middle, -up[0], up[0])]
        e = np.concatenate([-up[::-1], mid, up])
    else:
        e = np.sort(np.array(half + ([] if middle is None else [middle]), dtype=float))
    new, ref = _spectrum_csvs(tmp_path, e)
    assert new == ref


def test_points_table_matches_the_per_row_writer(tmp_path):
    points = [
        {"n": 64, "x": 0.1, "big": 1e16, "tiny": -5e-324, "ok": True, "kind": "trig", "hi": None},
        {"n": 7, "x": -0.0, "big": 123456789.0, "tiny": 1e-05, "ok": False, "kind": "haar", "hi": 2.5},
    ]
    header = list(points[0])
    new = _csv_bytes(tmp_path / "new.csv", cli._write_csv, *cli._points_table(points))
    columns = [["" if p[c] is None else p[c] for p in points] for c in header]
    ref = _csv_bytes(tmp_path / "ref.csv", oracles.write_csv_rows, header,
                     oracles.csv_cells(*columns))
    assert new == ref
    assert new.decode().splitlines()[1].endswith(",True,trig,")


@pytest.mark.parametrize("kind", ["trig", "haar"])
def test_gen_weights_rows_wider_than_a_block_match_the_per_row_writer(tmp_path, kind):
    n, r = 4500, 3  # 4501 cells a row, one block holds 4096
    out = tmp_path / "out"
    argv = ["gen-weights", "--weights", kind, "--n", str(n), "--r", str(r), "--seed", "2"]
    assert run(argv + ["--out-dir", str(out)]) == 0
    _, csvs = read_artifacts(out)
    if kind == "trig":
        u = make_trig_pair(n, r).u
    else:
        u = sample_haar_orthogonal(n, SourceSpec("rademacher", 2, 0), r).u
    header = ["k"] + [f"u{j}" for j in range(n)]
    ref = _csv_bytes(tmp_path / "ref.csv", oracles.write_csv_rows, header,
                     oracles.csv_cells(range(1, r + 1), *u.T.tolist()))
    assert (out / csvs[0]).read_bytes() == ref
