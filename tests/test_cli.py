import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ascltlab import cli, experiments, sources, spectra, weights
from ascltlab.cli import ConfigError, RunConfig, _build_parser, _resolve_config, load_config, run
from ascltlab.sources import SourceSpec
from ascltlab.weights import haar_rows, trig_rows, trig_tables

from . import oracles

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "result.schema.json")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")


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


def test_ldp_with_a_zero_baseline_rate_writes_a_null_ratio(tmp_path):
    # one replica: p_hat is 1 and both rates are 0, so the ratio of the
    # rates is undefined
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    argv = ["ldp", "--n", "64", "--r", "1", "--a", "0.01", "--replicas", "1"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    jsons, _ = read_artifacts(tmp_path)
    doc = load_json(tmp_path, jsons[0])
    point = doc["points"][0]
    assert point["oracle_rate"] == 0.0 and point["rate_ratio_to_oracle"] is None
    jsonschema.validate(doc, schema)


def test_a_zero_rate_is_written_without_a_sign(tmp_path, capsys):
    # p_hat is 1, and -log(1) / r is -0.0 unless the sign is dropped
    argv = ["ldp", "--n", "64", "--r", "1", "--a", "0.01", "--replicas", "1"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert " rate=0 oracle=0 " in capsys.readouterr().out
    jsons, csvs = read_artifacts(tmp_path)
    text = (tmp_path / jsons[0]).read_text(encoding="utf-8")
    assert '"rate": 0.0,' in text and '"oracle_rate": 0.0,' in text
    header, row = (tmp_path / csvs[0]).read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["rate"] == cells["oracle_rate"] == "0.0"


def test_unknown_flag_exits_2(capsys):
    assert run(["asclt", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--n", "1024"], ["--bogus", "1"]], ids=["n", "bogus"])
def test_unread_flag_shows_the_subcommand_usage(tmp_path, capsys, extra):
    # a flag of another subcommand, or of none: the error lists asclt's
    # own flags, not the subcommand names
    out = tmp_path / "out"
    assert run(["asclt", "--schedule", "64:31", "--out-dir", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ascltlab asclt ") and "--schedule" in err
    assert f"ascltlab asclt: error: unrecognized arguments: {' '.join(extra)}" in err
    assert not out.exists()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_config_file_plus_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nfamily = rademacher\nseed = 9\nschedule = 256:100\n")
    out = tmp_path / "out"
    # the flag overrides the file's schedule
    code = run(["asclt", "--config", str(cfg), "--schedule", "256:127", "--out-dir", str(out)])
    assert code == 0
    jsons, _ = read_artifacts(out)
    doc = load_json(out, jsons[0])
    assert doc["points"][0]["r"] == 127
    assert doc["master_seed"] == 9


def test_config_file_with_a_byte_order_mark(tmp_path):
    # an editor's UTF-8 BOM is not part of the first key
    text = "n = 64\nseed = 5\n"
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / f"{name}.cfg").write_bytes(data)
        assert run(["periodogram", "--config", str(tmp_path / f"{name}.cfg"),
                    "--out-dir", str(tmp_path / name)]) == 0
    assert _artifact_bytes(tmp_path / "bom") == _artifact_bytes(tmp_path / "plain")


def test_empty_config_with_full_flags(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    code = run(
        ["asclt", "--config", str(cfg), "--family", "normal", "--schedule", "128:63",
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 0


def test_config_duplicate_key_names_both_lines(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("family = normal\nfamily = rademacher\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg, cli._IDENTITY)
    assert "line 1" in str(err.value)
    assert ":2:" in str(err.value)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "unk.cfg"
    cfg.write_text("wibble = 3\n")
    with pytest.raises(ConfigError):
        load_config(cfg, cli._IDENTITY)


def test_config_precondition_propagates(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schedule = 64:40\n")
    assert run(["asclt", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "r <= floor((n-1)/2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text",
    [(["check-weights", "--n", "8", "--r", "3"], "kind = custom\n"),
     (["spectrum", "--n", "33"], "ensemble = bogus\n"),
     (["periodogram", "--n", "64"], "family = bogus\n")],
)
def test_config_value_outside_the_choices_exits_2(tmp_path, capsys, argv, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"{cfg}:1:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"n = 64\nfamily = r\xe9ademacher\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["periodogram", "--n", "64", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not any(out.iterdir())


# the settings every subcommand takes, and those each takes besides
_IDENTITY = ("family", "p", "seed", "stream", "out_dir")
_READS = {
    "check-weights": ("kind", "n", "r", "delta"),
    "asclt": ("kind", "schedule"),
    "bivariate": ("schedule",),
    "char-decay": ("schedule", "s", "t", "replicas", "threads"),
    "clt-fluct": ("n", "r", "x", "replicas", "threads"),
    "ldp": ("n", "r", "a", "replicas", "threads"),
    "periodogram": ("n",),
    "spectrum": ("n", "ensemble"),
    "gen-weights": ("kind", "n", "r"),
}
_SETTING_NAMES = [f.name for f in fields(RunConfig) if f.name != "experiment"]
# one small valid run of each subcommand
_SMALL = {
    "check-weights": {"kind": "trig", "n": "8", "r": "3"},
    "asclt": {"schedule": "64:31"},
    "bivariate": {"schedule": "64:31"},
    "char-decay": {"schedule": "64:31", "replicas": "100"},
    "clt-fluct": {"n": "64", "r": "4", "replicas": "100"},
    "ldp": {"n": "64", "r": "4", "replicas": "100"},
    "periodogram": {"n": "64"},
    "spectrum": {"n": "65"},
    "gen-weights": {"kind": "trig", "n": "8", "r": "3"},
}
# a value of each setting, valid in every small run that reads it and
# other than that run's (p is varied in a two_point run with p = 0.5)
_OTHER = {"family": "normal", "p": "0.25", "seed": "5", "stream": "1", "kind": "haar",
          "schedule": "64:30", "n": "9", "r": "2", "delta": "0.5", "x": "0.5", "s": "2",
          "t": "0.5", "a": "0.25", "replicas": "101", "ensemble": "reverse", "threads": "2"}
# flags follow the field name with - for _, except this one
_FLAG_OF = {"kind": "--weights"}


def _flags(settings: dict) -> list[str]:
    return [a for name, text in settings.items()
            for a in (_FLAG_OF.get(name, "--" + name.replace("_", "-")), text)]


def _given(tmp_path, subcommand: str, settings: dict, name: str, source: str) -> list[str]:
    """argv of subcommand with settings, name's by source (a flag or a
    config line) and the others as flags."""
    if source == "flag":
        return [subcommand, *_flags(settings)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {settings[name]}\n")
    rest = {k: v for k, v in settings.items() if k != name}
    return [subcommand, *_flags(rest), "--config", str(cfg)]


def _only_artifact(out_dir) -> tuple[dict, dict]:
    """The JSON of the one run in out_dir, without and with its timestamp."""
    jsons, csvs = read_artifacts(out_dir)
    assert len(jsons) == len(csvs) == 1
    doc = load_json(out_dir, jsons[0])
    return doc, doc.pop("timestamp")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name", _SETTING_NAMES)
def test_every_setting_is_a_flag_and_a_config_key(tmp_path, monkeypatch, source, name):
    # each subcommand that reads the setting takes it both ways, and the
    # artifact shows it: threads only under timestamp, out_dir in where
    # the files go
    monkeypatch.delenv("ASCLT_THREADS", raising=False)
    readers = [c for c, keys in _READS.items() if name in _IDENTITY + keys]
    assert readers
    for subcommand in readers:
        here = tmp_path / subcommand
        small = dict(_SMALL[subcommand], out_dir=str(here / "small"))
        if name == "p":
            small.update(family="two_point", p="0.5")
        other = dict(small, out_dir=str(here / "other"))
        if name != "out_dir":
            other[name] = _OTHER[name]
        assert run([subcommand, *_flags(small)]) == 0
        assert run(_given(here, subcommand, other, name, source)) == 0, subcommand
        (doc, stamp), (other_doc, other_stamp) = map(_only_artifact, [small["out_dir"],
                                                                      other["out_dir"]])
        if name == "threads":
            assert (doc, stamp["threads"], other_stamp["threads"]) == (other_doc, 0, 2)
        else:
            assert (doc == other_doc) == (name == "out_dir"), subcommand


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("subcommand", list(_READS))
def test_a_setting_the_subcommand_does_not_read_exits_2(tmp_path, capsys, source, subcommand):
    # ldp --weights haar and asclt --schedule 64:31 --n 9 among them: each
    # is refused before any work, by argparse or naming the config line
    unread = [k for k in _SETTING_NAMES if k not in _IDENTITY + _READS[subcommand]]
    assert unread
    out = tmp_path / "out"
    for name in unread:
        settings = dict(_SMALL[subcommand], out_dir=str(out), **{name: _OTHER[name]})
        assert run(_given(tmp_path, subcommand, settings, name, source)) == 2, name
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'run.cfg'}:1: unknown key {name!r}" if source == "config"
                else "unrecognized arguments") in err, name
        assert not out.exists()


def test_config_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg, cli._IDENTITY)
    assert ":1:" in str(err.value)


def test_all_artifacts_validate_against_schema(tmp_path):
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    commands = [
        ["check-weights", "--weights", "trig", "--n", "16", "--r", "7"],
        ["asclt", "--family", "normal", "--schedule", "128:63"],
        ["bivariate", "--family", "normal", "--schedule", "128:63"],
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
    argv = ["clt-fluct", "--family", "normal", "--n", "64", "--r", "4", "--replicas", "100"]
    run(argv + ["--out-dir", str(tmp_path / "e")])
    je, _ = read_artifacts(tmp_path / "e")
    assert load_json(tmp_path / "e", je[0])["timestamp"]["threads"] == 3
    run(argv + ["--threads", "2", "--out-dir", str(tmp_path / "f")])
    jf, _ = read_artifacts(tmp_path / "f")
    assert load_json(tmp_path / "f", jf[0])["timestamp"]["threads"] == 2


def test_json_floats_round_trip(tmp_path):
    run(["asclt", "--family", "normal", "--schedule", "256:127", "--out-dir", str(tmp_path)])
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


@pytest.mark.parametrize("setting", [["--seed", "-1"], ["--stream", str(2**64)]],
                         ids=["seed-negative", "stream-2**64"])
@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
def test_seed_and_stream_outside_64_bits_exit_2(tmp_path, capsys, subcommand, setting):
    # the artifact schema takes unsigned 64-bit seeds and streams; every
    # subcommand refuses others before any work, also those that draw nothing
    out = tmp_path / "out"
    assert run([subcommand, *_flags(_SMALL[subcommand]), *setting, "--out-dir", str(out)]) == 2
    assert "must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, message",
    [(["--family", "two_point"], "two_point requires p in (0, 1)"),
     (["--family", "rademacher", "--p", "0.3"], "family 'rademacher' takes no p parameter")],
    ids=["two_point-without-p", "rademacher-with-p"],
)
@pytest.mark.parametrize("subcommand", ["check-weights", "gen-weights"])
def test_trig_weights_check_the_family_and_p(tmp_path, capsys, subcommand, family, message):
    # trig weights draw nothing, but the run's identity is checked all the same
    out = tmp_path / "out"
    argv = [subcommand, "--weights", "trig", "--n", "8", "--r", "3", *family, "--out-dir", str(out)]
    assert run(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_artifact_records_p(tmp_path):
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    for p in ("0.25", "0.5"):
        out = tmp_path / p
        argv = ["asclt", "--family", "two_point", "--p", p, "--schedule", "64:31"]
        assert run(argv + ["--out-dir", str(out)]) == 0
        jsons, _ = read_artifacts(out)
        doc = load_json(out, jsons[0])
        jsonschema.validate(doc, schema)
        assert doc["p"] == float(p)


@pytest.mark.parametrize("subcommand", [c for c, keys in _READS.items() if "threads" not in keys])
def test_subcommands_without_threads_ignore_the_environment(tmp_path, monkeypatch, subcommand):
    monkeypatch.setenv("ASCLT_THREADS", "-1")
    assert run([subcommand, *_flags(_SMALL[subcommand]), "--out-dir", str(tmp_path)]) == 0
    _, stamp = _only_artifact(tmp_path)
    assert stamp["threads"] == 0


def test_benchmark_ops_parse(monkeypatch):
    # every command-line op of the benchmark, full and small, resolves to a
    # run's settings; bench/workloads.py is read and nothing is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delenv("ASCLT_THREADS", raising=False)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    argvs = [op.argv(1, tiny, 2) + ["--out-dir", "x"]
             for ops in workloads.WORKLOADS.values() for op in ops if op.kind != "oracle"
             for tiny in (False, True)]
    assert len(argvs) == 28
    for argv in argvs:
        cfg = _resolve_config(_build_parser().parse_args(argv))
        assert (cfg.experiment, cfg.seed, cfg.out_dir) == (argv[0], 1, "x")


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_ldp_without_replicas_exits_2(tmp_path, capsys, replicas):
    out = tmp_path / "out"
    argv = ["ldp", "--n", "64", "--r", "4", "--replicas", replicas, "--out-dir", str(out)]
    assert run(argv) == 2
    assert f"replicas={replicas}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", sources.FAMILIES)
def test_every_family_runs_from_the_command_line(tmp_path, family):
    p = ["--p", "0.25"] if family == "two_point" else []
    argv = ["periodogram", "--family", family, *p, "--n", "64", "--out-dir", str(tmp_path)]
    assert run(argv) == 0


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


# the trig cases are in range for Haar weights, but not for the trig bound
@pytest.mark.parametrize(
    "subcommand, weights, r",
    [pytest.param("check-weights", "haar", 30, id="check-weights-30"),
     pytest.param("gen-weights", "haar", 20, id="gen-weights-20"),
     pytest.param("check-weights", "haar", 0, id="check-weights-0"),
     pytest.param("check-weights", "trig", 4, id="check-weights-trig-4"),
     pytest.param("gen-weights", "trig", 4, id="gen-weights-trig-4")],
)
def test_haar_r_outside_1_to_n_exits_2(tmp_path, capsys, subcommand, weights, r):
    argv = [subcommand, "--weights", weights, "--n", "8", "--r", str(r), "--out-dir", str(tmp_path)]
    assert run(argv) == 2
    assert {"haar": "r <= n", "trig": "r <= floor((n-1)/2)"}[weights] in capsys.readouterr().err
    assert not os.listdir(tmp_path)


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


def test_trig_check_above_the_size_limit_fails_before_allocating(tmp_path, capsys):
    # n = 4e8 > 2^23: the tables and sums alone would take over 12 GB
    argv = ["check-weights", "--weights", "trig", "--n", "400000000", "--r", "1"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 3
    assert "refusing" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def _no_draw(*args, **kwargs):
    raise AssertionError("the Haar rows were drawn")


@pytest.mark.parametrize(
    "kind, n, r",
    [pytest.param("haar", 100000, 100000, id="haar-above-the-size-limit"),
     pytest.param("haar", 2896, 2896, id="haar-at-the-size-limit"),
     pytest.param("trig", 1 << 62, 5, id="trig-above-any-column-sums")],
)
def test_check_weights_checks_delta_before_any_work(tmp_path, capsys, monkeypatch, kind, n, r):
    # delta is a setting: exit 2 before the rows are drawn or the column
    # sums are allocated, however large (n, r)
    for module in (weights, cli):
        monkeypatch.setattr(module, "haar_rows", _no_draw)
    argv = ["check-weights", "--weights", kind, "--n", str(n), "--r", str(r), "--delta", "0"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "delta must be positive" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_cli_imports_no_private_name():
    # a private name of another module is that module's own decision; this
    # holds for every module of the package, not only the CLI
    private = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private += [
            f"{path.stem}: {node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not private


def test_scipy_special_only_through_the_loader_and_no_scipy_stats():
    # `import scipy.special` runs its array-API layer and scipy.stats costs
    # about a second, so each process loads only the compiled ufuncs, and
    # a new special function is one more name in ascltlab.special
    scipy_names = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # importlib.import_module("scipy...")
            else:
                continue
            scipy_names += [(path.stem, n) for n in names if re.fullmatch(r"scipy\.(special|stats)(\.\w+)*", n)]
    assert {(stem, n.split(".")[1]) for stem, n in scipy_names} == {("special", "special")}


def _package_callers(name: str) -> list[str]:
    """module.statement of every call of name (as a name or an attribute)
    in the package, booked to the top-level statement that holds it."""
    callers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [
                f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
    return sorted(callers)


def test_draws_are_made_only_in_stream_blocks_and_normal_grid():
    # every draw of the package goes through these two functions, so a
    # count or a timer there sees them all
    assert _package_callers("_draw") == ["sources.normal_grid", "sources.stream_blocks"]


def test_values_are_checked_finite_only_by_finite():
    # one spelling of the finite rule, ascltlab.finite, besides ks_to's
    # check of its sorted ends and the settings parser's check of a float
    assert _package_callers("isfinite") == [
        "__init__.finite", "cli.finite_float", "empirical.ks_to", "empirical.ks_to"
    ]


def test_every_public_function_has_a_caller():
    # a public top-level function or class of the package that no module of
    # the package, the benchmark or the scripts names (as a name, an
    # attribute or an import) is a dead helper; its own def is not a use.
    # A private top-level function, class or constant must be named by the
    # package itself, and its own assignment is no use either
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "ascltlab").glob("*.py"))
    public, private = {}, {}
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name) and t.id.startswith("_")]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    (private if name.startswith("_") else public)[name] = f"{path.stem}.{name}"

    def used(paths):
        names = set()
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
        return names

    callers = package + sorted(root.glob("bench/*.py")) + sorted(root.glob("scripts/*.py"))
    assert sorted(public[name] for name in public.keys() - used(callers)) == []
    assert sorted(private[name] for name in private.keys() - used(package)) == []


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ["ldp", "--n", "16", "--r", "3", "--replicas", "8192"],
    ["clt-fluct", "--n", "64", "--r", "4", "--replicas", "20480"],
    ["char-decay", "--schedule", "16:7,64:31", "--replicas", "20480"],
], ids=lambda argv: argv[0])
def test_replica_streams_past_64_bits_exit_2_before_any_draw(tmp_path, capsys, monkeypatch,
                                                              argv, threads):
    # 2**64 - 10**4 holds ldp's 8192 main streams but not its baseline's,
    # and the others' last streams; the range is refused before a draw
    def draw(*args):
        raise AssertionError("drew before the stream range was checked")

    monkeypatch.setattr(sources, "_draw", draw)
    out = tmp_path / "out"
    assert run([*argv, "--stream", str(2**64 - 10**4), "--threads", threads,
                "--out-dir", str(out)]) == 2
    assert "stream ids must stay below 2**64" in capsys.readouterr().err
    assert not out.exists()


def test_every_third_party_import_is_a_declared_dependency():
    # a module the package imports that is neither stdlib nor the package
    # itself must be installed with it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(SRC, "..", "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", d).group(0).lower().replace("-", "_") for d in deps}
    imported = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"ascltlab"} <= declared


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


# a small run of a subcommand that reads each float setting
_READS_FLOAT = {
    "p": ["periodogram", "--family", "two_point", "--n", "64"],
    "delta": ["check-weights", "--n", "8", "--r", "3"],
    "x": ["clt-fluct", "--n", "64", "--r", "3", "--replicas", "10"],
    "s": ["char-decay", "--schedule", "64:3", "--replicas", "10"],
    "t": ["char-decay", "--schedule", "64:3", "--replicas", "10"],
    "a": ["ldp", "--n", "64", "--r", "3", "--replicas", "10"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", list(_READS_FLOAT))
def test_non_finite_float_setting_exits_2(tmp_path, capsys, name, value, source):
    # parsed before any sampling: clt-fluct with x = nan used to run every
    # replica first
    out = tmp_path / "out"
    argv = _READS_FLOAT[name] + ["--out-dir", str(out)]
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


def test_numpy_value_error_is_a_runtime_failure(tmp_path, capsys):
    # n = 2^62 passes every settings check; numpy then refuses the 2^65-byte
    # array of draws with a ValueError before allocating it
    out = tmp_path / "out"
    assert run(["periodogram", "--n", str(1 << 62), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "too big" in err
    assert not out.exists()


def _nan_prefix(spec, n):
    return np.full(n, np.nan)


def _nan_path(spec, n):
    return np.full(n + 1, np.nan)


def _inf_path(spec, n):
    return np.full(n + 1, np.inf)


@pytest.mark.parametrize(
    "module, name, fake, argv",
    [
        (experiments, "sample_path", _nan_path, ["asclt", "--schedule", "256:127"]),
        (experiments, "sample_path", _nan_path, ["bivariate", "--schedule", "256:127"]),
        (spectra, "sample_prefix", _nan_prefix, ["spectrum", "--n", "65"]),
        (spectra, "sample_path", _nan_path,
         ["spectrum", "--ensemble", "reverse", "--n", "65"]),
        (spectra, "periodogram_all", lambda x: np.full(x.size // 2, np.nan),
         ["periodogram", "--n", "256"]),
        (spectra, "sample_path", _nan_path, ["periodogram", "--n", "256"]),
        (experiments, "sample_path", _inf_path, ["asclt", "--schedule", "256:127"]),
        (experiments, "sample_path", _inf_path, ["bivariate", "--schedule", "256:127"]),
        (spectra, "sample_path", _inf_path,
         ["spectrum", "--ensemble", "reverse", "--n", "65"]),
    ],
    ids=["partial-sums", "bivariate-partial-sums", "eigenvalues", "reverse-eigenvalues",
         "empirical-sample", "periodogram-path", "partial-sums-inf",
         "bivariate-partial-sums-inf", "reverse-eigenvalues-inf"],
)
def test_non_finite_statistic_is_a_runtime_failure(
    tmp_path, capsys, monkeypatch, module, name, fake, argv
):
    # partial sums, eigenvalues and an empirical sample that are nan or inf
    # must exit 3 (runtime), not 2 (configuration); each is checked only by
    # the statistic that reads it
    monkeypatch.setattr(module, name, fake)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 3
    assert "runtime failure" in capsys.readouterr().err
    assert not out.exists()


_real_draw = sources._draw


def _nan_draw(*args, **kwargs):
    # the replica sampler's own draws, then overwritten with nan: the fake
    # takes whatever arguments the real core takes, and calls the core
    # captured before the patch (the patched global would call itself)
    x = _real_draw(*args, **kwargs)
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
        ["char-decay", "--schedule", "256:8", "--replicas", "200"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_replica_statistic_is_a_runtime_failure(tmp_path, capsys, monkeypatch, argv):
    # a nan replica mean or partial sum compares false with a or x; it must
    # not count as a replica without a hit
    monkeypatch.setattr(sources, "_draw", _nan_draw)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 3
    assert f"runtime failure: non-finite {_REPLICA_STATS[argv[0]]}" in capsys.readouterr().err
    assert not out.exists()


def _csv_bytes(path, write, header, rows) -> bytes:
    write(str(path), header, rows)
    return path.read_bytes()


def _spectrum_csvs(tmp_path, e):
    """The spectrum CSV of the sorted array e from the CLI's writer, and
    from the per-row reference writer."""
    new = _csv_bytes(tmp_path / "new.csv", cli._write_csv, ["index", "eigenvalue"],
                     cli._indexed_lines(e))
    ref = _csv_bytes(tmp_path / "ref.csv", oracles.write_csv_rows, ["index", "eigenvalue"],
                     oracles.csv_cells(range(e.size), e.tolist()))
    return new, ref


# cells that repr writes, where orjson's text is patched: tiny, >= 1e16,
# nan, +-inf, -0.0 (orjson's own cell) and subnormal
_FALLBACK = [1e-300, -9.999999999999999e-05, 1e16, -1.7976931348623157e308, np.nan, np.inf,
             -np.inf, -0.0, 5e-324, -2.2250738585072014e-308]


def _across_a_slice_edge(cells) -> np.ndarray:
    """Four CSV slices and one value of clean cells, with cells on both
    sides of the edge between slices 1 and 2: slices 0 and 3 and the last
    value stay clean."""
    step, k = cli._BLOCK_CELLS, len(cells)
    e = np.random.default_rng(k).uniform(-3.0, 3.0, 4 * step + 1)
    e[np.abs(e) < 1e-4] = 0.5
    e[2 * step - k : 2 * step + k] = cells + cells[::-1]
    return e


def _mirrored(m) -> np.ndarray:
    """The reverse circulant form -m[::-1] then m of the magnitudes m."""
    m = np.sort(np.array(m, dtype=float))
    return np.concatenate([-m[::-1], m])


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
    e, _ = spectrum(n, SourceSpec("rademacher", 11, 0))
    new, ref = _spectrum_csvs(tmp_path, e)
    assert (out / csvs[0]).read_bytes() == new == ref


@pytest.mark.parametrize(
    "values",
    [
        # +-0.0 pairs
        [-1.5, -0.0, 0.0, 1.5],
        [-2.0, -0.0, -0.0, 0.0, 0.0, 2.0],
        # -0.0 in the upper half
        [-1.5, 0.0, -0.0, 1.5],
        [0.0, -0.0],
        # odd sizes, around any middle element
        [-3.0, -5e-324, 0.5, 5e-324, 3.0],
        [-2.5, -0.0, 2.5],
        [-1e308, 7.0, 1e308],
        [4.0],
        # mirrored, with cells that repr writes: subnormal, huge, tiny
        [-1e308, -5e-324, -0.0, 0.0, 5e-324, 1e308],
        [-1e16, -9999999999999998.0, -1e-4, -9.999999999999999e-05, 9.999999999999999e-05,
         1e-4, 9999999999999998.0, 1e16],
        # not mirrored: equal halves, a one-ulp miss, a shifted mirror
        [0.5, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 1.0000000000000002],
        [-3.0, -2.0, -1.0, 1.0, 2.0, 4.0],
        [-1.0, 0.5, 1.0, 2.0],
        [-2.0, -1.0, 1.0],
        # longer than a slice: clean slices, and repr's cells at a slice edge
        _across_a_slice_edge(_FALLBACK),
        _across_a_slice_edge([-0.0]),
        _across_a_slice_edge([]),
    ],
)
def test_hand_built_spectra_match_the_per_row_writer(tmp_path, values):
    new, ref = _spectrum_csvs(tmp_path, np.array(values, dtype=float))
    assert new == ref


def test_rows_longer_than_a_slice_match_the_per_row_writer(tmp_path):
    rows = np.stack([_across_a_slice_edge(_FALLBACK), _across_a_slice_edge([])])
    header = ["k"] + [f"u{j}" for j in range(rows.shape[1])]
    new = _csv_bytes(tmp_path / "new.csv", cli._write_csv, header, cli._row_lines(rows))
    ref = _csv_bytes(tmp_path / "ref.csv", oracles.write_csv_rows, header,
                     oracles.csv_cells(range(1, len(rows) + 1), *rows.T.tolist()))
    assert new == ref


def test_float_text_is_the_reprs():
    # orjson's digits where it writes positional notation, repr's cells
    # elsewhere; a change of orjson's output fails here
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 1 << 64, size=10**6, dtype=np.uint64, endpoint=False)
    # random sign and significand, binary exponents where orjson writes the
    # cell; then random bit patterns of any exponent, whose reprs are slow
    positional = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
        rng.integers(1023 - 14, 1023 + 54, size=bits.size, dtype=np.uint64) << np.uint64(52))
    random = bits[:10**5].view(np.float64)
    edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.999999999999999e-05, 1e-4,
             9999999999999998.0, 1e16, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
    for values in [positional.view(np.float64), random[np.isfinite(random)], np.array(edges)]:
        assert cli._float_text(values) == ",".join(map(repr, values.tolist()))


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(values=st.lists(_finite_floats, max_size=80), mirrored=st.booleans())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sorted_floats_match_the_per_row_writer(tmp_path, values, mirrored):
    # mirrored: the reverse ensemble's form of the magnitudes |values|
    if mirrored:
        e = _mirrored(np.abs(values))
    else:
        e = np.sort(np.array(values, dtype=float))
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
        u = trig_rows(trig_tables(n)[0], np.arange(1, r + 1))
    else:
        u = haar_rows(n, SourceSpec("rademacher", 2, 0), r)
    header = ["k"] + [f"u{j}" for j in range(n)]
    ref = _csv_bytes(tmp_path / "ref.csv", oracles.write_csv_rows, header,
                     oracles.csv_cells(range(1, r + 1), *u.T.tolist()))
    assert (out / csvs[0]).read_bytes() == ref
