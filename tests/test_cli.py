import json
import os

import jsonschema
import pytest

from ascltlab.cli import ConfigError, load_config, run

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "result.schema.json")


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
