"""Config parsing, scenario runner outputs, CLI exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from fermiflow.cli import main
from fermiflow.runner import (ConfigError, NumericFailure, parse_config, run)
from fermiflow.snapshots import read_fmf1


MINIMAL = {
    "scenario": "evolve",
    "lattice": {"ds": 1, "d": 8, "length": 1.0},
    "model": {"n_particles": 2},
    "potential": {"shape": "zero"},
    "initial": {"kind": "ball"},
    "evolution": {"dt": 1e-2, "t_final": 0.1, "snapshot_stride": 5},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.scenario == "evolve"
    assert cfg.lattice.d == 8 and cfg.lattice.ds == 1
    assert cfg.params.n_particles == 2
    assert cfg.params.hbar == pytest.approx(0.5)  # N^{-1/ds} default
    assert cfg.kind.value == "hartree_fock"
    assert cfg.seed == 0


def test_parse_hbar_override():
    doc = dict(MINIMAL, model={"n_particles": 2, "hbar": 0.05})
    cfg = parse_config(json.dumps(doc))
    assert cfg.params.hbar == pytest.approx(0.05)
    bad = dict(MINIMAL, model={"n_particles": 2, "hbar": -1.0})
    with pytest.raises(ConfigError, match="hbar"):
        parse_config(json.dumps(bad))


def test_parse_rejects_bad_dt_naming_key():
    doc = dict(MINIMAL, evolution={"dt": -1e-2, "t_final": 0.1})
    with pytest.raises(ConfigError, match="dt"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(json.dumps(dict(MINIMAL, mystery=1)))
    doc = dict(MINIMAL, lattice={"d": 8, "spacing": 0.1})
    with pytest.raises(ConfigError, match="spacing"):
        parse_config(json.dumps(doc))


def test_parse_rejects_bad_scenario_and_missing_sections():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(json.dumps(dict(MINIMAL, scenario="nope")))
    doc = {k: v for k, v in MINIMAL.items() if k != "model"}
    with pytest.raises(ConfigError, match="model"):
        parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="line"):
        parse_config("{not json")


def test_run_evolve_outputs(tmp_path):
    cfg = parse_config(json.dumps(MINIMAL))
    out = str(tmp_path / "out")
    summary = run(cfg, out)
    assert summary["status"] == "success"
    assert summary["result"]["max_idempotency_defect"] < 1e-10
    assert summary["result"]["max_trace_drift"] < 1e-10
    # manifest covers series.csv and one snapshot per kept time
    paths = {m["path"] for m in summary["manifest"]}
    assert "series.csv" in paths
    snaps = sorted(p for p in paths if p.startswith("snapshots/"))
    assert len(snaps) == 3  # t = 0, 0.05, 0.1
    mat, ds, d = read_fmf1(os.path.join(out, snaps[0]))
    assert (ds, d) == (1, 8) and mat.shape == (8, 8)
    assert np.trace(mat).real == pytest.approx(2.0, abs=1e-12)
    with open(os.path.join(out, "summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["result"] == summary["result"]


def test_run_deterministic_reruns_byte_identical(tmp_path):
    doc = dict(MINIMAL,
               potential={"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
               seed=7)
    outputs = []
    for name in ("a", "b"):
        cfg = parse_config(json.dumps(doc))
        out = str(tmp_path / name)
        run(cfg, out)
        with open(os.path.join(out, "series.csv"), "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


def test_run_crash_leaves_no_summary(tmp_path, monkeypatch):
    import fermiflow.runner as runner_mod

    def boom(cfg, out):
        raise NumericFailure("synthetic blow-up")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", boom)
    cfg = parse_config(json.dumps(MINIMAL))
    out = str(tmp_path / "out")
    with pytest.raises(NumericFailure):
        run(cfg, out)
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_cli_success_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_cli_config_errors_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    # scenario mismatch between CLI and config
    assert main(["semiclassics", "--config", path, "--out", str(tmp_path / "o")]) == 2
    # unreadable config
    assert main(["evolve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    # invalid seed override
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "o"),
                 "--seed", str(2 ** 64)]) == 2
    bad = write_config(tmp_path, dict(MINIMAL, mystery=1), "bad.json")
    assert main(["evolve", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    # Fock-space sizes and trial counts out of range, malformed potentials
    fock_verify = {"scenario": "fock-verify", "lattice": {"ds": 1, "d": 4},
                   "model": {"n_particles": 2}}
    nan_table = [0.0] + [float("nan")] * 7
    fluctuation = dict(MINIMAL, scenario="fluctuation")
    diagnostics = dict(MINIMAL, scenario="diagnostics-only")
    for doc in [dict(fock_verify, fock={"l_sites": 20}),
                dict(MINIMAL, scenario="fluctuation", lattice={"ds": 1, "d": 16}),
                dict(fock_verify, fock={"l_sites": 4, "trials": 0}),
                dict(MINIMAL, potential={"shape": "gaussian", "sigma": 0.2}),
                dict(MINIMAL, potential={"shape": "blob"}),
                dict(MINIMAL, potential={"shape": "table", "samples": nan_table}),
                # probe sets, Fock integers, evolution types and sizes
                dict(MINIMAL, p_set={"max_index": 0}),
                dict(MINIMAL, p_set={"max_index": -1}),
                dict(MINIMAL, p_set={"max_index": "abc"}),
                dict(MINIMAL, p_set={"max_index": 1.5}),
                dict(diagnostics, p_set={"max_index": 0}),
                dict(fluctuation, fock={"moment_order": 9}),
                dict(fluctuation, fock={"moment_order": -1}),
                dict(fluctuation, fock={"moment_order": "2"}),
                dict(fock_verify, fock={"trials": "abc"}),
                dict(fock_verify, fock={"l_sites": "4"}),
                dict(MINIMAL, evolution={"dt": "0.01", "t_final": 0.1}),
                dict(MINIMAL, evolution={"dt": 0.01, "t_final": True}),
                dict(MINIMAL, model={"n_particles": 9}),
                dict(MINIMAL, scenario="semiclassics", lattice={"ds": 2, "d": 8}),
                dict(MINIMAL, scenario="semiclassics", lattice={"ds": 1, "d": 7})]:
        case = write_config(tmp_path, doc, "case.json")
        out = tmp_path / "case"
        assert main([doc["scenario"], "--config", case, "--out", str(out)]) == 2, doc
        assert capsys.readouterr().err.startswith("config error"), doc
        assert not os.path.exists(out / "summary.json")


def test_cli_partial_last_step_and_scheme_key_exit_two(tmp_path, capsys):
    partial = write_config(tmp_path, dict(MINIMAL, evolution={"dt": 0.03, "t_final": 0.1}))
    out = tmp_path / "o"
    assert main(["evolve", "--config", partial, "--out", str(out)]) == 2
    assert "whole number" in capsys.readouterr().err
    assert not os.path.exists(out / "summary.json")
    # the exponential midpoint rule is the only scheme; the key is gone
    evo = dict(MINIMAL["evolution"], scheme="midpoint_exponential")
    scheme = write_config(tmp_path, dict(MINIMAL, evolution=evo), "scheme.json")
    assert main(["evolve", "--config", scheme, "--out", str(out)]) == 2
    assert "scheme" in capsys.readouterr().err


def test_cli_numeric_failure_exit_three(tmp_path, monkeypatch, capsys):
    import fermiflow.runner as runner_mod

    def boom(cfg, out):
        raise NumericFailure("synthetic blow-up")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", boom)
    path = write_config(tmp_path, MINIMAL)
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_seed_override_recorded(tmp_path):
    path = write_config(tmp_path, dict(MINIMAL, seed=1))
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", path, "--out", out, "--seed", "42"]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["seed"] == 42 and summary["config"]["seed"] == 42


def test_run_fock_verify_and_diagnostics_only(tmp_path):
    doc = {
        "scenario": "fock-verify",
        "lattice": {"ds": 1, "d": 4},
        "model": {"n_particles": 2},
        "fock": {"l_sites": 4, "trials": 20},
    }
    summary = run(parse_config(json.dumps(doc)), str(tmp_path / "fv"))
    assert summary["result"]["total_violations"] == 0
    assert summary["result"]["car_max_deviation"] < 1e-13

    doc = dict(MINIMAL, scenario="diagnostics-only")
    del doc["evolution"]
    summary = run(parse_config(json.dumps(doc)), str(tmp_path / "diag"))
    assert summary["result"]["idempotency_defect"] < 1e-12


def test_run_fluctuation_beyond_dense_unitarity_check(tmp_path):
    # L=12: a dense R*R = 1 check would need a 4096 x 4096 complex array
    doc = dict(MINIMAL, scenario="fluctuation", lattice={"ds": 1, "d": 12},
               model={"n_particles": 3},
               potential={"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
               initial={"kind": "trapped", "strength": 50.0},
               evolution={"dt": 1e-2, "t_final": 0.02, "snapshot_stride": 1})
    summary = run(parse_config(json.dumps(doc)), str(tmp_path / "fl"))
    result = summary["result"]
    assert np.isfinite(result["final_mean_particle_number"])
    assert result["final_mean_particle_number"] >= -1e-12
    assert np.isfinite(result["final_moment"]) and result["final_moment"] >= 1.0


def test_run_requires_evolution_for_dynamic_scenarios():
    doc = {k: v for k, v in MINIMAL.items() if k != "evolution"}
    cfg = parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="evolution"):
        run(cfg, "/tmp/never-created-fermiflow")
