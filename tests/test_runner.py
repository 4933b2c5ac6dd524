"""Config parsing, scenario runner outputs, CLI exit codes, determinism."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiflow.cli import main
from fermiflow.runner import (ConfigError, NumericFailure, RunConfig, parse_config, run)
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
    # more integrator steps than one run may take (parsed only, never run)
    doc = dict(MINIMAL, evolution={"dt": 1e-300, "t_final": 1.0})
    with pytest.raises(ConfigError, match="evolution.dt"):
        parse_config(json.dumps(doc))
    doc = dict(MINIMAL, scenario="semiclassics", vlasov={"dt": 1e-12})
    with pytest.raises(ConfigError, match="vlasov.dt"):
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
    nan = float("nan")
    nan_table = [0.0] + [nan] * 7
    fluctuation = dict(MINIMAL, scenario="fluctuation")
    diagnostics = dict(MINIMAL, scenario="diagnostics-only")
    semiclassics = dict(MINIMAL, scenario="semiclassics")
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
                dict(MINIMAL, scenario="semiclassics", lattice={"ds": 1, "d": 7}),
                # every key has one typed reader: no coercion, no NaN or infinity
                dict(MINIMAL, seed="abc"),
                dict(MINIMAL, seed=1.5),
                dict(MINIMAL, seed=-1),
                dict(semiclassics, vlasov={"dt": "abc"}),
                dict(semiclassics, vlasov={"dt": -1}),
                dict(semiclassics, vlasov={"dt": nan}),
                dict(semiclassics, vlasov={"dt": 3e-3}),
                dict(MINIMAL, initial={"kind": "trapped", "strength": "abc"}),
                dict(MINIMAL, initial={"kind": "trapped", "strength": 0}),
                dict(MINIMAL, initial={"kind": "trapped", "strength": nan}),
                dict(MINIMAL, initial={"kind": "trapped", "strength": float("inf")}),
                dict(MINIMAL, initial={"kind": "ball", "strength": 50.0}),
                dict(MINIMAL, initial={"kind": "kernel"}),
                dict(MINIMAL, scenario="exact-vs-meanfield", initial={"kind": "kernel"}),
                dict(MINIMAL, model={"n_particles": 2, "hbar": "x"}),
                dict(MINIMAL, model={"n_particles": 2, "hbar": True}),
                dict(MINIMAL, model={"n_particles": 2, "hbar": float("inf")}),
                dict(MINIMAL, model={"n_particles": 2.5}),
                dict(MINIMAL, model={"n_particles": "2"}),
                dict(MINIMAL, lattice={"d": 8, "length": "x"}),
                dict(MINIMAL, lattice={"d": 8.5}),
                dict(MINIMAL, lattice={"d": "8"}),
                dict(MINIMAL, lattice={"ds": 1.0, "d": 8}),
                dict(MINIMAL, lattice=5),
                dict(MINIMAL, evolution=dict(MINIMAL["evolution"], snapshot_stride=2.5)),
                dict(MINIMAL, evolution=dict(MINIMAL["evolution"], snapshot_stride="5")),
                dict(MINIMAL, fock={"times": [1, 2]}),
                dict(MINIMAL, potential={"shape": "zero", "strength": 1.0}),
                dict(MINIMAL, potential={"shape": "gaussian", "strength": "1", "sigma": 0.2}),
                dict(MINIMAL, potential={"shape": "cosine", "strength": 1.0, "mode": 1.5}),
                # step counts that would never finish
                dict(MINIMAL, evolution={"dt": 1e-300, "t_final": 1.0}),
                dict(MINIMAL, evolution={"dt": 1e-320, "t_final": 1.0}),
                dict(semiclassics, vlasov={"dt": 1e-12}),
                # an integer literal beyond Python's 4300-digit parsing limit
                json.dumps(MINIMAL).replace('"n_particles": 2',
                                            '"n_particles": ' + "1" * 5000)]:
        case = tmp_path / "case.json"
        case.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        scenario = doc["scenario"] if isinstance(doc, dict) else "evolve"
        out = tmp_path / "case"
        assert main([scenario, "--config", str(case), "--out", str(out)]) == 2, doc
        assert capsys.readouterr().err.startswith("config error"), doc
        assert not os.path.exists(out / "summary.json")


_PATHS = [("scenario",), ("kind",), ("seed",), ("lattice",), ("lattice", "ds"),
          ("lattice", "d"), ("lattice", "length"), ("model",), ("model", "n_particles"),
          ("model", "hbar"), ("potential",), ("potential", "shape"), ("initial",),
          ("initial", "kind"), ("evolution",), ("evolution", "dt"),
          ("evolution", "t_final"), ("evolution", "snapshot_stride"), ("p_set",),
          ("fock",), ("vlasov",)]
_JSON_SCALARS = (st.text(max_size=6) | st.booleans()
                 | st.floats(allow_nan=True, allow_infinity=True))
_JSON_VALUES = (_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
                | st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=3))


@settings(derandomize=True, deadline=None)
@given(path=st.sampled_from(_PATHS), value=_JSON_VALUES)
def test_parse_config_returns_config_or_raises_config_error(path, value):
    # one key of MINIMAL set to a string, bool, float (NaN and +-inf too),
    # list or dict: parsing gives a typed config or a ConfigError, nothing else
    doc = json.loads(json.dumps(MINIMAL))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


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


def test_cli_float_overflow_exit_three(tmp_path, capsys):
    # hbar^2 in the kinetic operator overflows a float
    path = write_config(tmp_path, dict(MINIMAL, model={"n_particles": 2, "hbar": 1e200}))
    out = tmp_path / "o"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(out / "summary.json")


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


def test_run_fluctuation_rows_end_at_t_final(tmp_path):
    # a stride of 2 does not divide the 5 steps: t_final is still a row
    doc = dict(MINIMAL, scenario="fluctuation",
               potential={"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
               initial={"kind": "trapped", "strength": 50.0},
               evolution={"dt": 1e-2, "t_final": 0.05, "snapshot_stride": 2})
    out = tmp_path / "fl"
    result = run(parse_config(json.dumps(doc)), str(out))["result"]
    rows = (out / "series.csv").read_text().splitlines()[1:]
    t, m1, m2 = (np.array([float(r.split(",")[i]) for r in rows]) for i in range(3))
    np.testing.assert_allclose(t, [0.0, 0.02, 0.04, 0.05], atol=1e-12)
    assert result["final_mean_particle_number"] == m1[-1]
    assert result["final_moment"] == m2[-1]


def test_run_requires_evolution_for_dynamic_scenarios():
    doc = {k: v for k, v in MINIMAL.items() if k != "evolution"}
    cfg = parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="evolution"):
        run(cfg, "/tmp/never-created-fermiflow")
