"""Config parsing, scenario runner outputs, CLI exit codes, determinism."""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from fermiflow.cli import main
from fermiflow.runner import (SCENARIOS, ConfigError, NumericFailure, RunConfig,
                              parse_config, run)
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
    assert cfg.n_particles == 2
    assert cfg.hbar == pytest.approx(0.5)  # N^{-1/ds} default
    assert cfg.kind.value == "hartree_fock"
    assert cfg.seed == 0


def test_parse_hbar_override():
    doc = dict(MINIMAL, model={"n_particles": 2, "hbar": 0.05})
    cfg = parse_config(json.dumps(doc))
    assert cfg.hbar == pytest.approx(0.05)
    bad = dict(MINIMAL, model={"n_particles": 2, "hbar": -1.0})
    with pytest.raises(ConfigError, match="hbar"):
        parse_config(json.dumps(bad))
    # hbar^2 |p|^2 beyond the float range, through hbar or through 1/length
    for doc in (dict(MINIMAL, model={"n_particles": 2, "hbar": 1e200}),
                dict(MINIMAL, lattice={"d": 8, "length": 1e-300}),
                dict(MINIMAL, lattice={"d": 8, "length": 1e-320})):
        with pytest.raises(ConfigError, match=r"model\.hbar.*lattice\.length"):
            parse_config(json.dumps(doc))
    # the cell volume (length/d)^ds overflows, or falls below the normal floats
    for length in (1e300, 1e-110):
        doc = dict(MINIMAL, lattice={"ds": 3, "d": 2, "length": length})
        with pytest.raises(ConfigError, match=r"lattice\.length.*lattice\.d.*lattice\.ds"):
            parse_config(json.dumps(doc))


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
    # the free flow is either kind with the zero potential
    with pytest.raises(ConfigError, match=r"kind must be one of \['hartree_fock', "
                                          r"'hartree'\], got 'free'"):
        parse_config(json.dumps(dict(MINIMAL, kind="free")))
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


def test_run_evolve_energy_drift_finite_from_zero_energy(tmp_path):
    # E(0) = 0 exactly (one particle at p = 0, a potential averaging to zero);
    # round-off of the 1e115 kinetic scale then moves E, and the drift is
    # reported relative to itself instead of dividing by zero
    doc = dict(MINIMAL, lattice={"ds": 2, "d": 2, "length": 1e-60},
               model={"n_particles": 1, "hbar": 1e-3}, kind="hartree",
               potential={"shape": "cosine", "strength": -100.0, "mode": -3},
               evolution={"dt": 1.0, "t_final": 4.0, "snapshot_stride": 3})
    result = run(parse_config(json.dumps(doc)), str(tmp_path / "e0"))["result"]
    assert 0.0 < result["max_relative_energy_drift"] <= 1.0


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


def test_failed_rerun_removes_the_earlier_summary(tmp_path, monkeypatch):
    import fermiflow.runner as runner_mod

    out = str(tmp_path / "out")
    run(parse_config(json.dumps(MINIMAL)), out)
    assert os.path.exists(os.path.join(out, "summary.json"))

    def boom(cfg, out):
        raise NumericFailure("synthetic blow-up")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", boom)
    with pytest.raises(NumericFailure):
        run(parse_config(json.dumps(MINIMAL)), out)
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_shorter_rerun_manifest_lists_exactly_the_files_on_disk(tmp_path):
    out = str(tmp_path / "out")
    run(parse_config(json.dumps(MINIMAL)), out)  # snapshots at t = 0, 0.05, 0.1
    shorter = dict(MINIMAL, evolution=dict(MINIMAL["evolution"], t_final=0.05))
    summary = run(parse_config(json.dumps(shorter)), out)
    on_disk = {os.path.relpath(os.path.join(root, name), out)
               for root, _, files in os.walk(out) for name in files}
    assert {m["path"] for m in summary["manifest"]} == on_disk - {"summary.json"}
    assert len([p for p in on_disk if p.startswith("snapshots")]) == 2


def test_import_loads_no_scipy():
    # every CLI start and every `import fermiflow` pays for what the package
    # imports; only the scenarios that need scipy (the Fock oracle) load it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, fermiflow, fermiflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]", out


def test_cli_success_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_cli_config_errors_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    # scenario mismatch between CLI and config
    assert main(["semiclassics", "--config", path, "--out", str(tmp_path / "o")]) == 2
    # unreadable config: missing, or not UTF-8
    assert main(["evolve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    assert main(["evolve", "--config", str(tmp_path / "binary.json"),
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
                dict(MINIMAL, model={"n_particles": 2, "hbar": 1e200}),
                dict(MINIMAL, lattice={"d": 8, "length": 1e-300}),
                dict(MINIMAL, kind="free"),
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
                # a cell volume (length/d)^ds that overflows or underflows
                dict(MINIMAL, lattice={"ds": 3, "d": 2, "length": 1e300}),
                dict(MINIMAL, lattice={"ds": 3, "d": 2, "length": 1e-110}),
                # a trap energy strength |x - center|^2 beyond the float range
                dict(MINIMAL, lattice={"d": 8, "length": 1e200}, initial={"kind": "trapped"}),
                dict(diagnostics, lattice={"d": 8, "length": 1e200}, initial={"kind": "kernel"}),
                # a kernel state whose products overflow, or whose bump underflows to 0
                dict(diagnostics, lattice={"d": 5, "length": 1e150},
                     initial={"kind": "kernel", "width": 1e3, "fermi_radius": 1e-3}),
                dict(diagnostics, lattice={"d": 5, "length": 1e150},
                     initial={"kind": "kernel", "width": 1e-3}),
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


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0 ** e))


@st.composite
def _run_configs(draw):
    """A small config of any scenario: ds=1 with d <= 8 or ds <= 3 with
    d <= 3, N <= 3, at most 5 steps, any potential shape, length in
    [1e-120, 1e300] and hbar in [1e-3, 1e3]."""
    scenario = draw(st.sampled_from(SCENARIOS))
    ds, d = draw(st.tuples(st.just(1), st.integers(2, 8))
                 | st.tuples(st.integers(1, 3), st.integers(2, 3)))
    lattice = {"ds": ds, "d": d, "length": draw(_log_uniform(1e-120, 1e300))}
    strength = draw(st.floats(-100.0, 100.0))
    shape = draw(st.sampled_from(["zero", "gaussian", "cosine", "table"]))
    potential = {"shape": shape}
    if shape == "gaussian":
        potential.update(strength=strength, sigma=draw(_log_uniform(1e-3, 1e3)))
    elif shape == "cosine":
        potential.update(strength=strength, mode=draw(st.integers(-3, 3)))
    elif shape == "table":  # V(x) + V(-x): even, as the model requires
        grid = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=d ** ds,
                                      max_size=d ** ds))).reshape((d,) * ds)
        potential["samples"] = (grid + np.roll(np.flip(grid), 1, range(ds))).ravel().tolist()
    kinds = ["ball", "trapped"] + (["kernel"] if scenario == "diagnostics-only" else [])
    initial = {"kind": draw(st.sampled_from(kinds))}
    if initial["kind"] == "trapped":
        initial["strength"] = draw(_log_uniform(1e-3, 1e3))
    dt = draw(_log_uniform(1e-4, 1.0))
    return {
        "scenario": scenario, "lattice": lattice, "potential": potential,
        "model": {"n_particles": draw(st.integers(1, min(3, d ** ds))),
                  "hbar": draw(_log_uniform(1e-3, 1e3))},
        "initial": initial, "kind": draw(st.sampled_from(["hartree_fock", "hartree"])),
        "evolution": {"dt": dt, "t_final": draw(st.integers(1, 5)) * dt,
                      "snapshot_stride": draw(st.integers(1, 5))},
        "p_set": {"max_index": draw(st.integers(1, 3))},
        "fock": {"trials": draw(st.integers(1, 10)), "moment_order": draw(st.integers(0, 3))},
        "vlasov": {"dt": dt / draw(st.integers(1, 4))},
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
    }


def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=_run_configs())
def test_cli_runs_generated_configs(doc):
    # exit 0, 2 or 3 without raising; a success has finite results throughout
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main([doc["scenario"], "--config", path, "--out", out])
        event(f"{doc['scenario']} exits {code}")
        assert code in (0, 2, 3), doc
        if code == 0:
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            assert summary["status"] == "success"
            assert all(np.isfinite(_numbers(summary["result"]))), summary["result"]
            with open(os.path.join(out, "series.csv")) as fh:
                rows = fh.read().splitlines()[1:]
            assert all(np.isfinite(float(x)) for r in rows for x in r.split(",")), doc


def test_cli_fock_verify_past_dense_budget_exits_two(tmp_path, monkeypatch, capsys):
    # L = 14 would densify 4 GiB operators: rejected before any operator is built
    from fermiflow import fock

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(fock, "car_defect", reached)
    monkeypatch.setattr(fock, "verify_operator_bounds", reached)
    doc = {"scenario": "fock-verify", "model": {"n_particles": 2}}
    path = write_config(tmp_path, dict(doc, lattice={"ds": 1, "d": 14}))
    assert main(["fock-verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "fock.l_sites" in capsys.readouterr().err
    path = write_config(tmp_path, dict(doc, lattice={"ds": 1, "d": fock.DENSE_MAX_SITES}))
    with pytest.raises(Reached):
        main(["fock-verify", "--config", path, "--out", str(tmp_path / "o")])


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


def test_cli_float_overflow_exit_three(tmp_path, monkeypatch, capsys):
    import fermiflow.runner as runner_mod

    def overflow(cfg, out):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", overflow)
    path = write_config(tmp_path, MINIMAL)
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


def test_run_fluctuation_moments_never_below_their_floor(tmp_path):
    # <N> >= 0 and <(N+1)^k> >= 1 hold exactly, also where xi_t = vacuum
    doc = dict(MINIMAL, scenario="fluctuation",
               evolution={"dt": 0.01, "t_final": 0.05, "snapshot_stride": 2})
    out = tmp_path / "fl"
    run(parse_config(json.dumps(doc)), str(out))
    rows = (out / "series.csv").read_text().splitlines()[1:]
    m1, m2 = (np.array([float(r.split(",")[i]) for r in rows]) for i in (1, 2))
    assert len(rows) == 4
    assert np.all(m1 >= 0.0) and np.all(m2 >= 1.0), rows


def test_run_requires_evolution_for_dynamic_scenarios():
    doc = {k: v for k, v in MINIMAL.items() if k != "evolution"}
    cfg = parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="evolution"):
        run(cfg, "/tmp/never-created-fermiflow")
