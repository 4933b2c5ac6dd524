"""Config parsing, scenario runner outputs, CLI exit codes, determinism."""

import ast
import glob
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from fermiflow.cli import main
from fermiflow.meanfield import evolve
from fermiflow.runner import (SCENARIOS, ConfigError, NumericFailure, RunConfig,
                              build_initial_state, parse_config, run)
from fermiflow.snapshots import read_fmf1, write_csv, write_fmf1


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
    # manifest covers series.csv, the occupations and the orbitals per kept time
    sizes = {m["path"]: m["bytes"] for m in summary["manifest"]}
    assert "series.csv" in sizes
    snaps = sorted(p for p in sizes if p.startswith("snapshots/"))
    assert len(snaps) == 4  # occupations; orbitals at t = 0, 0.05, 0.1
    lam, ds, d = read_fmf1(os.path.join(out, "snapshots", "occupations.fmf1"))
    assert (ds, d) == (1, 8) and np.array_equal(lam, [[1.0, 1.0]])
    flow = evolve(build_initial_state(cfg), cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)
    names = [f"snapshots/orbitals_step{i:08d}.fmf1" for i in (0, 5, 10)]
    assert snaps == sorted(names + ["snapshots/occupations.fmf1"])
    for name, state in zip(names, (s.state for s in flow)):
        phi, ds, d = read_fmf1(os.path.join(out, name))
        assert (ds, d) == (1, 8) and phi.shape == (8, 2)
        assert phi.tobytes() == state.orbitals.astype("<c16").tobytes()  # bit for bit
        assert sizes[name] == 28 + 16 * 8 * 2  # the <4sIIQQ header, then M x r complex128
    # tr omega = sum_k lam_k |Phi_k|^2
    assert np.sum(np.abs(phi) ** 2 @ lam[0].real) == pytest.approx(2.0, abs=1e-12)
    with open(os.path.join(out, "summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["result"] == summary["result"]


def test_run_evolve_energy_drift_finite_from_zero_energy(tmp_path):
    # E(0) = 0 exactly (one particle at p = 0, a potential averaging to zero);
    # under Hartree-Fock, round-off of the 1e115 kinetic scale then moves E, and
    # the drift is reported relative to itself instead of dividing by zero
    doc = dict(MINIMAL, lattice={"ds": 2, "d": 2, "length": 1e-60},
               model={"n_particles": 1, "hbar": 1e-3}, kind="hartree_fock",
               potential={"shape": "cosine", "strength": -100.0, "mode": -3},
               evolution={"dt": 1.0, "t_final": 4.0, "snapshot_stride": 3})
    result = run(parse_config(json.dumps(doc)), str(tmp_path / "e0"))["result"]
    assert 0.0 < result["max_relative_energy_drift"] <= 1.0
    # the split Hartree step moves the p = 0 orbital by phases only: E stays 0
    doc["kind"] = "hartree"
    result = run(parse_config(json.dumps(doc)), str(tmp_path / "e0h"))["result"]
    assert result["max_relative_energy_drift"] == 0.0


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

    def boom(cfg):
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

    def boom(cfg):
        raise NumericFailure("synthetic blow-up")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", boom)
    with pytest.raises(NumericFailure):
        run(parse_config(json.dumps(MINIMAL)), out)
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_failed_rerun_removes_a_stale_temp_summary(tmp_path, monkeypatch):
    import fermiflow.runner as runner_mod

    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text('{"status": "success"}')
    (out / "summary.json.tmp").write_text('{"status": "success"}')

    def boom(cfg):
        raise NumericFailure("synthetic blow-up")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", boom)
    with pytest.raises(NumericFailure):
        run(parse_config(json.dumps(MINIMAL)), str(out))
    assert not (out / "summary.json").exists()
    assert not (out / "summary.json.tmp").exists()


def test_shorter_rerun_manifest_lists_exactly_the_files_on_disk(tmp_path):
    out = str(tmp_path / "out")
    run(parse_config(json.dumps(MINIMAL)), out)  # snapshots at t = 0, 0.05, 0.1
    shorter = dict(MINIMAL, evolution=dict(MINIMAL["evolution"], t_final=0.05))
    summary = run(parse_config(json.dumps(shorter)), out)
    on_disk = {os.path.relpath(os.path.join(root, name), out)
               for root, _, files in os.walk(out) for name in files}
    assert {m["path"] for m in summary["manifest"]} == on_disk - {"summary.json"}
    assert {p for p in on_disk if p.startswith("snapshots")} == {
        "snapshots/occupations.fmf1", "snapshots/orbitals_step00000000.fmf1",
        "snapshots/orbitals_step00000005.fmf1"}


def test_manifest_lists_exactly_the_files_the_run_wrote(tmp_path, capsys):
    # files in --out that the run did not write are neither listed nor touched;
    # a stale summary.json.tmp is overwritten by the summary itself
    out = tmp_path / "out"
    (out / "old").mkdir(parents=True)
    (out / "notes.txt").write_text("notes")
    (out / "old" / "data.bin").write_bytes(b"\x00\x01")
    (out / "summary.json.tmp").write_text('{"status": "success"}')
    assert main(["evolve", "--config", write_config(tmp_path, MINIMAL), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    paths = [m["path"] for m in summary["manifest"]]
    assert paths == ["series.csv", "snapshots/occupations.fmf1"] + [
        f"snapshots/orbitals_step{i:08d}.fmf1" for i in (0, 5, 10)]
    assert f"wrote {len(paths) + 1} files" in capsys.readouterr().out  # and summary.json
    assert (out / "notes.txt").read_text() == "notes"
    assert (out / "old" / "data.bin").read_bytes() == b"\x00\x01"
    assert not (out / "summary.json.tmp").exists()
    for m in summary["manifest"]:
        data = (out / m["path"]).read_bytes()
        assert m["bytes"] == len(data) and m["sha256"] == hashlib.sha256(data).hexdigest()


def test_snapshot_times_closer_than_a_microsecond_each_get_a_file(tmp_path):
    # eleven snapshot times 1e-7 apart: each is named by its step index, so
    # none overwrites another
    doc = dict(MINIMAL, evolution={"dt": 1e-7, "t_final": 1e-6, "snapshot_stride": 1})
    out = str(tmp_path / "out")
    summary = run(parse_config(json.dumps(doc)), out)
    orbitals = sorted(glob.glob("snapshots/orbitals_*.fmf1", root_dir=out))
    assert orbitals == [f"snapshots/orbitals_step{i:08d}.fmf1" for i in range(11)]
    assert orbitals == [m["path"] for m in summary["manifest"]
                        if m["path"].startswith("snapshots/orbitals_")]


# what a run must not pay for: scipy (a test dependency), OpenSSL (hashlib's) and the
# installed-package scan of importlib.metadata, which imports email
_WATCHED = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'email') " \
           "or m in ('_hashlib', 'importlib.metadata')))"


def test_import_loads_no_scipy(tmp_path):
    # every CLI start and every `import fermiflow` pays for what the package
    # imports, and the package runs on numpy alone: after the import, and after
    # an evolve run and the Fock-space scenarios at L = 4, none of the watched
    # modules is loaded; fock-verify's draws alone import numpy.random, whose
    # `secrets` import maps OpenSSL
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    fock_verify = {"scenario": "fock-verify", "lattice": {"ds": 1, "d": 4},
                   "model": {"n_particles": 2}, "fock": {"trials": 2}}
    runs = []
    for doc in (MINIMAL, dict(MINIMAL, scenario="fluctuation", lattice={"ds": 1, "d": 4}),
                dict(MINIMAL, scenario="exact-vs-meanfield", lattice={"ds": 1, "d": 4}),
                fock_verify):
        name = doc["scenario"]
        runs.append([name, "--config", write_config(tmp_path, doc, f"{name}.json"),
                     "--out", str(tmp_path / name)])
    code = (f"import sys, fermiflow, fermiflow.cli; {_WATCHED}; "
            f"codes = [fermiflow.cli.main(argv) for argv in {runs[:-1]!r}]; {_WATCHED}; "
            f"codes.append(fermiflow.cli.main({runs[-1]!r})); {_WATCHED}; "
            "print('numpy.random' in sys.modules, codes)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()
    assert [out[0], out[-4], out[-1]] == ["[]", "[]", "True [0, 0, 0, 0]"], out
    assert out[-2] in ("[]", "['_hashlib']"), out


def test_no_module_imports_scipy():
    # every import statement in the syntax tree, those inside functions too:
    # the package runs on numpy alone, and the flows measure nothing, so
    # `meanfield` imports neither the diagnostics nor the runner
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = sorted(glob.glob(os.path.join(src, "fermiflow", "*.py")))
    assert os.path.join(src, "fermiflow", "runner.py") in paths
    found = []
    for path in paths:
        module = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # from .x import y: fermiflow.x(.y)
                base = ".".join(filter(None, ["fermiflow" * bool(node.level), node.module]))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"
                      or (name in ("fermiflow.diagnostics", "fermiflow.runner")
                          and module == "meanfield.py")]
    assert found == []


def test_only_run_writes_the_output_files():
    # a scenario computes and `runner.run` writes: besides their definitions and
    # imports, the two writers are named only in the body of `run`, and every
    # scenario is a function of the config alone
    import fermiflow.runner as runner_mod

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = sorted(glob.glob(os.path.join(src, "fermiflow", "*.py")))
    assert os.path.join(src, "fermiflow", "runner.py") in paths
    found = []
    for path in paths:
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            owner = ".".join(filter(None, [module, getattr(top, "name", None)]))
            for node in ast.walk(top):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                        else None)
                if name in ("write_csv", "write_fmf1"):
                    found.append((owner, name))
    owners = ("__init__", "runner", "runner.run")  # the re-export, the import, the one writer
    assert set(found) == {(owner, name) for name in ("write_csv", "write_fmf1")
                          for owner in (f"snapshots.{name}",) + owners}, found
    assert {name: len(inspect.signature(fn).parameters)
            for name, fn in runner_mod._SCENARIO_FN.items()} == dict.fromkeys(SCENARIOS, 1)
    # and a generator, whose rows `run` writes as they arrive
    assert all(map(inspect.isgeneratorfunction, runner_mod._SCENARIO_FN.values()))


def test_only_the_grid_and_the_wigner_axis_reorder_momenta():
    # momenta exist in FFT order only: `fftshift` and `ifftshift` may appear in
    # `model`, which builds the one grid, and in `semiclassics.wigner`, whose
    # output axis is ascending, so a second ordering cannot come back elsewhere
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = sorted(glob.glob(os.path.join(src, "fermiflow", "*.py")))
    assert os.path.join(src, "fermiflow", "semiclassics.py") in paths
    found = []
    for path in paths:
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            owner = ".".join(filter(None, [module, getattr(top, "name", None)]))
            for node in ast.walk(top):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias) else None)
                if (name in ("fftshift", "ifftshift") and module != "model"
                        and owner != "semiclassics.wigner"):
                    found.append(f"{owner}:{node.lineno} {name}")
    assert found == []


def test_summary_records_the_environment_without_loading_scipy(tmp_path):
    # an evolve run through the CLI, in a fresh process: the environment is
    # read without importing scipy or scanning the installed packages, the
    # manifest hashed without OpenSSL, and scipy, which no run loads, not named
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path, out = write_config(tmp_path, MINIMAL), str(tmp_path / "out")
    code = ("import sys; from fermiflow.cli import main; "
            f"code = main(['evolve', '--config', {path!r}, '--out', {out!r}]); "
            f"{_WATCHED}; sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("MKL_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]", proc.stdout
    with open(os.path.join(out, "summary.json")) as fh:
        environment = json.load(fh)["environment"]
    assert sorted(environment) == ["blas", "fermiflow", "numpy", "python", "threads"]
    assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
    assert environment["numpy"] == np.__version__
    assert environment["blas"]["name"] and environment["blas"]["version"]
    assert environment["threads"] == {"OMP_NUM_THREADS": env.get("OMP_NUM_THREADS"),
                                      "OPENBLAS_NUM_THREADS": "1",
                                      "MKL_NUM_THREADS": None}


def test_manifest_digests_are_sha256_from_the_built_in_hash(tmp_path):
    # CPython's own SHA-256, not OpenSSL's, gives hashlib's digest for every manifest
    # file, one past a 64 KiB read chunk (33 orbitals on 128 sites) and an empty one too
    from fermiflow import runner

    assert runner._new_sha256.__module__ in ("_sha2", "_sha256")
    doc = dict(MINIMAL, lattice={"ds": 1, "d": 128}, model={"n_particles": 33},
               evolution={"dt": 1e-3, "t_final": 1e-3, "snapshot_stride": 1})
    out = tmp_path / "out"
    manifest = run(parse_config(json.dumps(doc)), str(out))["manifest"]
    assert max(m["bytes"] for m in manifest) > 1 << 16
    for m in manifest:
        assert m["sha256"] == hashlib.sha256((out / m["path"]).read_bytes()).hexdigest()
    (tmp_path / "empty").write_bytes(b"")
    assert runner._sha256(tmp_path / "empty") == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("show_config", [
    lambda: None,  # numpy < 1.25, the declared floor 1.24 included: no `mode`
    lambda mode: {"Build Dependencies": {}},  # a build that records no BLAS
], ids=["no_mode", "no_blas"])
def test_summary_records_a_null_blas_where_numpy_names_none(tmp_path, monkeypatch,
                                                            show_config):
    # the run still succeeds, with the BLAS name and version null
    monkeypatch.setattr(np, "show_config", show_config)
    out = str(tmp_path / "out")
    run(parse_config(json.dumps(MINIMAL)), out)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["status"] == "success"
    assert summary["environment"]["blas"] == {"name": None, "version": None}


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
                # not a projection, so no initial kind
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
                dict(semiclassics, vlasov={"dt": 1e-12}),
                # more than 8192 sites: one dense complex matrix past 1 GiB
                dict(diagnostics, lattice={"ds": 1, "d": 10 ** 12}),
                dict(MINIMAL, lattice={"ds": 3, "d": 21}),
                # an integer literal beyond Python's 4300-digit parsing limit
                json.dumps(MINIMAL).replace('"n_particles": 2',
                                            '"n_particles": ' + "1" * 5000),
                # nested past the JSON decoder's recursion limit
                "[" * 100000 + "]" * 100000]:
        case = tmp_path / "case.json"
        case.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        scenario = doc["scenario"] if isinstance(doc, dict) else "evolve"
        out = tmp_path / "case"
        assert main([scenario, "--config", str(case), "--out", str(out)]) == 2, doc
        assert capsys.readouterr().err.startswith("config error"), doc
        assert not os.path.exists(out / "summary.json")
    # named by their key: integers too large for a float, and a degenerate
    # Fermi shell in a strong trap, whose levels are equal sums of one-axis levels
    strong_trap = dict(diagnostics, model={"n_particles": 2})
    for doc, key in [(dict(diagnostics, model={"n_particles": 10 ** 400}), "model.n_particles"),
                     (dict(MINIMAL, potential={"shape": "cosine", "strength": 1.0,
                                               "mode": 10 ** 400}), "potential.mode"),
                     (dict(strong_trap, lattice={"ds": 3, "d": 6},
                           initial={"kind": "trapped", "strength": 1e6}), "initial"),
                     (dict(strong_trap, lattice={"ds": 2, "d": 8},
                           initial={"kind": "trapped", "strength": 1e8}), "initial"),
                     # a potential whose Fourier transform overflows the floats
                     (dict(MINIMAL, potential={"shape": "table", "samples": [1.7e308] * 8}),
                      "potential: the Fourier transform of the samples overflows"),
                     (dict(MINIMAL, potential={"shape": "cosine", "strength": 1e308, "mode": 3}),
                      "potential: the Fourier transform of the samples overflows")]:
        case = write_config(tmp_path, doc, "case.json")
        assert main([doc["scenario"], "--config", case, "--out", str(tmp_path / "case")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err, err
    kernel = write_config(tmp_path, dict(MINIMAL, initial={"kind": "kernel"}), "kernel.json")
    assert main(["evolve", "--config", kernel, "--out", str(tmp_path / "o")]) == 2
    assert "initial.kind must be one of ['ball', 'trapped']" in capsys.readouterr().err
    # an --out that cannot hold the outputs is refused before the run: a file,
    # or a directory where summary.json would go
    (tmp_path / "file").write_text("")
    (tmp_path / "taken" / "summary.json").mkdir(parents=True)
    for out in (tmp_path / "file", tmp_path / "file" / "sub", tmp_path / "taken"):
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out") and err.count("\n") == 1, err
    assert os.listdir(tmp_path / "taken") == ["summary.json"]


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
    initial = {"kind": draw(st.sampled_from(["ball", "trapped"]))}
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


_EARLIER_OUTPUTS = ("summary.json", "series.csv", os.path.join("snapshots", "old.fmf1"))


def _read_all(out, names):
    contents = []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            contents.append(fh.read())
    return contents


def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=_run_configs())
def test_cli_runs_generated_configs(doc):
    # exit 0, 2 or 3 without raising; a success has finite results throughout,
    # and a config error leaves an earlier run's outputs in --out as they were
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        os.makedirs(os.path.join(out, "snapshots"))
        for i, name in enumerate(_EARLIER_OUTPUTS):
            with open(os.path.join(out, name), "wb") as fh:
                fh.write(b"earlier run %d" % i)
        code = main([doc["scenario"], "--config", path, "--out", out])
        event(f"{doc['scenario']} exits {code}")
        assert code in (0, 2, 3), doc
        if code == 2:
            assert _read_all(out, _EARLIER_OUTPUTS) == [
                b"earlier run %d" % i for i in range(len(_EARLIER_OUTPUTS))], doc
        if code == 0:
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            assert summary["status"] == "success"
            assert all(np.isfinite(_numbers(summary["result"]))), summary["result"]
            with open(os.path.join(out, "series.csv")) as fh:
                rows = fh.read().splitlines()[1:]
            assert all(np.isfinite(float(x)) for r in rows for x in r.split(",")), doc


def test_cli_fock_verify_past_dense_budget_exits_two(tmp_path, monkeypatch, capsys):
    # L = 15 is past the Fock scenarios' one site limit, whose largest sector block
    # (L = 14: 3432^2 complex, 188 MiB) is the budget: rejected before any block is built
    from fermiflow import fock
    from fermiflow.model import FOCK_MAX_SITES

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(fock, "car_defect", reached)
    monkeypatch.setattr(fock, "verify_operator_bounds", reached)
    doc = {"scenario": "fock-verify", "model": {"n_particles": 2}}
    path = write_config(tmp_path, dict(doc, lattice={"ds": 1, "d": FOCK_MAX_SITES + 1}))
    assert main(["fock-verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "fock.l_sites" in capsys.readouterr().err
    # the most trials the work bound accepts at L = 14
    path = write_config(tmp_path, dict(doc, lattice={"ds": 1, "d": FOCK_MAX_SITES},
                                       fock={"trials": 5}))
    with pytest.raises(Reached):
        main(["fock-verify", "--config", path, "--out", str(tmp_path / "o")])


def test_fock_verify_work_bound_accepts_the_default_trials_up_to_twelve_sites():
    # trials x the summed cube of a trial's blocks: the default 200 trials pass at every
    # L <= 12 (~6 min of SVDs at L = 12), and at L = 13 (~30 min) at most 43 do
    doc = {"scenario": "fock-verify", "model": {"n_particles": 1}}
    for d in range(2, 13):
        assert parse_config(json.dumps(dict(doc, lattice={"ds": 1, "d": d}))).fock["trials"] == 200
    thirteen = dict(doc, lattice={"ds": 1, "d": 13})
    with pytest.raises(ConfigError, match="at most 43 trials are accepted"):
        parse_config(json.dumps(thirteen))
    assert parse_config(json.dumps(dict(thirteen, fock={"trials": 43}))).fock["trials"] == 43


_REFUSED_IN_PARSE = [
    # a degenerate Fermi shell in a strong trap: equal sums of one-axis levels
    ({"scenario": "diagnostics-only", "lattice": {"ds": 3, "d": 6}, "model": {"n_particles": 2},
      "initial": {"kind": "trapped", "strength": 1e6}}, "initial"),
    (dict(MINIMAL, scenario="fluctuation", lattice={"ds": 2, "d": 4}), "fock.l_sites"),
    (dict(MINIMAL, scenario="exact-vs-meanfield", lattice={"ds": 3, "d": 3}), "fock.l_sites"),
    (dict(MINIMAL, scenario="exact-vs-meanfield", lattice={"ds": 1, "d": 15}), "fock.l_sites"),
    ({"scenario": "fock-verify", "lattice": {"ds": 1, "d": 15}, "model": {"n_particles": 2}},
     "fock.l_sites"),
    # the default 200 trials at L = 14: hours of dense SVDs
    ({"scenario": "fock-verify", "lattice": {"ds": 1, "d": 14}, "model": {"n_particles": 2}},
     "fock.trials"),
]


@pytest.mark.parametrize("doc,key", _REFUSED_IN_PARSE)
def test_parse_config_refuses_what_a_scenario_would_refuse(tmp_path, capsys, doc, key):
    # refused when parsed, so a rerun into --out keeps a good run's outputs byte for byte
    with pytest.raises(ConfigError, match=key):
        parse_config(json.dumps(doc))
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", write_config(tmp_path, MINIMAL), "--out", out]) == 0
    names = sorted(glob.glob("snapshots/*.fmf1", root_dir=out)) + ["series.csv", "summary.json"]
    before = _read_all(out, names)
    capsys.readouterr()
    assert main([doc["scenario"], "--config", write_config(tmp_path, doc, "bad.json"),
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}")
    if key == "fock.l_sites":  # the one Fock rule, at any ds: L = d^ds <= 14
        lat = doc["lattice"]
        assert f"lattice.d={lat['d']}, lattice.ds={lat['ds']}" in err
        assert f"d^ds = {lat['d'] ** lat['ds']}" in err
    if key == "fock.trials":  # and names the largest count it accepts
        assert "at most 5 trials are accepted" in err
    assert sorted(glob.glob("snapshots/*.fmf1", root_dir=out)) == names[:-2]
    assert _read_all(out, names) == before


def test_only_parse_config_refuses_a_config():
    # every `raise ConfigError` in the runner is made while the config is parsed:
    # by `parse_config` or a function it calls, never by a scenario inside `run`,
    # and only `parse_config` builds the initial state
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.path.join(src, "fermiflow", "runner.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    raisers, builders = set(), set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                raisers.add(owner)
            if isinstance(node, ast.Name) and node.id == "build_initial_state":
                builders.add(owner)
    assert raisers == {"parse_config", "_read", "_value", "build_initial_state"}, raisers
    assert builders == {"parse_config"}, builders


def test_initial_state_is_built_once_and_read_only(tmp_path):
    # the parsed config holds omega_0; its arrays cannot be written, so every
    # run of one config starts from the same state and writes the same bytes
    for initial in ({"kind": "ball"}, {"kind": "trapped", "strength": 50.0}):
        cfg = parse_config(json.dumps(dict(MINIMAL, initial=initial)))
        for array in (cfg.initial_state.orbitals, cfg.initial_state.occupations):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    for scenario in ("evolve", "semiclassics"):
        doc = dict(MINIMAL, scenario=scenario, initial={"kind": "trapped", "strength": 50.0},
                   potential={"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
                   vlasov={"dt": 2.5e-3})
        cfg = parse_config(json.dumps(doc))
        outputs = []
        for name in ("a", "b"):
            out = str(tmp_path / scenario / name)
            written = [m["path"] for m in run(cfg, out)["manifest"]]
            assert any(p.startswith("snapshots/") for p in written)
            outputs.append(dict(zip(written, _read_all(out, written))))
        assert outputs[0] == outputs[1]


def test_cli_oversized_inputs(tmp_path):
    # d^ds past 8192 sites is rejected before any site array is built (at
    # d = 10^12 one momentum table alone would take 8 TB), naming both keys
    huge = {"scenario": "diagnostics-only", "lattice": {"ds": 1, "d": 10 ** 12},
            "model": {"n_particles": 2}}
    with pytest.raises(ConfigError, match=r"lattice\.d=10+ and lattice\.ds=1 .* 8192"):
        parse_config(json.dumps(huge))
    assert parse_config(json.dumps(dict(huge, lattice={"ds": 3, "d": 20}))).lattice.site_count \
        == 8000
    # a probe box past the grid is clamped to |k_i| <= d // 2, not built
    diagnostics = dict(MINIMAL, scenario="diagnostics-only")
    results = []
    for max_index in (10 ** 18, 4):
        path = write_config(tmp_path, dict(diagnostics, p_set={"max_index": max_index}))
        out = tmp_path / f"o{max_index}"
        assert main(["diagnostics-only", "--config", path, "--out", str(out)]) == 0
        results.append(json.loads((out / "summary.json").read_text())["result"])
    assert results[0] == results[1]


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

    def boom(cfg):
        raise NumericFailure("synthetic blow-up")

    path = write_config(tmp_path, MINIMAL)
    # an OSError while the outputs are written: a file where snapshots/ goes
    out = tmp_path / "o"
    out.mkdir()
    (out / "snapshots").write_text("")
    assert main(["evolve", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs") and err.count("\n") == 1, err
    assert not os.path.exists(out / "summary.json")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", boom)
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_float_overflow_exit_three(tmp_path, monkeypatch, capsys):
    import fermiflow.runner as runner_mod

    def overflow(cfg):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", overflow)
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(out / "summary.json")


def test_cli_energy_overflow_at_t0_exits_three_with_no_row(tmp_path, capsys):
    # a Hartree energy that overflows at t = 0 is refused before its row is written:
    # one stderr line, no RuntimeWarning (an error under this suite), no inf in a series
    doc = dict(MINIMAL, kind="hartree", evolution={"dt": 1e-3, "t_final": 2e-3},
               potential={"shape": "gaussian", "strength": 1e307, "sigma": 0.2})
    out = tmp_path / "o"
    assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: evolve: the energy at t=0 is not finite (inf)\n", err
    assert os.listdir(out) == []


def test_cli_scenario_value_error_exits_three_without_a_traceback(tmp_path, monkeypatch,
                                                                   capsys):
    # e.g. implement_bogoliubov's orthonormality gate late in a long fluctuation run
    import fermiflow.runner as runner_mod

    def gate(cfg):
        raise ValueError("orbitals are not orthonormal (defect 1.03e-12)")

    def config_error(cfg):
        raise ConfigError("fock.l_sites: synthetic")

    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "o"
    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", gate)
    with pytest.raises(NumericFailure, match="orthonormal"):
        run(parse_config(json.dumps(MINIMAL)), str(out))
    assert main(["evolve", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "orthonormal" in err
    assert not os.path.exists(out / "summary.json")
    # a config error found inside a scenario passes through unchanged
    monkeypatch.setitem(runner_mod._SCENARIO_FN, "evolve", config_error)
    assert main(["evolve", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: fock.l_sites")


@pytest.mark.parametrize("scenario,module,name", [
    ("fluctuation", "fock", "fluctuation_moments"),
    ("exact-vs-meanfield", "fock", "rdm1"),
    ("semiclassics", "semiclassics", "wigner"),  # its first call reads omega_0
])
def test_cli_snapshot_failure_names_its_time(tmp_path, monkeypatch, capsys, scenario,
                                             module, name):
    # a measurement that fails at the third snapshot, t = 0.02: exit 3, and the
    # message names that time
    import importlib

    mod = importlib.import_module(f"fermiflow.{module}")
    original, calls = getattr(mod, name), []

    def fails_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("orbitals are not orthonormal (defect 1.03e-12)")
        return original(*args, **kwargs)

    monkeypatch.setattr(mod, name, fails_third)
    doc = dict(MINIMAL, scenario=scenario, lattice={"ds": 1, "d": 6},
               model={"n_particles": 2},
               evolution={"dt": 0.01, "t_final": 0.04, "snapshot_stride": 1},
               vlasov={"dt": 0.0025})
    out = tmp_path / "o"
    assert main([scenario, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "orthonormal" in err and "at t=0.02" in err and err.count("\n") == 1, err
    assert len(calls) == 3 and not os.path.exists(out / "summary.json")
    # each row is written as it is measured: the failed run keeps t = 0 and t = 0.01
    header, *rows = (out / "series.csv").read_text().splitlines()
    assert header.split(",")[0] == "t" and [float(r.split(",")[0]) for r in rows] == [0.0, 0.01]


def test_run_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    # ds=3, d=12, N=20, a snapshot every step: one snapshot is 16 M r bytes (0.53 MiB).  A
    # run holds no list of states, so 21 snapshots peak where 3 do, within one snapshot
    doc = {"scenario": "evolve", "lattice": {"ds": 3, "d": 12}, "model": {"n_particles": 20},
           "potential": {"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
           "initial": {"kind": "trapped", "strength": 50.0}, "kind": "hartree",
           "p_set": {"max_index": 1}, "evolution": {"dt": 1e-3, "t_final": 2e-3}}
    run(parse_config(json.dumps(doc)), str(tmp_path / "warm"))  # fills the lazy caches
    peaks = []
    for n_steps in (2, 20):
        doc["evolution"]["t_final"] = n_steps * 1e-3
        cfg = parse_config(json.dumps(doc))
        tracemalloc.start()
        try:
            run(cfg, str(tmp_path / str(n_steps)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(glob.glob("snapshots/orbitals_*.fmf1", root_dir=tmp_path / "20")) == 21
    assert abs(peaks[1] - peaks[0]) < 16 * 12 ** 3 * 20, peaks


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
    # the seven tallies, then the run's trials and seed
    bounds = summary["result"]["bounds"]
    assert len(bounds) == 9 and list(bounds)[-2:] == ["trials", "seed"]
    assert bounds["trials"] == 20 and bounds["seed"] == 0

    doc = dict(MINIMAL, scenario="diagnostics-only")
    del doc["evolution"]
    summary = run(parse_config(json.dumps(doc)), str(tmp_path / "diag"))
    assert summary["result"]["idempotency_defect"] < 1e-12


def test_fock_verify_rows_read_back_as_integers(tmp_path):
    # the tallies are written as integers, the slack as a float
    doc = {"scenario": "fock-verify", "lattice": {"ds": 1, "d": 4},
           "model": {"n_particles": 2}, "fock": {"trials": 3}}
    run(parse_config(json.dumps(doc)), str(tmp_path))
    header, *rows = (tmp_path / "series.csv").read_text().splitlines()
    assert header == "inequality_index,violations,worst_slack" and len(rows) == 7
    for i, row in enumerate(rows):
        index, violations, slack = row.split(",")
        assert (index, violations) == (str(i), "0")
        assert slack == repr(float(slack))


def test_write_csv_keeps_integers_and_renders_the_rest_as_floats(tmp_path):
    row = {"i": 3, "j": np.int64(-7), "flag": True, "np_flag": np.bool_(False),
           "x": 0.1, "y": np.float32(0.5), "z": np.float64(2.0)}
    write_csv(tmp_path / "s.csv", row)
    assert (tmp_path / "s.csv").read_text().splitlines() == [
        "i,j,flag,np_flag,x,y,z", "3,-7,1.0,0.0,0.1,0.5,2.0"]


def test_run_fock_verify_keeps_its_tallies_when_it_fails(tmp_path, monkeypatch, capsys):
    # a CAR defect fails the run after its seven rows are written, and no summary claims it
    from fermiflow import fock

    monkeypatch.setattr(fock, "car_defect", lambda space: 1e-12)
    doc = {"scenario": "fock-verify", "lattice": {"ds": 1, "d": 4},
           "model": {"n_particles": 2}, "fock": {"trials": 3}}
    out = tmp_path / "fv"
    assert main(["fock-verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert "CAR defect=1.000e-12" in capsys.readouterr().err
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == "inequality_index,violations,worst_slack" and len(rows[1:]) == 7
    assert not os.path.exists(out / "summary.json")


@pytest.mark.parametrize("scenario", ["fluctuation", "exact-vs-meanfield"])
def test_fock_scenarios_at_the_site_limit_stay_small(tmp_path, scenario):
    # L = 14, N = 2: every state is a 91-entry sector vector and every block 91 x 91,
    # where one 2^14-state table or vector would be 128 KiB per column
    doc = {"scenario": scenario, "lattice": {"ds": 1, "d": 14}, "model": {"n_particles": 2},
           "potential": {"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
           "initial": {"kind": "trapped", "strength": 50.0},
           "evolution": {"dt": 1e-3, "t_final": 0.02, "snapshot_stride": 10}}
    cfg = parse_config(json.dumps(doc))
    # one-time costs first, so the bound sees only the run's own arrays
    import fermiflow.fock  # noqa: F401
    tracemalloc.start()
    try:
        run(cfg, str(tmp_path / "o"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    assert len((tmp_path / "o" / "series.csv").read_text().splitlines()) == 4


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


@pytest.mark.parametrize("kind", ["hartree_fock", "hartree"])
def test_run_fluctuation_moments_never_below_their_floor(tmp_path, kind):
    # <N> >= 0 and <(N+1)^k> >= 1 hold exactly, also where xi_t = vacuum
    doc = dict(MINIMAL, scenario="fluctuation", kind=kind,
               evolution={"dt": 0.01, "t_final": 0.05, "snapshot_stride": 2})
    out = tmp_path / "fl"
    run(parse_config(json.dumps(doc)), str(out))
    rows = (out / "series.csv").read_text().splitlines()[1:]
    m1, m2 = (np.array([float(r.split(",")[i]) for r in rows]) for i in (1, 2))
    assert len(rows) == 4
    assert np.all(m1 >= 0.0) and np.all(m2 >= 1.0), rows


def test_run_fluctuation_follows_the_configured_kind(tmp_path):
    # xi_t = R*_{omega_t} psi_t with omega_t on the flow that `kind` names: under a
    # gaussian V, from a trap, the Hartree-Fock and Hartree rows differ past t = 0
    series = {}
    for kind in ("hartree_fock", "hartree"):
        doc = dict(MINIMAL, scenario="fluctuation", kind=kind,
                   potential={"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
                   initial={"kind": "trapped", "strength": 50.0},
                   evolution={"dt": 0.01, "t_final": 0.05, "snapshot_stride": 5})
        run(parse_config(json.dumps(doc)), str(tmp_path / kind))
        series[kind] = (tmp_path / kind / "series.csv").read_text().splitlines()
    hf, hartree = series.values()
    assert hf[:2] == hartree[:2] and hf[2] != hartree[2], series


def test_run_requires_evolution_for_dynamic_scenarios():
    # a parse-time error, so the CLI exits 2 before it creates --out.  The two scenarios that
    # do not evolve never read the section: a step count past the bound or a t_final that is
    # no whole number of steps passes there, while its keys are still type-checked
    doc = {k: v for k, v in MINIMAL.items() if k != "evolution"}
    for scenario in SCENARIOS:
        text = json.dumps(dict(doc, scenario=scenario, fock={"l_sites": 8}))
        if scenario in ("fock-verify", "diagnostics-only"):
            assert parse_config(text).evolution is None
            for evolution in ({"dt": 1e-9, "t_final": 1}, {"dt": 0.3, "t_final": 1}):
                unread = json.dumps(dict(doc, scenario=scenario, fock={"l_sites": 8},
                                         evolution=evolution))
                assert parse_config(unread).evolution is None
            bad = json.dumps(dict(doc, scenario=scenario, fock={"l_sites": 8},
                                  evolution={"dt": "x", "t_final": 1}))
            with pytest.raises(ConfigError, match="evolution.dt must be a finite number"):
                parse_config(bad)
            continue
        with pytest.raises(ConfigError, match=r"missing key\(s\) \['evolution'\]"):
            parse_config(text)


def test_cli_missing_evolution_exits_two_before_creating_out(tmp_path, capsys):
    path = write_config(tmp_path, {k: v for k, v in MINIMAL.items() if k != "evolution"})
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 2
    assert "missing key(s) ['evolution']" in capsys.readouterr().err
    assert not out.exists()


def test_fmf1_bytes_are_the_header_and_interleaved_float64(tmp_path):
    # NaN, signed zeros and infinities included; a real matrix is written complex
    m = np.array([[1.5 - 2j, complex(np.nan, -0.0), complex(-0.0, np.inf)],
                  [complex(-np.inf, 3.0), 0.0, 1e-310j]])
    inter = np.empty(m.shape + (2,), dtype="<f8")
    inter[..., 0], inter[..., 1] = m.real, m.imag
    for matrix, expected in ((m, inter), (m.real, np.stack([m.real, np.zeros(m.shape)], -1))):
        path = tmp_path / "m.fmf1"
        write_fmf1(path, matrix, 3, 7)
        header = struct.pack("<4sIIQQ", b"FMF1", 3, 7, 2, 3)
        assert path.read_bytes() == header + expected.astype("<f8").tobytes()
        back, ds, d = read_fmf1(path)
        assert (ds, d) == (3, 7) and back.shape == (2, 3)
        assert back.tobytes() == expected.astype("<f8").tobytes()


def test_read_fmf1_names_a_truncated_file(tmp_path):
    path = tmp_path / "m.fmf1"
    write_fmf1(path, np.ones((3, 4)), 1, 4)
    whole = path.read_bytes()
    for cut, part in ((20, "header"), (len(whole) - 5, "payload"), (28, "payload")):
        short = tmp_path / f"short{cut}.fmf1"
        short.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match=f"short{cut}.fmf1: truncated FMF1 {part}"):
            read_fmf1(short)
