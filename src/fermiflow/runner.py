"""Run configuration parsing and scenario dispatch for the CLI.

Configs are JSON documents.  The tables below list every key once, with
its type, default and bound, and one reader, `_read`, applies them: unknown
and missing keys are named, and every value is checked before it is used.
`parse_config` makes every refusal of a config and builds the potential and
the initial state, so a bad config is refused before `run` touches `--out`.
A scenario computes its outputs from the config; `run` removes an earlier
run's outputs, writes `series.csv`, FMF1 snapshots under `snapshots/` and
finally (atomically) `summary.json` with a manifest of the files it wrote,
so a crash can never leave a summary claiming success.
"""

import contextlib
import functools
import glob
import hashlib
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import (default_probe_momenta, fit_exponential, semiclassical_constant,
                          trace_distance, trace_norm)
from .initial_data import (DegenerateFermiLevel, DensityMatrix, fermi_ball_indices,
                           plane_wave_projection, trapped_slater)
from .meanfield import EvolutionConfig, MeanFieldKind, evolve
from .model import (DENSE_MAX_SITES, FOCK_MAX_SITES, Lattice, Potential, build_potential,
                    default_hbar, make_lattice)
from .snapshots import write_csv, write_fmf1

__all__ = ["ConfigError", "NumericFailure", "RunConfig", "parse_config", "run"]

SCENARIOS = ("evolve", "compare-hf-hartree", "exact-vs-meanfield", "fock-verify",
             "fluctuation", "semiclassics", "diagnostics-only")
_MAX_STEPS = 10 ** 7  # integrator steps one run may ask for, Vlasov sub-steps included
_MAX_SITES = 8192  # M: one dense complex M x M matrix is then at most 1 GiB


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


class NumericFailure(RuntimeError):
    """A scenario failed numerically (blow-up, violated invariant)."""


@dataclass
class RunConfig:
    """A parsed config: typed values with every default filled in."""

    scenario: str
    lattice: Lattice
    n_particles: int
    hbar: float  # model.hbar, or default_hbar(n_particles, lattice.ds)
    potential_spec: dict
    potential: Potential  # built from potential_spec by parse_config
    initial: dict
    initial_state: DensityMatrix  # built from initial by parse_config, arrays read-only
    evolution: EvolutionConfig  # None when the config has no evolution section
    kind: MeanFieldKind
    p_max_index: int
    fock: dict
    vlasov_dt: float
    seed: int
    raw: dict


# The rule for one key.  `type` is int, float, list (of numbers), a tuple of
# choices, a dict of rules (a section) or a `_Tagged` section.  The default
# `...` marks a required key and None an optional key with no value.  An int
# lies in [lo, hi] and a float above lo; None is no bound.
_Key = namedtuple("_Key", "type default lo hi", defaults=(..., None, None))
# A section whose keys besides `tag` are chosen by the value of `tag`.
_Tagged = namedtuple("_Tagged", "tag variants")

_CONFIG = {
    "scenario": _Key(SCENARIOS),
    "lattice": _Key({"ds": _Key(int, 1, 1, 3), "d": _Key(int, ..., 2),
                     "length": _Key(float, 1.0, 0)}),
    "model": _Key({"n_particles": _Key(int, ..., 1), "hbar": _Key(float, None, 0)}),
    "potential": _Key(_Tagged("shape", {
        "zero": {},
        "gaussian": {"strength": _Key(float), "sigma": _Key(float, ..., 0)},
        "cosine": {"strength": _Key(float), "mode": _Key(int)},
        "table": {"samples": _Key(list)},
    }), {"shape": "zero"}),
    "initial": _Key(_Tagged("kind", {
        "ball": {},
        "trapped": {"strength": _Key(float, 50.0, 0)},
    }), {"kind": "ball"}),
    "evolution": _Key({"dt": _Key(float, ..., 0), "t_final": _Key(float, ..., 0),
                       "snapshot_stride": _Key(int, 1, 1)}, None),
    "kind": _Key(tuple(k.value for k in MeanFieldKind), "hartree_fock"),
    "p_set": _Key({"max_index": _Key(int, 4, 1)}, {}),
    "fock": _Key({"l_sites": _Key(int, None, 1), "trials": _Key(int, 200, 1),
                  "moment_order": _Key(int, 2, 0, 6)}, {}),
    "vlasov": _Key({"dt": _Key(float, 1e-3, 0)}, {}),
    "seed": _Key(int, 0, 0, 2 ** 64 - 1),
}


def _read(section, rules: dict, where: str) -> dict:
    """The typed values of a JSON object under `rules`, defaults filled in."""
    prefix, where = (where + "." if where else ""), where or "config"
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    missing = sorted(k for k, rule in rules.items() if rule.default is ... and k not in section)
    unknown = sorted(set(section) - set(rules))
    for problem, keys in (("missing", missing), ("unknown", unknown)):
        if keys:
            raise ConfigError(f"{problem} key(s) {keys} in {where}")
    return {k: None if k not in section and rule.default is None
            else _value(section.get(k, rule.default), rule, prefix + k)
            for k, rule in rules.items()}


def _value(value, rule: _Key, name: str):
    """One config value checked against its rule; a section is read whole."""
    rtype, _, lo, hi = rule
    if isinstance(rtype, _Tagged):  # the tag's rule plus the keys its value chooses
        tag = _Key(tuple(rtype.variants))
        chosen = (rtype.variants[_value(value[rtype.tag], tag, f"{name}.{rtype.tag}")]
                  if isinstance(value, dict) and rtype.tag in value else {})
        rtype = {rtype.tag: tag, **chosen}
    if isinstance(rtype, dict):
        return _read(value, rtype, name)
    if isinstance(rtype, tuple):  # choices are strings, so `in` never hashes value
        if value not in rtype:
            raise ConfigError(f"{name} must be one of {list(rtype)}, got {value!r}")
        return value
    if rtype is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
        return [_value(v, _Key(float), f"{name}[{i}]") for i, v in enumerate(value)]
    number = not isinstance(value, bool) and isinstance(value, (int, float))
    if rtype is int:
        if not (number and isinstance(value, int) and (lo is None or lo <= value)
                and (hi is None or value <= hi)):
            bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
            raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
        return value
    # finite: no NaN, no infinity and no integer beyond the float range
    if not (number and abs(value) <= sys.float_info.max and (lo is None or lo < value)):
        bound = "" if lo is None else f" > {lo}"
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # past the digit limit, or nested too deep
        raise ConfigError(f"config parse error: {exc}") from exc
    c = _read(doc, _CONFIG, "")
    scenario, lat, initial = c["scenario"], c["lattice"], c["initial"]
    lattice = make_lattice(lat["ds"], lat["d"], lat["length"])
    if lattice.site_count > _MAX_SITES:  # checked before any site array is built
        raise ConfigError(f"lattice.d={lattice.d} and lattice.ds={lattice.ds} give more than "
                          f"{_MAX_SITES} sites (d^ds), past the 1 GiB dense-matrix budget")
    n, hbar = c["model"]["n_particles"], c["model"]["hbar"]
    if n > lattice.site_count:  # checked before N ** (-1/ds) meets an unbounded int
        raise ConfigError(f"model.n_particles must not exceed the "
                          f"{lattice.site_count} lattice sites")
    if hbar is None:
        hbar = default_hbar(n, lattice.ds)
    with np.errstate(over="ignore", invalid="ignore"):  # numpy, where float ** raises
        cell = np.float64(lattice.spacing) ** lattice.ds
        top = np.float64(hbar) ** 2 * np.max(lattice.momentum_squared())  # built here, quietly
        # the trap's maximum, at site 0: torus distance l/2 along every axis
        trap = (initial["strength"] * (lattice.ds * np.float64(0.5 * lattice.length) ** 2)
                if initial["kind"] == "trapped" else 0.0)
    if not np.isfinite(top):
        raise ConfigError(f"model.hbar={hbar!r} and lattice.length={lattice.length!r} make "
                          f"the largest kinetic energy hbar^2 |p|^2 overflow")
    if not sys.float_info.min <= cell <= sys.float_info.max:
        raise ConfigError(f"lattice.length={lattice.length!r}, lattice.d={lattice.d} and lattice."
                          f"ds={lattice.ds} put the cell volume (length/d)^ds outside the floats")
    if not np.isfinite(trap):
        raise ConfigError(f"lattice.length={lattice.length!r} and initial.strength make the "
                          f"trap energy strength |x - center|^2 overflow")
    if scenario == "semiclassics" and (lattice.ds != 1 or lattice.d % 2):
        raise ConfigError("semiclassics needs lattice.ds = 1 and an even lattice.d")
    if scenario in ("exact-vs-meanfield", "fock-verify", "fluctuation"):
        limit = DENSE_MAX_SITES if scenario == "fock-verify" else FOCK_MAX_SITES
        if not (lattice.ds == 1 and (c["fock"]["l_sites"] or lattice.d) == lattice.d <= limit):
            raise ConfigError(f"fock.l_sites must equal lattice.d={lattice.d}, at most {limit} "
                              f"sites for {scenario}, with lattice.ds = 1")
    try:
        potential = build_potential(c["potential"], lattice)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from exc
    except OverflowError as exc:  # the one unbounded int read as a float
        raise ConfigError(f"potential.mode: {exc}") from exc

    evo, vlasov_dt = c["evolution"], c["vlasov"]["dt"]
    if evo is None and scenario not in ("fock-verify", "diagnostics-only"):
        raise ConfigError("missing key(s) ['evolution'] in config")
    if evo is not None:
        sub = evo["dt"] / vlasov_dt if scenario == "semiclassics" else 0.0
        total = evo["t_final"] / evo["dt"] * (1.0 + sub)
        if not total <= _MAX_STEPS:  # also true for NaN
            keys = "evolution.dt, evolution.t_final" + (" and vlasov.dt" if sub else "")
            raise ConfigError(f"{keys} ask for {total:.3g} integrator steps, "
                              f"more than {_MAX_STEPS:.0e}")
        try:
            evo = EvolutionConfig(evo["dt"], evo["t_final"], evo["snapshot_stride"])
        except ValueError as exc:
            raise ConfigError(f"evolution: {exc}") from exc
        if sub and not abs(np.rint(sub) - sub) <= 1e-9 * sub:
            raise ConfigError(f"evolution.dt={evo.dt!r} is not a whole multiple of "
                              f"vlasov.dt={vlasov_dt!r}")

    cfg = RunConfig(
        scenario=scenario, lattice=lattice, n_particles=n, hbar=hbar,
        potential_spec=c["potential"], potential=potential, initial=initial,
        initial_state=None, evolution=evo, kind=MeanFieldKind(c["kind"]),
        p_max_index=c["p_set"]["max_index"], fock=c["fock"], vlasov_dt=vlasov_dt,
        seed=c["seed"], raw=doc,
    )
    cfg.initial_state = build_initial_state(cfg)
    return cfg


def build_initial_state(cfg: RunConfig) -> DensityMatrix:
    """omega_0 of the config, its arrays read-only; a state that cannot be built
    (a degenerate Fermi shell, failed arithmetic) is a `ConfigError`."""
    lattice, n = cfg.lattice, cfg.n_particles
    try:
        state = (plane_wave_projection(lattice, fermi_ball_indices(lattice, n))
                 if cfg.initial["kind"] == "ball"
                 else trapped_slater(lattice, cfg.hbar, cfg.initial["strength"], n))
    except (DegenerateFermiLevel, ArithmeticError, ValueError) as exc:
        raise ConfigError(f"initial: {exc}") from exc
    for array in (state.orbitals, state.occupations):
        array.setflags(write=False)
    return state


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _maybe_fit(values, times):
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    mask = values > 0
    return fit_exponential(values[mask], times[mask]) if mask.sum() >= 2 else None


@contextlib.contextmanager
def _at_snapshot(t: float):
    """A numerical failure inside the block, re-raised naming the snapshot time t."""
    try:
        yield
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        raise RuntimeError(f"{exc} at t={t:.6g}") from exc


def _scenario_evolve(cfg: RunConfig):
    omega0 = cfg.initial_state
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    reports = [semiclassical_constant(state, cfg.lattice, cfg.hbar, p_set)
               for state in traj.states]
    c_phase = [rep.c_phase for rep in reports]
    c_momentum = [rep.c_momentum for rep in reports]

    snap_idx = [round(t / cfg.evolution.dt) for t in traj.times]
    series = {
        "t": traj.times,
        "trace": [traj.trace[i] for i in snap_idx],
        "energy": [traj.energy[i] for i in snap_idx],
        "idempotency_defect": [traj.idempotency_defect[i] for i in snap_idx],
        "c_phase": c_phase,
        "c_momentum": c_momentum,
    }
    # omega = Phi diag(lam) Phi*, lam fixed by the flow
    arrays = {"occupations": omega0.occupations,
              **{f"orbitals_step{i:08d}": s.orbitals for i, s in zip(snap_idx, traj.states)}}
    e0 = traj.energy[0]
    drift = max(abs(e - e0) for e in traj.energy)
    return series, {
        "max_idempotency_defect": float(max(traj.idempotency_defect)),
        "max_trace_drift": float(max(abs(tr - traj.trace[0]) for tr in traj.trace)),
        # relative to |E(0)|, or to the drift itself where that is larger (E(0) = 0)
        "max_relative_energy_drift": float(drift / max(abs(e0), drift, 1e-300)),
        "growth_fit_c_phase": _maybe_fit(c_phase, traj.times),
        "growth_fit_c_momentum": _maybe_fit(c_momentum, traj.times),
        "p_set_max_index": cfg.p_max_index,
    }, arrays


def _scenario_compare(cfg: RunConfig):
    """tr|omega_HF(t) - omega_H(t)| from shared initial data, read from the orbitals.
    Hartree-Fock runs the midpoint rule and Hartree the split step, so the gap also holds
    their O(dt^2) scheme difference: at ds=1, d=64, N=8, dt=1e-3, t=0.5 the HF error is
    1.1e-4 and the Hartree error 1.0e-6."""
    omega0 = cfg.initial_state
    hf = evolve(omega0, cfg.evolution, MeanFieldKind.HARTREE_FOCK, cfg.potential, cfg.hbar)
    hh = evolve(omega0, cfg.evolution, MeanFieldKind.HARTREE, cfg.potential, cfg.hbar)
    gaps = [trace_distance(a.orbitals, b.orbitals, omega0.occupations)
            for a, b in zip(hf.states, hh.states)]
    return {"t": hf.times, "trace_norm_gap": gaps}, {"final_gap": float(gaps[-1])}, {}


def _exact_states(cfg: RunConfig, kind: MeanFieldKind):
    """The Fock space, the mean-field trajectory from omega_0, and the exact
    psi_t = exp(-i H t / hbar) R_{omega_0} vacuum at its snapshot times,
    stepped from one to the next by `fock.propagate`."""
    from .fock import FockSpace, propagate, quasi_free_state  # fock loads scipy.sparse

    space, omega0 = FockSpace(cfg.lattice.d), cfg.initial_state
    psi0 = quasi_free_state(space, omega0)
    traj = evolve(omega0, cfg.evolution, kind, cfg.potential, cfg.hbar)
    return space, traj, propagate(space, cfg.potential, cfg.n_particles, psi0, traj.times, cfg.hbar)


def _scenario_exact_vs_meanfield(cfg: RunConfig):
    from .fock import rdm1

    space, traj, psis = _exact_states(cfg, cfg.kind)
    hs, tr = [], []
    for t, s in zip(traj.times, traj.states):
        with _at_snapshot(t):  # x holds the only dense omega, L <= 14 sites
            x = rdm1(next(psis), space) - (s.orbitals * s.occupations) @ s.orbitals.conj().T
            hs.append(float(np.linalg.norm(x, "fro")))
            tr.append(trace_norm(x))
    return ({"t": traj.times, "hs_distance": hs, "trace_distance": tr},
            {"final_hs_distance": hs[-1], "final_trace_distance": tr[-1]}, {})


def _scenario_fock_verify(cfg: RunConfig):
    from .fock import FockSpace, car_defect, verify_operator_bounds

    space = FockSpace(cfg.lattice.d)
    worst = car_defect(space)
    report = verify_operator_bounds(space, cfg.fock["trials"], cfg.seed)
    names = [n for n in report if isinstance(report[n], dict)]
    violations = int(sum(report[n]["violations"] for n in names))
    if violations or worst > 1e-13:
        raise NumericFailure(
            f"operator-bound violations={violations}, CAR defect={worst:.3e}")
    return {
        "inequality_index": list(range(len(names))),
        "violations": [report[n]["violations"] for n in names],
        "worst_slack": [report[n]["worst_slack"] for n in names],
    }, {"car_max_deviation": float(worst), "bounds": report, "total_violations": violations}, {}


def _scenario_fluctuation(cfg: RunConfig):
    from .fock import fluctuation_vector, number_moment

    space, traj, psis = _exact_states(cfg, MeanFieldKind.HARTREE_FOCK)
    order = cfg.fock["moment_order"]
    m1, mk = [], []
    for t, omega in zip(traj.times, traj.states):
        with _at_snapshot(t):
            xi = fluctuation_vector(space, omega, next(psis))
            m1.append(number_moment(xi, 1, space, shift=0.0))
            mk.append(number_moment(xi, order, space))
    return ({"t": traj.times, "mean_particle_number": m1, f"moment_order_{order}": mk},
            {"final_mean_particle_number": float(m1[-1]),
             "moment_order": order, "final_moment": float(mk[-1])}, {})


def _scenario_semiclassics(cfg: RunConfig):
    from .semiclassics import momentum_grid, vlasov_step, wigner

    omega0 = cfg.initial_state
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)
    n, weight = omega0.n_particles, 1.0 / cfg.lattice.d  # the Wigner quadrature weight
    w0 = classical = wigner(omega0, cfg.lattice)
    q = momentum_grid(cfg.lattice, cfg.hbar)
    gap = [0.0]  # both sides start from w0
    for t_prev, t, state in zip(traj.times, traj.times[1:], traj.states[1:]):
        n_steps = round((t - t_prev) / cfg.vlasov_dt)  # whole, checked by parse_config
        with _at_snapshot(t):
            classical = vlasov_step(classical, n_steps, cfg.vlasov_dt, cfg.potential, cfg.hbar, n)
            gap.append(float(np.sum(np.abs(wigner(state, cfg.lattice) - classical)) * weight))
    gap_norm = np.array(gap) / (cfg.hbar * n)
    return ({"t": traj.times, "l1_gap": gap, "gap_over_hbar_n": gap_norm},
            {"wigner_weight": weight,
             "wigner_momentum_spacing": float(q[1] - q[0]),
             "wigner_sum_rule": float(np.sum(w0) * weight),
             "final_gap_over_hbar_n": float(gap_norm[-1])}, {"wigner_t0": w0})


def _scenario_diagnostics_only(cfg: RunConfig):
    omega0 = cfg.initial_state
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    report = semiclassical_constant(omega0, cfg.lattice, cfg.hbar, p_set)
    return {
        "p_norm": [float(np.linalg.norm(p)) for p in p_set],
        "commutator_trace_norm": report.phase_norms,
    }, {"c_phase": report.c_phase, "c_momentum": report.c_momentum,
        "idempotency_defect": omega0.idempotency_defect()}, {}


# config -> (series.csv columns, summary result, {snapshot name: array}); `run` writes them
_SCENARIO_FN = {
    "evolve": _scenario_evolve,
    "compare-hf-hartree": _scenario_compare,
    "exact-vs-meanfield": _scenario_exact_vs_meanfield,
    "fock-verify": _scenario_fock_verify,
    "fluctuation": _scenario_fluctuation,
    "semiclassics": _scenario_semiclassics,
    "diagnostics-only": _scenario_diagnostics_only,
}


@functools.lru_cache(maxsize=1)
def _scipy_version() -> str:
    """From scipy's metadata, without importing scipy (~20 ms, on first use)."""
    from importlib import metadata
    return metadata.version("scipy")


def run(cfg: RunConfig, out_dir: str) -> dict:
    """Execute a scenario and write its outputs, deterministic given (config,
    seed): an earlier run's outputs are removed first, the summary written last; a
    scenario's arithmetic, value or runtime error is re-raised as `NumericFailure`."""
    os.makedirs(out_dir, exist_ok=True)
    for name in (["summary.json", "summary.json.tmp", "series.csv"]
                 + glob.glob("snapshots/*.fmf1", root_dir=out_dir)):
        if os.path.isfile(path := os.path.join(out_dir, name)):
            os.remove(path)
    t0 = time.monotonic()
    try:
        series, result, arrays = _SCENARIO_FN[cfg.scenario](cfg)
    except (ConfigError, NumericFailure):
        raise
    except (ArithmeticError, ValueError, RuntimeError) as exc:  # LinAlgError is a ValueError
        raise NumericFailure(f"{cfg.scenario}: {exc}") from exc
    written = ["series.csv"] + [f"snapshots/{name}.fmf1" for name in arrays]
    paths = [os.path.join(out_dir, rel) for rel in written]
    write_csv(paths[0], series)
    if arrays:
        os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)
    for path, array in zip(paths[1:], arrays.values()):
        write_fmf1(path, array, cfg.lattice.ds, cfg.lattice.d)
    wall = time.monotonic() - t0

    manifest = [{"path": rel, "bytes": os.path.getsize(path), "sha256": _sha256(path)}
                for rel, path in zip(written, paths)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    summary = {
        "config": cfg.raw,
        "environment": {  # what produced the run
            "fermiflow": __version__, "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "scipy": _scipy_version(),
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "threads": {var: os.environ.get(var) for var in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}},
        "wall_clock_seconds": wall,
        "seed": cfg.seed,
        "result": result,
        "manifest": sorted(manifest, key=lambda m: m["path"]),
        "status": "success",
    }
    tmp = os.path.join(out_dir, "summary.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "summary.json"))
    return summary
