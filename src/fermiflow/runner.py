"""Run configuration parsing and scenario dispatch for the CLI.

Configs are JSON documents.  The tables below list every key once, with
its type, default and bound, and one reader, `_read`, applies them: unknown
and missing keys are named, and every value is checked before it is used.
A run removes an earlier run's outputs, writes `series.csv`, FMF1 snapshots
under `snapshots/`, and finally (atomically) `summary.json` with a manifest
of everything else, so a crash can never leave a summary claiming success.
"""

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
from .diagnostics import (default_probe_momenta, distance_series, fit_exponential,
                          semiclassical_constant, semiclassical_series)
from .initial_data import (DegenerateFermiLevel, DensityMatrix, fermi_ball_indices,
                           kernel_ansatz, plane_wave_projection, trapped_slater)
from .meanfield import (EvolutionConfig, MeanFieldKind, compare_hf_hartree, evolve)
from .model import Lattice, Potential, build_potential, default_hbar, make_lattice
from .snapshots import write_csv, write_fmf1

__all__ = ["ConfigError", "NumericFailure", "RunConfig", "parse_config", "run"]

SCENARIOS = ("evolve", "compare-hf-hartree", "exact-vs-meanfield", "fock-verify",
             "fluctuation", "semiclassics", "diagnostics-only")
_MAX_STEPS = 10 ** 7  # integrator steps one run may ask for, Vlasov sub-steps included


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
        "kernel": {"width": _Key(float, 0.2, 0), "fermi_radius": _Key(float, None, 0)},
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
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError(f"config parse error: {exc}") from exc
    c = _read(doc, _CONFIG, "")
    scenario, lat, initial = c["scenario"], c["lattice"], c["initial"]
    lattice = make_lattice(lat["ds"], lat["d"], lat["length"])
    n, hbar = c["model"]["n_particles"], c["model"]["hbar"]
    if hbar is None:
        hbar = default_hbar(n, lattice.ds)
    if n > lattice.site_count:
        raise ConfigError(f"model.n_particles must not exceed the "
                          f"{lattice.site_count} lattice sites")
    with np.errstate(over="ignore", invalid="ignore"):  # numpy, where float ** raises
        cell = np.float64(lattice.spacing) ** lattice.ds
        top = np.float64(hbar) ** 2 * np.max(np.sum(lattice.momenta() ** 2, axis=1))
        trap = np.max(harmonic_trap(lattice, initial.get("strength", 1.0)))
    if not np.isfinite(top):
        raise ConfigError(f"model.hbar={hbar!r} and lattice.length={lattice.length!r} make "
                          f"the largest kinetic energy hbar^2 |p|^2 overflow")
    if not sys.float_info.min <= cell <= sys.float_info.max:
        raise ConfigError(f"lattice.length={lattice.length!r}, lattice.d={lattice.d} and lattice."
                          f"ds={lattice.ds} put the cell volume (length/d)^ds outside the floats")
    if initial["kind"] != "ball" and not np.isfinite(trap):
        raise ConfigError(f"lattice.length={lattice.length!r} and initial.strength make the "
                          f"trap energy strength |x - center|^2 overflow")
    if scenario == "semiclassics" and (lattice.ds != 1 or lattice.d % 2):
        raise ConfigError("semiclassics needs lattice.ds = 1 and an even lattice.d")
    if initial["kind"] == "kernel" and scenario != "diagnostics-only":
        raise ConfigError("initial.kind 'kernel' is not a projection; it runs only "
                          "in diagnostics-only")
    try:
        potential = build_potential(c["potential"], lattice)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from exc

    evo, vlasov_dt = c["evolution"], c["vlasov"]["dt"]
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

    return RunConfig(
        scenario=scenario, lattice=lattice, n_particles=n, hbar=hbar,
        potential_spec=c["potential"], potential=potential, initial=initial, evolution=evo,
        kind=MeanFieldKind(c["kind"]), p_max_index=c["p_set"]["max_index"],
        fock=c["fock"], vlasov_dt=vlasov_dt, seed=c["seed"], raw=doc,
    )


def harmonic_trap(lattice: Lattice, strength: float) -> np.ndarray:
    """strength * dist(x, center)^2 summed over axes, with torus distance."""
    x = lattice.sites() - 0.5 * lattice.length
    x -= lattice.length * np.round(x / lattice.length)
    return strength * np.sum(x ** 2, axis=1)


def build_initial_state(cfg: RunConfig) -> DensityMatrix:
    lattice, hbar, n = cfg.lattice, cfg.hbar, cfg.n_particles
    kind = cfg.initial["kind"]
    if kind == "ball":
        return plane_wave_projection(lattice, fermi_ball_indices(lattice, n))
    if kind == "trapped":
        try:
            return trapped_slater(lattice, hbar,
                                  harmonic_trap(lattice, cfg.initial["strength"]), n)
        except DegenerateFermiLevel as exc:
            raise ConfigError(f"initial: {exc}") from exc
    # kernel ansatz with a gaussian bump (diagnostics-only)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            width = cfg.initial["width"] * lattice.length
            chi = np.exp(-harmonic_trap(lattice, 1.0) / (2.0 * width ** 2))
            radius = cfg.initial["fermi_radius"] or np.pi * n / lattice.length * hbar
            dm, _ = kernel_ansatz(chi, radius, lattice, hbar)
            # rescale chi so the trace matches N
            scale = n / np.trace(dm.matrix).real
            dm, _ = kernel_ansatz(chi * scale, radius, lattice, hbar)
    except FloatingPointError as exc:
        raise ConfigError(f"initial.width, initial.fermi_radius and lattice.length "
                          f"give a kernel state outside the float range: {exc}") from exc
    return dm


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
    if mask.sum() < 2:
        return None
    fit = fit_exponential(values[mask], times[mask])
    return {"amplitude": fit.amplitude, "rate": fit.rate, "residual": fit.residual}


def _scenario_evolve(cfg: RunConfig, out):
    omega0 = build_initial_state(cfg)
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    series = semiclassical_series(traj, p_set, cfg.lattice, cfg.hbar)

    snap_idx = [round(t / cfg.evolution.dt) for t in traj.times]
    write_csv(os.path.join(out, "series.csv"), {
        "t": traj.times,
        "trace": [traj.trace[i] for i in snap_idx],
        "energy": [traj.energy[i] for i in snap_idx],
        "idempotency_defect": [traj.idempotency_defect[i] for i in snap_idx],
        "c_phase": series.c_phase,
        "c_momentum": series.c_momentum,
    })
    snap_dir = os.path.join(out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for t, state in zip(traj.times, traj.states):
        write_fmf1(os.path.join(snap_dir, f"omega_t{t:012.6f}.fmf1"),
                   state.matrix, cfg.lattice.ds, cfg.lattice.d)
    e0 = traj.energy[0]
    drift = max(abs(e - e0) for e in traj.energy)
    return {
        "max_idempotency_defect": float(max(traj.idempotency_defect)),
        "max_trace_drift": float(max(abs(tr - traj.trace[0]) for tr in traj.trace)),
        # relative to |E(0)|, or to the drift itself where that is larger (E(0) = 0)
        "max_relative_energy_drift": float(drift / max(abs(e0), drift, 1e-300)),
        "growth_fit_c_phase": _maybe_fit(series.c_phase, series.times),
        "growth_fit_c_momentum": _maybe_fit(series.c_momentum, series.times),
        "p_set_max_index": cfg.p_max_index,
    }


def _scenario_compare(cfg: RunConfig, out):
    omega0 = build_initial_state(cfg)
    times, gaps = compare_hf_hartree(omega0, cfg.evolution, cfg.potential, cfg.hbar)
    write_csv(os.path.join(out, "series.csv"), {"t": times, "trace_norm_gap": gaps})
    return {"final_gap": float(gaps[-1])}


def _fock_lattice(cfg: RunConfig):
    from .fock import FockSpace  # fock loads scipy.sparse, which no other scenario needs

    try:
        space = FockSpace(cfg.fock["l_sites"] or cfg.lattice.d)
    except ValueError as exc:
        raise ConfigError(f"fock.l_sites: {exc}") from exc
    if space.l_sites != cfg.lattice.d or cfg.lattice.ds != 1:
        raise ConfigError("fock.l_sites must equal lattice.d with ds=1")
    return space


def _exact_states(cfg: RunConfig, kind: MeanFieldKind):
    """The Fock space, the mean-field trajectory from omega_0, and the exact
    psi_t = exp(-i H t / hbar) R_{omega_0} vacuum at its snapshot times."""
    from .fock import SectorPropagator, hamiltonian, quasi_free_state

    space = _fock_lattice(cfg)
    omega0 = build_initial_state(cfg)
    psi0 = quasi_free_state(space, omega0)
    prop = SectorPropagator(space, hamiltonian(space, cfg.potential, cfg.hbar,
                                               cfg.n_particles), cfg.hbar)
    traj = evolve(omega0, cfg.evolution, kind, cfg.potential, cfg.hbar)
    return space, traj, (prop(psi0, t) for t in traj.times)


def _scenario_exact_vs_meanfield(cfg: RunConfig, out):
    from .fock import rdm1

    space, traj, psis = _exact_states(cfg, cfg.kind)
    gammas = [rdm1(psi, space) for psi in psis]
    dist = distance_series(gammas, [s.matrix for s in traj.states], times=traj.times)
    write_csv(os.path.join(out, "series.csv"),
              {"t": dist.times, "hs_distance": dist.hs, "trace_distance": dist.tr})
    return {"final_hs_distance": float(dist.hs[-1]),
            "final_trace_distance": float(dist.tr[-1])}


def _scenario_fock_verify(cfg: RunConfig, out):
    from .fock import DENSE_MAX_SITES, car_defect, verify_operator_bounds

    space = _fock_lattice(cfg)
    if space.l_sites > DENSE_MAX_SITES:
        raise ConfigError(f"fock.l_sites: fock-verify builds dense 2^L x 2^L "
                          f"operators, so needs L <= {DENSE_MAX_SITES}, "
                          f"got {space.l_sites}")
    trials = cfg.fock["trials"]
    worst = car_defect(space)
    report = verify_operator_bounds(space, trials, cfg.seed)
    names = [n for n in report if isinstance(report[n], dict)]
    write_csv(os.path.join(out, "series.csv"), {
        "inequality_index": list(range(len(names))),
        "violations": [report[n]["violations"] for n in names],
        "worst_slack": [report[n]["worst_slack"] for n in names],
    })
    violations = int(sum(report[n]["violations"] for n in names))
    if violations or worst > 1e-13:
        raise NumericFailure(
            f"operator-bound violations={violations}, CAR defect={worst:.3e}")
    return {"car_max_deviation": float(worst), "bounds": report,
            "total_violations": violations}


def _scenario_fluctuation(cfg: RunConfig, out):
    from .fock import fluctuation_vector, number_moment

    space, traj, psis = _exact_states(cfg, MeanFieldKind.HARTREE_FOCK)
    order = cfg.fock["moment_order"]
    xis = (fluctuation_vector(space, omega, psi) for omega, psi in zip(traj.states, psis))
    m1, mk = zip(*[(number_moment(xi, 1, space, shift=0.0), number_moment(xi, order, space))
                   for xi in xis])
    write_csv(os.path.join(out, "series.csv"),
              {"t": traj.times, "mean_particle_number": m1,
               f"moment_order_{order}": mk})
    return {"final_mean_particle_number": float(m1[-1]),
            "moment_order": order, "final_moment": float(mk[-1])}


def _scenario_semiclassics(cfg: RunConfig, out):
    from .semiclassics import compare_wigner_vlasov, wigner

    omega0 = build_initial_state(cfg)
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)
    times, gap, gap_norm = compare_wigner_vlasov(traj, cfg.potential, cfg.hbar,
                                                 cfg.vlasov_dt)
    write_csv(os.path.join(out, "series.csv"),
              {"t": times, "l1_gap": gap, "gap_over_hbar_n": gap_norm})
    w0 = wigner(omega0, cfg.lattice, cfg.hbar)
    snap_dir = os.path.join(out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    write_fmf1(os.path.join(snap_dir, "wigner_t0.fmf1"), w0.values,
               cfg.lattice.ds, cfg.lattice.d)
    return {"wigner_weight": w0.weight,
            "wigner_momentum_spacing": float(w0.momenta[1] - w0.momenta[0]),
            "wigner_sum_rule": float(np.sum(w0.values) * w0.weight),
            "final_gap_over_hbar_n": float(gap_norm[-1])}


def _scenario_diagnostics_only(cfg: RunConfig, out):
    omega0 = build_initial_state(cfg)
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    report = semiclassical_constant(omega0, cfg.lattice, cfg.hbar, p_set)
    write_csv(os.path.join(out, "series.csv"), {
        "p_norm": [float(np.linalg.norm(p)) for p in p_set],
        "commutator_trace_norm": report.phase_norms,
    })
    return {"c_phase": report.c_phase, "c_momentum": report.c_momentum,
            "idempotency_defect": omega0.idempotency_defect()}


_SCENARIO_FN = {
    "evolve": _scenario_evolve,
    "compare-hf-hartree": _scenario_compare,
    "exact-vs-meanfield": _scenario_exact_vs_meanfield,
    "fock-verify": _scenario_fock_verify,
    "fluctuation": _scenario_fluctuation,
    "semiclassics": _scenario_semiclassics,
    "diagnostics-only": _scenario_diagnostics_only,
}

_NEEDS_EVOLUTION = {"evolve", "compare-hf-hartree", "exact-vs-meanfield",
                    "fluctuation", "semiclassics"}


def run(cfg: RunConfig, out_dir: str) -> dict:
    """Execute a scenario; deterministic given (config, seed).  An earlier
    run's outputs are removed first; the summary is written last, atomically."""
    if cfg.scenario in _NEEDS_EVOLUTION and cfg.evolution is None:
        raise ConfigError("missing key(s) ['evolution'] in config")
    os.makedirs(out_dir, exist_ok=True)
    for name in ["summary.json", "series.csv"] + glob.glob("snapshots/*.fmf1", root_dir=out_dir):
        if os.path.isfile(path := os.path.join(out_dir, name)):
            os.remove(path)
    t0 = time.monotonic()
    result = _SCENARIO_FN[cfg.scenario](cfg, out_dir)
    wall = time.monotonic() - t0

    manifest = []
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name == "summary.json":
                continue
            path = os.path.join(root, name)
            manifest.append({
                "path": os.path.relpath(path, out_dir),
                "bytes": os.path.getsize(path),
                "sha256": _sha256(path),
            })
    summary = {
        "config": cfg.raw,
        "versions": {"fermiflow": __version__, "numpy": np.__version__},
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
