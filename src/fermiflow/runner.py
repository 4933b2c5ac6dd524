"""Run configuration parsing and scenario dispatch for the CLI.

Configs are JSON documents; every key is validated and unknown keys are
rejected.  A run writes `series.csv`, FMF1 snapshots under `snapshots/`,
and finally (atomically) `summary.json` with a manifest of everything
else, so a crash can never leave a summary claiming success.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .diagnostics import fit_exponential, semiclassical_series, distance_series
from .initial_data import (DensityMatrix, default_probe_momenta, fermi_ball_indices,
                           kernel_ansatz, plane_wave_projection, semiclassical_constant,
                           trapped_slater)
from .meanfield import (EvolutionConfig, MeanFieldKind, compare_hf_hartree, evolve)
from .model import Lattice, ModelParams, Potential, build_potential, make_lattice
from .snapshots import write_csv, write_fmf1

__all__ = ["ConfigError", "NumericFailure", "RunConfig", "parse_config", "run"]

SCENARIOS = (
    "evolve",
    "compare-hf-hartree",
    "exact-vs-meanfield",
    "fock-verify",
    "fluctuation",
    "semiclassics",
    "diagnostics-only",
)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


class NumericFailure(RuntimeError):
    """A scenario failed numerically (blow-up, violated invariant)."""


@dataclass
class RunConfig:
    scenario: str
    lattice: Lattice
    params: ModelParams
    potential_spec: dict
    potential: Potential  # built from potential_spec by parse_config
    initial: dict
    evolution: EvolutionConfig = None
    kind: MeanFieldKind = MeanFieldKind.HARTREE_FOCK
    p_max_index: int = 4
    fock: dict = field(default_factory=dict)
    vlasov_dt: float = 1e-3
    seed: int = 0
    raw: dict = field(default_factory=dict)


_TOP_KEYS = {"scenario", "lattice", "model", "potential", "initial",
             "evolution", "kind", "p_set", "fock", "vlasov", "seed"}


def _require(mapping, key, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(key) - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _integer(value, key, lo, hi=None):
    """A config integer in [lo, hi]; hi=None sets no upper bound."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{key} must be an integer {bound}, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require(doc, ["scenario", "lattice", "model"], _TOP_KEYS, "config")

    scenario = doc["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    lat = doc["lattice"]
    _require(lat, ["d"], {"ds", "d", "length"}, "lattice")
    try:
        lattice = make_lattice(lat.get("ds", 1), lat["d"], lat.get("length", 1.0))
    except ValueError as exc:
        raise ConfigError(f"lattice: {exc}") from exc

    mod = doc["model"]
    _require(mod, ["n_particles"], {"n_particles", "hbar"}, "model")
    hbar = mod.get("hbar")
    if hbar is not None and hbar <= 0:
        raise ConfigError("model.hbar must be positive")
    try:
        params = ModelParams(n_particles=int(mod["n_particles"]),
                             ds=lattice.ds, hbar=hbar)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if params.n_particles > lattice.site_count:
        raise ConfigError(f"model.n_particles must not exceed the "
                          f"{lattice.site_count} lattice sites")
    if scenario == "semiclassics" and (lattice.ds != 1 or lattice.d % 2):
        raise ConfigError("semiclassics needs lattice.ds = 1 and an even lattice.d")

    pot = doc.get("potential", {"shape": "zero"})
    _require(pot, ["shape"],
             {"shape", "strength", "sigma", "mode", "samples"}, "potential")
    try:
        potential = build_potential(pot, lattice)
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} in potential") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"potential: {exc}") from exc

    initial = doc.get("initial", {"kind": "ball"})
    _require(initial, ["kind"],
             {"kind", "strength", "fermi_radius", "width"}, "initial")
    if initial["kind"] not in ("ball", "trapped", "kernel"):
        raise ConfigError(f"initial.kind must be ball/trapped/kernel, "
                          f"got {initial['kind']!r}")

    evo = None
    if "evolution" in doc:
        e = doc["evolution"]
        _require(e, ["dt", "t_final"],
                 {"dt", "t_final", "snapshot_stride"}, "evolution")
        for key in ("dt", "t_final"):
            if isinstance(e[key], bool) or not isinstance(e[key], (int, float)):
                raise ConfigError(f"evolution.{key} must be a number, got {e[key]!r}")
        if e["dt"] <= 0:
            raise ConfigError("evolution.dt must be positive")
        try:
            evo = EvolutionConfig(dt=float(e["dt"]), t_final=float(e["t_final"]),
                                  snapshot_stride=int(e.get("snapshot_stride", 1)))
        except ValueError as exc:
            raise ConfigError(f"evolution: {exc}") from exc

    kind_name = doc.get("kind", "hartree_fock")
    try:
        kind = MeanFieldKind(kind_name)
    except ValueError as exc:
        raise ConfigError(f"kind must be one of "
                          f"{[k.value for k in MeanFieldKind]}") from exc

    p_set = doc.get("p_set", {})
    _require(p_set, [], {"max_index"}, "p_set")
    fock = doc.get("fock", {})
    _require(fock, [], {"l_sites", "trials", "moment_order", "times"}, "fock")
    for key, lo, hi in (("l_sites", 1, None), ("trials", 1, None),
                        ("moment_order", 0, 6)):
        if key in fock:
            _integer(fock[key], f"fock.{key}", lo, hi)
    vlasov = doc.get("vlasov", {})
    _require(vlasov, [], {"dt"}, "vlasov")

    return RunConfig(
        scenario=scenario, lattice=lattice, params=params, potential_spec=pot,
        potential=potential, initial=initial, evolution=evo, kind=kind,
        p_max_index=_integer(p_set.get("max_index", 4), "p_set.max_index", 1),
        fock=fock,
        vlasov_dt=float(vlasov.get("dt", 1e-3)), seed=int(doc.get("seed", 0)),
        raw=doc,
    )


def harmonic_trap(lattice: Lattice, strength: float) -> np.ndarray:
    """strength * dist(x, center)^2 summed over axes, with torus distance."""
    x = lattice.sites() - 0.5 * lattice.length
    x -= lattice.length * np.round(x / lattice.length)
    return strength * np.sum(x ** 2, axis=1)


def build_initial_state(cfg: RunConfig, lattice: Lattice = None,
                        params: ModelParams = None) -> DensityMatrix:
    lattice = lattice or cfg.lattice
    params = params or cfg.params
    kind = cfg.initial["kind"]
    n = params.n_particles
    if kind == "ball":
        return plane_wave_projection(lattice, fermi_ball_indices(lattice, n))
    if kind == "trapped":
        trap = harmonic_trap(lattice, float(cfg.initial.get("strength", 50.0)))
        return trapped_slater(lattice, params.hbar, trap, n)
    # kernel ansatz with a gaussian occupation bump
    width = float(cfg.initial.get("width", 0.2)) * lattice.length
    x = lattice.sites() - 0.5 * lattice.length
    x -= lattice.length * np.round(x / lattice.length)
    chi = np.exp(-np.sum(x ** 2, axis=1) / (2.0 * width ** 2))
    radius = float(cfg.initial.get("fermi_radius",
                                   np.pi * n / lattice.length * params.hbar))
    dm, _ = kernel_ansatz(chi, radius, lattice, params.hbar)
    # rescale chi so the trace matches N
    scale = n / np.trace(dm.matrix).real
    dm, _ = kernel_ansatz(chi * scale, radius, lattice, params.hbar)
    dm.n_particles = n
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
    if cfg.evolution is None:
        raise ConfigError("missing key(s) ['evolution'] in config")
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.params, cfg.lattice)
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    series = semiclassical_series(traj, p_set, cfg.params, cfg.lattice)

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
    return {
        "max_idempotency_defect": float(max(traj.idempotency_defect)),
        "max_trace_drift": float(max(abs(tr - traj.trace[0]) for tr in traj.trace)),
        "max_relative_energy_drift": float(
            max(abs(e - e0) for e in traj.energy) / max(abs(e0), 1e-300)),
        "growth_fit_c_phase": _maybe_fit(series.c_phase, series.times),
        "growth_fit_c_momentum": _maybe_fit(series.c_momentum, series.times),
        "p_set_max_index": cfg.p_max_index,
    }


def _scenario_compare(cfg: RunConfig, out):
    omega0 = build_initial_state(cfg)
    times, gaps = compare_hf_hartree(omega0, cfg.evolution, cfg.potential, cfg.params,
                                     cfg.lattice)
    write_csv(os.path.join(out, "series.csv"), {"t": times, "trace_norm_gap": gaps})
    return {"final_gap": float(gaps[-1])}


def _fock_lattice(cfg: RunConfig):
    from .fock import FockSpace

    try:
        space = FockSpace(cfg.fock.get("l_sites", cfg.lattice.d))
    except ValueError as exc:
        raise ConfigError(f"fock.l_sites: {exc}") from exc
    if space.l_sites != cfg.lattice.d or cfg.lattice.ds != 1:
        raise ConfigError("fock.l_sites must equal lattice.d with ds=1")
    return space


def _scenario_exact_vs_meanfield(cfg: RunConfig, out):
    from .fock import SectorPropagator, hamiltonian, quasi_free_state, rdm1

    space = _fock_lattice(cfg)
    omega0 = build_initial_state(cfg)
    psi0 = quasi_free_state(space, omega0)
    h = hamiltonian(space, cfg.potential, cfg.params, cfg.lattice)
    prop = SectorPropagator(space, h, cfg.params.hbar)
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.params, cfg.lattice)
    gammas = [rdm1(prop(psi0, t), space) for t in traj.times]
    dist = distance_series(gammas, traj.states, times=traj.times)
    write_csv(os.path.join(out, "series.csv"),
              {"t": dist.times, "hs_distance": dist.hs, "trace_distance": dist.tr})
    return {"final_hs_distance": float(dist.hs[-1]),
            "final_trace_distance": float(dist.tr[-1])}


def _scenario_fock_verify(cfg: RunConfig, out):
    from .fock import car_defect, verify_operator_bounds

    space = _fock_lattice(cfg)
    trials = cfg.fock.get("trials", 200)
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
    from .fock import FluctuationDynamics, number_moment

    space = _fock_lattice(cfg)
    omega0 = build_initial_state(cfg)
    dyn = FluctuationDynamics(space, omega0, cfg.potential, cfg.params, cfg.lattice,
                              dt=cfg.evolution.dt)
    order = cfg.fock.get("moment_order", 2)
    stride = cfg.evolution.snapshot_stride
    times, m1, mk = [], [], []
    for i in range(0, cfg.evolution.n_steps + 1, stride):
        t = i * cfg.evolution.dt
        xi_t = dyn.evolve(space.vacuum(), t)
        times.append(t)
        m1.append(number_moment(xi_t, 1) - 1.0)
        mk.append(number_moment(xi_t, order))
    write_csv(os.path.join(out, "series.csv"),
              {"t": times, "mean_particle_number": m1,
               f"moment_order_{order}": mk})
    return {"final_mean_particle_number": float(m1[-1]),
            "moment_order": order, "final_moment": float(mk[-1])}


def _scenario_semiclassics(cfg: RunConfig, out):
    from .semiclassics import compare_wigner_vlasov, wigner

    omega0 = build_initial_state(cfg)
    traj = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.params, cfg.lattice)
    times, gap, gap_norm = compare_wigner_vlasov(traj, cfg.potential, cfg.params,
                                                 cfg.lattice, cfg.vlasov_dt)
    write_csv(os.path.join(out, "series.csv"),
              {"t": times, "l1_gap": gap, "gap_over_hbar_n": gap_norm})
    w0 = wigner(omega0, cfg.lattice, cfg.params.hbar)
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
    report = semiclassical_constant(omega0, cfg.lattice, cfg.params.hbar, p_set)
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
    """Execute a scenario; deterministic given (config, seed).  The summary
    is written last, atomically."""
    if cfg.scenario in _NEEDS_EVOLUTION and cfg.evolution is None:
        raise ConfigError("missing key(s) ['evolution'] in config")
    os.makedirs(out_dir, exist_ok=True)
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
