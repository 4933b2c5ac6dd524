"""Run configuration parsing and scenario dispatch for the CLI.

Configs are JSON documents.  The tables below list every key once, with
its type, default and bound, and one reader, `_read`, applies them: unknown
and missing keys are named, and every value is checked before it is used.
`parse_config` makes every refusal of a config and builds the potential and
the initial state, so a bad config is refused before `run` touches `--out`.
A scenario is a generator of the config: it yields one series row and its
snapshot arrays at a time and returns its summary result.  `run` removes an
earlier run's outputs, appends each row to `series.csv` and writes each FMF1
snapshot under `snapshots/` as it arrives, and finally (atomically)
`summary.json` with the environment that produced the run and a manifest
of the files it wrote (size and SHA-256), so a failed run keeps the rows it
measured and never leaves a summary claiming success.
"""

import contextlib
import glob
import itertools
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from math import comb

import numpy as np

from . import __version__
from .diagnostics import (default_probe_momenta, fit_exponential, semiclassical_constant,
                          trace_distance, trace_norm)
from .initial_data import (DegenerateFermiLevel, DensityMatrix, fermi_ball_indices,
                           plane_wave_projection, trapped_slater)
from .meanfield import EvolutionConfig, MeanFieldKind, evolve
from .model import (FOCK_MAX_SITES, Lattice, Potential, build_potential, default_hbar,
                    make_lattice)
from .snapshots import write_csv, write_fmf1

try:  # CPython's built-in SHA-256, as `random` takes its hash: hashlib would map OpenSSL
    from _sha2 import sha256 as _new_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _new_sha256

__all__ = ["ConfigError", "NumericFailure", "RunConfig", "parse_config", "run"]

SCENARIOS = ("evolve", "compare-hf-hartree", "exact-vs-meanfield", "fock-verify",
             "fluctuation", "semiclassics", "diagnostics-only")
_MAX_STEPS = 10 ** 7  # integrator steps one run may ask for, Vlasov sub-steps included
_MAX_SITES = 8192  # M: one dense complex M x M matrix is then at most 1 GiB
# fock-verify: trials x `_fock_trial_work`, ~8 min of SVDs at the 1.8-2.2e9 per second one
# trial measured (1.7 s at L = 12, 78 s at L = 14; 2 vCPUs, OpenBLAS).  The default 200
# trials fit at every L <= 12 (6.2e11) and not at L = 13 (4.6e12) or 14 (3.5e13)
_MAX_FOCK_WORK = 10 ** 12


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
        if not (c["fock"]["l_sites"] or lattice.site_count) == lattice.site_count <= FOCK_MAX_SITES:
            raise ConfigError(f"fock.l_sites must equal d^ds = {lattice.site_count} (lattice.d="
                              f"{lattice.d}, lattice.ds={lattice.ds}), at most {FOCK_MAX_SITES}")
    if scenario == "fock-verify":
        per_trial, trials = _fock_trial_work(lattice.site_count), c["fock"]["trials"]
        if trials > _MAX_FOCK_WORK // per_trial:
            raise ConfigError(f"fock.trials={trials} at L = {lattice.site_count} sites is past "
                              f"the fock-verify work bound ({_MAX_FOCK_WORK:.0e}, trials x "
                              f"{per_trial:.3g} per trial): at most "
                              f"{_MAX_FOCK_WORK // per_trial} trials are accepted")
    try:
        potential = build_potential(c["potential"], lattice)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from exc
    except OverflowError as exc:  # the one unbounded int read as a float
        raise ConfigError(f"potential.mode: {exc}") from exc

    evo, vlasov_dt = c["evolution"], c["vlasov"]["dt"]
    if scenario in ("fock-verify", "diagnostics-only"):  # type-checked by _read, never read
        evo = None
    elif evo is None:
        raise ConfigError("missing key(s) ['evolution'] in config")
    else:
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


def _fock_trial_work(l_sites: int) -> int:
    """One `verify_operator_bounds` trial's work on L sites, as the summed min x rows x cols
    of the blocks whose norm it takes by a dense SVD: the dGamma block C(L, n) x C(L, n) of
    each sector n and the pair creation block C(L, n + 2) x C(L, n)."""
    blocks = [(comb(l_sites, n), comb(l_sites, n + m)) for n in range(l_sites + 1)
              for m in (0, 2)]
    return sum(min(rows, cols) * rows * cols for rows, cols in blocks)


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
    """The hex SHA-256 of a file, read in 64 KiB chunks."""
    h = _new_sha256()
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
    omega0, dt = cfg.initial_state, cfg.evolution.dt
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    times, c_phase, c_momentum = [], [], []
    for snap in evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar):
        rep = semiclassical_constant(snap.state, cfg.lattice, cfg.hbar, p_set)
        times.append(snap.t)
        c_phase.append(rep.c_phase)
        c_momentum.append(rep.c_momentum)
        arrays = {f"orbitals_step{round(snap.t / dt):08d}": snap.state.orbitals}
        if snap.t == 0:  # omega = Phi diag(lam) Phi*, lam fixed by the flow
            e0, arrays["occupations"] = snap.energy, omega0.occupations
        yield {"t": snap.t, "trace": snap.trace, "energy": snap.energy,
               "idempotency_defect": snap.idempotency_defect,
               "c_phase": rep.c_phase, "c_momentum": rep.c_momentum}, arrays
    drift = snap.max_energy_drift
    return {
        "max_idempotency_defect": float(snap.max_idempotency_defect),
        "max_trace_drift": float(snap.max_trace_drift),
        # relative to |E(0)|, or to the drift itself where that is larger (E(0) = 0)
        "max_relative_energy_drift": float(drift / max(abs(e0), drift, 1e-300)),
        "growth_fit_c_phase": _maybe_fit(c_phase, times),
        "growth_fit_c_momentum": _maybe_fit(c_momentum, times),
        "p_set_max_index": cfg.p_max_index,
    }


def _scenario_compare(cfg: RunConfig):
    """tr|omega_HF(t) - omega_H(t)| from shared initial data, read from the orbitals.
    Hartree-Fock runs the midpoint rule and Hartree the split step, so the gap also holds
    their O(dt^2) scheme difference: at ds=1, d=64, N=8, dt=1e-3, t=0.5 the HF error is
    1.1e-4 and the Hartree error 1.0e-6."""
    omega0 = cfg.initial_state
    flows = (evolve(omega0, cfg.evolution, kind, cfg.potential, cfg.hbar)
             for kind in (MeanFieldKind.HARTREE_FOCK, MeanFieldKind.HARTREE))
    for hf, hh in zip(*flows):
        gap = trace_distance(hf.state.orbitals, hh.state.orbitals, omega0.occupations)
        yield {"t": hf.t, "trace_norm_gap": gap}, {}
    return {"final_gap": float(gap)}


def _exact_states(cfg: RunConfig):
    """The Fock space, the mean-field snapshots of `cfg.kind` from omega_0, and the exact
    psi_t = exp(-i H t / hbar) R_{omega_0} vacuum at their times, stepped from one to the
    next by `fock.propagate`, which reads each time as its snapshot arrives."""
    from .fock import FockSpace, propagate, quasi_free_state

    space, omega0 = FockSpace(cfg.lattice.site_count), cfg.initial_state
    psi0 = quasi_free_state(space, omega0)
    flow, times = itertools.tee(evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar))
    return space, flow, propagate(space, cfg.potential, cfg.n_particles, psi0,
                                  (snap.t for snap in times), cfg.hbar)


def _scenario_exact_vs_meanfield(cfg: RunConfig):
    from .fock import rdm1

    space, flow, psis = _exact_states(cfg)
    for snap in flow:
        s = snap.state
        with _at_snapshot(snap.t):  # x holds the only dense omega, L <= 14 sites
            x = (rdm1(space, cfg.n_particles, next(psis))
                 - (s.orbitals * s.occupations) @ s.orbitals.conj().T)
            hs, tr = float(np.linalg.norm(x, "fro")), trace_norm(x)
        yield {"t": snap.t, "hs_distance": hs, "trace_distance": tr}, {}
    return {"final_hs_distance": hs, "final_trace_distance": tr}


def _scenario_fock_verify(cfg: RunConfig):
    """The seven tallies, one row each, written before a violation or CAR defect fails."""
    from .fock import FockSpace, car_defect, verify_operator_bounds

    space = FockSpace(cfg.lattice.site_count)
    worst = car_defect(space)
    report = verify_operator_bounds(space, cfg.fock["trials"], cfg.seed)
    for i, entry in enumerate(report.values()):
        yield {"inequality_index": i, "violations": entry["violations"],
               "worst_slack": entry["worst_slack"]}, {}
    violations = int(sum(entry["violations"] for entry in report.values()))
    if violations or worst > 1e-13:
        raise NumericFailure(
            f"operator-bound violations={violations}, CAR defect={worst:.3e}")
    bounds = {**report, "trials": cfg.fock["trials"], "seed": cfg.seed}
    return {"car_max_deviation": float(worst), "bounds": bounds, "total_violations": violations}


def _scenario_fluctuation(cfg: RunConfig):
    from .fock import fluctuation_moments

    space, flow, psis = _exact_states(cfg)
    order = cfg.fock["moment_order"]
    for snap in flow:
        with _at_snapshot(snap.t):
            m1, mk = fluctuation_moments(space, snap.state, next(psis), order)
        yield {"t": snap.t, "mean_particle_number": m1, f"moment_order_{order}": mk}, {}
    return {"final_mean_particle_number": float(m1), "moment_order": order,
            "final_moment": float(mk)}


def _scenario_semiclassics(cfg: RunConfig):
    from .semiclassics import momentum_grid, vlasov_step, wigner

    omega0 = cfg.initial_state
    flow = evolve(omega0, cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)
    n, weight = omega0.n_particles, 1.0 / cfg.lattice.d  # the Wigner quadrature weight
    w0 = classical = wigner(omega0, cfg.lattice)
    t_prev, gap = next(flow).t, 0.0  # both sides start from w0
    yield {"t": t_prev, "l1_gap": gap, "gap_over_hbar_n": gap}, {"wigner_t0": w0}
    for snap in flow:
        n_steps = round((snap.t - t_prev) / cfg.vlasov_dt)  # whole, checked by parse_config
        with _at_snapshot(snap.t):
            classical = vlasov_step(classical, n_steps, cfg.vlasov_dt, cfg.potential, cfg.hbar, n)
            gap = float(np.sum(np.abs(wigner(snap.state, cfg.lattice) - classical)) * weight)
        t_prev = snap.t
        yield {"t": snap.t, "l1_gap": gap, "gap_over_hbar_n": gap / (cfg.hbar * n)}, {}
    q = momentum_grid(cfg.lattice, cfg.hbar)
    return {"wigner_weight": weight,
            "wigner_momentum_spacing": float(q[1] - q[0]),
            "wigner_sum_rule": float(np.sum(w0) * weight),
            "final_gap_over_hbar_n": gap / (cfg.hbar * n)}


def _scenario_diagnostics_only(cfg: RunConfig):
    omega0 = cfg.initial_state
    p_set = default_probe_momenta(cfg.lattice, cfg.p_max_index)
    report = semiclassical_constant(omega0, cfg.lattice, cfg.hbar, p_set)
    for p, norm in zip(p_set, report.phase_norms):
        yield {"p_norm": float(np.linalg.norm(p)), "commutator_trace_norm": norm}, {}
    return {"c_phase": report.c_phase, "c_momentum": report.c_momentum,
            "idempotency_defect": omega0.idempotency_defect()}


# generators of the config alone: each yields one (series.csv row, {snapshot name: array})
# per row, which `run` writes as it arrives, and returns the summary result
_SCENARIO_FN = {
    "evolve": _scenario_evolve,
    "compare-hf-hartree": _scenario_compare,
    "exact-vs-meanfield": _scenario_exact_vs_meanfield,
    "fock-verify": _scenario_fock_verify,
    "fluctuation": _scenario_fluctuation,
    "semiclassics": _scenario_semiclassics,
    "diagnostics-only": _scenario_diagnostics_only,
}


def _measured(cfg: RunConfig):
    """The scenario's rows, then its result; its arithmetic, value or runtime error, the one
    of its first call included, re-raised as `NumericFailure`.  Writing a row stays outside."""
    try:
        return (yield from _SCENARIO_FN[cfg.scenario](cfg))
    except (ConfigError, NumericFailure):
        raise
    except (ArithmeticError, ValueError, RuntimeError) as exc:  # LinAlgError is a ValueError
        raise NumericFailure(f"{cfg.scenario}: {exc}") from exc


def run(cfg: RunConfig, out_dir: str) -> dict:
    """Execute a scenario and write its outputs, deterministic given (config, seed): an
    earlier run's outputs are removed first, each row and snapshot written as it arrives, the
    summary last; a scenario's arithmetic, value or runtime error is a `NumericFailure`."""
    os.makedirs(out_dir, exist_ok=True)
    for name in (["summary.json", "summary.json.tmp", "series.csv"]
                 + glob.glob("snapshots/*.fmf1", root_dir=out_dir)):
        if os.path.isfile(path := os.path.join(out_dir, name)):
            os.remove(path)
    t0 = time.monotonic()
    written, rows = ["series.csv"], _measured(cfg)
    try:
        while True:
            row, arrays = next(rows)
            write_csv(os.path.join(out_dir, "series.csv"), row)
            for name, array in arrays.items():
                os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)
                written.append(f"snapshots/{name}.fmf1")
                write_fmf1(os.path.join(out_dir, written[-1]), array, cfg.lattice.ds,
                           cfg.lattice.d)
    except StopIteration as stop:
        result = stop.value
    wall = time.monotonic() - t0

    manifest = [{"path": rel, "bytes": os.path.getsize(path := os.path.join(out_dir, rel)),
                 "sha256": _sha256(path)} for rel in written]
    try:  # numpy < 1.25's show_config takes no mode, and a build may record no BLAS
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    summary = {
        "config": cfg.raw,
        "environment": {  # what produced the run
            "fermiflow": __version__, "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
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
