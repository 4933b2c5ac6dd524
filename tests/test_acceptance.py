"""End-to-end acceptance gate: one test per released guarantee, each printing
a single pass/fail line with the measured quantities."""

import json
import os
import time

import numpy as np
import pytest

from fermiflow.diagnostics import (default_probe_momenta, distance_series,
                                   fit_double_exponential, fit_exponential,
                                   semiclassical_constant, semiclassical_series,
                                   spectral_form)
from fermiflow.initial_data import DensityMatrix, trapped_slater
from fermiflow.meanfield import (EvolutionConfig, MeanFieldKind,
                                 compare_hf_hartree, evolve)
from fermiflow.model import (build_potential, default_hbar, kinetic_operator,
                             make_lattice)
from fermiflow.runner import harmonic_trap, parse_config, run


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def gaussian(strength, sigma):
    return {"shape": "gaussian", "strength": strength, "sigma": sigma}


@pytest.fixture(scope="module")
def big_run():
    """Shared d=64, N=8 interacting run used by several criteria."""
    lat = make_lattice(1, 64, 1.0)
    hbar = default_hbar(8, 1)
    pot = build_potential(gaussian(1.0, 0.2), lat)
    om0 = trapped_slater(lat, hbar, harmonic_trap(lat, 50.0), 8)
    cfg = EvolutionConfig(dt=1e-3, t_final=2.0, snapshot_stride=50)
    t0 = time.monotonic()
    traj = evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    wall = time.monotonic() - t0
    return lat, hbar, pot, om0, traj, wall


def test_criterion_01_structure_preservation(big_run, capsys):
    _, _, _, _, traj, wall = big_run
    defect = max(traj.idempotency_defect)
    drift = max(abs(tr - 8.0) for tr in traj.trace)
    e0 = traj.energy[0]
    e_drift = max(abs(e - e0) for e in traj.energy) / abs(e0)
    ok = defect <= 1e-8 and drift <= 1e-9 and e_drift <= 1e-6 and wall <= 60.0
    report(capsys, 1, "structure preservation",
           ok, f"defect={defect:.2e} trace={drift:.2e} "
               f"energy={e_drift:.2e} wall={wall:.1f}s")


def test_criterion_02_free_flow_exactness(capsys):
    lat = make_lattice(1, 64, 1.0)
    hbar = default_hbar(8, 1)
    v0 = build_potential({"shape": "zero"}, lat)
    om0 = trapped_slater(lat, hbar, harmonic_trap(lat, 50.0), 8)
    cfg = EvolutionConfig(dt=1e-2, t_final=1.0, snapshot_stride=100)
    traj = evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar)
    h = kinetic_operator(lat, hbar)
    eig, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * eig / hbar)) @ vec.conj().T
    exact = u @ om0.matrix @ u.conj().T
    err = np.linalg.norm(traj.states[-1].matrix - exact, "fro")
    report(capsys, 2, "free flow exactness", err <= 1e-10, f"error={err:.2e}")


def test_criterion_03_single_particle_exchange_cancellation(capsys):
    lat = make_lattice(1, 16, 1.0)
    hbar = default_hbar(1, 1)
    pot = build_potential(gaussian(1.0, 0.2), lat)
    om0 = trapped_slater(lat, hbar, harmonic_trap(lat, 10.0), 1)
    # the free flow: either mean-field kind with the zero potential
    free = evolve(om0, EvolutionConfig(dt=1e-2, t_final=1.0, snapshot_stride=100),
                  MeanFieldKind.HARTREE_FOCK, build_potential({"shape": "zero"}, lat), hbar)
    hf = evolve(om0, EvolutionConfig(dt=2e-5, t_final=1.0, snapshot_stride=50000),
                MeanFieldKind.HARTREE_FOCK, pot, hbar)
    hh = evolve(om0, EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000),
                MeanFieldKind.HARTREE, pot, hbar)
    hf_err = np.linalg.norm(hf.states[-1].matrix - free.states[-1].matrix, "fro")
    hh_gap = np.linalg.norm(hh.states[-1].matrix - free.states[-1].matrix, "fro")
    ok = hf_err <= 1e-8 and hh_gap >= 1e-4
    report(capsys, 3, "N=1 exchange cancellation",
           ok, f"|HF-free|={hf_err:.2e} |Hartree-free|={hh_gap:.2e}")


def test_criterion_04_car_suite(capsys):
    from fermiflow.fock import FockSpace, field_operator

    space = FockSpace(6)
    ident = np.eye(space.dim)
    e = np.eye(6)
    ops = {(x, k): field_operator(space, e[x], k == "create").toarray()
           for x in range(6) for k in ("create", "annihilate")}
    worst = 0.0
    for x in range(6):
        for y in range(6):
            ax, ay = ops[(x, "annihilate")], ops[(y, "annihilate")]
            cx, cy = ops[(x, "create")], ops[(y, "create")]
            expect = ident if x == y else 0.0
            worst = max(worst, np.max(np.abs(ax @ cy + cy @ ax - expect)))
            worst = max(worst, np.max(np.abs(ax @ ay + ay @ ax)))
            worst = max(worst, np.max(np.abs(cx @ cy + cy @ cx)))
    report(capsys, 4, "canonical anticommutation relations",
           worst <= 1e-13, f"max deviation={worst:.2e}")


def test_criterion_05_bogoliubov_wick_consistency(capsys):
    from fermiflow.fock import (FockSpace, generalized_density, quasi_free_state,
                                rdm1, rdmk, wick_rdmk)

    space = FockSpace(6)
    rng = np.random.default_rng(11)
    worst = {"rdm1": 0.0, "rdm2": 0.0, "projection": 0.0}
    for n in (2, 3):
        a = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        q, _ = np.linalg.qr(a)
        om = DensityMatrix(*spectral_form(q @ q.conj().T)[:2])
        psi = quasi_free_state(space, om)
        worst["rdm1"] = max(worst["rdm1"],
                            np.max(np.abs(rdm1(psi, space) - om.matrix)))
        worst["rdm2"] = max(worst["rdm2"],
                            np.max(np.abs(rdmk(psi, 2, space)
                                          - wick_rdmk(om.matrix, 2))))
        g = generalized_density(psi, space)
        worst["projection"] = max(worst["projection"],
                                  np.max(np.abs(g @ g - g)))
    ok = all(v <= 1e-10 for v in worst.values())
    report(capsys, 5, "Bogoliubov/Wick consistency", ok,
           f"rdm1={worst['rdm1']:.2e} rdm2={worst['rdm2']:.2e} "
           f"projection={worst['projection']:.2e}")


def test_criterion_06_operator_bound_inequalities(capsys):
    from fermiflow.fock import FockSpace, verify_operator_bounds

    report_dict = verify_operator_bounds(FockSpace(6), 200, seed=0)
    names = [n for n in report_dict if isinstance(report_dict[n], dict)]
    violations = int(sum(report_dict[n]["violations"] for n in names))
    worst = min(report_dict[n]["worst_slack"] for n in names)
    report(capsys, 6, "quadratic operator bounds", violations == 0,
           f"violations={violations}/200x{len(names)} worst slack={worst:.2e}")


def test_criterion_07_mean_field_accuracy_order(capsys):
    from fermiflow.fock import (FockSpace, SectorPropagator, hamiltonian,
                                quasi_free_state, rdm1)

    lat = make_lattice(1, 8, 4.0)
    hbar = default_hbar(2, 1)
    pot = build_potential(gaussian(1.0, 0.8), lat)
    om0 = trapped_slater(lat, hbar, harmonic_trap(lat, 2.0), 2)
    space = FockSpace(8)
    psi0 = quasi_free_state(space, om0)
    prop = SectorPropagator(space, hamiltonian(space, pot, hbar, 2), hbar)
    cfg = EvolutionConfig(dt=1e-4, t_final=0.1, snapshot_stride=100)
    traj = evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    gammas = [rdm1(prop(psi0, t), space) for t in traj.times]
    dist = distance_series(gammas, [s.matrix for s in traj.states], times=traj.times)
    mask = dist.times >= 0.01 - 1e-12
    slope = np.polyfit(np.log(dist.times[mask]), np.log(dist.hs[mask]), 1)[0]

    v0 = build_potential({"shape": "zero"}, lat)
    cfg0 = EvolutionConfig(dt=1e-2, t_final=2.0, snapshot_stride=20)
    traj0 = evolve(om0, cfg0, MeanFieldKind.HARTREE_FOCK, v0, hbar)
    prop0 = SectorPropagator(space, hamiltonian(space, v0, hbar, 2), hbar)
    gam0 = [rdm1(prop0(psi0, t), space) for t in traj0.times]
    free_dist = np.max(distance_series(gam0, [s.matrix for s in traj0.states]).hs)
    ok = 1.8 <= slope <= 2.2 and free_dist <= 1e-8
    report(capsys, 7, "mean-field accuracy order", ok,
           f"slope={slope:.3f} free-case distance={free_dist:.2e}")


def test_criterion_08_fluctuation_vacuum_stability(capsys):
    from fermiflow.fock import (FockSpace, SectorPropagator, fluctuation_vector,
                                hamiltonian, number_moment, quasi_free_state)

    lat = make_lattice(1, 8, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(8)
    om0 = trapped_slater(lat, hbar, harmonic_trap(lat, 10.0), 2)
    psi0 = quasi_free_state(space, om0)
    cfg = EvolutionConfig(dt=0.01, t_final=1.0, snapshot_stride=10)

    def moments(v, k):
        """<(N+1)^k> of xi_t = R*_{omega_t} exp(-iHt/hbar) R_{omega_0} vacuum."""
        traj = evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, v, hbar)
        prop = SectorPropagator(space, hamiltonian(space, v, hbar, 2), hbar)
        return np.array(traj.times), np.array([
            number_moment(fluctuation_vector(space, om, prop(psi0, t)), k, space)
            for t, om in zip(traj.times, traj.states)])

    _, m1 = moments(build_potential({"shape": "zero"}, lat), 1)
    mean_n = float(np.max(m1 - 1.0))
    times, m2 = moments(build_potential(gaussian(0.5, 0.2), lat), 2)
    k, c1, c2, rms = fit_double_exponential(m2, times)
    envelope = k * np.exp(c2 * np.exp(c1 * times))
    excess = float(np.max(np.log(m2 / envelope)))
    ok = mean_n <= 1e-9 and rms < 0.3 and excess < 0.3
    report(capsys, 8, "fluctuation vacuum stability", ok,
           f"free <N>={mean_n:.2e} envelope rms={rms:.3f} max excess={excess:.3f}")


def test_criterion_09_commutator_bound_propagation(big_run, capsys):
    lat, hbar, _, om0, traj, _ = big_run
    p_set = default_probe_momenta(lat, 4)
    series = semiclassical_series(traj, p_set, lat, hbar)
    rep0 = semiclassical_constant(om0, lat, hbar, p_set)
    init_err = max(abs(series.c_phase[0] - rep0.c_phase),
                   abs(series.c_momentum[0] - rep0.c_momentum))
    details, ok = [], init_err <= 1e-10
    for name, values in (("c_phase", series.c_phase),
                         ("c_momentum", series.c_momentum)):
        fit = fit_exponential(values, series.times)
        envelope = fit.amplitude * np.exp(fit.rate * series.times)
        ratio = float(np.max(values / envelope))
        ok = ok and fit.residual < 0.2 and ratio <= 3.0
        details.append(f"{name}: resid={fit.residual:.3f} max/envelope={ratio:.2f}")
    report(capsys, 9, "commutator bound propagation", ok,
           "; ".join(details) + f"; init err={init_err:.2e}")


def test_criterion_10_hartree_vs_hf_gap(capsys):
    # probes the regime N * hbar -> infinity where exchange is subleading,
    # hence the hbar = N^{-1/3} scaling instead of the default N^{-1}
    gaps = {}
    for n in (4, 8, 16):
        lat = make_lattice(1, 64, 1.0)
        hbar = default_hbar(n, 3)
        pot = build_potential(gaussian(1.0, 0.2), lat)
        om0 = trapped_slater(lat, hbar, harmonic_trap(lat, 50.0), n)
        cfg = EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000)
        _, gap = compare_hf_hartree(om0, cfg, pot, hbar)
        gaps[n] = float(gap[-1])
    ratio = gaps[16] / gaps[4]
    report(capsys, 10, "Hartree-vs-HF gap stays bounded in N", ratio <= 2.0,
           f"gap(4)={gaps[4]:.3e} gap(16)={gaps[16]:.3e} ratio={ratio:.3f}")


def test_criterion_11_wigner_vlasov_checks(capsys):
    from fermiflow.semiclassics import (PhaseSpaceDensity, momentum_grid,
                                        vlasov_step, wigner)

    # free transport along grid-aligned characteristics is entrywise exact
    lat = make_lattice(1, 16, 1.0)
    q = momentum_grid(lat, 1.0)
    rng = np.random.default_rng(5)
    vals = np.zeros((16, 16))
    vals[:, 12] = rng.random(16)
    w = PhaseSpaceDensity(values=vals, momenta=q, weight=1.0 / 16)
    v0 = build_potential({"shape": "zero"}, lat)
    out = vlasov_step(w, lat.spacing / q[12], v0, 1)
    expected = np.zeros_like(vals)
    expected[:, 12] = np.roll(vals[:, 12], 2)
    transport_err = float(np.max(np.abs(out.values - expected)))

    lat32 = make_lattice(1, 32, 1.0)
    hbar = default_hbar(4, 1)
    om = trapped_slater(lat32, hbar, harmonic_trap(lat32, 50.0), 4)
    w0 = wigner(om, lat32, hbar)
    sum_err = abs(float(np.sum(w0.values)) * w0.weight - 4.0)

    pot = build_potential(gaussian(1.0, 0.2), lat32)
    out32 = vlasov_step(w0, 1e-3, pot, 4)
    mass_err = abs(out32.mass - w0.mass)

    ok = transport_err <= 1e-12 and sum_err <= 1e-8 and mass_err <= 1e-10
    report(capsys, 11, "Wigner/Vlasov invariants", ok,
           f"transport={transport_err:.2e} sum rule={sum_err:.2e} "
           f"mass drift={mass_err:.2e}")


def test_criterion_12_determinism(tmp_path, capsys):
    docs = {
        "evolve": {
            "scenario": "evolve",
            "lattice": {"ds": 1, "d": 8, "length": 1.0},
            "model": {"n_particles": 2},
            "potential": gaussian(1.0, 0.2),
            "initial": {"kind": "trapped", "strength": 10.0},
            "evolution": {"dt": 1e-2, "t_final": 0.1, "snapshot_stride": 5},
            "seed": 7,
        },
        "fock-verify": {
            "scenario": "fock-verify",
            "lattice": {"ds": 1, "d": 4},
            "model": {"n_particles": 2},
            "fock": {"l_sites": 4, "trials": 20},
            "seed": 3,
        },
    }
    identical = True
    for name, doc in docs.items():
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            run(parse_config(json.dumps(doc)), str(out))
            with open(out / "series.csv", "rb") as fh:
                payloads.append(fh.read())
        identical = identical and payloads[0] == payloads[1]
    report(capsys, 12, "bit-identical reruns", identical,
           f"{len(docs)} scenarios compared byte-for-byte")
