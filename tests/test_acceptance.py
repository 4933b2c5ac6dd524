"""End-to-end acceptance gate: one test per released guarantee, each printing
a single pass/fail line with the measured quantities."""

import itertools
import json
import os
import time

import numpy as np
import pytest

from fermiflow.diagnostics import (default_probe_momenta, fit_exponential,
                                   semiclassical_constant)
from fermiflow.initial_data import DensityMatrix, trapped_slater
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import (build_potential, default_hbar, kinetic_operator,
                             make_lattice)
from fermiflow.runner import parse_config, run

from _oracles import (dense, embed, fit_double_exponential, generalized_density, letter,
                      rdmk, spectral_form, wick_rdmk)


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
    om0 = trapped_slater(lat, hbar, 50.0, 8)
    cfg = EvolutionConfig(dt=1e-3, t_final=2.0, snapshot_stride=50)
    t0 = time.monotonic()
    snaps = list(evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))
    wall = time.monotonic() - t0
    return lat, hbar, pot, om0, snaps, wall


def test_criterion_01_structure_preservation(big_run, capsys):
    _, _, _, _, snaps, wall = big_run
    first, last = snaps[0], snaps[-1]
    defect = last.max_idempotency_defect
    # every step's |tr - 8| <= |tr - tr_0| + |tr_0 - 8|
    drift = last.max_trace_drift + abs(first.trace - 8.0)
    e_drift = last.max_energy_drift / abs(first.energy)
    ok = defect <= 1e-8 and drift <= 1e-9 and e_drift <= 1e-6 and wall <= 60.0
    report(capsys, 1, "structure preservation",
           ok, f"defect={defect:.2e} trace={drift:.2e} "
               f"energy={e_drift:.2e} wall={wall:.1f}s")


def test_criterion_02_free_flow_exactness(capsys):
    lat = make_lattice(1, 64, 1.0)
    hbar = default_hbar(8, 1)
    v0 = build_potential({"shape": "zero"}, lat)
    om0 = trapped_slater(lat, hbar, 50.0, 8)
    cfg = EvolutionConfig(dt=1e-2, t_final=1.0, snapshot_stride=100)
    final = list(evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar))[-1].state
    h = kinetic_operator(lat, hbar)
    eig, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * eig / hbar)) @ vec.conj().T
    exact = u @ dense(om0) @ u.conj().T
    err = np.linalg.norm(dense(final) - exact, "fro")
    report(capsys, 2, "free flow exactness", err <= 1e-10, f"error={err:.2e}")


def test_criterion_03_single_particle_exchange_cancellation(capsys):
    lat = make_lattice(1, 16, 1.0)
    hbar = default_hbar(1, 1)
    pot = build_potential(gaussian(1.0, 0.2), lat)
    om0 = trapped_slater(lat, hbar, 10.0, 1)

    def final(dt, kind, v):
        """omega at t = 1, the only snapshot kept besides omega_0."""
        cfg = EvolutionConfig(dt=dt, t_final=1.0, snapshot_stride=round(1.0 / dt))
        return dense(list(evolve(om0, cfg, kind, v, hbar))[-1].state)

    # the free flow: either mean-field kind with the zero potential
    free = final(1e-2, MeanFieldKind.HARTREE_FOCK, build_potential({"shape": "zero"}, lat))
    hf = final(2e-5, MeanFieldKind.HARTREE_FOCK, pot)
    hh = final(1e-3, MeanFieldKind.HARTREE, pot)
    hf_err = np.linalg.norm(hf - free, "fro")
    hh_gap = np.linalg.norm(hh - free, "fro")
    ok = hf_err <= 1e-8 and hh_gap >= 1e-4
    report(capsys, 3, "N=1 exchange cancellation",
           ok, f"|HF-free|={hf_err:.2e} |Hartree-free|={hh_gap:.2e}")


def test_criterion_04_car_suite(capsys):
    from fermiflow.fock import FockSpace, car_defect

    space = FockSpace(6)
    # the program's letters a*_x and a_x, their blocks from each sector n (a* raises n by 1)
    c = {(x, create, n): letter(space, x, create, n)
         for x in range(6) for create in (False, True) for n in range(-1, 8)}
    worst = car_defect(space)
    for n in range(7):  # each anticommutator {c_x, d_y} on sector n, from products of blocks
        ident = np.eye(len(space.sector(n)))
        for x, y in itertools.product(range(6), repeat=2):
            for cx, dy in ((False, True), (False, False), (True, True)):
                anti = (c[x, cx, n + 2 * dy - 1] @ c[y, dy, n]
                        + c[y, dy, n + 2 * cx - 1] @ c[x, cx, n])
                expect = ident if (cx, dy) == (False, True) and x == y else 0.0
                worst = max(worst, np.max(np.abs(anti - expect), initial=0.0))
    report(capsys, 4, "canonical anticommutation relations",
           worst <= 1e-13, f"max deviation={worst:.2e}")


def test_criterion_05_bogoliubov_wick_consistency(capsys):
    from fermiflow.fock import FockSpace, quasi_free_state, rdm1

    space = FockSpace(6)
    rng = np.random.default_rng(11)
    worst = {"rdm1": 0.0, "rdm2": 0.0, "projection": 0.0}
    for n in (2, 3):
        a = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        q, _ = np.linalg.qr(a)
        om = DensityMatrix(*spectral_form(q @ q.conj().T)[:2])
        psi = quasi_free_state(space, om)
        worst["rdm1"] = max(worst["rdm1"],
                            np.max(np.abs(rdm1(space, n, psi) - dense(om))))
        psi = embed(space, n, psi)  # the full-space oracles' vector
        worst["rdm2"] = max(worst["rdm2"],
                            np.max(np.abs(rdmk(psi, 2, space)
                                          - wick_rdmk(dense(om), 2))))
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
    violations = int(sum(entry["violations"] for entry in report_dict.values()))
    worst = min(entry["worst_slack"] for entry in report_dict.values())
    report(capsys, 6, "quadratic operator bounds", violations == 0,
           f"violations={violations}/200x{len(report_dict)} worst slack={worst:.2e}")


def test_criterion_07_mean_field_accuracy_order(capsys):
    from fermiflow.fock import FockSpace, propagate, quasi_free_state, rdm1

    lat = make_lattice(1, 8, 4.0)
    hbar = default_hbar(2, 1)
    pot = build_potential(gaussian(1.0, 0.8), lat)
    om0 = trapped_slater(lat, hbar, 2.0, 2)
    space = FockSpace(8)
    psi0 = quasi_free_state(space, om0)
    cfg = EvolutionConfig(dt=1e-4, t_final=0.1, snapshot_stride=100)
    snaps = list(evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))
    times = np.array([s.t for s in snaps])
    psis = propagate(space, pot, 2, psi0, times, hbar)
    hs = np.array([np.linalg.norm(rdm1(space, 2, psi) - dense(s.state))
                   for psi, s in zip(psis, snaps)])
    mask = times >= 0.01 - 1e-12
    slope = np.polyfit(np.log(times[mask]), np.log(hs[mask]), 1)[0]

    v0 = build_potential({"shape": "zero"}, lat)
    cfg0 = EvolutionConfig(dt=1e-2, t_final=2.0, snapshot_stride=20)
    snaps0 = list(evolve(om0, cfg0, MeanFieldKind.HARTREE_FOCK, v0, hbar))
    psis0 = propagate(space, v0, 2, psi0, [s.t for s in snaps0], hbar)
    free_dist = max(np.linalg.norm(rdm1(space, 2, psi) - dense(s.state))
                    for psi, s in zip(psis0, snaps0))
    ok = 1.8 <= slope <= 2.2 and free_dist <= 1e-8
    report(capsys, 7, "mean-field accuracy order", ok,
           f"slope={slope:.3f} free-case distance={free_dist:.2e}")


def test_criterion_08_fluctuation_vacuum_stability(capsys):
    from fermiflow.fock import FockSpace, fluctuation_moments, propagate, quasi_free_state

    lat = make_lattice(1, 8, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(8)
    om0 = trapped_slater(lat, hbar, 10.0, 2)
    psi0 = quasi_free_state(space, om0)
    cfg = EvolutionConfig(dt=0.01, t_final=1.0, snapshot_stride=10)

    def moments(v, k):
        """(<N>, <(N+1)^k>) of xi_t = R*_{omega_t} exp(-iHt/hbar) R_{omega_0} vacuum."""
        snaps = list(evolve(om0, cfg, MeanFieldKind.HARTREE_FOCK, v, hbar))
        times = [s.t for s in snaps]
        psis = propagate(space, v, 2, psi0, times, hbar)
        return np.array(times), np.array([
            fluctuation_moments(space, s.state, psi, k) for psi, s in zip(psis, snaps)]).T

    _, (m1, _) = moments(build_potential({"shape": "zero"}, lat), 1)
    mean_n = float(np.max(m1))
    times, (_, m2) = moments(build_potential(gaussian(0.5, 0.2), lat), 2)
    k, c1, c2, rms = fit_double_exponential(m2, times)
    envelope = k * np.exp(c2 * np.exp(c1 * times))
    excess = float(np.max(np.log(m2 / envelope)))
    ok = mean_n <= 1e-9 and rms < 0.3 and excess < 0.3
    report(capsys, 8, "fluctuation vacuum stability", ok,
           f"free <N>={mean_n:.2e} envelope rms={rms:.3f} max excess={excess:.3f}")


def test_criterion_09_commutator_bound_propagation(big_run, capsys):
    lat, hbar, _, om0, snaps, _ = big_run
    p_set = default_probe_momenta(lat, 4)
    times = np.array([s.t for s in snaps])
    reports = [semiclassical_constant(s.state, lat, hbar, p_set) for s in snaps]
    rep0 = semiclassical_constant(om0, lat, hbar, p_set)
    init_err = max(abs(reports[0].c_phase - rep0.c_phase),
                   abs(reports[0].c_momentum - rep0.c_momentum))
    details, ok = [], init_err <= 1e-10
    for name in ("c_phase", "c_momentum"):
        values = np.array([getattr(rep, name) for rep in reports])
        fit = fit_exponential(values, times)
        envelope = fit["amplitude"] * np.exp(fit["rate"] * times)
        ratio = float(np.max(values / envelope))
        ok = ok and fit["residual"] < 0.2 and ratio <= 3.0
        details.append(f"{name}: resid={fit['residual']:.3f} max/envelope={ratio:.2f}")
    report(capsys, 9, "commutator bound propagation", ok,
           "; ".join(details) + f"; init err={init_err:.2e}")


def test_criterion_10_hartree_vs_hf_gap(tmp_path, capsys):
    # probes the regime N * hbar -> infinity where exchange is subleading,
    # hence the hbar = N^{-1/3} scaling instead of the default N^{-1}
    gaps = {}
    for n in (4, 8, 16):
        doc = {"scenario": "compare-hf-hartree", "lattice": {"ds": 1, "d": 64},
               "model": {"n_particles": n, "hbar": default_hbar(n, 3)},
               "potential": gaussian(1.0, 0.2),
               "initial": {"kind": "trapped", "strength": 50.0},
               "evolution": {"dt": 1e-3, "t_final": 1.0, "snapshot_stride": 1000}}
        gaps[n] = run(parse_config(json.dumps(doc)), str(tmp_path / f"n{n}"))["result"][
            "final_gap"]
    ratio = gaps[16] / gaps[4]
    report(capsys, 10, "Hartree-vs-HF gap stays bounded in N", ratio <= 2.0,
           f"gap(4)={gaps[4]:.3e} gap(16)={gaps[16]:.3e} ratio={ratio:.3f}")


def test_criterion_11_wigner_vlasov_checks(capsys):
    from fermiflow.semiclassics import momentum_grid, vlasov_step, wigner

    # free transport along grid-aligned characteristics is entrywise exact
    lat = make_lattice(1, 16, 1.0)
    q = momentum_grid(lat, 1.0)
    rng = np.random.default_rng(5)
    vals = np.zeros((16, 16))
    vals[:, 12] = rng.random(16)
    v0 = build_potential({"shape": "zero"}, lat)
    out = vlasov_step(vals, 1, lat.spacing / q[12], v0, 1.0, 1)
    expected = np.zeros_like(vals)
    expected[:, 12] = np.roll(vals[:, 12], 2)
    transport_err = float(np.max(np.abs(out - expected)))

    # masses sum(W) / d, with the Wigner quadrature weight 1/d
    lat32 = make_lattice(1, 32, 1.0)
    hbar = default_hbar(4, 1)
    om = trapped_slater(lat32, hbar, 50.0, 4)
    w0 = wigner(om, lat32)
    sum_err = abs(float(np.sum(w0)) / 32 - 4.0)

    pot = build_potential(gaussian(1.0, 0.2), lat32)
    out32 = vlasov_step(w0, 1, 1e-3, pot, hbar, 4)
    mass_err = abs(float(np.sum(out32)) / 32 - float(np.sum(w0)) / 32)

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
