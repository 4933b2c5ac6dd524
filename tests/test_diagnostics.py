"""Norms, commutator series, growth fits, distances."""

import numpy as np
import pytest

from fermiflow.diagnostics import (_hermitian_trace_norm, commutator_momentum,
                                   commutator_phase, distance_series,
                                   fit_double_exponential, fit_exponential, hs_norm,
                                   semiclassical_series, trace_norm)
from fermiflow.initial_data import (default_probe_momenta, fermi_ball_indices,
                                    kernel_ansatz, plane_wave_projection,
                                    semiclassical_constant, trapped_slater)
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import (ModelParams, build_potential, make_lattice,
                             momentum_operator, phase_operator)


def test_trace_norm_examples():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(0)
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert trace_norm(np.outer(u, v.conj())) == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    oracle = np.sum(np.sqrt(np.linalg.eigvalsh(a.conj().T @ a).clip(min=0)))
    assert trace_norm(a) == pytest.approx(oracle, rel=1e-10)


def test_trace_norm_rejects_non_finite():
    with pytest.raises(ValueError):
        trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hs_norm_examples():
    assert hs_norm(np.eye(4)) == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert hs_norm(a) <= trace_norm(a) + 1e-12
    lat = make_lattice(1, 16, 1.0)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 5))
    assert hs_norm(om.matrix) ** 2 == pytest.approx(5.0, abs=1e-10)


def test_semiclassical_series_free_ball():
    lat = make_lattice(1, 16, 1.0)
    params = ModelParams(n_particles=3, ds=1)
    v0 = build_potential({"shape": "zero"}, lat)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, snapshot_stride=2)
    traj = evolve(om, cfg, MeanFieldKind.FREE, v0, params, lat)
    p_set = lat.momenta()[np.any(lat.momentum_indices() != 0, axis=1)][:6]
    series = semiclassical_series(traj, p_set, params, lat)
    assert np.max(series.c_momentum) < 1e-10
    rep = semiclassical_constant(om, lat, params.hbar, p_set)
    assert series.c_phase[0] == pytest.approx(rep.c_phase, abs=1e-12)
    assert series.c_momentum[0] == pytest.approx(rep.c_momentum, abs=1e-12)


def _dense_phase(m, r, lat):
    e = phase_operator(lat, r)
    return trace_norm(e @ m - m @ e)


def _dense_momentum(m, hbar, lat):
    gs = [momentum_operator(lat, hbar, ax) for ax in range(lat.ds)]
    return sum(trace_norm(g @ m - m @ g) for g in gs)


@pytest.mark.parametrize("ds,d", [(1, 16), (2, 6), (3, 4)])
def test_commutators_match_dense_oracles(ds, d):
    # the eigvalsh kernels against the dense products [A, omega] and their SVD
    lat = make_lattice(ds, d, 1.0)
    rng = np.random.default_rng(ds)
    hbar = 0.3
    params = ModelParams(n_particles=3, ds=ds, hbar=hbar)
    slater = trapped_slater(lat, hbar, 100.0 * rng.random(lat.site_count), 3)
    chi = 0.5 + rng.random(lat.site_count)
    kernel, defect = kernel_ansatz(chi, 2.0, lat, hbar)
    assert defect > 1e-3  # not a projection
    shape = (lat.site_count,) * 2
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    probes = [lat.momenta()[1], 7.3 * rng.normal(size=ds)]  # on and off the grid
    for m in (slater.matrix, kernel.matrix, x + x.conj().T):
        for r in probes:
            val = commutator_phase(m, r, lat)
            assert val == pytest.approx(_dense_phase(m, r, lat), rel=1e-10)
            assert commutator_phase(m, -r, lat) == pytest.approx(val, rel=1e-10)
        assert commutator_momentum(m, params, lat) == pytest.approx(
            _dense_momentum(m, hbar, lat), rel=1e-10)


def test_semiclassical_constant_pairs_probes_and_series_reuses_it():
    lat = make_lattice(2, 6, 1.0)
    params = ModelParams(n_particles=3, ds=2)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    rng = np.random.default_rng(7)
    om = trapped_slater(lat, params.hbar, 100.0 * rng.random(lat.site_count), 3)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.04, snapshot_stride=2)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, params, lat)
    symmetric = default_probe_momenta(lat, 1)
    # one +-p pair, two unpaired grid probes and an unpaired off-grid probe
    asymmetric = np.vstack([symmetric[[0, -1, 1, 4]], [[0.7, -2.9]]])
    for p_set in (symmetric, asymmetric):
        rep = semiclassical_constant(om, lat, params.hbar, p_set)
        oracle = [_dense_phase(om.matrix, p, lat) for p in p_set]
        np.testing.assert_allclose(rep.phase_norms, oracle, rtol=1e-10)
        series = semiclassical_series(traj, p_set, params, lat)
        reps = [semiclassical_constant(s, lat, params.hbar, p_set) for s in traj.states]
        np.testing.assert_allclose(series.c_phase, [r.c_phase for r in reps], rtol=1e-10)
        np.testing.assert_allclose(series.c_momentum, [r.c_momentum for r in reps],
                                   rtol=1e-10)
    with pytest.raises(ValueError, match="nonempty"):
        semiclassical_series(traj, np.zeros((0, 2)), params, lat)


def test_hermitian_trace_norm_matches_svd_and_rejects_non_finite():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert _hermitian_trace_norm(x + x.conj().T) == pytest.approx(
        trace_norm(x + x.conj().T), rel=1e-12)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _hermitian_trace_norm(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_fit_exponential_exact_and_constant():
    t = np.linspace(0.0, 2.0, 15)
    fit = fit_exponential(3.0 * np.exp(0.5 * t), t)
    assert fit.amplitude == pytest.approx(3.0, abs=1e-10)
    assert fit.rate == pytest.approx(0.5, abs=1e-10)
    assert fit.residual < 1e-12
    flat = fit_exponential(np.full(10, 2.0), np.linspace(0, 1, 10))
    assert flat.rate == pytest.approx(0.0, abs=1e-12)


def test_fit_exponential_with_noise():
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 3.0, 60)
    v = 1.7 * np.exp(0.8 * t) * (1.0 + 0.01 * rng.standard_normal(60))
    fit = fit_exponential(v, t)
    assert abs(fit.rate - 0.8) < 0.05


def test_fit_exponential_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_exponential(np.array([1.0, -1.0]), np.array([0.0, 1.0]))


def test_fit_double_exponential_recovers_synthetic():
    t = np.linspace(0.0, 2.0, 40)
    v = 1.2 * np.exp(0.4 * np.exp(1.5 * t))
    k, c1, c2, rms = fit_double_exponential(v, t)
    assert rms < 1e-3
    assert abs(c1 - 1.5) < 0.1


def test_distance_series_basics():
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            for _ in range(4)]
    same = distance_series(mats, mats)
    assert np.all(same.hs == 0.0) and np.all(same.tr == 0.0)
    other = [m + rng.normal(size=(5, 5)) for m in mats]
    ds = distance_series(mats, other)
    assert np.all(ds.hs <= ds.tr + 1e-12)


def test_distance_series_free_slater_dynamics():
    # a Slater state stays exactly quasi-free under the free dynamics, so the
    # exact 1-particle density and the mean-field flow agree
    from fermiflow.fock import FockSpace, SectorPropagator, hamiltonian, \
        quasi_free_state, rdm1

    lat = make_lattice(1, 6, 1.0)
    params = ModelParams(n_particles=2, ds=1)
    v0 = build_potential({"shape": "zero"}, lat)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 2))
    space = FockSpace(6)
    psi0 = quasi_free_state(space, om)
    prop = SectorPropagator(space, hamiltonian(space, v0, params, lat), params.hbar)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.5, snapshot_stride=10)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, v0, params, lat)
    gammas = [rdm1(prop(psi0, t), space) for t in traj.times]
    ds = distance_series(gammas, traj.states, times=traj.times)
    assert np.max(ds.tr) < 1e-8
