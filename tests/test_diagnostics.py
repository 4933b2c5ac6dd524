"""Norms, trace distances, commutators, growth fits."""

import json

import numpy as np
import pytest

from fermiflow.diagnostics import (commutator_momentum, commutator_phase,
                                   default_probe_momenta, fit_exponential,
                                   semiclassical_constant, trace_distance, trace_norm)
from fermiflow.initial_data import fermi_ball_indices, plane_wave_projection
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import build_potential, default_hbar, make_lattice
from fermiflow.runner import build_initial_state, parse_config, run

from _oracles import (dense, dense_slater, fit_double_exponential, fourier_matrix, momenta,
                      momentum_indices, momentum_operator, phase_operator, spectral_form,
                      weyl_quantize)


def svd_trace_norm(a):
    """The oracle for every trace norm: the sum of singular values."""
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


def test_trace_norm_examples():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(0)
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert trace_norm(np.outer(u, u.conj())) == pytest.approx(np.vdot(u, u).real,
                                                             rel=1e-12)
    # u v* + v u* has the eigenvalues Re c +- sqrt(|u|^2 |v|^2 - (Im c)^2),
    # c = <u, v>, of opposite signs, and 0
    c = np.vdot(u, v)
    oracle = 2.0 * np.sqrt(np.vdot(u, u).real * np.vdot(v, v).real - c.imag ** 2)
    assert trace_norm(np.outer(u, v.conj()) + np.outer(v, u.conj())) == pytest.approx(
        oracle, rel=1e-12)
    a = random_hermitian(rng, 6)
    assert trace_norm(a) == pytest.approx(svd_trace_norm(a), rel=1e-12)


def test_trace_norm_rejects_non_finite():
    with pytest.raises(ValueError):
        trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_trace_norm_rejects_non_hermitian_beyond_round_off():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 6)
    skew = 1e-15 * (1j * rng.normal(size=(6, 6)))
    assert trace_norm(a + skew) == pytest.approx(svd_trace_norm(a), rel=1e-12)
    for bad in (a + 1e-9 * rng.normal(size=(6, 6)), np.array([[0.0, 1.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="non-Hermitian"):
            trace_norm(bad)


def _orthonormal(rng, m, r):
    q, _ = np.linalg.qr(rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r)))
    return q


@pytest.mark.parametrize("m,r,fractional", [(12, 3, False), (12, 4, True), (8, 5, True)])
def test_trace_distance_matches_svd_oracle(m, r, fractional):
    # two states with shared occupations, projections or not, 2r <= M and 2r > M
    rng = np.random.default_rng(m + r)
    lam = rng.uniform(0.1, 1.0, r) if fractional else np.ones(r)
    phi_a, phi_b = _orthonormal(rng, m, r), _orthonormal(rng, m, r)
    dense = (phi_a * lam) @ phi_a.conj().T - (phi_b * lam) @ phi_b.conj().T
    got = trace_distance(phi_a, phi_b, lam)
    assert got == pytest.approx(svd_trace_norm(dense), rel=1e-12)
    assert trace_distance(phi_b, phi_a, lam) == pytest.approx(got, rel=1e-12)
    assert trace_distance(phi_a, phi_a, lam) == 0.0
    # a nearby state: the difference of the orbitals, not of two dense matrices
    near = phi_a + 1e-6 * _orthonormal(rng, m, r)
    dense = (phi_a * lam) @ phi_a.conj().T - (near * lam) @ near.conj().T
    assert trace_distance(phi_a, near, lam) == pytest.approx(svd_trace_norm(dense), rel=1e-8)


def test_compare_hf_hartree_gap_matches_dense_oracle(tmp_path):
    # ds=3, M=512: two steps long enough for an O(0.1) gap, so that the dense
    # difference's own round-off (~1e-14 absolute) stays below 1e-12 relative
    doc = {"scenario": "compare-hf-hartree", "lattice": {"ds": 3, "d": 8},
           "model": {"n_particles": 10},
           "potential": {"shape": "gaussian", "strength": 5.0, "sigma": 0.2},
           "initial": {"kind": "trapped", "strength": 50.0},
           "evolution": {"dt": 0.1, "t_final": 0.2}}
    cfg = parse_config(json.dumps(doc))
    run(cfg, str(tmp_path))
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    gaps = [float(row.split(",")[1]) for row in rows]
    om = build_initial_state(cfg)
    hf, hh = (list(evolve(om, cfg.evolution, kind, cfg.potential, cfg.hbar))[-1].state
              for kind in (MeanFieldKind.HARTREE_FOCK, MeanFieldKind.HARTREE))
    assert len(gaps) == 3 and gaps[0] == 0.0
    assert gaps[-1] > 0.1
    assert gaps[-1] == pytest.approx(svd_trace_norm(dense(hf) - dense(hh)), rel=1e-12)


def test_commutator_momentum_vanishes_along_free_ball_flow():
    # a Fermi ball under the free flow stays the ball: [hbar d/dx, omega_t] = 0
    lat = make_lattice(1, 16, 1.0)
    hbar = default_hbar(3, 1)
    v0 = build_potential({"shape": "zero"}, lat)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, snapshot_stride=2)
    p_set = momenta(lat)[np.any(momentum_indices(lat) != 0, axis=1)][:6]
    reports = [semiclassical_constant(s.state, lat, hbar, p_set)
               for s in evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar)]
    assert len(reports) == 6
    assert max(rep.c_momentum for rep in reports) < 1e-10


@pytest.mark.parametrize("ds,d", [(1, 16), (1, 9), (2, 6)])
def test_probe_box_past_the_grid_leaves_c_phase_unchanged(ds, d):
    # a probe outside |k_i| <= d // 2 aliases one inside (e^{ip.x} is periodic
    # in p on the sites) with a larger |p|, so it never sets the maximum
    lat = make_lattice(ds, d, 1.0)
    om = dense_slater(lat, 0.3, 100.0 * np.random.default_rng(d).random(lat.site_count), 3)
    wide = d // 2 + 5
    assert np.array_equal(default_probe_momenta(lat, wide), default_probe_momenta(lat, d // 2))
    axis = np.arange(-wide, wide + 1)
    k = np.stack([g.ravel() for g in np.meshgrid(*[axis] * ds, indexing="ij")], axis=-1)
    unclamped = k[np.any(k != 0, axis=1)] * (2.0 * np.pi / lat.length)
    inside = semiclassical_constant(om, lat, 0.3, default_probe_momenta(lat, d // 2))
    assert semiclassical_constant(om, lat, 0.3, unclamped).c_phase == inside.c_phase
    assert semiclassical_constant(om, lat, 0.3, default_probe_momenta(lat, wide)).c_phase \
        == inside.c_phase


def _dense_phase(m, r, lat):
    e = phase_operator(lat, r)
    return svd_trace_norm(e @ m - m @ e)


def _dense_momentum(m, hbar, lat):
    gs = [momentum_operator(lat, hbar, ax) for ax in range(lat.ds)]
    return sum(svd_trace_norm(g @ m - m @ g) for g in gs)


def _elementwise_phase(m, r, lat):
    """tr|m - a* m a| with a = e^{i r.x}, as an M x M elementwise product."""
    a = np.exp(1j * (lat.sites() @ np.atleast_1d(r)))
    return svd_trace_norm(m - a.conj()[:, None] * m * a[None, :])


def _elementwise_momentum(m, hbar, lat):
    """sum over axes of tr|i hbar (p_j - p_k) m_hat_jk|, m_hat = F m F*."""
    f = fourier_matrix(lat)
    m_hat = f @ m @ f.conj().T
    return sum(svd_trace_norm((1j * hbar) * (p[:, None] - p[None, :]) * m_hat)
               for p in momenta(lat).T)


@pytest.mark.parametrize("ds,d", [(1, 16), (2, 6), (3, 4)])
def test_commutators_match_dense_oracles(ds, d):
    # the low-rank kernels against the dense products [A, omega] and their SVD
    lat = make_lattice(ds, d, 1.0)
    rng = np.random.default_rng(ds)
    hbar = 0.3
    slater = dense_slater(lat, hbar, 100.0 * rng.random(lat.site_count), 3)
    # a smooth symbol, gaussian in hbar p and cosine-modulated in x: its Weyl
    # quantization is diagonal-concentrated but not a projection
    envelope = np.exp(-np.sum((hbar * momenta(lat)) ** 2, axis=1))
    chi = 1.0 + 0.5 * np.cos(2.0 * np.pi * lat.sites()[:, 0] / lat.length)
    weyl = weyl_quantize(envelope[:, None] * chi[None, :], lat, hbar)
    assert weyl.idempotency_defect() > 1e-3  # not a projection
    shape = (lat.site_count,) * 2
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    probes = [momenta(lat)[1], 7.3 * rng.normal(size=ds)]  # on and off the grid
    for m in (dense(slater), dense(weyl), x + x.conj().T, np.zeros(shape)):  # r = 0
        phi, lam, _ = spectral_form(m)
        for r in probes:
            val = commutator_phase(phi, lam, r, lat)
            assert val == pytest.approx(_dense_phase(m, r, lat), rel=1e-10)
            assert commutator_phase(phi, lam, -r, lat) == pytest.approx(val, rel=1e-10)
        assert commutator_momentum(phi, lam, hbar, lat) == pytest.approx(
            _dense_momentum(m, hbar, lat), rel=1e-10)


def test_commutator_momentum_at_large_hbar_p():
    # hbar |p| ~ 3e8: hbar d phi carries the round-off of O(hbar |p|) entries,
    # which the small matrix r s r* must not carry into trace_norm
    lat = make_lattice(1, 3, 2e-10)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 2))
    hbar = 0.01
    scale = hbar * np.max(np.abs(momenta(lat)))
    phi, lam, _ = spectral_form(dense(om))
    assert commutator_momentum(phi, lam, hbar, lat) <= 1e-12 * scale  # [d/dx, ball] = 0
    with pytest.raises(ValueError, match="non-Hermitian"):
        spectral_form(np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="non-finite"):
        spectral_form(np.full((3, 3), np.nan))


@pytest.mark.parametrize("ds,d", [(1, 64), (3, 4)])
def test_truncated_tail_moves_each_norm_within_its_bound(ds, d):
    # a projection plus a PSD tail below the cut M eps: dropping the tail moves
    # a phase norm by at most 2 sum|lam_dropped| and the momentum norm of
    # axis j by at most 2 hbar max|p_j| sum|lam_dropped|
    lat = make_lattice(ds, d, 1.0)
    rng = np.random.default_rng(11)
    hbar, n = 0.3, 4
    proj = dense(dense_slater(lat, hbar, 100.0 * rng.random(lat.site_count), n))
    x = rng.normal(size=proj.shape) + 1j * rng.normal(size=proj.shape)
    tail = x @ x.conj().T
    tail *= 1e-14 / np.linalg.eigvalsh(tail)[-1]
    assert 1e-14 < lat.site_count * np.finfo(float).eps
    m = proj + tail
    phi, lam, dropped = spectral_form(m)
    assert len(lam) == n
    outside = np.trace(tail - proj @ tail @ proj).real  # ~tr (1 - P) tail (1 - P)
    assert dropped == pytest.approx(outside, rel=0.1)
    probes = [momenta(lat)[1], momenta(lat)[-1], 7.3 * rng.normal(size=ds)]
    for r in probes:
        assert abs(commutator_phase(phi, lam, r, lat) - _dense_phase(m, r, lat)) \
            <= 2.0 * dropped
    bound = sum(2.0 * hbar * np.max(np.abs(p)) * dropped for p in momenta(lat).T)
    assert abs(commutator_momentum(phi, lam, hbar, lat)
               - _dense_momentum(m, hbar, lat)) <= bound


def test_semiclassical_constant_matches_elementwise_forms_at_ds3():
    # the paper's dimension: a trapped state after a few HF steps at M=216
    lat = make_lattice(3, 6, 1.0)
    hbar = default_hbar(5, 3)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    rng = np.random.default_rng(9)
    om = dense_slater(lat, hbar, 100.0 * rng.random(lat.site_count), 5)
    cfg = EvolutionConfig(dt=2e-3, t_final=6e-3, snapshot_stride=3)
    state = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))[-1].state
    m, p_set = dense(state), default_probe_momenta(lat, 1)
    rep = semiclassical_constant(state, lat, hbar, p_set)
    np.testing.assert_allclose(rep.phase_norms,
                               [_elementwise_phase(m, p, lat) for p in p_set], rtol=1e-12)
    assert rep.c_momentum * 5 * hbar == pytest.approx(
        _elementwise_momentum(m, hbar, lat), rel=1e-12)


def test_semiclassical_constant_pairs_probes_and_series_reuses_it(tmp_path):
    lat = make_lattice(2, 6, 1.0)
    hbar = default_hbar(3, 2)
    rng = np.random.default_rng(7)
    om = dense_slater(lat, hbar, 100.0 * rng.random(lat.site_count), 3)
    symmetric = default_probe_momenta(lat, 1)
    # one +-p pair, two unpaired grid probes and an unpaired off-grid probe
    asymmetric = np.vstack([symmetric[[0, -1, 1, 4]], [[0.7, -2.9]]])
    for p_set in (symmetric, asymmetric):
        rep = semiclassical_constant(om, lat, hbar, p_set)
        oracle = [_dense_phase(dense(om), p, lat) for p in p_set]
        np.testing.assert_allclose(rep.phase_norms, oracle, rtol=1e-10)
    with pytest.raises(ValueError, match="nonempty"):
        semiclassical_constant(om, lat, hbar, np.zeros((0, 2)))
    # the evolve scenario's series is one semiclassical_constant per snapshot
    doc = {"scenario": "evolve", "lattice": {"ds": 2, "d": 6}, "model": {"n_particles": 3},
           "potential": {"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
           "initial": {"kind": "trapped", "strength": 50.0}, "p_set": {"max_index": 1},
           "evolution": {"dt": 1e-2, "t_final": 0.04, "snapshot_stride": 2}}
    cfg = parse_config(json.dumps(doc))
    run(cfg, str(tmp_path))
    header, *rows = (tmp_path / "series.csv").read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*[map(float, r.split(",")) for r in rows])))
    reps = [semiclassical_constant(s.state, lat, cfg.hbar, symmetric) for s in
            evolve(build_initial_state(cfg), cfg.evolution, cfg.kind, cfg.potential, cfg.hbar)]
    assert len(reps) == 3
    assert list(columns["c_phase"]) == [r.c_phase for r in reps]
    assert list(columns["c_momentum"]) == [r.c_momentum for r in reps]


def test_hermitian_trace_norm_matches_svd_and_rejects_non_finite():
    rng = np.random.default_rng(4)
    for n in (1, 6, 40):
        a = random_hermitian(rng, n)
        assert trace_norm(a) == pytest.approx(svd_trace_norm(a), rel=1e-12)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            trace_norm(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_fit_exponential_exact_and_constant():
    t = np.linspace(0.0, 2.0, 15)
    fit = fit_exponential(3.0 * np.exp(0.5 * t), t)
    assert fit["amplitude"] == pytest.approx(3.0, abs=1e-10)
    assert fit["rate"] == pytest.approx(0.5, abs=1e-10)
    assert fit["residual"] < 1e-12
    flat = fit_exponential(np.full(10, 2.0), np.linspace(0, 1, 10))
    assert flat["rate"] == pytest.approx(0.0, abs=1e-12)


def test_fit_exponential_with_noise():
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 3.0, 60)
    v = 1.7 * np.exp(0.8 * t) * (1.0 + 0.01 * rng.standard_normal(60))
    fit = fit_exponential(v, t)
    assert abs(fit["rate"] - 0.8) < 0.05


def test_fit_exponential_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_exponential(np.array([1.0, -1.0]), np.array([0.0, 1.0]))


def test_fit_double_exponential_recovers_synthetic():
    t = np.linspace(0.0, 2.0, 40)
    v = 1.2 * np.exp(0.4 * np.exp(1.5 * t))
    k, c1, c2, rms = fit_double_exponential(v, t)
    assert rms < 1e-3
    assert abs(c1 - 1.5) < 0.1


@pytest.mark.parametrize("kind", ["hartree_fock", "hartree"])
@pytest.mark.parametrize("ds, d", [(1, 6), (2, 3), (3, 2)], ids=["ds1-d6", "ds2-d3", "ds3-d2"])
def test_free_slater_flow_matches_exact_dynamics(tmp_path, ds, d, kind):
    # a Slater state stays exactly quasi-free under the free dynamics, so the
    # exact 1-particle density and the mean-field flow of either kind agree, at any ds
    doc = {"scenario": "exact-vs-meanfield", "lattice": {"ds": ds, "d": d},
           "model": {"n_particles": 2}, "potential": {"shape": "zero"},
           "initial": {"kind": "ball"}, "kind": kind,
           "evolution": {"dt": 1e-2, "t_final": 0.5, "snapshot_stride": 10}}
    result = run(parse_config(json.dumps(doc)), str(tmp_path))["result"]
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    hs, tr = (np.array([float(row.split(",")[i]) for row in rows]) for i in (1, 2))
    assert len(rows) == 6
    assert np.max(tr) < 1e-8 and np.all(hs <= tr + 1e-15)
    assert result["final_trace_distance"] == tr[-1]
    assert result["final_hs_distance"] == hs[-1]


@pytest.mark.parametrize("ds, d", [(2, 3), (3, 2)], ids=["ds2-d3", "ds3-d2"])
def test_one_particle_hf_gap_is_the_midpoint_rules_error(tmp_path, ds, d):
    # for one particle exchange cancels the direct term and the exact H has no pair to
    # act on, so both flows are free: the HF HS distance at t = 0.5 in a trap under a
    # gaussian V is the midpoint rule's O(dt^2) alone, 4x smaller when dt halves
    hs = []
    for dt in (1e-3, 5e-4):
        doc = {"scenario": "exact-vs-meanfield", "lattice": {"ds": ds, "d": d},
               "model": {"n_particles": 1},
               "potential": {"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
               "initial": {"kind": "trapped", "strength": 50.0},
               "evolution": {"dt": dt, "t_final": 0.5, "snapshot_stride": 1000}}
        hs.append(run(parse_config(json.dumps(doc)), str(tmp_path))["result"]
                  ["final_hs_distance"])
    assert 3.8 <= hs[0] / hs[1] <= 4.2, hs
