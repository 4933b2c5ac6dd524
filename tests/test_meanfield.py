"""Mean-field flows: terms of the generator, the integrator, conservation."""

import json
import tracemalloc

import numpy as np
import pytest

import fermiflow.meanfield as mf
from fermiflow.initial_data import (DensityMatrix, fermi_ball_indices,
                                    plane_wave_projection, trapped_slater)
from fermiflow.meanfield import (EvolutionConfig, MeanFieldKind, density_profile,
                                 direct_term, energy, evolve, exchange_term, generator, step)
from fermiflow.model import build_potential, default_hbar, kinetic_operator, make_lattice
from fermiflow.runner import parse_config, run

from _oracles import (count_fft_calls, dense, fourier, gershgorin_interval, midpoint_step,
                      momentum_indices, spectral_form)


@pytest.fixture
def setup16():
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(3, 1)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    return lat, pot, hbar, om


def test_density_profile_ball_is_flat(setup16):
    lat, _, _, om = setup16
    rho = density_profile(om, lat)
    assert np.allclose(rho, 1.0 / lat.length, atol=1e-12)


def test_density_profile_point_mass():
    lat = make_lattice(1, 8, 1.0)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 2.0
    rho = density_profile(DensityMatrix(*spectral_form(m)[:2]), lat)
    assert rho[0] == pytest.approx(1.0 / lat.spacing)
    assert np.all(rho[1:] == 0.0)
    assert np.sum(rho) * lat.spacing == pytest.approx(1.0)


def test_density_profile_trapped_peaked():
    lat = make_lattice(1, 64, 1.0)
    om = trapped_slater(lat, 0.25, 200.0, 4)
    rho = density_profile(om, lat)
    assert 24 <= np.argmax(rho) <= 40  # mass near the trap center
    assert rho[0] < 1e-2 * rho.max()
    assert np.sum(rho) * lat.spacing == pytest.approx(1.0, abs=1e-10)


def test_direct_term_constant_density(setup16):
    lat, pot, _, _ = setup16
    rho = np.full(16, 1.0 / lat.length)
    u = direct_term(rho, pot)
    # constant density picks out the zero Fourier mode of V
    expected = fourier(pot).real[np.all(momentum_indices(lat) == 0, axis=1)][0]
    assert np.allclose(u.real, expected, atol=1e-12)


def test_direct_term_zero_potential(setup16):
    lat, _, _, _ = setup16
    v0 = build_potential({"shape": "zero"}, lat)
    assert np.all(direct_term(np.random.default_rng(0).random(16), v0) == 0)


def test_direct_term_point_mass_oracle(setup16):
    lat, pot, _, _ = setup16
    rho = np.zeros(16)
    rho[3] = 1.0
    u = direct_term(rho, pot)
    x = lat.sites()[:, 0]
    oracle = lat.spacing * np.array(
        [pot.real_space[(j - 3) % 16] for j in range(16)])
    assert np.max(np.abs(u - oracle)) < 1e-12


def test_exchange_zero_potential_and_hermiticity(setup16):
    lat, pot, _, om = setup16
    v0 = build_potential({"shape": "zero"}, lat)
    assert np.all(exchange_term(om, v0) == 0)
    x = exchange_term(om, pot)
    assert np.max(np.abs(x - x.conj().T)) < 1e-12


def test_exchange_cancels_direct_for_single_particle():
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    om = trapped_slater(lat, 1.0, 50.0, 1)
    f = np.linalg.eigh(dense(om))[1][:, -1]
    rho = density_profile(om, lat)
    mismatch = (np.diag(direct_term(rho, pot)) - exchange_term(om, pot)) @ f
    assert np.max(np.abs(mismatch)) < 1e-10


@pytest.mark.parametrize("ds,d", [(1, 64), (1, 9), (2, 8), (2, 5), (3, 8), (3, 5)])
def test_direct_term_equals_fftn_bit_for_bit(ds, d):
    # the one-axis transforms in fftn's order give the floats of fftn, the product with the
    # real table and ifftn's real part on the (d,)*ds view
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    rho, grid, axes = np.random.default_rng(d).random(lat.site_count), (d,) * ds, tuple(range(ds))
    rhat = pot.fourier.reshape(grid) * np.fft.fftn(rho.reshape(grid), axes=axes)
    ref = lat.cell * np.fft.ifftn(rhat, axes=axes).real.ravel()
    assert np.array_equal(direct_term(rho, pot), ref)


@pytest.mark.parametrize("ds,d", [(1, 64), (1, 9), (2, 8), (2, 5), (3, 8), (3, 5)])
def test_lattice_transforms_equal_fftn_bit_for_bit(ds, d):
    # the site-grid DFT on flat site arrays gives numpy's n-dimensional transforms' floats
    # over the site axes of the (d,)*ds view, both ways
    lat, grid, axes = make_lattice(ds, d, 1.0), (d,) * ds, tuple(range(ds))
    rng = np.random.default_rng(d)
    a = rng.standard_normal((lat.site_count, 3)) + 1j * rng.standard_normal((lat.site_count, 3))
    for inverse, ref in ((False, np.fft.fftn), (True, np.fft.ifftn)):
        want = ref(a.reshape(grid + (3,)), axes=axes).reshape(a.shape)
        assert np.array_equal(lat.fft(a, inverse=inverse), want)


def test_generator_free_and_term_difference(setup16):
    lat, pot, hbar, om = setup16
    # with the zero potential the generator is the free one, bit for bit
    v0 = build_potential({"shape": "zero"}, lat)
    assert np.array_equal(generator(om, v0, hbar)[0], kinetic_operator(lat, hbar))
    h_hf, _ = generator(om, pot, hbar)
    h_h = kinetic_operator(lat, hbar) + np.diag(direct_term(density_profile(om, lat), pot))
    assert np.max(np.abs((h_h - h_hf) - exchange_term(om, pot))) < 1e-12


def test_step_preserves_spectrum(setup16):
    lat, pot, hbar, om = setup16
    cfg = EvolutionConfig(dt=1e-2, t_final=1e-2)
    pred = mf.apply_exponential(om.orbitals, *generator(om, pot, hbar), cfg.dt, hbar)
    new = step(om, pred, cfg, pot, hbar)
    assert np.allclose(np.linalg.eigvalsh(dense(new)),
                       np.linalg.eigvalsh(dense(om)), atol=1e-10)


def test_step_free_is_exact_conjugation():
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "zero"}, lat)
    hbar = default_hbar(2, 1)
    om = trapped_slater(lat, hbar, 20.0, 2)
    cfg = EvolutionConfig(dt=0.3, t_final=0.3)
    pred = mf.apply_exponential(om.orbitals, *generator(om, pot, hbar), cfg.dt, hbar)
    new = step(om, pred, cfg, pot, hbar)
    h = kinetic_operator(lat, hbar)
    eig, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * cfg.dt * eig / hbar)) @ vec.conj().T
    ref = u @ dense(om) @ u.conj().T
    assert np.max(np.abs(dense(new) - ref)) < 1e-12


def _dense_generator(m, n, kind, pot, hbar):
    """h(omega) assembled from the dense omega: diagonal density, entrywise
    exchange."""
    lat = pot.lattice
    h = kinetic_operator(lat, hbar) + np.diag(
        direct_term(np.diag(m).real / (n * lat.cell), pot))
    if kind is MeanFieldKind.HARTREE_FOCK:
        h = h - pot.pair_matrix * m / n
    return 0.5 * (h + h.conj().T)


def _dense_conjugate(m, h, dt, hbar):
    """u m u*, u = exp(-i dt h / hbar) built as an M x M matrix, Hermitized."""
    eig, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * dt * eig / hbar)) @ vec.conj().T
    out = u @ m @ u.conj().T
    return 0.5 * (out + out.conj().T)


def _dense_step(m, n, dt, kind, pot, hbar):
    """The exponential midpoint step on the dense omega."""
    pred = _dense_conjugate(m, _dense_generator(m, n, kind, pot, hbar), dt, hbar)
    h_mid = _dense_generator(0.5 * (m + pred), n, kind, pot, hbar)
    return _dense_conjugate(m, h_mid, dt, hbar)


def _dense_split_step(m, n, dt, pot, hbar):
    """The Strang step of the Hartree flow on the dense omega: a conjugation by
    exp(-i dt K / 2 hbar) from eigh(K), by the diagonal phase exp(-i dt u / hbar),
    u the site sum a^ds V rho of the half-stepped omega, and by the half step again."""
    lat, k = pot.lattice, kinetic_operator(pot.lattice, hbar)
    m = _dense_conjugate(m, k, dt / 2, hbar)
    u = lat.cell * pot.pair_matrix @ (np.diag(m).real / (n * lat.cell))
    m = _dense_conjugate(m, np.diag(u), dt, hbar)
    return _dense_conjugate(m, k, dt / 2, hbar)


def _advance(om, kind, pot, hbar, dt, n_steps):
    """The state after n_steps of `evolve`'s step for `kind`."""
    cfg = EvolutionConfig(dt=dt, t_final=n_steps * dt, snapshot_stride=n_steps)
    return list(evolve(om, cfg, kind, pot, hbar))[-1].state


@pytest.mark.parametrize("kind", list(MeanFieldKind))
@pytest.mark.parametrize("ds,d,n", [(1, 16, 3), (3, 4, 4), (1, 64, 8)])
def test_orbital_step_matches_dense_conjugation(ds, d, n, kind):
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, 50.0, n)
    m = dense(om)
    for _ in range(5):  # the dense oracle of the step `evolve` takes for each kind
        m = (_dense_split_step(m, n, 1e-2, pot, hbar) if kind is MeanFieldKind.HARTREE
             else _dense_step(m, n, 1e-2, kind, pot, hbar))
    assert np.linalg.norm(dense(_advance(om, kind, pot, hbar, 1e-2, 5)) - m, "fro") <= 1e-13


def test_split_flow_and_midpoint_oracle_converge():
    # both are second order: the gap between the Hartree split flow and the dense
    # midpoint rule at a fixed time shrinks ~4x as dt halves
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(3, 1)
    om = trapped_slater(lat, hbar, 50.0, 3)
    gaps = []
    for n_steps in (10, 20, 40, 80):
        m = dense(om)
        for _ in range(n_steps):
            m = _dense_step(m, 3, 0.2 / n_steps, MeanFieldKind.HARTREE, pot, hbar)
        split = _advance(om, MeanFieldKind.HARTREE, pot, hbar, 0.2 / n_steps, n_steps)
        gaps.append(np.linalg.norm(dense(split) - m, "fro"))
    assert all(coarse / fine > 3.5 for coarse, fine in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-5


def test_hartree_flow_holds_no_site_by_site_array():
    # ds=3, d=16: one complex M x M array is 256 MiB; the orbitals are 4 MiB
    lat = make_lattice(3, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(63, 3)
    om = trapped_slater(lat, hbar, 50.0, 63)
    tracemalloc.start()
    try:
        snaps = list(evolve(om, EvolutionConfig(dt=1e-3, t_final=2e-3), MeanFieldKind.HARTREE,
                            pot, hbar))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert snaps[-1].max_idempotency_defect < 1e-12


def test_hartree_fock_flow_holds_one_site_by_site_array():
    # ds=3, d=8: M = 512 and one complex M x M array is 16 M^2 bytes (4 MiB).  With K and
    # V's table built first, a step holds h(omega) or h(mid), never two such arrays: the
    # series scales h in place
    lat = make_lattice(3, 8, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(10, 3)
    om = trapped_slater(lat, hbar, 50.0, 10)
    pot.pair_matrix, kinetic_operator(lat, hbar)
    tracemalloc.start()
    try:
        snaps = list(evolve(om, EvolutionConfig(dt=1e-3, t_final=3e-3),
                            MeanFieldKind.HARTREE_FOCK, pot, hbar))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.iscomplexobj(snaps[-1].state.orbitals)
    assert peak < 1.5 * 16 * lat.site_count ** 2


@pytest.mark.parametrize("orbitals", ["real", "complex"])
@pytest.mark.parametrize("ds,d,n", [(1, 16, 3), (3, 4, 4)])
def test_evolve_repeats_the_midpoint_oracle_bit_for_bit(ds, d, n, orbitals):
    # `evolve` runs the predictor itself and each series scales its h in place; the oracle
    # predicts inside the step on copies: the same operations in the same order, so 20 steps
    # give the oracle's orbitals exactly
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, 50.0, n)
    if orbitals == "complex":
        om = _boosted(om, lat)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.2)
    snaps = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))
    assert len(snaps) == 21
    state = om
    for snap in snaps[1:]:
        state = midpoint_step(state, *generator(state, pot, hbar), cfg, pot, hbar)
        assert np.array_equal(snap.state.orbitals, state.orbitals)


def _trapped_generator(ds, d, n):
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, 50.0, n)
    return om, generator(om, pot, hbar), pot, hbar


def _boosted(om, lat):
    """omega's orbitals times the plane wave of the first lattice momentum: a complex
    state, still orthonormal."""
    wave = np.exp(2j * np.pi / lat.length * lat.sites()[:, 0])
    return DensityMatrix(wave[:, None] * om.orbitals, om.occupations)


@pytest.mark.parametrize("kind", list(MeanFieldKind))
@pytest.mark.parametrize("ds,d,n", [(3, 4, 4), (1, 64, 8)])
def test_flow_builds_no_dense_omega(ds, d, n, kind):
    om, _, pot, hbar = _trapped_generator(ds, d, n)
    assert not hasattr(om, "matrix")  # the state is (Phi, lam): it has no dense view
    cfg = EvolutionConfig(dt=1e-2, t_final=3e-2)
    state = list(evolve(om, cfg, kind, pot, hbar))[-1].state
    assert np.iscomplexobj(state.orbitals)
    h, _ = generator(state, pot, hbar)
    # no Hermitization: only the round-off of the exchange product is left
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14 * np.max(np.abs(h))
    m = (state.orbitals * state.occupations) @ state.orbitals.conj().T
    hf = MeanFieldKind.HARTREE_FOCK
    assert np.max(np.abs(h - _dense_generator(m, n, hf, pot, hbar))) <= 1e-13


def _site_sum_energy(m, n, kind, pair, k):
    """The mean-field energy as a double sum over sites: tr(K m) plus the
    direct pair sum and, for Hartree-Fock, the exchange pair sum, each / 2N."""
    exchange = kind is MeanFieldKind.HARTREE_FOCK
    e = 0.0
    for x in range(len(m)):
        for y in range(len(m)):
            e += (k[x, y] * m[y, x]).real
            e += 0.5 / n * pair[x, y] * (m[x, x] * m[y, y] - exchange * abs(m[x, y]) ** 2).real
    return e


@pytest.mark.parametrize("kind", list(MeanFieldKind))
@pytest.mark.parametrize("ds,d,n", [(3, 4, 4), (1, 64, 8)])
def test_trajectory_energy_matches_site_sum_oracle(ds, d, n, kind):
    om, _, pot, hbar = _trapped_generator(ds, d, n)
    snaps = list(evolve(om, EvolutionConfig(dt=1e-2, t_final=4e-2), kind, pot, hbar))
    k = kinetic_operator(pot.lattice, hbar)
    assert len(snaps) == 5
    for s in snaps:
        oracle = _site_sum_energy(dense(s.state), n, kind, pot.pair_matrix, k)
        assert s.energy == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("ds,d,n", [(3, 4, 4), (1, 64, 8)])
def test_recorded_hartree_energy_matches_its_snapshot(ds, d, n):
    # each step's energy reads the phi_hat its split step returns, not a transform of the
    # new orbitals: it must equal the energy recomputed from the snapshot
    om, _, pot, hbar = _trapped_generator(ds, d, n)
    snaps = list(evolve(om, EvolutionConfig(dt=1e-2, t_final=6e-2), MeanFieldKind.HARTREE,
                        pot, hbar))
    assert len(snaps) == 7
    for s in snaps:
        assert s.energy == pytest.approx(energy(s.state, pot, hbar)[0], rel=1e-12, abs=0)


@pytest.mark.parametrize("ds,d,n", [(1, 16, 3), (3, 4, 4)])
def test_hartree_step_transform_count(monkeypatch, ds, d, n):
    # a split step: three orbital transforms of ds one-axis calls each (ifft, fft, ifft),
    # and the direct terms of the step and of the energy, each ds fft and ds ifft: 7 ds
    # one-axis calls; no fftn or ifftn
    om, _, pot, hbar = _trapped_generator(ds, d, n)
    counts = count_fft_calls(monkeypatch)
    for n_steps in (1, 3):
        counts.clear()
        list(evolve(om, EvolutionConfig(dt=1e-2, t_final=n_steps * 1e-2),
                    MeanFieldKind.HARTREE, pot, hbar))
        # the first energy: its phi_hat and its direct_term
        start = {"fft": 2 * ds, "ifft": ds}
        per_step = {"fft": 3 * ds, "ifft": 4 * ds}
        assert counts == {name: start[name] + n_steps * per_step[name] for name in start}


@pytest.mark.parametrize("ds,d,n", [(1, 64, 8), (2, 8, 6), (3, 8, 10)])
def test_generator_direct_term_matches_the_fft_direct_term(monkeypatch, ds, d, n):
    # the generator's V * rho, read from the pair matrix, against the FFT direct_term: with
    # K and X zeroed its diagonal is u itself, and it takes no FFT
    om, _, pot, hbar = _trapped_generator(ds, d, n)
    want = direct_term(density_profile(om, pot.lattice), pot)
    zeros = lambda lat: np.zeros((lat.site_count,) * 2)
    monkeypatch.setattr(mf, "kinetic_operator", lambda lat, hbar: zeros(lat))
    monkeypatch.setattr(mf, "exchange_term", lambda omega, v: zeros(v.lattice))
    counts = count_fft_calls(monkeypatch)
    h, _ = generator(om, pot, hbar)
    assert counts == {}
    assert np.max(np.abs(h.diagonal() - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(h - np.diag(h.diagonal()) == 0.0)


@pytest.mark.parametrize("orbitals", ["real", "complex"])
@pytest.mark.parametrize("ds,d", [(1, 64), (3, 8)])
def test_generator_is_kinetic_minus_exchange_plus_direct(ds, d, orbitals):
    # h = K - X + diag(u), u = V * rho from X's pair table, bit for bit
    om, _, pot, hbar = _trapped_generator(ds, d, 4)
    if orbitals == "complex":
        om = _boosted(om, pot.lattice)
    h, _ = generator(om, pot, hbar)
    want = kinetic_operator(pot.lattice, hbar) - exchange_term(om, pot)
    want.flat[:: len(want) + 1] += pot.lattice.cell * (pot.pair_matrix @ density_profile(
        om, pot.lattice))
    assert h.dtype == want.dtype == (float if orbitals == "real" else complex)
    assert np.array_equal(h, want)


def _eigh_exponential(phi, h, dt, hbar):
    """The oracle of the Chebyshev series: exp(-i dt h / hbar) Phi from eigh."""
    eig, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * dt * eig / hbar)) @ (vec.conj().T @ phi)


@pytest.mark.parametrize("orbitals", ["real", "complex"])
@pytest.mark.parametrize("ds,d", [(1, 64), (3, 8)])
def test_gershgorin_interval_contains_spectrum(ds, d, orbitals):
    # the oracle's own enclosure, on the flow's generators, real and complex
    om, (h, _), pot, hbar = _trapped_generator(ds, d, 4)
    if orbitals == "complex":
        h, _ = generator(_boosted(om, pot.lattice), pot, hbar)
    lo, hi = gershgorin_interval(h)
    eig = np.linalg.eigvalsh(h)
    assert lo <= eig[0] and eig[-1] <= hi


@pytest.mark.parametrize("orbitals", ["real", "complex"])
@pytest.mark.parametrize("midpoint", [False, True])
@pytest.mark.parametrize("shape", ["gaussian", "cosine"])
@pytest.mark.parametrize("strength", [2.0, -2.0])
@pytest.mark.parametrize("ds,d,n", [(1, 64, 8), (2, 8, 6), (3, 8, 10)])
def test_generator_interval_holds_the_spectrum(ds, d, n, strength, shape, midpoint, orbitals):
    # Weyl's bound from the parts holds spec h, for the trapped state (real, or boosted
    # to complex orbitals) and for the midpoint state [Phi, Phi_pred] diag(lam/2, lam/2),
    # and is narrower than Gershgorin's
    lat = make_lattice(ds, d, 1.0)
    spec = {"shape": shape, "strength": strength, "sigma": 0.2, "mode": 1}
    pot = build_potential(spec, lat)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, 50.0, n)
    if orbitals == "complex":
        om = _boosted(om, lat)
    h, interval = generator(om, pot, hbar)
    if midpoint:
        pred = mf.apply_exponential(om.orbitals, h, interval, 1e-2, hbar)
        lam = om.occupations
        om = DensityMatrix(np.hstack([om.orbitals, pred]), np.concatenate([lam, lam]) / 2)
        h, interval = generator(om, pot, hbar)
    (lo, hi), eig = interval, np.linalg.eigvalsh(h)
    assert lo < eig[0] and eig[-1] < hi
    g_lo, g_hi = gershgorin_interval(h)
    assert hi - lo < 0.8 * (g_hi - g_lo)


# M = 64 needs >= 64 terms from a ~ 30 on: both sides of that boundary
@pytest.mark.parametrize("a", [0.3, 3.0, 20.0, 29.0, 31.0, 63.9, 64.0, 1e3])
def test_conjugate_matches_eigh_oracle(a):
    om, (h, (lo, hi)), _, hbar = _trapped_generator(1, 64, 8)
    dt = 2 * a * hbar / (hi - lo)
    got = mf.apply_exponential(om.orbitals, h.copy(), (lo, hi), dt, hbar)
    assert np.max(np.abs(got - _eigh_exponential(om.orbitals, h, dt, hbar))) <= 1e-13


def test_conjugate_of_a_multiple_of_the_identity():
    # h = c I: zero width, a is raised to 1/64 and h2 = 0
    phi = np.linalg.qr(np.random.default_rng(2).normal(size=(64, 4)) + 0j)[0]
    h = 2.5 * np.eye(64, dtype=complex)
    got = mf.apply_exponential(phi, h.copy(), (2.5, 2.5), 1e-2, 0.5)
    assert np.max(np.abs(got - np.exp(-0.05j) * phi)) <= 1e-15
    assert np.max(np.abs(got - _eigh_exponential(phi, h, 1e-2, 0.5))) <= 1e-13


@pytest.mark.parametrize("dt", [1e-3, -1e-3, 0.1, -0.1, 0.5, -0.5])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_series_matches_eigh_at_either_sign_of_dt(monkeypatch, field, dt):
    # a backward sub-step takes dt < 0: the series' scale is a = |tau| (hi - lo) / 2
    rng = np.random.default_rng(40)
    h = rng.normal(size=(40, 40)) + (1j * rng.normal(size=(40, 40)) if field == "complex" else 0)
    h = (h + h.conj().T) / 2
    phi = np.linalg.qr(rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3)))[0]
    oracle, eig = _eigh_exponential(phi, h, dt, 1.0), np.linalg.eigvalsh(h)
    monkeypatch.setattr(np.linalg, "eigh", None)  # the series, not a diagonalization
    got = mf.apply_exponential(phi, h, (eig[0], eig[-1]), dt, 1.0)
    assert np.max(np.abs(got - oracle)) <= 1e-13


@pytest.mark.parametrize("order", ["C", "F"])
def test_real_generator_takes_real_arithmetic(order):
    # a real h acts on the real view of the orbitals; eigh's orbitals are
    # Fortran-ordered, so the series works on a C-ordered copy
    om, (h, interval), _, hbar = _trapped_generator(1, 64, 8)  # real trapped orbitals
    assert h.dtype == float
    phi = np.asarray(om.orbitals + 1j * np.roll(om.orbitals, 1, axis=0), order=order)
    got = mf.apply_exponential(phi, h.copy(), interval, 1e-3, hbar)
    ref = mf.apply_exponential(phi, h.astype(complex), interval, 1e-3, hbar)
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_orbitals_stay_orthonormal_over_many_steps():
    om, _, pot, hbar = _trapped_generator(1, 64, 8)
    cfg = EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000)
    phi = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))[-1].state.orbitals
    assert np.max(np.abs(phi.conj().T @ phi - np.eye(8))) <= 1e-11


@pytest.mark.parametrize("ds,d,n,dt", [(1, 64, 8, 1e-3), (3, 8, 10, 2e-3)])
def test_steps_take_the_series_and_large_a_takes_eigh(ds, d, n, dt, monkeypatch):
    om, (h, (lo, hi)), pot, hbar = _trapped_generator(ds, d, n)

    def no_eigh(*args):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    cfg = EvolutionConfig(dt=dt, t_final=dt)
    pred = mf.apply_exponential(om.orbitals, h.copy(), (lo, hi), cfg.dt, hbar)
    step(om, pred, cfg, pot, hbar).validate()
    with pytest.raises(AssertionError, match="eigh called"):  # a = dim h
        mf.apply_exponential(om.orbitals, h, (lo, hi), 2 * len(h) * hbar / (hi - lo), hbar)


def test_idempotency_defect_matches_dense_oracle():
    rng = np.random.default_rng(5)
    m_sites, r = 12, 3

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    q = np.linalg.qr(gaussian(m_sites, r))[0]
    lam = rng.uniform(0.0, 1.0, r)
    states = [DensityMatrix(q, np.ones(r)),  # a projection: both are round-off
              # the midpoint form: columns that are not orthonormal
              DensityMatrix(np.hstack([q, gaussian(m_sites, r)]),
                            np.concatenate([lam, lam]) / 2),
              DensityMatrix(q, rng.uniform(-0.5, 1.5, r))]
    for state in states:
        m = dense(state)
        oracle = np.linalg.norm(m @ m - m, "fro")
        assert state.idempotency_defect() == pytest.approx(oracle, rel=1e-12, abs=1e-14)
    assert states[0].idempotency_defect() < 1e-14


@pytest.mark.parametrize("kind", list(MeanFieldKind))
def test_step_local_error_is_third_order(kind):
    # Richardson: one step of size dt vs dt/2 against a dt/100 reference;
    # a second-order scheme has local error O(dt^3), ratio ~ 8
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(2, 1)
    om = trapped_slater(lat, hbar, 50.0, 2)
    dt = 2e-2

    def one_step_error(h_step):
        ref = dense(_advance(om, kind, pot, hbar, h_step / 100, 100))
        return np.linalg.norm(dense(_advance(om, kind, pot, hbar, h_step, 1)) - ref, "fro")

    ratio = one_step_error(dt) / one_step_error(dt / 2)
    assert 6.0 < ratio < 10.0


def test_evolve_free_ball_is_stationary(setup16):
    lat, _, hbar, om = setup16
    v0 = build_potential({"shape": "zero"}, lat)
    cfg = EvolutionConfig(dt=1e-2, t_final=1.0, snapshot_stride=100)
    final = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar))[-1].state
    assert np.max(np.abs(dense(final) - dense(om))) < 1e-10


def test_evolve_trace_stability(setup16):
    lat, pot, hbar, om = setup16
    cfg = EvolutionConfig(dt=1e-3, t_final=1.0)  # every step kept: its trace is read
    snaps = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))
    assert max(abs(s.trace - 3.0) for s in snaps) < 1e-9
    assert len(snaps) == 1001
    assert snaps[-1].max_trace_drift == max(abs(s.trace - snaps[0].trace) for s in snaps)


def test_hf_energy_examples():
    lat = make_lattice(1, 8, 1.0)
    v0 = build_potential({"shape": "zero"}, lat)
    hbar = 0.4
    om = plane_wave_projection(lat, np.array([[-1], [0], [1]]))
    # V = 0: both flows' energy is the kinetic sum hbar^2 (2 pi)^2 (1 + 0 + 1)
    for h in (None, generator(om, v0, hbar)[0]):
        assert energy(om, v0, hbar, h)[0] == pytest.approx(2 * hbar ** 2 * (2 * np.pi) ** 2,
                                                            rel=1e-12)


def test_hf_energy_conserved_along_flow():
    lat = make_lattice(1, 32, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(4, 1)
    om = trapped_slater(lat, hbar, 50.0, 4)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = EvolutionConfig(dt=dt, t_final=0.2)  # every step kept: its energy is read
        snaps = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))
        e0 = snaps[0].energy
        drifts.append(max(abs(s.energy - e0) for s in snaps) / abs(e0))
        assert snaps[-1].max_energy_drift == max(abs(s.energy - e0) for s in snaps)
    assert drifts[1] < 1e-6
    # the drift is an integrator artifact converging to zero at order dt^2
    assert drifts[0] / drifts[1] > 3.0


def test_compare_hf_hartree_degenerate_cases(tmp_path):
    doc = {"scenario": "compare-hf-hartree", "lattice": {"ds": 1, "d": 16},
           "model": {"n_particles": 3}, "potential": {"shape": "zero"},
           "initial": {"kind": "ball"},
           "evolution": {"dt": 1e-2, "t_final": 0.1, "snapshot_stride": 5}}
    result = run(parse_config(json.dumps(doc)), str(tmp_path))["result"]
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    times, gaps = (np.array([float(row.split(",")[i]) for row in rows]) for i in (0, 1))
    np.testing.assert_allclose(times, [0.0, 0.05, 0.1], atol=1e-15)
    assert result["final_gap"] == gaps[-1]
    assert gaps[0] == 0.0
    assert np.max(gaps) < 1e-10  # V = 0: the two flows coincide


def test_evolution_config_rejects_partial_last_step():
    # 0.1 is not a whole number of 0.03 steps: the run would stop at 0.09
    with pytest.raises(ValueError, match="whole number"):
        EvolutionConfig(dt=0.03, t_final=0.1)
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig(dt=0.1, t_final=float("inf"))
    with pytest.raises(ValueError, match="positive"):
        EvolutionConfig(dt=float("nan"), t_final=0.3)
    assert EvolutionConfig(dt=1e-3, t_final=0.5).n_steps == 500
    assert EvolutionConfig(dt=0.1, t_final=0.3).n_steps == 3


def test_non_finite_states_are_never_carried_forward(monkeypatch):
    import fermiflow.meanfield as mf

    lat = make_lattice(1, 4, 1.0)
    v0 = build_potential({"shape": "zero"}, lat)
    hbar = default_hbar(4, 1)
    cfg = EvolutionConfig(dt=0.1, t_final=0.3)
    phi = np.eye(4, dtype=complex)
    phi[0, 1] = phi[1, 0] = np.nan
    bad = DensityMatrix(phi, np.ones(4))
    with pytest.raises(ValueError, match="non-finite"):
        bad.validate()
    for kind in MeanFieldKind:  # evolve validates at its first next
        with pytest.raises(ValueError, match="non-finite"):
            list(evolve(bad, cfg, kind, v0, hbar))
    # a step of either flow that produces NaN trips the blow-up guard
    nan_state = DensityMatrix(np.full((4, 4), np.nan, dtype=complex), np.ones(4))
    monkeypatch.setattr(mf, "step", lambda *args: nan_state)
    monkeypatch.setattr(mf, "split_step", lambda *args: (nan_state, nan_state.orbitals))
    good = DensityMatrix(*spectral_form(np.eye(4, dtype=complex))[:2])
    for kind in MeanFieldKind:
        with pytest.raises(RuntimeError, match="blow-up"):
            list(evolve(good, cfg, kind, v0, hbar))


@pytest.mark.parametrize("ds,d", [(2, 5), (3, 3)])
def test_interaction_tables_match_site_sum_oracles(ds, d):
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(3, ds)
    m_sites = lat.site_count
    idx = lat.site_indices()
    place = d ** np.arange(ds - 1, -1, -1)  # row-major flat index weights
    v = np.empty((m_sites, m_sites))
    for i in range(m_sites):
        for j in range(m_sites):
            v[i, j] = pot.real_space[int(((idx[i] - idx[j]) % d) @ place)]
    assert np.array_equal(pot.pair_matrix, v)

    rng = np.random.default_rng(ds)
    rho = rng.random(m_sites)
    cell = lat.spacing ** ds
    assert np.max(np.abs(direct_term(rho, pot) - cell * v @ rho)) < 1e-12

    # a rank-3 projection that is not translation invariant
    q = np.linalg.qr(rng.normal(size=(m_sites, 3))
                     + 1j * rng.normal(size=(m_sites, 3)))[0]
    om = q @ q.conj().T
    dm = DensityMatrix(*spectral_form(om)[:2])
    for kind, h in ((MeanFieldKind.HARTREE, None),
                    (MeanFieldKind.HARTREE_FOCK, generator(dm, pot, hbar)[0])):
        e = _site_sum_energy(om, 3, kind, v, kinetic_operator(lat, hbar))
        assert energy(dm, pot, hbar, h)[0] == pytest.approx(e, rel=1e-12)
