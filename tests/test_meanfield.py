"""Mean-field flows: terms of the generator, the integrator, conservation."""

import numpy as np
import pytest

import fermiflow.meanfield as mf
from fermiflow.diagnostics import spectral_form
from fermiflow.initial_data import (DensityMatrix, fermi_ball_indices,
                                    plane_wave_projection, trapped_slater)
from fermiflow.meanfield import (EvolutionConfig, MeanFieldKind, compare_hf_hartree,
                                 density_profile, direct_term, evolve,
                                 exchange_term, generator, hf_energy, step)
from fermiflow.model import build_potential, default_hbar, kinetic_operator, make_lattice


def harmonic(lat, strength):
    x = lat.sites() - 0.5 * lat.length
    x -= lat.length * np.round(x / lat.length)
    return strength * np.sum(x ** 2, axis=1)


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
    om = trapped_slater(lat, 0.25, harmonic(lat, 200.0), 4)
    rho = density_profile(om, lat)
    assert 24 <= np.argmax(rho) <= 40  # mass near the trap center
    assert rho[0] < 1e-2 * rho.max()
    assert np.sum(rho) * lat.spacing == pytest.approx(1.0, abs=1e-10)


def test_direct_term_constant_density(setup16):
    lat, pot, _, _ = setup16
    rho = np.full(16, 1.0 / lat.length)
    u = direct_term(rho, pot)
    # constant density picks out the zero Fourier mode of V
    expected = pot.fourier.real[np.all(lat.momentum_indices() == 0, axis=1)][0]
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
    om = trapped_slater(lat, 1.0, harmonic(lat, 50.0), 1)
    f = np.linalg.eigh(om.matrix)[1][:, -1]
    rho = density_profile(om, lat)
    mismatch = (np.diag(direct_term(rho, pot)) - exchange_term(om, pot)) @ f
    assert np.max(np.abs(mismatch)) < 1e-10


def test_generator_free_and_term_difference(setup16):
    lat, pot, hbar, om = setup16
    # with the zero potential both kinds give the free generator, bit for bit
    v0 = build_potential({"shape": "zero"}, lat)
    for kind in MeanFieldKind:
        assert np.array_equal(generator(om, kind, v0, hbar),
                              kinetic_operator(lat, hbar))
    h_hf = generator(om, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    h_h = generator(om, MeanFieldKind.HARTREE, pot, hbar)
    assert np.max(np.abs((h_h - h_hf) - exchange_term(om, pot))) < 1e-12


def test_step_preserves_spectrum(setup16):
    lat, pot, hbar, om = setup16
    cfg = EvolutionConfig(dt=1e-2, t_final=1e-2)
    new = step(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    assert np.allclose(np.linalg.eigvalsh(new.matrix),
                       np.linalg.eigvalsh(om.matrix), atol=1e-10)


def test_step_free_is_exact_conjugation():
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "zero"}, lat)
    hbar = default_hbar(2, 1)
    om = trapped_slater(lat, hbar, harmonic(lat, 20.0), 2)
    cfg = EvolutionConfig(dt=0.3, t_final=0.3)
    new = step(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    h = kinetic_operator(lat, hbar)
    eig, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * cfg.dt * eig / hbar)) @ vec.conj().T
    ref = u @ om.matrix @ u.conj().T
    assert np.max(np.abs(new.matrix - ref)) < 1e-12


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


@pytest.mark.parametrize("kind", list(MeanFieldKind))
@pytest.mark.parametrize("ds,d,n", [(1, 16, 3), (3, 4, 4), (1, 64, 8)])
def test_orbital_step_matches_dense_conjugation(ds, d, n, kind):
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, harmonic(lat, 50.0), n)
    m = om.matrix
    cfg = EvolutionConfig(dt=1e-2, t_final=1e-2)
    for _ in range(5):
        om = step(om, cfg, kind, pot, hbar)
        m = _dense_step(m, n, cfg.dt, kind, pot, hbar)
    assert np.linalg.norm(om.matrix - m, "fro") <= 1e-13


def _trapped_generator(ds, d, n, kind):
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, harmonic(lat, 50.0), n)
    return om, generator(om, kind, pot, hbar), pot, hbar


def _eigh_exponential(phi, h, dt, hbar):
    """The oracle of the Chebyshev series: exp(-i dt h / hbar) Phi from eigh."""
    eig, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * dt * eig / hbar)) @ (vec.conj().T @ phi)


@pytest.mark.parametrize("kind", list(MeanFieldKind))
@pytest.mark.parametrize("ds,d", [(1, 64), (3, 8)])
def test_gershgorin_interval_contains_spectrum(ds, d, kind):
    _, h, _, _ = _trapped_generator(ds, d, 4, kind)
    lo, hi = mf._gershgorin_interval(h)
    eig = np.linalg.eigvalsh(h)
    assert lo <= eig[0] and eig[-1] <= hi


# M = 64 needs >= 64 terms from a ~ 30 on: both sides of that boundary
@pytest.mark.parametrize("a", [0.3, 3.0, 20.0, 29.0, 31.0, 63.9, 64.0, 1e3])
def test_conjugate_matches_eigh_oracle(a):
    om, h, _, hbar = _trapped_generator(1, 64, 8, MeanFieldKind.HARTREE_FOCK)
    lo, hi = mf._gershgorin_interval(h)
    dt = 2 * a * hbar / (hi - lo)
    got = mf._conjugate(om.orbitals, h, dt, hbar)
    assert np.max(np.abs(got - _eigh_exponential(om.orbitals, h, dt, hbar))) <= 1e-13


def test_conjugate_of_a_multiple_of_the_identity():
    # h = c I: zero Gershgorin width, a is raised to 1/64 and h2 = 0
    phi = np.linalg.qr(np.random.default_rng(2).normal(size=(64, 4)) + 0j)[0]
    h = 2.5 * np.eye(64, dtype=complex)
    got = mf._conjugate(phi, h, 1e-2, 0.5)
    assert np.max(np.abs(got - np.exp(-0.05j) * phi)) <= 1e-15
    assert np.max(np.abs(got - _eigh_exponential(phi, h, 1e-2, 0.5))) <= 1e-13


def test_orbitals_stay_orthonormal_over_many_steps():
    om, _, pot, hbar = _trapped_generator(1, 64, 8, MeanFieldKind.HARTREE_FOCK)
    cfg = EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000)
    phi = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar).states[-1].orbitals
    assert np.max(np.abs(phi.conj().T @ phi - np.eye(8))) <= 1e-11


@pytest.mark.parametrize("ds,d,n,dt", [(1, 64, 8, 1e-3), (3, 8, 10, 2e-3)])
def test_steps_take_the_series_and_large_a_takes_eigh(ds, d, n, dt, monkeypatch):
    om, h, pot, hbar = _trapped_generator(ds, d, n, MeanFieldKind.HARTREE_FOCK)

    def no_eigh(*args):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    cfg = EvolutionConfig(dt=dt, t_final=dt)
    step(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar).validate()
    lo, hi = mf._gershgorin_interval(h)
    with pytest.raises(AssertionError, match="eigh called"):  # a = dim h
        mf._conjugate(om.orbitals, h, 2 * len(h) * hbar / (hi - lo), hbar)


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
        m = state.matrix
        oracle = np.linalg.norm(m @ m - m, "fro")
        assert state.idempotency_defect() == pytest.approx(oracle, rel=1e-12, abs=1e-14)
    assert states[0].idempotency_defect() < 1e-14


def test_step_local_error_is_third_order():
    # Richardson: one step of size dt vs dt/2 against a dt/100 reference;
    # a second-order scheme has local error O(dt^3), ratio ~ 8
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(2, 1)
    om = trapped_slater(lat, hbar, harmonic(lat, 50.0), 2)
    dt = 2e-2

    def advance(state, h_step, n):
        cfg = EvolutionConfig(dt=h_step, t_final=h_step)
        for _ in range(n):
            state = step(state, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
        return state

    def one_step_error(h_step):
        ref = advance(om, h_step / 100, 100).matrix
        return np.linalg.norm(advance(om, h_step, 1).matrix - ref, "fro")

    ratio = one_step_error(dt) / one_step_error(dt / 2)
    assert 6.0 < ratio < 10.0


def test_evolve_free_ball_is_stationary(setup16):
    lat, _, hbar, om = setup16
    v0 = build_potential({"shape": "zero"}, lat)
    cfg = EvolutionConfig(dt=1e-2, t_final=1.0, snapshot_stride=100)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar)
    assert np.max(np.abs(traj.states[-1].matrix - om.matrix)) < 1e-10


def test_evolve_trace_stability(setup16):
    lat, pot, hbar, om = setup16
    cfg = EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    assert max(abs(tr - 3.0) for tr in traj.trace) < 1e-9
    assert len(traj.trace) == 1001


def test_hf_energy_examples():
    lat = make_lattice(1, 8, 1.0)
    v0 = build_potential({"shape": "zero"}, lat)
    hbar = 0.4
    om = plane_wave_projection(lat, np.array([[-1], [0], [1]]))
    e = hf_energy(om, MeanFieldKind.HARTREE_FOCK, v0, hbar)
    assert e == pytest.approx(2 * hbar ** 2 * (2 * np.pi) ** 2, rel=1e-12)


def test_hf_energy_conserved_along_flow():
    lat = make_lattice(1, 32, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    hbar = default_hbar(4, 1)
    om = trapped_slater(lat, hbar, harmonic(lat, 50.0), 4)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = EvolutionConfig(dt=dt, t_final=0.2, snapshot_stride=1000)
        traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
        e0 = traj.energy[0]
        drifts.append(max(abs(e - e0) for e in traj.energy) / abs(e0))
    assert drifts[1] < 1e-6
    # the drift is an integrator artifact converging to zero at order dt^2
    assert drifts[0] / drifts[1] > 3.0


def test_compare_hf_hartree_degenerate_cases():
    lat = make_lattice(1, 16, 1.0)
    hbar = default_hbar(3, 1)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    v0 = build_potential({"shape": "zero"}, lat)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, snapshot_stride=5)
    times, gaps = compare_hf_hartree(om, cfg, v0, hbar)
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
    with pytest.raises(ValueError, match="non-finite"):
        evolve(bad, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar)
    # a step that produces NaN trips the blow-up guard
    nan_state = DensityMatrix(np.full((4, 4), np.nan, dtype=complex), np.ones(4))
    monkeypatch.setattr(mf, "step", lambda *args: nan_state)
    good = DensityMatrix(*spectral_form(np.eye(4, dtype=complex))[:2])
    with pytest.raises(RuntimeError, match="blow-up"):
        evolve(good, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar)


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
    k = kinetic_operator(lat, hbar)
    e = 0.0
    for x in range(m_sites):
        for y in range(m_sites):
            e += (k[x, y] * om[y, x]).real
            e += 0.5 / 3 * v[x, y] * (om[x, x] * om[y, y] - abs(om[x, y]) ** 2).real
    got = hf_energy(DensityMatrix(*spectral_form(om)[:2]), MeanFieldKind.HARTREE_FOCK,
                   pot, hbar)
    assert got == pytest.approx(e, rel=1e-12)
