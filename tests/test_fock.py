"""Exact second-quantized oracle: CAR, Bogoliubov machinery, reduced
densities, fluctuation dynamics, and the quadratic-operator bounds."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fermiflow import fock
from fermiflow.fock import (FockSpace, SectorPropagator, car_defect, d_gamma,
                            field_operator, fluctuation_vector,
                            generalized_density, hamiltonian,
                            implement_bogoliubov, number_moment,
                            number_operator, pair_operator, quasi_free_state,
                            rdm1, rdmk, slater_vector, verify_operator_bounds,
                            wick_rdmk)
from fermiflow.diagnostics import spectral_form
from fermiflow.initial_data import (DensityMatrix, fermi_ball_indices,
                                    plane_wave_projection, trapped_slater)
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import build_potential, default_hbar, kinetic_operator, \
    make_lattice


def site(space, x, create):
    """a*_x or a_x as the field operator of the unit vector e_x."""
    return field_operator(space, np.eye(space.l_sites)[x], create)


def random_projection(l_sites, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(l_sites, n)) + 1j * rng.normal(size=(l_sites, n))
    q, _ = np.linalg.qr(a)
    m = q @ q.conj().T
    return DensityMatrix(*spectral_form(m)[:2])


def test_car_anticommutators():
    space = FockSpace(4)
    ident = np.eye(space.dim)
    a0 = site(space, 0, False).toarray()
    c0 = site(space, 0, True).toarray()
    assert np.max(np.abs(a0 @ c0 + c0 @ a0 - ident)) < 1e-14
    for x in range(4):
        ax = site(space, x, False).toarray()
        assert np.max(np.abs(ax @ ax)) == 0.0


def test_car_defect_zero_and_detects_missing_signs(monkeypatch):
    assert car_defect(FockSpace(4)) < 1e-14
    signed = fock.field_operator
    # without Jordan-Wigner strings, a_x and a_y commute instead of anticommuting
    monkeypatch.setattr(fock, "field_operator", lambda space, f, create:
                        abs(signed(space, f, create)))
    assert car_defect(FockSpace(4)) > 0.5


def kron_annihilators(l_sites):
    """a_x = Z on sites below x, sigma^- on x, identity above; site 0 is the
    least significant bit of the basis index."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.diag([1.0, -1.0])
    ops = []
    for x in range(l_sites):
        a = np.eye(1)
        for s in range(l_sites - 1, -1, -1):
            a = np.kron(a, np.eye(2) if s > x else lower if s == x else z)
        ops.append(a)
    return ops


def test_operators_match_kronecker_oracle():
    space = FockSpace(4)
    a = kron_annihilators(4)
    for x in range(4):
        assert np.max(np.abs(site(space, x, False).toarray() - a[x])) == 0.0
        assert np.max(np.abs(site(space, x, True).toarray() - a[x].T)) == 0.0
    rng = np.random.default_rng(3)
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    words = {
        "dgamma": (d_gamma(space, o), lambda x, y: a[x].T @ a[y]),
        "pair annihilation": (pair_operator(space, o, create=False),
                              lambda x, y: a[x] @ a[y]),
        "pair creation": (pair_operator(space, o, create=True),
                          lambda x, y: a[x].T @ a[y].T),
    }
    for name, (op, word) in words.items():
        oracle = sum(o[x, y] * word(x, y) for x in range(4) for y in range(4))
        assert np.max(np.abs(op.toarray() - oracle)) < 1e-12, name


@pytest.mark.parametrize("build, k", [
    (lambda space, c: field_operator(space, c, create=True), 1),
    (lambda space, c: pair_operator(space, c, create=False), 2),
    (d_gamma, 2),
], ids=["field_operator", "pair_operator", "d_gamma"])
def test_coefficient_shape_is_checked(build, k):
    space = FockSpace(3)
    assert build(space, np.ones((3,) * k)).shape == (space.dim, space.dim)
    for shape in [(5,), (2,), (3, 3), (5, 5), (2, 2), (3, 3, 3)]:
        if shape != (3,) * k:
            with pytest.raises(ValueError, match="shape"):
                build(space, np.ones(shape))


def test_field_operator_bounded():
    space = FockSpace(5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        created = field_operator(space, f, create=True) @ psi
        assert np.linalg.norm(created) <= np.linalg.norm(f) * np.linalg.norm(psi) + 1e-12


def test_dgamma_number_and_diagonal():
    space = FockSpace(5)
    n_op = d_gamma(space, np.eye(5)).toarray()
    assert np.max(np.abs(n_op - number_operator(space).toarray())) == 0.0
    lam = np.array([0.5, -1.0, 2.0, 0.0, 3.0])
    dg = d_gamma(space, np.diag(lam)).toarray()
    for b in range(space.dim):
        expected = sum(lam[x] for x in range(5) if (b >> x) & 1)
        assert dg[b, b] == pytest.approx(expected)


def test_dgamma_matches_first_quantized_two_particle_oracle():
    space = FockSpace(5)
    rng = np.random.default_rng(1)
    o = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    dg = d_gamma(space, o).toarray()
    # antisymmetric embedding of the 2-particle sector: |x<y| -> (e_x^e_y)/sqrt2
    pairs = [(x, y) for x in range(5) for y in range(5) if x < y]
    embed = np.zeros((25, len(pairs)), dtype=complex)
    for col, (x, y) in enumerate(pairs):
        embed[x * 5 + y, col] = 1.0 / np.sqrt(2.0)
        embed[y * 5 + x, col] = -1.0 / np.sqrt(2.0)
    first_q = np.kron(o, np.eye(5)) + np.kron(np.eye(5), o)
    oracle = embed.conj().T @ first_q @ embed
    # map bitmask basis of the sector: a*_x a*_y vacuum for x < y
    idx = [sum(1 << z for z in (x, y)) for (x, y) in pairs]
    # sign of a*_x a*_y vacuum relative to e_x ^ e_y ordering
    block = dg[np.ix_(idx, idx)]
    assert np.max(np.abs(block - oracle)) < 1e-12


def test_hamiltonian_free_and_number_conservation():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    v0 = build_potential({"shape": "zero"}, lat)
    h = hamiltonian(space, v0, hbar, 2)
    hk = d_gamma(space, kinetic_operator(lat, hbar))
    assert abs(h - hk).max() < 1e-12
    pot = build_potential({"shape": "cosine", "strength": 1.0, "mode": 1}, lat)
    h = hamiltonian(space, pot, hbar, 2)
    n_op = number_operator(space)
    assert abs(h @ n_op - n_op @ h).max() < 1e-12


def test_hamiltonian_two_site_pair_energy():
    lat = make_lattice(1, 2, 1.0)
    n = 2
    hbar = default_hbar(n, 1)
    space = FockSpace(2)
    pot = build_potential({"shape": "cosine", "strength": 0.7, "mode": 1}, lat)
    h = hamiltonian(space, pot, hbar, n).toarray()
    v01 = pot.real_space[1]  # V(x_0 - x_1) by evenness
    kinetic = np.trace(kinetic_operator(lat, hbar)).real
    # |11> is an eigenstate: full kinetic trace plus the pair interaction
    expected = kinetic + 0.5 / n * 2.0 * v01
    assert h[3, 3].real == pytest.approx(expected, rel=1e-12)


def test_fluctuation_moments_do_not_depend_on_the_orbital_basis():
    # Phi -> Phi W changes R only by a phase and a number-conserving unitary
    space = FockSpace(8)
    rng = np.random.default_rng(23)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    phi = np.linalg.qr(gaussian(8, 3))[0]
    w = np.linalg.qr(gaussian(3, 3))[0]
    psi = gaussian(space.dim)
    psi /= np.linalg.norm(psi)
    xi = fluctuation_vector(space, DensityMatrix(phi, np.ones(3)), psi)
    xi_w = fluctuation_vector(space, DensityMatrix(phi @ w, np.ones(3)), psi)
    for k in (1, 2, 3):
        assert number_moment(xi_w, k, space) == pytest.approx(
            number_moment(xi, k, space), rel=1e-12)


def test_bogoliubov_rejects_non_projection():
    m = 0.5 * np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="projection"):
        implement_bogoliubov(FockSpace(3), DensityMatrix(*spectral_form(m)[:2]))


def test_bogoliubov_check_rejects_non_orthonormal_orbitals():
    dm = random_projection(4, 2, seed=2)
    with pytest.raises(ValueError, match="orthonormal"):
        implement_bogoliubov(FockSpace(4), DensityMatrix(dm.orbitals * 1.1,
                                                         dm.occupations))


def test_implement_bogoliubov_keeps_the_orthonormality_gate():
    # a Gram defect of ~1e-11 passes DensityMatrix.validate (1e-10) but not
    # the 1e-12 that makes R unitary
    phi = random_projection(4, 2, seed=2).orbitals
    phi = phi @ np.array([[1.0 + 5e-12, 0.0], [0.0, 1.0]])
    dm = DensityMatrix(phi, np.ones(2))
    dm.validate()
    with pytest.raises(ValueError, match="orthonormal"):
        implement_bogoliubov(FockSpace(4), dm)


def test_implement_bogoliubov_identity_and_single_mode():
    space = FockSpace(3)
    r = implement_bogoliubov(space, DensityMatrix(np.zeros((3, 0)), np.zeros(0)))
    assert np.max(np.abs(r @ np.eye(space.dim) - np.eye(space.dim))) < 1e-14

    space1 = FockSpace(1)
    m = np.ones((1, 1), dtype=complex)
    r = implement_bogoliubov(space1, DensityMatrix(*spectral_form(m)[:2])) @ np.eye(2)
    assert np.max(np.abs(np.abs(r) - np.array([[0, 1], [1, 0]]))) < 1e-12


def test_factored_implementor_matches_dense_product():
    space = FockSpace(6)
    dm = random_projection(6, 3, seed=17)
    r = implement_bogoliubov(space, dm)
    dense = np.eye(space.dim)
    for f in dm.orbitals.T:
        dense = dense @ (field_operator(space, f, True)
                         + field_operator(space, f, False)).toarray()
    got = r @ np.eye(space.dim)
    assert np.max(np.abs(got - dense)) < 1e-12
    assert np.max(np.abs(got.conj().T @ got - np.eye(space.dim))) < 1e-12
    rng = np.random.default_rng(18)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    assert np.max(np.abs(r.H @ (r @ psi) - psi)) < 1e-12
    assert np.max(np.abs(r @ space.vacuum()
                         - slater_vector(space, dm.orbitals))) < 1e-12


def test_implementor_vacuum_is_slater_state():
    space = FockSpace(5)
    dm = random_projection(5, 2, seed=7)
    r = implement_bogoliubov(space, dm)
    target = slater_vector(space, dm.orbitals)
    got = r @ space.vacuum()
    overlap = abs(np.vdot(target, got)) / (np.linalg.norm(target)
                                           * np.linalg.norm(got))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_quasi_free_state_site_projection():
    space = FockSpace(4)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0
    psi = quasi_free_state(space, DensityMatrix(*spectral_form(m)[:2]))
    amp = np.abs(psi)
    assert amp[0b0011] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(amp > 1e-12) == 1


def test_quasi_free_state_reduced_density_and_projection():
    space = FockSpace(5)
    dm = random_projection(5, 3, seed=11)
    psi = quasi_free_state(space, dm)
    assert np.max(np.abs(rdm1(psi, space) - dm.matrix)) < 1e-10
    gamma = generalized_density(psi, space)
    assert np.max(np.abs(gamma @ gamma - gamma)) < 1e-10


def test_sector_propagator_basics():
    lat = make_lattice(1, 4, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(4)
    pot = build_potential({"shape": "cosine", "strength": 0.8, "mode": 1}, lat)
    h = hamiltonian(space, pot, hbar, 2)
    prop = SectorPropagator(space, h, hbar)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(prop(psi, 0.0) - psi)) < 1e-14
    # eigenvector picks up a phase only
    hd = h.toarray()
    eig, vec = np.linalg.eigh(hd)
    ev = vec[:, 3].astype(complex)
    out = prop(ev, 0.3)
    expected = np.exp(-1j * 0.3 * eig[3] / hbar) * ev
    assert np.max(np.abs(out - expected)) < 1e-10


def test_exact_evolve_matches_fine_stepping():
    lat = make_lattice(1, 4, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(4)
    pot = build_potential({"shape": "cosine", "strength": 0.8, "mode": 1}, lat)
    prop = SectorPropagator(space, hamiltonian(space, pot, hbar, 2), hbar)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    direct = prop(psi, 0.2)
    stepped = psi
    for _ in range(200):
        stepped = prop(stepped, 1e-3)
    assert np.max(np.abs(direct - stepped)) < 1e-8


def test_rdm1_examples():
    space = FockSpace(3)
    psi = site(space, 0, True) @ space.vacuum()
    g = rdm1(psi, space)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.max(np.abs(g - expected)) < 1e-14

    psi = (site(space, 0, True) @ space.vacuum()
           + site(space, 1, True) @ space.vacuum()) / np.sqrt(2)
    g = rdm1(psi, space)
    assert np.allclose(g[:2, :2], 0.5, atol=1e-12)
    assert np.trace(g).real == pytest.approx(1.0, abs=1e-12)


def test_rdmk_examples():
    space = FockSpace(4)
    psi = site(space, 1, True) @ space.vacuum()
    psi = site(space, 0, True) @ psi  # a*_0 a*_1 vacuum
    g2 = rdmk(psi, 2, space)
    assert g2[0, 1, 0, 1].real == pytest.approx(1.0, abs=1e-12)
    assert np.einsum("xyxy->", g2).real == pytest.approx(2.0, abs=1e-12)
    # CAR antisymmetry under swapping arguments
    assert g2[1, 0, 0, 1].real == pytest.approx(-1.0, abs=1e-12)
    g1 = rdmk(psi, 1, space)
    assert np.max(np.abs(g1 - rdm1(psi, space))) < 1e-12


def test_wick_rdmk_examples():
    eye2 = np.eye(2, dtype=complex)
    w2 = wick_rdmk(eye2, 2)
    assert w2[0, 1, 0, 1].real == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    m = rng.normal(size=(3, 3))
    assert np.max(np.abs(wick_rdmk(m, 1) - m)) < 1e-14


def test_wick_matches_exact_quasi_free_contraction():
    space = FockSpace(4)
    dm = random_projection(4, 2, seed=13)
    psi = quasi_free_state(space, dm)
    assert np.max(np.abs(rdmk(psi, 2, space) - wick_rdmk(dm.matrix, 2))) < 1e-10


def test_generalized_density_number_eigenstate_and_bounds():
    space = FockSpace(4)
    psi = site(space, 2, True) @ space.vacuum()
    gamma = generalized_density(psi, space)
    alpha = gamma[:4, 4:]
    assert np.max(np.abs(alpha)) < 1e-14
    rng = np.random.default_rng(8)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    eig = np.linalg.eigvalsh(generalized_density(psi, space))
    assert eig.min() > -1e-10 and eig.max() < 1.0 + 1e-10


def test_number_moment_examples():
    space = FockSpace(3)
    assert number_moment(space.vacuum(), 2, space) == pytest.approx(1.0)
    one = site(space, 0, True) @ space.vacuum()
    assert number_moment(one, 1, space) == pytest.approx(2.0)
    psi = 0.6 * space.vacuum() + 0.8 * one
    oracle = 0.36 * 1.0 + 0.64 * 4.0  # sector-sum of (n+1)^2
    assert number_moment(psi, 2, space) == pytest.approx(oracle, abs=1e-12)


def test_number_moment_keeps_a_small_mean_exact():
    # <N> ~ 1e-10 in closed form; <N + 1> - 1 keeps only ~6 of its digits
    space = FockSpace(3)
    one = site(space, 0, True) @ space.vacuum()
    two = site(space, 1, True) @ one
    beta, gamma = 1e-5, 3e-6
    xi = space.vacuum() + beta * one + gamma * two
    b2, g2 = Fraction(beta) ** 2, Fraction(gamma) ** 2
    exact = float((b2 + 2 * g2) / (1 + b2 + g2))
    assert abs(number_moment(xi, 1, space, shift=0.0) - exact) <= 1e-14 * exact
    assert abs(number_moment(xi, 1, space) - 1.0 - exact) > 1e-14 * exact
    assert number_moment(space.vacuum(), 1, space, shift=0.0) == 0.0


def test_fluctuation_dynamics_identity_at_t0_and_norm():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    pot = build_potential({"shape": "cosine", "strength": 0.5, "mode": 1}, lat)
    om = trapped_slater(lat, hbar,
                        5.0 * (lat.sites()[:, 0] - 0.4) ** 2, 2)
    rng = np.random.default_rng(9)
    xi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    xi /= np.linalg.norm(xi)
    r0 = implement_bogoliubov(space, om)
    assert np.max(np.abs(fluctuation_vector(space, om, r0 @ xi) - xi)) < 1e-10
    cfg = EvolutionConfig(dt=1e-3, t_final=0.01)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar)
    prop = SectorPropagator(space, hamiltonian(space, pot, hbar, 2), hbar)
    out = fluctuation_vector(space, traj.states[-1], prop(r0 @ xi, traj.times[-1]))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_fluctuation_vacuum_stable_without_interaction():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    v0 = build_potential({"shape": "zero"}, lat)
    om = trapped_slater(lat, hbar,
                        5.0 * (lat.sites()[:, 0] - 0.4) ** 2, 2)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.5, snapshot_stride=10)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar)
    prop = SectorPropagator(space, hamiltonian(space, v0, hbar, 2), hbar)
    psi0 = quasi_free_state(space, om)
    for t, om_t in zip(traj.times[1:], traj.states[1:]):
        xi = fluctuation_vector(space, om_t, prop(psi0, t))
        assert number_moment(xi, 1, space) - 1.0 < 1e-9


def test_operator_bound_saturation_and_zero():
    space = FockSpace(4)
    psi = site(space, 1, True) @ space.vacuum()
    psi = site(space, 0, True) @ psi
    dg = d_gamma(space, np.eye(4))
    assert np.linalg.norm(dg @ psi) == pytest.approx(2.0, abs=1e-12)
    zero = d_gamma(space, np.zeros((4, 4)))
    assert abs(zero).max() == 0.0


def test_operator_bounds_random_trials():
    report = verify_operator_bounds(FockSpace(5), trials=25, seed=42)
    for name, entry in report.items():
        if isinstance(entry, dict):
            assert entry["violations"] == 0
            assert entry["worst_slack"] > -1e-10


def test_fock_space_size_guard():
    with pytest.raises(ValueError):
        FockSpace(15)
    with pytest.raises(ValueError, match="dense"):
        verify_operator_bounds(FockSpace(13), trials=1, seed=0)
