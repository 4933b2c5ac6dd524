"""Exact second-quantized oracle: CAR, Bogoliubov machinery, reduced
densities, fluctuation dynamics, and the quadratic-operator bounds."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fermiflow import fock
from fermiflow.fock import (FockSpace, car_defect, d_gamma, field_operator,
                            fluctuation_vector, hamiltonian, implement_bogoliubov,
                            number_moment, pair_operator, propagate, quasi_free_state,
                            rdm1, verify_operator_bounds)
from fermiflow.initial_data import DensityMatrix, fermi_ball_indices, plane_wave_projection
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import DENSE_MAX_SITES, build_potential, default_hbar, \
    kinetic_operator, make_lattice

from _oracles import (SectorPropagator, csr_word, dense, dense_slater, generalized_density,
                      gershgorin_interval, number_operator, rdmk, slater_vector,
                      spectral_form, wick_rdmk)


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
    a0 = site(space, 0, False)
    c0 = site(space, 0, True)
    assert np.max(np.abs(a0 @ c0 + c0 @ a0 - ident)) < 1e-14
    for x in range(4):
        ax = site(space, x, False)
        assert np.max(np.abs(ax @ ax)) == 0.0


def test_car_defect_zero_and_detects_missing_signs(monkeypatch):
    assert car_defect(FockSpace(4)) < 1e-14
    space = FockSpace(4)
    bits, jw, flip = space._table
    # without Jordan-Wigner strings, a_x and a_y commute instead of anticommuting
    monkeypatch.setitem(space.__dict__, "_table", (bits, np.ones_like(jw), flip))
    assert car_defect(space) > 0.5


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
        assert np.max(np.abs(site(space, x, False) - a[x])) == 0.0
        assert np.max(np.abs(site(space, x, True) - a[x].T)) == 0.0
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
        assert np.max(np.abs(op - oracle)) < 1e-12, name


@pytest.mark.parametrize("l_sites", range(1, 9))
def test_dense_words_match_the_csr_oracle(l_sites):
    # the field, pair and dGamma words filled from the table against the CSR build
    # over it, with real and complex coefficients
    space = FockSpace(l_sites)
    rng = np.random.default_rng(l_sites)
    real = rng.normal(size=(l_sites, l_sites))
    for o in (real, real + 1j * rng.normal(size=(l_sites, l_sites))):
        words = {
            "creation": (field_operator(space, o[0], True), (True,), o[0]),
            "annihilation": (field_operator(space, o[0], False), (False,), o[0].conj()),
            "dgamma": (d_gamma(space, o), (True, False), o),
            "pair annihilation": (pair_operator(space, o, create=False), (False, False), o),
            "pair creation": (pair_operator(space, o, create=True), (True, True), o),
        }
        for name, (got, creates, coef) in words.items():
            want = csr_word(space, creates, coef).toarray()
            assert got.dtype == want.dtype, name
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name


@pytest.mark.parametrize("complex_k", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("l_sites", range(4, 11))
def test_hamiltonian_and_sector_blocks_match_the_csr_oracle(monkeypatch, l_sites, complex_k):
    # H = dGamma(K) + (1/2N) sum V(x-y) a*_x a*_y a_y a_x as CSR words; the full H
    # for L <= 8 and every block `propagate` builds, each within 1e-14 of its largest entry
    lat = make_lattice(1, l_sites, 1.0)
    n_particles = l_sites // 2
    hbar = default_hbar(n_particles, 1)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    k = kinetic_operator(lat, hbar)
    if complex_k:  # a complex Hermitian K
        a = np.random.default_rng(l_sites).normal(size=k.shape)
        k = k + 1j * (a - a.T)
    monkeypatch.setattr(fock, "kinetic_operator", lambda *args: k)
    space = FockSpace(l_sites)
    x, y = np.indices((l_sites, l_sites))
    pair = np.zeros((l_sites,) * 4)
    pair[x, y, y, x] = pot.pair_matrix / (2 * n_particles)
    want = csr_word(space, (True, False), k) + csr_word(space, (True, True, False, False), pair)
    if l_sites <= 8:
        h = hamiltonian(space, pot, hbar, n_particles)
        assert h.dtype == want.dtype
        assert np.max(np.abs(h - want.toarray())) <= 1e-14 * abs(want).max()
    seen = []
    monkeypatch.setattr(fock, "apply_exponential", lambda phi, h, *rest: seen.append(h) or phi)
    next(propagate(space, pot, n_particles, np.ones(space.dim, dtype=complex), [1e-3], hbar))
    assert len(seen) == l_sites + 1
    occ = space.occupations()
    for n, block in enumerate(seen):  # the sectors in the order of n
        idx = np.nonzero(occ == n)[0]
        want_block = want[np.ix_(idx, idx)].toarray()
        assert block.dtype == want.dtype
        assert np.max(np.abs(block - want_block)) <= 1e-14 * np.max(np.abs(want_block))


def test_full_space_words_stop_at_the_dense_limit():
    # a sector block has no such limit, but needs as many a* as a
    space = FockSpace(DENSE_MAX_SITES + 1)
    with pytest.raises(ValueError, match=f"L <= {DENSE_MAX_SITES}, got {DENSE_MAX_SITES + 1}"):
        field_operator(space, np.ones(space.l_sites), True)
    basis = np.nonzero(space.occupations() == 1)[0]
    assert np.array_equal(d_gamma(space, np.eye(space.l_sites), basis), np.eye(len(basis)))
    with pytest.raises(ValueError, match="number-conserving"):
        fock._word(space, (True, True), np.ones((space.l_sites,) * 2), basis)


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
    n_op = d_gamma(space, np.eye(5))
    assert np.max(np.abs(n_op - number_operator(space).toarray())) == 0.0
    lam = np.array([0.5, -1.0, 2.0, 0.0, 3.0])
    dg = d_gamma(space, np.diag(lam))
    for b in range(space.dim):
        expected = sum(lam[x] for x in range(5) if (b >> x) & 1)
        assert dg[b, b] == pytest.approx(expected)


def test_dgamma_matches_first_quantized_two_particle_oracle():
    space = FockSpace(5)
    rng = np.random.default_rng(1)
    o = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    dg = d_gamma(space, o)
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
    h = hamiltonian(space, pot, hbar, n)
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
                         + field_operator(space, f, False))
    got = r @ np.eye(space.dim)
    assert np.max(np.abs(got - dense)) < 1e-12
    assert np.max(np.abs(got.conj().T @ got - np.eye(space.dim))) < 1e-12
    rng = np.random.default_rng(18)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    assert np.max(np.abs(r.H @ (r @ psi) - psi)) < 1e-12
    assert np.max(np.abs(r @ space.vacuum()
                         - slater_vector(space, dm.orbitals))) < 1e-12


@pytest.mark.parametrize("l_sites", [1, 4, 8, 10])
def test_implementor_gather_matches_the_sparse_factor_product(l_sites):
    # the Jordan-Wigner gather against the factors b(f) = a*(f) + a(f) of
    # field_operator: R = b_1 ... b_N (b_N acts first) and R* = b_N ... b_1, on a vector
    # and on a (dim, 2) block
    rng = np.random.default_rng(l_sites)
    n = max(1, l_sites // 2)
    q, _ = np.linalg.qr(rng.normal(size=(l_sites, n)) + 1j * rng.normal(size=(l_sites, n)))
    space = FockSpace(l_sites)
    r = implement_bogoliubov(space, DensityMatrix(q, np.ones(n)))
    factors = [field_operator(space, f, True) + field_operator(space, f, False) for f in q.T]
    block = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
    want_r, want_rh = block, block
    for b in factors[::-1]:
        want_r = b @ want_r
    for b in factors:
        want_rh = b @ want_rh
    assert np.max(np.abs(r @ block[:, 0] - want_r[:, 0])) <= 1e-13
    assert np.max(np.abs(r.H @ block[:, 1] - want_rh[:, 1])) <= 1e-13
    assert np.max(np.abs(r @ block - want_r)) <= 1e-13
    assert np.max(np.abs(r.H @ block - want_rh)) <= 1e-13


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
    assert np.max(np.abs(rdm1(psi, space) - dense(dm))) < 1e-10
    gamma = generalized_density(psi, space)
    assert np.max(np.abs(gamma @ gamma - gamma)) < 1e-10


def test_sector_propagator_basics():
    lat = make_lattice(1, 4, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(4)
    pot = build_potential({"shape": "cosine", "strength": 0.8, "mode": 1}, lat)
    h = hamiltonian(space, pot, hbar, 2)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(next(propagate(space, pot, 2, psi, [0.0], hbar)) - psi)) < 1e-14
    # eigenvector picks up a phase only
    eig, vec = np.linalg.eigh(h)
    ev = vec[:, 3].astype(complex)
    out = next(propagate(space, pot, 2, ev, [0.3], hbar))
    expected = np.exp(-1j * 0.3 * eig[3] / hbar) * ev
    assert np.max(np.abs(out - expected)) < 1e-10


def test_exact_evolve_matches_fine_stepping():
    lat = make_lattice(1, 4, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(4)
    pot = build_potential({"shape": "cosine", "strength": 0.8, "mode": 1}, lat)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    direct = next(propagate(space, pot, 2, psi, [0.2], hbar))
    *_, stepped = propagate(space, pot, 2, psi, 1e-3 * np.arange(1, 201), hbar)
    assert np.max(np.abs(direct - stepped)) < 1e-8


def test_hamiltonian_is_hermitian():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    for spec in ({"shape": "cosine", "strength": 0.8, "mode": 1},
                 {"shape": "gaussian", "strength": 1.0, "sigma": 0.2}):
        h = hamiltonian(space, build_potential(spec, lat), hbar, 2)
        assert abs(h - h.conj().T).max() <= 1e-12


def test_real_tables_give_real_operators(monkeypatch):
    lat = make_lattice(1, 6, 1.0)
    hbar = default_hbar(3, 1)
    space = FockSpace(6)
    pot = build_potential({"shape": "gaussian", "strength": -1.0, "sigma": 0.2}, lat)
    h = hamiltonian(space, pot, hbar, 3)
    assert h.dtype == np.float64
    monkeypatch.setattr(fock, "kinetic_operator",
                        lambda *args: kinetic_operator(*args).astype(complex))
    h_complex = hamiltonian(space, pot, hbar, 3)
    assert h_complex.dtype == np.complex128
    assert abs(h - h_complex).max() == 0.0
    o = np.random.default_rng(3).normal(size=(6, 6))
    assert d_gamma(space, o).dtype == np.float64
    assert d_gamma(space, o + 1j * o.T).dtype == np.complex128
    assert field_operator(space, np.ones(6, dtype=int), True).dtype == np.float64
    for l_sites in (1, 3, 6, 12):  # 12: fock-verify's largest L
        assert car_defect(FockSpace(l_sites)) == 0.0


@pytest.mark.parametrize("spec", [
    {"shape": "zero"},
    {"shape": "gaussian", "strength": 2.0, "sigma": 0.2},
    {"shape": "gaussian", "strength": -2.0, "sigma": 0.2},
    {"shape": "cosine", "strength": 2.0, "mode": 1},
    {"shape": "cosine", "strength": -2.0, "mode": 1},
], ids=["zero", "gaussian+", "gaussian-", "cosine+", "cosine-"])
@pytest.mark.parametrize("l_sites", range(4, 11))
def test_sector_interval_holds_the_spectrum(monkeypatch, l_sites, spec):
    # Weyl's interval from dGamma(K) and W holds every sector's spectrum, is
    # exact for the free Hamiltonian, and is narrower than the Gershgorin discs
    lat = make_lattice(1, l_sites, 1.0)
    n_particles = l_sites // 2
    hbar = default_hbar(n_particles, 1)
    seen, series = [], fock.apply_exponential

    def recording(phi, h, interval, dt, hbar):
        seen.append((h, interval))
        return series(phi, h, interval, dt, hbar)

    monkeypatch.setattr(fock, "apply_exponential", recording)
    psi = np.ones(1 << l_sites, dtype=complex)  # reaches every sector
    next(propagate(FockSpace(l_sites), build_potential(spec, lat), n_particles, psi, [1e-3], hbar))
    assert sorted(len(block) for block, _ in seen) == sorted(
        math.comb(l_sites, n) for n in range(l_sites + 1))
    for block, (lo, hi) in seen:
        assert block.dtype == np.float64
        eig = np.linalg.eigvalsh(block)
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        assert lo - tol <= eig[0] and eig[-1] <= hi + tol
        if spec["shape"] == "zero":
            assert abs(lo - eig[0]) <= tol and abs(hi - eig[-1]) <= tol
        if 1 < len(block):  # 0 < n < L
            g_lo, g_hi = gershgorin_interval(block)
            assert hi - lo < g_hi - g_lo


def test_quasi_free_state_lies_in_its_sector():
    # R vacuum = a*(f_1) ... a*(f_N) vacuum: no round-off left in sectors N - 2, ...
    space = FockSpace(8)
    dm = random_projection(8, 4, seed=21)
    psi = quasi_free_state(space, dm)
    inside = space.occupations() == 4
    assert np.all(psi[~inside] == 0.0)
    assert np.array_equal(psi[inside], (implement_bogoliubov(space, dm) @ space.vacuum())[inside])
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_propagate_matches_the_sector_oracle_on_both_branches(monkeypatch):
    # L = 5 sectors hold 1, 5, 10, 10, 5, 1 states.  The series has at least
    # 6 terms (a >= 1/64), so the 1- and 5-state sectors always take `eigh`; the
    # 10-state ones take the series over the short interval and `eigh` over
    # the long one, where a >= their dimension.
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    h = hamiltonian(space, pot, hbar, 2)
    rng = np.random.default_rng(12)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    times = [1e-4, 0.5]
    want = [SectorPropagator(space, h, hbar)(psi, t) for t in times]

    eigh, sizes = np.linalg.eigh, []

    def recording_eigh(m):
        sizes.append(len(m))
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    steps = propagate(space, pot, 2, psi, times, hbar)
    for t, expected, eigh_sizes in zip(times, want, ([1, 1, 5, 5], [1, 1, 5, 5, 10, 10])):
        got = next(steps)
        assert sorted(sizes) == eigh_sizes, t
        assert np.max(np.abs(got - expected)) <= 1e-12
        sizes.clear()


def test_propagate_builds_no_full_space_matrix():
    # L = 14, N = 2 reaches one sector of 91 states; one 2^L x 2^L float64 array
    # would take 2 GiB, and the CSR build of dGamma(K) over all 2^L states ~100 MiB
    lat = make_lattice(1, 14, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(14)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    psi0 = quasi_free_state(space, random_projection(14, 2, seed=3))
    tracemalloc.start()
    try:
        *_, psi = propagate(space, pot, 2, psi0, [1e-2, 2e-2], hbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_propagate_refuses_a_non_finite_state():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    pot = build_potential({"shape": "cosine", "strength": 0.8, "mode": 1}, lat)
    psi = np.full(space.dim, 1 / np.sqrt(space.dim), dtype=complex)
    psi[3] = np.nan
    with pytest.raises(RuntimeError, match="lost norm"):
        next(propagate(space, pot, 2, psi, [0.1], hbar))


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


@pytest.mark.parametrize("l_sites", [1, 5, 10])
def test_rdm1_matches_the_sparse_site_operators(l_sites):
    # the table's one gather against a_x psi from the sparse site operators
    space = FockSpace(l_sites)
    rng = np.random.default_rng(l_sites)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    a_psi = np.stack([site(space, x, False) @ psi for x in range(l_sites)])
    want = a_psi @ a_psi.conj().T
    assert np.max(np.abs(rdm1(psi, space) - want)) <= 1e-13 * np.max(np.abs(want))


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
    assert np.max(np.abs(rdmk(psi, 2, space) - wick_rdmk(dense(dm), 2))) < 1e-10


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
    om = dense_slater(lat, hbar, 5.0 * (lat.sites()[:, 0] - 0.4) ** 2, 2)
    rng = np.random.default_rng(9)
    xi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    xi /= np.linalg.norm(xi)
    r0 = implement_bogoliubov(space, om)
    assert np.max(np.abs(fluctuation_vector(space, om, r0 @ xi) - xi)) < 1e-10
    cfg = EvolutionConfig(dt=1e-3, t_final=0.01)
    final = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))[-1]
    psi_t = next(propagate(space, pot, 2, r0 @ xi, [final.t], hbar))
    out = fluctuation_vector(space, final.state, psi_t)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_fluctuation_vacuum_stable_without_interaction():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    v0 = build_potential({"shape": "zero"}, lat)
    om = dense_slater(lat, hbar, 5.0 * (lat.sites()[:, 0] - 0.4) ** 2, 2)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.5, snapshot_stride=10)
    snaps = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, v0, hbar))[1:]
    psis = propagate(space, v0, 2, quasi_free_state(space, om), [s.t for s in snaps], hbar)
    for s, psi_t in zip(snaps, psis):
        xi = fluctuation_vector(space, s.state, psi_t)
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
    assert len(report) == 7
    for name, entry in report.items():
        assert entry["violations"] == 0
        assert entry["worst_slack"] > -1e-10


def test_fock_space_size_guard():
    with pytest.raises(ValueError):
        FockSpace(15)
    with pytest.raises(ValueError, match="dense"):
        verify_operator_bounds(FockSpace(13), trials=1, seed=0)
