"""Exact second-quantized oracle: CAR, sector blocks, quasi-free states, reduced
densities, fluctuation moments, and the quadratic-operator bounds, each sector
path against its full-space oracle."""

import ast
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fermiflow import fock
from fermiflow.fock import (FockSpace, car_defect, d_gamma, fluctuation_moments, hamiltonian,
                            propagate, quasi_free_state, rdm1, verify_operator_bounds)
from fermiflow.initial_data import DensityMatrix
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import FOCK_MAX_SITES, build_potential, default_hbar, \
    kinetic_operator, make_lattice

from _oracles import (SectorPropagator, csr_word, dense, dense_slater, embed, field_operator,
                      fluctuation_vector, generalized_density, gershgorin_interval,
                      implement_bogoliubov, letter, number_moment, number_operator,
                      occupations, pair_operator, rdmk, slater_vector, spectral_form, vacuum,
                      wick_rdmk)


def site(space, x, create):
    """a*_x or a_x on the whole space, the oracle's field operator of the unit vector e_x."""
    return field_operator(space, np.eye(space.l_sites)[x], create)


def random_projection(l_sites, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(l_sites, n)) + 1j * rng.normal(size=(l_sites, n))
    q, _ = np.linalg.qr(a)
    m = q @ q.conj().T
    return DensityMatrix(*spectral_form(m)[:2])


def random_sector_vector(space, n, rng):
    size = len(space.sector(n))
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    return psi / np.linalg.norm(psi)


def field(space, f, create, n):
    """a*(f) = sum f(x) a*_x or a(f) = sum conj(f(x)) a_x, from the program's letters."""
    return sum((f[x] if create else np.conj(f[x])) * letter(space, x, create, n)
               for x in range(space.l_sites))


def pair_annihilation(space, o, n):
    """sum O(x;y) a_x a_y from sector n: minus the transpose of the pair creation n - 2 -> n."""
    return -fock._pair_creation(space, o, n - 2).T


def sub_block(full, space, n, c):
    """The block n -> n + c of a full-space matrix."""
    return full[np.ix_(space.sector(n + c), space.sector(n))]


def csr_hamiltonian(space, k, pot, n_particles):
    """dGamma(K) + (1/2N) sum V(x-y) a*_x a*_y a_y a_x on the whole space, as CSR words."""
    l_sites = space.l_sites
    x, y = np.indices((l_sites, l_sites))
    pair = np.zeros((l_sites,) * 4)
    pair[x, y, y, x] = pot.pair_matrix / (2 * n_particles)
    return csr_word(space, (True, False), k) + csr_word(space, (True, True, False, False), pair)


def test_car_anticommutators():
    # {a_0, a*_0} = 1 and a_x a_x = 0 on every sector, as products of the letters' blocks
    space = FockSpace(4)
    for n in range(5):
        anti = letter(space, 0, False, n + 1) @ letter(space, 0, True, n) \
            + letter(space, 0, True, n - 1) @ letter(space, 0, False, n)
        assert np.max(np.abs(anti - np.eye(len(space.sector(n))))) < 1e-14
        for x in range(4):
            assert np.max(np.abs(letter(space, x, False, n - 1) @ letter(space, x, False, n)),
                          initial=0.0) == 0.0


def test_one_ranking_and_one_sign_convention_in_fock():
    # `_raising` is fock's one ranking of states: `searchsorted` appears nowhere else, and
    # `_letter`, the Jordan-Wigner convention, is read only by `_raising` and `car_defect`
    with open(fock.__file__) as fh:
        tree = ast.parse(fh.read())
    rankers, readers = set(), set()
    for top in tree.body:
        for node in ast.walk(top):
            if "searchsorted" in (getattr(node, "attr", None), getattr(node, "id", None)):
                rankers.add(getattr(top, "name", ast.unparse(top)))
            if isinstance(node, ast.Name) and node.id == "_letter":
                readers.add(getattr(top, "name", ast.unparse(top)))
    assert rankers == {"_raising"}
    assert readers == {"_raising", "car_defect"}


def test_car_defect_zero_and_detects_missing_signs(monkeypatch):
    assert car_defect(FockSpace(4)) < 1e-14
    letter_with_signs = fock._letter

    def unsigned(*args):  # without Jordan-Wigner strings a_x and a_y commute
        acts, sign, flipped = letter_with_signs(*args)
        return acts, np.ones_like(sign), flipped

    monkeypatch.setattr(fock, "_letter", unsigned)
    assert car_defect(FockSpace(4)) > 0.5


def test_letter_and_sectors_by_bit_counts_at_the_site_limit(monkeypatch):
    # numpy < 2 has no bitwise_count: the sectors and the Jordan-Wigner signs at L = 14
    # agree with a count of each mask's bits from its occupation table
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    space = FockSpace(FOCK_MAX_SITES)
    masks = np.arange(1 << FOCK_MAX_SITES)
    bits = (masks[:, None] >> np.arange(FOCK_MAX_SITES)) & 1
    for n in range(FOCK_MAX_SITES + 1):
        assert np.array_equal(space.sector(n), masks[bits.sum(axis=1) == n])
    for create in (False, True):
        acts, sign, flipped = fock._letter(masks[:, None], np.arange(FOCK_MAX_SITES), create)
        assert np.array_equal(acts, bits != create)
        assert np.array_equal(sign, 1 - 2 * ((np.cumsum(bits, axis=1) - bits) % 2))
        assert np.array_equal(flipped, masks[:, None] ^ (1 << np.arange(FOCK_MAX_SITES)))
    # the cached a* tables behind rdm1 and the moments are shared, so read-only
    assert not any(table.flags.writeable for table in fock._raising(FockSpace(4), 1))


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
    # every block n -> n + c of the letters and of the quadratic words is the Kronecker
    # operator's, and the blocks hold all of its weight
    space = FockSpace(4)
    a = kron_annihilators(4)
    for x in range(4):
        for n in range(5):
            assert np.max(np.abs(letter(space, x, False, n) - sub_block(a[x], space, n, -1)),
                          initial=0.0) == 0.0
            assert np.max(np.abs(letter(space, x, True, n) - sub_block(a[x].T, space, n, 1)),
                          initial=0.0) == 0.0
    rng = np.random.default_rng(3)
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    words = {
        "dgamma": (d_gamma, 0, lambda x, y: a[x].T @ a[y]),
        "pair annihilation": (pair_annihilation, -2, lambda x, y: a[x] @ a[y]),
        "pair creation": (fock._pair_creation, 2, lambda x, y: a[x].T @ a[y].T),
    }
    for name, (build, c, word) in words.items():
        oracle = sum(o[x, y] * word(x, y) for x in range(4) for y in range(4))
        weight = 0.0
        for n in range(5):
            block = build(space, o, n)
            assert np.max(np.abs(block - sub_block(oracle, space, n, c)), initial=0.0) < 1e-12
            weight += np.sum(np.abs(block) ** 2)
        assert weight == pytest.approx(np.sum(np.abs(oracle) ** 2), rel=1e-12), name


@pytest.mark.parametrize("l_sites", range(1, 9))
def test_dense_words_match_the_csr_oracle(l_sites):
    # the blocks n -> n + c of the field words from the letters, of dGamma and of both pair
    # words against the CSR build over the full table, with real and complex coefficients,
    # past both ends of 0..L; the pair annihilation block is minus the transpose of the
    # pair creation block, as `verify_operator_bounds` takes it
    space = FockSpace(l_sites)
    rng = np.random.default_rng(l_sites)
    real = rng.normal(size=(l_sites, l_sites))
    for o in (real, real + 1j * rng.normal(size=(l_sites, l_sites))):
        words = {
            "creation": ((True,), o[0], lambda n: field(space, o[0], True, n)),
            "annihilation": ((False,), o[0].conj(), lambda n: field(space, o[0], False, n)),
            "dgamma": ((True, False), o, lambda n: d_gamma(space, o, n)),
            "pair annihilation": ((False, False), o, lambda n: pair_annihilation(space, o, n)),
            "pair creation": ((True, True), o, lambda n: fock._pair_creation(space, o, n)),
        }
        blocks = {}
        for name, (creates, coef, build) in words.items():
            want = csr_word(space, creates, coef).toarray()
            c = 2 * sum(creates) - len(creates)
            for n in range(-1, l_sites + 2):
                got, want_block = build(n), sub_block(want, space, n, c)
                assert got.dtype == want.dtype and got.shape == want_block.shape, (name, n)
                assert np.max(np.abs(got - want_block), initial=0.0) \
                    <= 1e-14 * np.max(np.abs(want)), (name, n)
                blocks[name, n] = want_block
        for n in range(-1, l_sites):  # the oracle's pair words obey the same identity
            assert np.array_equal(blocks["pair annihilation", n + 2],
                                  -blocks["pair creation", n].T), n


@pytest.mark.parametrize("complex_k", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("ds, d", [(1, d) for d in range(4, 11)] + [(2, 3), (3, 2)],
                         ids=[str(d) for d in range(4, 11)] + ["ds2-d3", "ds3-d2"])
def test_hamiltonian_and_sector_blocks_match_the_csr_oracle(monkeypatch, ds, d, complex_k):
    # H = dGamma(K) + (1/2N) sum V(x-y) a*_x a*_y a_y a_x as CSR words: every sector's
    # `hamiltonian` within 1e-14 of its largest entry, and the block `propagate` steps;
    # at ds > 1 the Jordan-Wigner order is the row-major site order of K and V
    lat = make_lattice(ds, d, 1.0)
    l_sites = lat.site_count
    n_particles = l_sites // 2
    hbar = default_hbar(n_particles, ds)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    k = kinetic_operator(lat, hbar)
    if complex_k:  # a complex Hermitian K
        a = np.random.default_rng(l_sites).normal(size=k.shape)
        k = k + 1j * (a - a.T)
    monkeypatch.setattr(fock, "kinetic_operator", lambda *args: k)
    space = FockSpace(l_sites)
    for n in range(1, l_sites + 1):
        want = sub_block(csr_hamiltonian(space, k, pot, n), space, n, 0).toarray()
        h = hamiltonian(space, pot, hbar, n)
        assert h.dtype == want.dtype
        assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(want))
    seen = []
    monkeypatch.setattr(fock, "apply_exponential", lambda phi, h, *rest: seen.append(h) or phi)
    psi = np.ones(math.comb(l_sites, n_particles), dtype=complex)
    next(propagate(space, pot, n_particles, psi, [1e-3], hbar))
    assert len(seen) == 1
    assert np.array_equal(seen[0], hamiltonian(space, pot, hbar, n_particles))


@pytest.mark.parametrize("ds, d, l_sites", [(1, 8, 9), (2, 3, 8), (3, 2, 9)])
def test_hamiltonian_refuses_a_lattice_of_another_size(ds, d, l_sites):
    # K's shape (d^ds, d^ds) is checked against the L Fock sites, at any ds
    lat = make_lattice(ds, d, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    with pytest.raises(ValueError, match="shape"):
        hamiltonian(FockSpace(l_sites), pot, default_hbar(2, ds), 2)


def test_sector_blocks_take_any_word_at_any_size():
    # L = 13: {a(f), a*(f)} = |f|^2 on sector 3 from the blocks 3 -> 4 -> 3 and 3 -> 2 -> 3
    space = FockSpace(13)
    f = np.random.default_rng(13).normal(size=13) + 1j
    anti = field(space, f, False, 4) @ field(space, f, True, 3) \
        + field(space, f, True, 2) @ field(space, f, False, 3)
    assert anti.shape == (math.comb(13, 3),) * 2
    assert np.max(np.abs(anti - np.vdot(f, f).real * np.eye(len(anti)))) < 1e-12
    for n, shape in ((12, (0, 13)), (13, (0, 1))):  # sectors 14 and 15 are empty
        assert fock._pair_creation(space, np.ones((13, 13)), n).shape == shape


@pytest.mark.parametrize("build, shape", [
    (lambda space, c: fock._pair_creation(space, c, 1), (1, 3)),
    (lambda space, c: d_gamma(space, c, 1), (3, 3)),
], ids=["pair_operator", "d_gamma"])
def test_coefficient_shape_is_checked(build, shape):
    space = FockSpace(3)
    assert build(space, np.ones((3, 3))).shape == shape
    for coef_shape in [(5,), (3,), (5, 5), (2, 2), (3, 3, 3)]:
        with pytest.raises(ValueError, match="shape"):
            build(space, np.ones(coef_shape))


def test_field_operator_bounded():
    space = FockSpace(5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        n = int(rng.integers(6))
        psi = random_sector_vector(space, n, rng)
        created = field(space, f, True, n) @ psi
        assert np.linalg.norm(created) <= np.linalg.norm(f) + 1e-12


def test_dgamma_number_and_diagonal():
    space = FockSpace(5)
    lam = np.array([0.5, -1.0, 2.0, 0.0, 3.0])
    for n in range(6):
        assert np.array_equal(d_gamma(space, np.eye(5), n), n * np.eye(len(space.sector(n))))
        dg = d_gamma(space, np.diag(lam), n)
        for i, b in enumerate(space.sector(n)):
            expected = sum(lam[x] for x in range(5) if (b >> x) & 1)
            assert dg[i, i] == pytest.approx(expected)


def test_dgamma_matches_first_quantized_two_particle_oracle():
    space = FockSpace(5)
    rng = np.random.default_rng(1)
    o = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    dg = d_gamma(space, o, 2)
    # antisymmetric embedding of the 2-particle sector: |x<y| -> (e_x^e_y)/sqrt2
    pairs = [(x, y) for x in range(5) for y in range(5) if x < y]
    embedding = np.zeros((25, len(pairs)), dtype=complex)
    for col, (x, y) in enumerate(pairs):
        embedding[x * 5 + y, col] = 1.0 / np.sqrt(2.0)
        embedding[y * 5 + x, col] = -1.0 / np.sqrt(2.0)
    first_q = np.kron(o, np.eye(5)) + np.kron(np.eye(5), o)
    oracle = embedding.conj().T @ first_q @ embedding
    # a*_x a*_y vacuum for x < y is the mask 2^x + 2^y with sign +1, at its sector rank
    rank = np.searchsorted(space.sector(2), [sum(1 << z for z in (x, y)) for (x, y) in pairs])
    assert np.max(np.abs(dg[np.ix_(rank, rank)] - oracle)) < 1e-12


def test_hamiltonian_free_and_number_conservation():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    k = kinetic_operator(lat, hbar)
    v0 = build_potential({"shape": "zero"}, lat)
    assert abs(hamiltonian(space, v0, hbar, 2) - d_gamma(space, k, 2)).max() < 1e-12
    # the full-space H commutes with N, so its sector-2 block is all of it there
    pot = build_potential({"shape": "cosine", "strength": 1.0, "mode": 1}, lat)
    full = csr_hamiltonian(space, k, pot, 2)
    n_op = number_operator(space)
    assert abs(full @ n_op - n_op @ full).max() < 1e-12
    want = sub_block(full, space, 2, 0).toarray()
    assert abs(hamiltonian(space, pot, hbar, 2) - want).max() < 1e-12


def test_hamiltonian_two_site_pair_energy():
    lat = make_lattice(1, 2, 1.0)
    n = 2
    hbar = default_hbar(n, 1)
    space = FockSpace(2)
    pot = build_potential({"shape": "cosine", "strength": 0.7, "mode": 1}, lat)
    h = hamiltonian(space, pot, hbar, n)
    v01 = pot.real_space[1]  # V(x_0 - x_1) by evenness
    kinetic = np.trace(kinetic_operator(lat, hbar)).real
    # |11>, the one state of sector 2, is an eigenstate: full kinetic trace plus the pair
    expected = kinetic + 0.5 / n * 2.0 * v01
    assert h.shape == (1, 1)
    assert h[0, 0].real == pytest.approx(expected, rel=1e-12)


def test_fluctuation_moments_do_not_depend_on_the_orbital_basis():
    # Phi -> Phi W changes R only by a phase and a number-conserving unitary
    space = FockSpace(8)
    rng = np.random.default_rng(23)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    phi = np.linalg.qr(gaussian(8, 3))[0]
    w = np.linalg.qr(gaussian(3, 3))[0]
    psi = random_sector_vector(space, 3, rng)
    for k in (1, 2, 3):
        got = fluctuation_moments(space, DensityMatrix(phi, np.ones(3)), psi, k)
        rotated = fluctuation_moments(space, DensityMatrix(phi @ w, np.ones(3)), psi, k)
        assert rotated == pytest.approx(got, rel=1e-12)


def _refused(omega, match):
    """quasi_free_state and fluctuation_moments both refuse omega, as the oracle implementor
    does."""
    space = FockSpace(omega.orbitals.shape[0])
    psi = np.ones(len(space.sector(omega.orbitals.shape[1])), dtype=complex)
    for call in (lambda: quasi_free_state(space, omega),
                 lambda: fluctuation_moments(space, omega, psi, 1),
                 lambda: implement_bogoliubov(space, omega)):
        with pytest.raises(ValueError, match=match):
            call()


def test_bogoliubov_rejects_non_projection():
    m = 0.5 * np.eye(3, dtype=complex)
    _refused(DensityMatrix(*spectral_form(m)[:2]), "projection")


def test_bogoliubov_check_rejects_non_orthonormal_orbitals():
    dm = random_projection(4, 2, seed=2)
    _refused(DensityMatrix(dm.orbitals * 1.1, dm.occupations), "orthonormal")


def test_implement_bogoliubov_keeps_the_orthonormality_gate():
    # a Gram defect of ~1e-11 passes DensityMatrix.validate (1e-10) but not
    # the 1e-12 that makes R unitary
    phi = random_projection(4, 2, seed=2).orbitals
    phi = phi @ np.array([[1.0 + 5e-12, 0.0], [0.0, 1.0]])
    dm = DensityMatrix(phi, np.ones(2))
    dm.validate()
    _refused(dm, "orthonormal")


def test_implement_bogoliubov_identity_and_single_mode():
    space = FockSpace(3)
    empty = DensityMatrix(np.zeros((3, 0)), np.zeros(0))
    r = implement_bogoliubov(space, empty)
    assert np.max(np.abs(r @ np.eye(8) - np.eye(8))) < 1e-14
    assert np.array_equal(quasi_free_state(space, empty), [1.0])  # the vacuum, sector 0
    assert fluctuation_moments(space, empty, np.ones(1, dtype=complex), 3) == (0.0, 1.0)

    space1 = FockSpace(1)
    m = np.ones((1, 1), dtype=complex)
    one = DensityMatrix(*spectral_form(m)[:2])
    r = implement_bogoliubov(space1, one) @ np.eye(2)
    assert np.max(np.abs(np.abs(r) - np.array([[0, 1], [1, 0]]))) < 1e-12
    assert abs(quasi_free_state(space1, one)) == pytest.approx([1.0], abs=1e-12)


def test_factored_implementor_matches_dense_product():
    # the oracle implementor's gathers against the product of its dense factors
    space = FockSpace(6)
    dim = 1 << 6
    dm = random_projection(6, 3, seed=17)
    r = implement_bogoliubov(space, dm)
    product = np.eye(dim)
    for f in dm.orbitals.T:
        product = product @ (field_operator(space, f, True) + field_operator(space, f, False))
    got = r @ np.eye(dim)
    assert np.max(np.abs(got - product)) < 1e-12
    assert np.max(np.abs(got.conj().T @ got - np.eye(dim))) < 1e-12
    rng = np.random.default_rng(18)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    assert np.max(np.abs(r.H @ (r @ psi) - psi)) < 1e-12
    assert np.max(np.abs(r @ vacuum(space) - slater_vector(space, dm.orbitals))) < 1e-12


def test_implementor_vacuum_is_slater_state():
    space = FockSpace(5)
    dm = random_projection(5, 2, seed=7)
    r = implement_bogoliubov(space, dm)
    target = slater_vector(space, dm.orbitals)
    got = r @ vacuum(space)
    overlap = abs(np.vdot(target, got)) / (np.linalg.norm(target)
                                           * np.linalg.norm(got))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_quasi_free_state_site_projection():
    space = FockSpace(4)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0
    psi = quasi_free_state(space, DensityMatrix(*spectral_form(m)[:2]))
    amp = np.abs(psi)
    assert amp[np.searchsorted(space.sector(2), 0b0011)] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(amp > 1e-12) == 1


def test_quasi_free_state_reduced_density_and_projection():
    space = FockSpace(5)
    dm = random_projection(5, 3, seed=11)
    psi = quasi_free_state(space, dm)
    assert np.max(np.abs(rdm1(space, 3, psi) - dense(dm))) < 1e-10
    gamma = generalized_density(embed(space, 3, psi), space)
    assert np.max(np.abs(gamma @ gamma - gamma)) < 1e-10


@pytest.mark.parametrize("l_sites", range(1, 11))
def test_quasi_free_state_matches_the_slater_vector(l_sites):
    # det Phi[occupied sites, :] against a*(f_1) ... a*(f_N) vacuum built factor by
    # factor, with complex orbitals, for every N
    space = FockSpace(l_sites)
    rng = np.random.default_rng(l_sites)
    for n in range(l_sites + 1):
        q = np.linalg.qr(rng.normal(size=(l_sites, n)) + 1j * rng.normal(size=(l_sites, n)))[0]
        psi = quasi_free_state(space, DensityMatrix(q, np.ones(n)))
        assert psi.shape == (math.comb(l_sites, n),)
        assert np.max(np.abs(embed(space, n, psi) - slater_vector(space, q))) <= 1e-14


def test_sector_propagator_basics():
    lat = make_lattice(1, 4, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(4)
    pot = build_potential({"shape": "cosine", "strength": 0.8, "mode": 1}, lat)
    h = hamiltonian(space, pot, hbar, 2)
    psi = random_sector_vector(space, 2, np.random.default_rng(4))
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
    psi = random_sector_vector(space, 2, np.random.default_rng(5))
    direct = next(propagate(space, pot, 2, psi, [0.2], hbar))
    *_, stepped = propagate(space, pot, 2, psi, 1e-3 * np.arange(1, 201), hbar)
    assert np.max(np.abs(direct - stepped)) < 1e-8


def test_hamiltonian_is_hermitian():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    for spec in ({"shape": "cosine", "strength": 0.8, "mode": 1},
                 {"shape": "gaussian", "strength": 1.0, "sigma": 0.2}):
        for n in range(1, 6):
            h = hamiltonian(space, build_potential(spec, lat), hbar, n)
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
    assert d_gamma(space, o, 3).dtype == np.float64
    assert d_gamma(space, o + 1j * o.T, 3).dtype == np.complex128
    assert d_gamma(space, np.ones((6, 6), dtype=int), 2).dtype == np.float64
    assert fock._pair_creation(space, np.ones((6, 6), dtype=int), 2).dtype == np.float64
    assert fock._pair_creation(space, o + 1j * o.T, 2).dtype == np.complex128
    for l_sites in (1, 3, 6, FOCK_MAX_SITES):  # the largest L of every Fock scenario
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
    hbar = default_hbar(l_sites // 2, 1)
    seen, series = [], fock.apply_exponential

    def recording(phi, h, interval, dt, hbar):
        seen.append((h.copy(), interval))
        return series(phi, h, interval, dt, hbar)

    monkeypatch.setattr(fock, "apply_exponential", recording)
    space, pot = FockSpace(l_sites), build_potential(spec, lat)
    for n in range(1, l_sites + 1):
        psi = np.ones(math.comb(l_sites, n), dtype=complex)
        next(propagate(space, pot, n, psi, [1e-3], hbar))
    assert [len(block) for block, _ in seen] == [math.comb(l_sites, n)
                                                 for n in range(1, l_sites + 1)]
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
    # the oracle's R vacuum = a*(f_1) ... a*(f_N) vacuum carries only round-off off
    # sector N, and on it equals the determinants
    space = FockSpace(8)
    dm = random_projection(8, 4, seed=21)
    psi = quasi_free_state(space, dm)
    full = implement_bogoliubov(space, dm) @ vacuum(space)
    inside = occupations(space) == 4
    assert np.max(np.abs(full[~inside])) < 1e-14
    assert np.max(np.abs(full[inside] - psi)) < 1e-14
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_propagate_matches_the_sector_oracle_on_both_branches(monkeypatch):
    # L = 5, N = 2: a sector of 10 states.  The series has at least 6 terms
    # (a >= 1/64), so it takes the series over the short interval and `eigh` over the
    # long one, where a >= its dimension.
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    h = csr_hamiltonian(space, kinetic_operator(lat, hbar), pot, 2)
    psi = random_sector_vector(space, 2, np.random.default_rng(12))
    times = [1e-4, 0.5]
    want = [SectorPropagator(space, h, hbar)(embed(space, 2, psi), t)[space.sector(2)]
            for t in times]

    eigh, sizes = np.linalg.eigh, []

    def recording_eigh(m):
        sizes.append(len(m))
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    steps = propagate(space, pot, 2, psi, times, hbar)
    for t, expected, eigh_sizes in zip(times, want, ([], [10])):
        got = next(steps)
        assert sizes == eigh_sizes, t
        assert np.max(np.abs(got - expected)) <= 1e-12
        sizes.clear()


def test_propagate_builds_no_full_space_matrix():
    # L = 14, N = 2 is one sector of 91 states; one 2^L x 2^L float64 array
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
    psi = np.full(10, 1 / np.sqrt(10), dtype=complex)
    psi[3] = np.nan
    with pytest.raises(RuntimeError, match="lost norm"):
        next(propagate(space, pot, 2, psi, [0.1], hbar))
    with pytest.raises(ValueError, match="10 states of sector 2"):
        next(propagate(space, pot, 2, np.ones(32, dtype=complex), [0.1], hbar))


def test_rdm1_examples():
    space = FockSpace(3)  # sector 1: the masks 1, 2, 4, one particle on site 0, 1 or 2
    g = rdm1(space, 1, np.array([1.0, 0.0, 0.0], dtype=complex))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.max(np.abs(g - expected)) < 1e-14

    g = rdm1(space, 1, np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2))
    assert np.allclose(g[:2, :2], 0.5, atol=1e-12)
    assert np.trace(g).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("l_sites", [1, 5, 10])
def test_rdm1_matches_the_full_space_site_operators(l_sites):
    # the table's one gather against a_x psi from the oracle's site operators, on every sector
    space = FockSpace(l_sites)
    rng = np.random.default_rng(l_sites)
    for n in range(l_sites + 1):
        psi = random_sector_vector(space, n, rng)
        a_psi = np.stack([site(space, x, False) @ embed(space, n, psi) for x in range(l_sites)])
        want = a_psi @ a_psi.conj().T
        assert np.max(np.abs(rdm1(space, n, psi) - want)) <= 1e-13 * max(1.0, np.abs(want).max())


def test_rdmk_examples():
    space = FockSpace(4)
    psi = site(space, 1, True) @ vacuum(space)
    psi = site(space, 0, True) @ psi  # a*_0 a*_1 vacuum
    g2 = rdmk(psi, 2, space)
    assert g2[0, 1, 0, 1].real == pytest.approx(1.0, abs=1e-12)
    assert np.einsum("xyxy->", g2).real == pytest.approx(2.0, abs=1e-12)
    # CAR antisymmetry under swapping arguments
    assert g2[1, 0, 0, 1].real == pytest.approx(-1.0, abs=1e-12)
    g1 = rdmk(psi, 1, space)
    assert np.max(np.abs(g1 - rdm1(space, 2, psi[space.sector(2)]))) < 1e-12


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
    psi = embed(space, 2, quasi_free_state(space, dm))
    assert np.max(np.abs(rdmk(psi, 2, space) - wick_rdmk(dense(dm), 2))) < 1e-10


def test_generalized_density_number_eigenstate_and_bounds():
    space = FockSpace(4)
    psi = site(space, 2, True) @ vacuum(space)
    gamma = generalized_density(psi, space)
    alpha = gamma[:4, 4:]
    assert np.max(np.abs(alpha)) < 1e-14
    rng = np.random.default_rng(8)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    eig = np.linalg.eigvalsh(generalized_density(psi, space))
    assert eig.min() > -1e-10 and eig.max() < 1.0 + 1e-10


def test_number_moment_examples():
    space = FockSpace(3)
    assert number_moment(vacuum(space), 2, space) == pytest.approx(1.0)
    one = site(space, 0, True) @ vacuum(space)
    assert number_moment(one, 1, space) == pytest.approx(2.0)
    psi = 0.6 * vacuum(space) + 0.8 * one
    oracle = 0.36 * 1.0 + 0.64 * 4.0  # sector-sum of (n+1)^2
    assert number_moment(psi, 2, space) == pytest.approx(oracle, abs=1e-12)


def test_number_moment_keeps_a_small_mean_exact():
    # <N> ~ 1e-10 in closed form; <N + 1> - 1 keeps only ~6 of its digits
    space = FockSpace(3)
    one = site(space, 0, True) @ vacuum(space)
    two = site(space, 1, True) @ one
    beta, gamma = 1e-5, 3e-6
    xi = vacuum(space) + beta * one + gamma * two
    b2, g2 = Fraction(beta) ** 2, Fraction(gamma) ** 2
    exact = float((b2 + 2 * g2) / (1 + b2 + g2))
    assert abs(number_moment(xi, 1, space, shift=0.0) - exact) <= 1e-14 * exact
    assert abs(number_moment(xi, 1, space) - 1.0 - exact) > 1e-14 * exact
    assert number_moment(vacuum(space), 1, space, shift=0.0) == 0.0


@pytest.mark.parametrize("l_sites", [1, 4, 7, 9])
def test_fluctuation_moments_match_the_full_space_oracle(l_sites):
    # (<N>, <(N+1)^k>) from the sector identity against the number moments of
    # xi = R* psi built on the whole space, k = 0..6, every N; and exactly (0, 1) up to
    # round-off in <N> for psi = R vacuum
    space = FockSpace(l_sites)
    rng = np.random.default_rng(l_sites)
    for n in range(l_sites + 1):
        q = np.linalg.qr(rng.normal(size=(l_sites, n)) + 1j * rng.normal(size=(l_sites, n)))[0]
        dm = DensityMatrix(q, np.ones(n))
        psi = random_sector_vector(space, n, rng)
        xi = fluctuation_vector(space, dm, embed(space, n, psi))
        want_mean = number_moment(xi, 1, space, shift=0.0)
        for k in range(7):
            mean, moment = fluctuation_moments(space, dm, psi, k)
            assert abs(mean - want_mean) <= 1e-13 * max(1.0, want_mean), (n, k)
            assert moment == pytest.approx(number_moment(xi, k, space), rel=1e-13), (n, k)
        mean, moment = fluctuation_moments(space, dm, quasi_free_state(space, dm), 6)
        assert 0.0 <= mean <= 1e-28 and moment == 1.0


def test_fluctuation_dynamics_identity_at_t0_and_norm():
    lat = make_lattice(1, 5, 1.0)
    hbar = default_hbar(2, 1)
    space = FockSpace(5)
    pot = build_potential({"shape": "cosine", "strength": 0.5, "mode": 1}, lat)
    om = dense_slater(lat, hbar, 5.0 * (lat.sites()[:, 0] - 0.4) ** 2, 2)
    psi = random_sector_vector(space, 2, np.random.default_rng(9))
    xi = fluctuation_vector(space, om, embed(space, 2, psi))
    assert np.max(np.abs(implement_bogoliubov(space, om) @ xi - embed(space, 2, psi))) < 1e-10
    assert fluctuation_moments(space, om, psi, 2) == pytest.approx(
        (number_moment(xi, 1, space, shift=0.0), number_moment(xi, 2, space)), rel=1e-12)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.01)
    final = list(evolve(om, cfg, MeanFieldKind.HARTREE_FOCK, pot, hbar))[-1]
    psi_t = next(propagate(space, pot, 2, psi, [final.t], hbar))
    out = fluctuation_vector(space, final.state, embed(space, 2, psi_t))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)
    assert fluctuation_moments(space, final.state, psi_t, 2) == pytest.approx(
        (number_moment(out, 1, space, shift=0.0), number_moment(out, 2, space)), rel=1e-12)
    with pytest.raises(RuntimeError, match="squared norm"):
        fluctuation_moments(space, final.state, np.full(10, np.nan, dtype=complex), 2)


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
        assert fluctuation_moments(space, s.state, psi_t, 1)[0] < 1e-9


def test_operator_bound_saturation_and_zero():
    space = FockSpace(4)
    psi = np.zeros(6, dtype=complex)
    psi[np.searchsorted(space.sector(2), 0b0011)] = 1.0  # a*_0 a*_1 vacuum
    assert np.linalg.norm(d_gamma(space, np.eye(4), 2) @ psi) == pytest.approx(2.0, abs=1e-12)
    for n in range(5):
        assert abs(d_gamma(space, np.zeros((4, 4)), n)).max() == 0.0


def test_operator_bounds_random_trials():
    report = verify_operator_bounds(FockSpace(5), trials=25, seed=42)
    assert len(report) == 7
    for name, entry in report.items():
        assert entry["violations"] == 0
        assert entry["worst_slack"] > -1e-10


def test_operator_bounds_match_a_full_space_run():
    # the same draws through the full-space dense words, norms and number weights
    space, trials = FockSpace(5), 6
    rng = np.random.default_rng(7)
    occ = occupations(space).astype(float)
    want = {}
    for _ in range(trials):
        o = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        sv = np.linalg.svd(o, compute_uv=False)
        op_norm, hs, tr = sv[0], np.linalg.norm(sv), np.sum(sv)
        words = [csr_word(space, (True, False), o).toarray(), pair_operator(space, o, False),
                 pair_operator(space, o, True)]
        (dg, pa, pc), (dg_n, pa_n, pc_n) = ([np.linalg.norm(w @ psi) for w in words],
                                            [np.linalg.norm(w, 2) for w in words])
        slacks = {
            "dgamma_operator_norm_bound": op_norm * np.linalg.norm(occ * psi) - dg,
            "dgamma_hs_bound": hs * np.linalg.norm(np.sqrt(occ) * psi) - dg,
            "pair_annihilation_hs_bound": hs * np.linalg.norm(np.sqrt(occ) * psi) - pa,
            "pair_creation_hs_bound": 2.0 * hs * np.linalg.norm(np.sqrt(occ + 1.0) * psi) - pc,
            "dgamma_trace_bound": 2.0 * tr - dg_n,
            "pair_annihilation_trace_bound": 2.0 * tr - pa_n,
            "pair_creation_trace_bound": 2.0 * tr - pc_n,
        }
        for name, slack in slacks.items():
            want[name] = min(want.get(name, np.inf), slack)
    got = verify_operator_bounds(space, trials, seed=7)
    assert list(got) == list(want)
    for name, entry in got.items():
        assert entry["violations"] == 0
        assert entry["worst_slack"] == pytest.approx(want[name], rel=1e-12, abs=1e-12), name


def test_fock_space_size_guard():
    for l_sites in (0, FOCK_MAX_SITES + 1):
        with pytest.raises(ValueError, match=f"1 <= L <= {FOCK_MAX_SITES}"):
            FockSpace(l_sites)
    space = FockSpace(FOCK_MAX_SITES)
    assert [len(space.sector(n)) for n in range(-1, FOCK_MAX_SITES + 2)] == [0] + [
        math.comb(FOCK_MAX_SITES, n) for n in range(FOCK_MAX_SITES + 1)] + [0]
    with pytest.raises(ValueError, match="at least one trial"):
        verify_operator_bounds(space, trials=0, seed=0)
