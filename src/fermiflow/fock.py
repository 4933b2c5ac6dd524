"""Exact second-quantized oracle on a tiny one-dimensional lattice.

Occupation bitmasks index the 2^L Fock basis (integer order); Jordan-Wigner
strings follow the site order, so a_x picks up (-1)^(number of occupied
modes below x).  That convention is fixed in one place: the kernel `_word`,
which builds any word of creation and annihilation operators from the
per-space table of occupation bits and signs.  Every operator here (ladder,
field, dGamma, pair, Hamiltonian) is one call to it, and everything
downstream (Bogoliubov implementors, Wick reduced densities, fluctuation
vectors) is validated against the anticommutation relations it fixes.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .model import Potential, kinetic_operator

__all__ = [
    "FockSpace",
    "BogoliubovSpec",
    "ladder",
    "car_defect",
    "field_operator",
    "apply_ladder",
    "apply_field",
    "d_gamma",
    "number_operator",
    "hamiltonian",
    "pair_operator",
    "bogoliubov_from_projection",
    "implement_bogoliubov",
    "quasi_free_state",
    "slater_vector",
    "SectorPropagator",
    "rdm1",
    "rdmk",
    "wick_rdmk",
    "generalized_density",
    "fluctuation_vector",
    "number_moment",
    "verify_operator_bounds",
]

_MAX_SITES = 14  # largest sector C(14, 7) = 3432 states, diagonalized densely


@dataclass(frozen=True)
class FockSpace:
    """Fermionic Fock space over L lattice sites; basis = occupation bitmasks
    in integer order, mode order = site order."""

    l_sites: int

    def __post_init__(self):
        if not 1 <= self.l_sites <= _MAX_SITES:
            raise ValueError(f"need 1 <= L <= {_MAX_SITES}, got {self.l_sites}")

    @property
    def dim(self) -> int:
        return 1 << self.l_sites

    def states(self) -> np.ndarray:
        return np.arange(self.dim)

    @cached_property
    def _table(self) -> tuple:
        """(dim x L) occupation bits n_x(b), and the Jordan-Wigner signs
        (-1)^(modes occupied below x) as +-1 integers."""
        bits = (self.states()[:, None] >> np.arange(self.l_sites)) & 1
        return bits, 1 - 2 * ((np.cumsum(bits, axis=1) - bits) & 1)

    def occupations(self) -> np.ndarray:
        return self._table[0].sum(axis=1)

    def vacuum(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi


def _word(space: FockSpace, creates, coef) -> sp.csr_matrix:
    """sum coef[x_1, ..., x_k] c_1(x_1) ... c_k(x_k), with c_i = a* where
    creates[i] and a otherwise; the rightmost operator acts first.

    Built at once over every index tuple with a nonzero coefficient and every
    basis state; duplicate matrix entries are summed by the CSR build."""
    coef = np.asarray(coef, dtype=complex)
    shape = (space.l_sites,) * len(creates)
    if coef.shape != shape:
        raise ValueError(f"coefficients must have shape {shape}, got {coef.shape}")
    bits, jw = space._table
    sites = np.nonzero(coef)
    cols = np.broadcast_to(space.states(), (len(sites[0]), space.dim))
    rows = cols
    vals = np.broadcast_to(coef[sites][:, None], cols.shape)
    alive = np.ones(cols.shape, dtype=bool)
    for create, x in zip(reversed(creates), reversed(sites)):
        x = x[:, None]
        alive &= bits[rows, x] != create  # a* needs mode x empty, a needs it filled
        vals = vals * jw[rows, x]
        rows = rows ^ (1 << x)
    return sp.csr_matrix((vals[alive], (rows[alive], cols[alive])),
                         shape=(space.dim, space.dim))


def apply_ladder(space: FockSpace, psi: np.ndarray, site: int, create: bool) -> np.ndarray:
    """Apply a single a_x or a*_x to a state vector."""
    return ladder(space, site, "create" if create else "annihilate") @ psi


def ladder(space: FockSpace, site: int, kind: str) -> sp.csr_matrix:
    """Sparse a_x (kind='annihilate') or a*_x (kind='create')."""
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    if not 0 <= site < space.l_sites:
        raise ValueError(f"site {site} out of range")
    return _word(space, (kind == "create",), np.eye(space.l_sites)[site])


def car_defect(space: FockSpace) -> float:
    """Largest entry of {a_x, a*_y} - delta_xy, {a_x, a_y} and {a*_x, a*_y}
    over all site pairs, computed on the sparse ladders."""
    ident = sp.identity(space.dim, format="csr")
    a = [ladder(space, x, "annihilate") for x in range(space.l_sites)]
    c = [ladder(space, x, "create") for x in range(space.l_sites)]
    worst = 0.0
    for x in range(space.l_sites):
        for y in range(space.l_sites):
            for anti in (a[x] @ c[y] + c[y] @ a[x] - (x == y) * ident,
                         a[x] @ a[y] + a[y] @ a[x], c[x] @ c[y] + c[y] @ c[x]):
                worst = max(worst, abs(anti).max())
    return float(worst)


def apply_field(space: FockSpace, psi: np.ndarray, f: np.ndarray, create: bool) -> np.ndarray:
    """Apply a(f) = sum conj(f(x)) a_x, or a*(f) = sum f(x) a*_x."""
    return _word(space, (create,), f if create else np.conj(f)) @ psi


def field_operator(space: FockSpace, f: np.ndarray, create: bool) -> sp.csr_matrix:
    return _word(space, (create,), f if create else np.conj(f))


def d_gamma(space: FockSpace, o: np.ndarray) -> sp.csr_matrix:
    """Second quantization sum_{xy} O(x;y) a*_x a_y; particle-number preserving."""
    return _word(space, (True, False), o)


def pair_operator(space: FockSpace, o: np.ndarray, create: bool) -> sp.csr_matrix:
    """sum_{xy} O(x;y) a_x a_y (annihilating pair) or a*_x a*_y (creating)."""
    return _word(space, (create, create), o)


def number_operator(space: FockSpace) -> sp.csr_matrix:
    return sp.diags(space.occupations().astype(complex)).tocsr()


def hamiltonian(space: FockSpace, v: Potential, hbar: float,
                n_particles: int) -> sp.csr_matrix:
    """dGamma(-hbar^2 Lap) + (1/2N) sum_{x,y} V(x-y) a*_x a*_y a_y a_x.

    The interaction is diagonal in the occupation basis; its site-pair
    coupling uses the same V samples as the mean-field direct/exchange
    terms, so the exact dynamics is tangent to the Hartree-Fock flow."""
    if v.lattice.ds != 1 or v.lattice.site_count != space.l_sites:
        raise ValueError("hamiltonian needs a ds=1 lattice matching the Fock sites")
    h = d_gamma(space, kinetic_operator(v.lattice, hbar))
    w = v.pair_matrix.copy()
    np.fill_diagonal(w, 0.0)
    occ = space._table[0].astype(float)
    diag = 0.5 / n_particles * np.einsum("bx,xy,by->b", occ, w, occ)
    return (h + sp.diags(diag.astype(complex))).tocsr()


@dataclass
class BogoliubovSpec:
    """Pairing-free particle-hole data: u = 1 - omega, v = sum |conj f_j><f_j|."""

    u: np.ndarray
    v: np.ndarray
    orbitals: np.ndarray  # columns f_j, the orbitals of omega

    def check(self, tol: float = 1e-12):
        """Block conditions of the Bogoliubov map, and orthonormal orbitals:
        then every b_j = a*(f_j) + a(f_j) is a self-adjoint unitary."""
        ident = np.eye(self.u.shape[0])
        c1 = np.max(np.abs(self.u.conj().T @ self.u + self.v.conj().T @ self.v - ident))
        c2 = np.max(np.abs(self.u.conj().T @ np.conj(self.v)
                           + self.v.conj().T @ np.conj(self.u)))
        if c1 > tol or c2 > tol:
            raise ValueError(f"Bogoliubov block conditions violated: {c1:.2e}, {c2:.2e}")
        f = self.orbitals
        gram = np.max(np.abs(f.conj().T @ f - np.eye(f.shape[1])), initial=0.0)
        if not gram <= tol:
            raise ValueError(f"orbitals are not orthonormal (defect {gram:.2e})")


def bogoliubov_from_projection(omega) -> BogoliubovSpec:
    """Particle-hole Bogoliubov data for a `DensityMatrix` omega that is an
    orthogonal projection, from its orbitals: Phi -> Phi W changes R only by
    a phase and a number-conserving unitary, so any orthonormal basis serves."""
    if not np.all(np.abs(omega.occupations - 1.0) <= 1e-10):
        raise ValueError("input is not an orthogonal projection")
    occ = omega.orbitals
    u = np.eye(occ.shape[0], dtype=complex) - omega.matrix
    v = np.conj(occ) @ occ.conj().T
    spec = BogoliubovSpec(u=u, v=v, orbitals=occ)
    spec.check()
    return spec


def slater_vector(space: FockSpace, orbitals: np.ndarray) -> np.ndarray:
    """a*(f_1) ... a*(f_N) applied to the vacuum."""
    psi = space.vacuum()
    for j in range(orbitals.shape[1] - 1, -1, -1):
        psi = apply_field(space, psi, orbitals[:, j], create=True)
    return psi


def implement_bogoliubov(space: FockSpace, spec: BogoliubovSpec) -> LinearOperator:
    """Implementor R = b_1 ... b_N with b_j = a*(f_j) + a(f_j), applied factor
    by factor (b_N acts first).  For orthonormal f_j (BogoliubovSpec.check)
    the CAR give b_j* = b_j and b_j^2 = 1: R is unitary, R* = b_N ... b_1
    (`.H` applies the factors in reverse), and R vacuum = slater_vector."""
    factors = [field_operator(space, f, True) + field_operator(space, f, False)
               for f in spec.orbitals.T]

    def apply(order):
        def act(psi):
            for b in order:
                psi = b @ psi
            return psi
        return act

    return LinearOperator((space.dim, space.dim), dtype=complex,
                          matvec=apply(factors[::-1]), rmatvec=apply(factors))


def quasi_free_state(space: FockSpace, omega) -> np.ndarray:
    """The pairing-free quasi-free state R_nu vacuum with rdm1 = omega."""
    return implement_bogoliubov(space, bogoliubov_from_projection(omega)) @ space.vacuum()


class SectorPropagator:
    """exp(-i h t / hbar) applied sector by sector; dense eigendecompositions
    are cached per fixed-particle-number sector."""

    def __init__(self, space: FockSpace, h, hbar: float):
        self.space = space
        self.h = sp.csr_matrix(h) if not sp.issparse(h) else h.tocsr()
        herm_defect = abs(self.h - self.h.conj().T).max()
        if herm_defect > 1e-10:
            raise ValueError(f"generator not Hermitian (defect {herm_defect:.2e})")
        self.hbar = hbar
        occ = space.occupations()
        self._sectors = [np.nonzero(occ == n)[0] for n in range(space.l_sites + 1)]
        self._eig = {}

    def _sector_eig(self, n: int):
        if n not in self._eig:
            idx = self._sectors[n]
            self._eig[n] = np.linalg.eigh(self.h[np.ix_(idx, idx)].toarray())
        return self._eig[n]

    def __call__(self, psi: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(psi, dtype=complex)
        for n, idx in enumerate(self._sectors):
            block = psi[idx]
            if np.linalg.norm(block) == 0:
                continue
            eig, vec = self._sector_eig(n)
            out[idx] = (vec * np.exp(-1j * t * eig / self.hbar)) @ (vec.conj().T @ block)
        drift = abs(np.linalg.norm(out) - np.linalg.norm(psi))
        if drift > 1e-10 * max(1.0, np.linalg.norm(psi)):
            raise RuntimeError(f"exact propagation lost norm ({drift:.2e})")
        return out


def _annihilated_stack(space: FockSpace, psi: np.ndarray) -> np.ndarray:
    return np.stack([apply_ladder(space, psi, x, create=False)
                     for x in range(space.l_sites)])


def rdm1(psi: np.ndarray, space: FockSpace = None) -> np.ndarray:
    """gamma(x;y) = <psi, a*_y a_x psi>; Hermitian PSD, trace = <N>."""
    if space is None:
        space = FockSpace(int(round(np.log2(psi.shape[0]))))
    a_psi = _annihilated_stack(space, psi)
    return a_psi @ a_psi.conj().T


def rdmk(psi: np.ndarray, k: int, space: FockSpace = None) -> np.ndarray:
    """k-particle reduced density as a rank-2k tensor, normalized so the
    total trace is <N!/(N-k)!>."""
    if space is None:
        space = FockSpace(int(round(np.log2(psi.shape[0]))))
    if not 1 <= k <= 3:
        raise ValueError("k must be 1, 2 or 3")
    mean_n = number_moment(psi, 1) - 1.0
    if k > mean_n + 1e-9:
        raise ValueError(f"k={k} exceeds the mean particle number {mean_n:.3f}")
    l = space.l_sites
    tuples = list(product(range(l), repeat=k))
    phi = np.zeros((len(tuples), space.dim), dtype=complex)
    for i, tup in enumerate(tuples):
        vec = psi
        for y in tup:  # rightmost operator a_{y_1} acts first
            vec = apply_ladder(space, vec, y, create=False)
        phi[i] = vec
    g = phi @ phi.conj().T  # g[x_tuple, x'_tuple] = <Phi_{x'}, Phi_x>
    return g.reshape((l,) * (2 * k))


def wick_rdmk(omega: np.ndarray, k: int) -> np.ndarray:
    """Quasi-free k-particle reduced density: the k x k determinant
    det[ omega(x_i; x'_j) ] for every pair of index tuples."""
    omega = np.asarray(omega, dtype=complex)
    if k < 1:
        raise ValueError("k must be >= 1")
    l = omega.shape[0]
    tuples = np.array(list(product(range(l), repeat=k)))
    blocks = omega[tuples[:, None, :, None], tuples[None, :, None, :]]
    return np.linalg.det(blocks).reshape((l,) * (2 * k))


def generalized_density(psi: np.ndarray, space: FockSpace = None) -> np.ndarray:
    """Block matrix [[gamma, alpha], [-conj(alpha), 1 - conj(gamma)]]."""
    if space is None:
        space = FockSpace(int(round(np.log2(psi.shape[0]))))
    a_psi = _annihilated_stack(space, psi)
    c_psi = np.stack([apply_ladder(space, psi, x, create=True)
                      for x in range(space.l_sites)])
    gamma = a_psi @ a_psi.conj().T
    # alpha(x;y) = <psi, a_y a_x psi> = <a*_y psi, a_x psi>
    alpha = (np.conj(c_psi) @ a_psi.T).T
    ident = np.eye(space.l_sites)
    top = np.hstack([gamma, alpha])
    bot = np.hstack([-np.conj(alpha), ident - np.conj(gamma)])
    return np.vstack([top, bot])


def number_moment(xi: np.ndarray, k: int, space: FockSpace = None) -> float:
    """<xi, (N_op + 1)^k xi> / ||xi||^2.  Numerator and norm sum over one
    array of |xi|^2, so the moment is >= 1 exactly, not only to round-off."""
    if not 0 <= k <= 6:
        raise ValueError("k must be between 0 and 6")
    if space is None:
        space = FockSpace(int(round(np.log2(xi.shape[0]))))
    weights = (space.occupations() + 1.0) ** k
    prob = np.abs(xi) ** 2
    return float(np.sum(weights * prob) / np.sum(prob))


def fluctuation_vector(space: FockSpace, omega, psi: np.ndarray) -> np.ndarray:
    """xi = R*_omega psi: the particles of psi outside the Slater sea of the
    projection omega.  With psi_t = exp(-i H t / hbar) R_{omega_0} xi_0 and
    omega_t on the Hartree-Fock flow, this is the fluctuation dynamics
    U(t;0) xi_0 = R*_{omega_t} exp(-i H t / hbar) R_{omega_0} xi_0."""
    xi = implement_bogoliubov(space, bogoliubov_from_projection(omega)).H @ psi
    drift = abs(np.linalg.norm(xi) - np.linalg.norm(psi))
    if not drift <= 1e-9 * max(1.0, np.linalg.norm(psi)):  # also true for NaN
        raise RuntimeError(f"fluctuation vector lost norm ({drift:.2e})")
    return xi


def verify_operator_bounds(space: FockSpace, trials: int, seed: int) -> dict:
    """Numerically check the quadratic-operator norm inequalities on random
    one-particle matrices and random Fock vectors; violations indicate bugs."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    occ = space.occupations().astype(float)
    names = [
        "dgamma_operator_norm_bound",
        "dgamma_hs_bound",
        "pair_annihilation_hs_bound",
        "pair_creation_hs_bound",
        "dgamma_trace_bound",
        "pair_annihilation_trace_bound",
        "pair_creation_trace_bound",
    ]
    report = {name: {"violations": 0, "worst_slack": np.inf} for name in names}

    def tally(name, lhs, rhs, tol=1e-10):
        slack = rhs - lhs
        entry = report[name]
        entry["worst_slack"] = min(entry["worst_slack"], slack)
        if slack < -tol:
            entry["violations"] += 1

    l = space.l_sites
    for _ in range(trials):
        o = rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l))
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi /= np.linalg.norm(psi)
        sv = np.linalg.svd(o, compute_uv=False)
        op_norm, hs, tr = sv[0], np.linalg.norm(sv), np.sum(sv)

        dg = d_gamma(space, o)
        n_psi = occ * psi
        tally("dgamma_operator_norm_bound", np.linalg.norm(dg @ psi),
              op_norm * np.linalg.norm(n_psi))
        tally("dgamma_hs_bound", np.linalg.norm(dg @ psi),
              hs * np.linalg.norm(np.sqrt(occ) * psi))
        pa = pair_operator(space, o, create=False)
        tally("pair_annihilation_hs_bound", np.linalg.norm(pa @ psi),
              hs * np.linalg.norm(np.sqrt(occ) * psi))
        pc = pair_operator(space, o, create=True)
        tally("pair_creation_hs_bound", np.linalg.norm(pc @ psi),
              2.0 * hs * np.linalg.norm(np.sqrt(occ + 1.0) * psi))
        tally("dgamma_trace_bound",
              np.linalg.svd(dg.toarray(), compute_uv=False)[0], 2.0 * tr)
        tally("pair_annihilation_trace_bound",
              np.linalg.svd(pa.toarray(), compute_uv=False)[0], 2.0 * tr)
        tally("pair_creation_trace_bound",
              np.linalg.svd(pc.toarray(), compute_uv=False)[0], 2.0 * tr)

    for entry in report.values():
        entry["worst_slack"] = float(entry["worst_slack"])
    report["trials"] = trials
    report["seed"] = seed
    return report
