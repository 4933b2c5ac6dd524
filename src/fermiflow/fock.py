"""Exact second-quantized oracle on a tiny one-dimensional lattice, on numpy alone.

Occupation bitmasks index the 2^L Fock basis (integer order); Jordan-Wigner
strings follow the site order, so a_x picks up (-1)^(number of occupied
modes below x).  That convention is fixed in one place, the per-space table
`FockSpace._table` of occupation bits, signs and flipped states b ^ 2^x.
`_word` fills every operator here (field a*(f) and a(f), dGamma, pair,
Hamiltonian) densely from its entries, on the whole space or on one
particle-number sector; `car_defect` reads the anticommutators from its
two-letter entries; the Bogoliubov implementor's factors and `rdm1` are
gathers psi[b ^ 2^x] over it.  `propagate` asks `hamiltonian` for the block
of each sector it reaches and steps it with `apply_exponential`, the
exponential of the mean-field flow, on an interval read from the
Hamiltonian's parts as the flow's is: both sides of the exact-versus-mean-field
comparison take one exponential.  The k-particle densities and their Wick
formula, the generalized density, the number operator and the Slater vector
built factor by factor are test oracles (`tests/_oracles.py`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .meanfield import apply_exponential
from .model import DENSE_MAX_SITES, FOCK_MAX_SITES, Potential, kinetic_operator

__all__ = [
    "FockSpace",
    "car_defect",
    "field_operator",
    "d_gamma",
    "hamiltonian",
    "pair_operator",
    "implement_bogoliubov",
    "quasi_free_state",
    "propagate",
    "rdm1",
    "fluctuation_vector",
    "number_moment",
    "verify_operator_bounds",
]


@dataclass(frozen=True)
class FockSpace:
    """Fermionic Fock space over L lattice sites; basis = occupation bitmasks
    in integer order, mode order = site order."""

    l_sites: int

    def __post_init__(self):
        if not 1 <= self.l_sites <= FOCK_MAX_SITES:
            raise ValueError(f"need 1 <= L <= {FOCK_MAX_SITES}, got {self.l_sites}")

    @property
    def dim(self) -> int:
        return 1 << self.l_sites

    def states(self) -> np.ndarray:
        return np.arange(self.dim)

    @cached_property
    def _table(self) -> tuple:
        """The Jordan-Wigner table, three (dim x L) arrays: occupation bits n_x(b), signs
        (-1)^(modes occupied below x) as +-1 integers, and the flipped states b ^ 2^x."""
        states, modes = self.states()[:, None], np.arange(self.l_sites)
        bits = (states >> modes) & 1
        return bits, 1 - 2 * ((np.cumsum(bits, axis=1) - bits) & 1), states ^ (1 << modes)

    def occupations(self) -> np.ndarray:
        return self._table[0].sum(axis=1)

    def vacuum(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi


def _word(space: FockSpace, creates, coef, basis=None) -> np.ndarray:
    """sum coef[x_1, ..., x_k] c_1(x_1) ... c_k(x_k), c_i = a* where creates[i] and a
    otherwise, the rightmost acting first, as a dense matrix on the whole space (L <=
    DENSE_MAX_SITES) or on `basis`, one whole sector's ascending states, for a word with
    as many a* as a.  Filled at once from the table over every index tuple with a nonzero
    coefficient and every basis state, output states ranked by `np.searchsorted`, in the
    coefficients' dtype raised to at least float: real ones give a real matrix."""
    coef = np.asarray(coef)
    coef = coef.astype(np.result_type(coef, float))
    shape = (space.l_sites,) * len(creates)
    if coef.shape != shape:
        raise ValueError(f"coefficients must have shape {shape}, got {coef.shape}")
    if basis is None:
        if space.l_sites > DENSE_MAX_SITES:
            raise ValueError(f"full-space operators are dense: need L <= {DENSE_MAX_SITES}, "
                             f"got {space.l_sites}")
        basis = space.states()
    elif 2 * sum(creates) != len(creates):
        raise ValueError("a sector block needs a number-conserving word")
    bits, jw, _ = space._table
    sites = np.nonzero(coef)
    rows = np.broadcast_to(basis, (len(sites[0]), len(basis)))
    vals = np.broadcast_to(coef[sites][:, None], rows.shape)
    alive = np.ones(rows.shape, dtype=bool)
    for create, x in zip(reversed(creates), reversed(sites)):
        x = x[:, None]
        alive &= bits[rows, x] != create  # a* needs mode x empty, a needs it filled
        vals = vals * jw[rows, x]
        rows = rows ^ (1 << x)
    out = np.zeros((len(basis), len(basis)), dtype=coef.dtype)
    np.add.at(out, (np.searchsorted(basis, rows[alive]), np.nonzero(alive)[1]), vals[alive])
    return out


def field_operator(space: FockSpace, f: np.ndarray, create: bool) -> np.ndarray:
    """Dense a(f) = sum conj(f(x)) a_x, or a*(f) = sum f(x) a*_x; the site
    operators are a_x = a(e_x) and a*_x = a*(e_x)."""
    return _word(space, (create,), f if create else np.conj(f))


def car_defect(space: FockSpace) -> float:
    """Largest entry of {a_x, a*_y} - delta_xy, {a_x, a_y} and {a*_x, a*_y} over all site
    pairs, from the table's two-letter entries: on a state b both orders of a pair land on
    b ^ 2^x ^ 2^y, so an anticommutator is one sum per b, x and y, in integers."""
    bits, jw, flip = space._table
    letter = [np.where(bits != c, jw, 0) for c in (0, 1)]  # c_x on b at [b, x]; c = 1 is a*

    def word(c, d):  # c_x d_y on b at [b, y, x]: d_y acts first
        return letter[d][:, :, None] * letter[c][flip]

    eye = np.eye(space.l_sites, dtype=int)  # {a_x, a*_y} = delta_xy, the others vanish
    return float(max(np.abs(word(c, d) + word(d, c).transpose(0, 2, 1) - (c != d) * eye).max()
                     for c, d in ((0, 1), (0, 0), (1, 1))))


def d_gamma(space: FockSpace, o: np.ndarray, basis=None) -> np.ndarray:
    """Second quantization sum_{xy} O(x;y) a*_x a_y; number-preserving: see `_word`."""
    return _word(space, (True, False), o, basis)


def pair_operator(space: FockSpace, o: np.ndarray, create: bool) -> np.ndarray:
    """sum_{xy} O(x;y) a_x a_y (annihilating pair) or a*_x a*_y (creating)."""
    return _word(space, (create, create), o)


def hamiltonian(space: FockSpace, v: Potential, hbar: float, n_particles: int,
                basis=None) -> np.ndarray:
    """dGamma(-hbar^2 Lap) + (1/2N) sum_{x,y} V(x-y) a*_x a*_y a_y a_x, dense on the
    whole space or on a sector `basis` (see `_word`).  The interaction is diagonal in the occupation basis; its site-pair
    coupling uses the same V samples as the mean-field direct/exchange
    terms, so the exact dynamics is tangent to the Hartree-Fock flow."""
    if v.lattice.ds != 1 or v.lattice.site_count != space.l_sites:
        raise ValueError("hamiltonian needs a ds=1 lattice matching the Fock sites")
    h = d_gamma(space, kinetic_operator(v.lattice, hbar), basis)
    w = v.pair_matrix.copy()
    np.fill_diagonal(w, 0.0)
    occ = space._table[0][space.states() if basis is None else basis].astype(float)
    h[np.diag_indices_from(h)] += 0.5 / n_particles * np.einsum("bx,xy,by->b", occ, w, occ)
    return h


class _Implementor:
    """R @ psi applies the factors right to left; R.H is R* = the factors in reverse."""

    def __init__(self, flip, factors):
        self.flip, self.factors = flip, factors

    def __matmul__(self, psi):  # psi[flip] keeps psi's trailing axes: vectors and blocks
        for coef in reversed(self.factors):
            psi = np.einsum("bx,bx...->b...", coef, psi[self.flip])
        return psi

    H = property(lambda self: _Implementor(self.flip, self.factors[::-1]))


def implement_bogoliubov(space: FockSpace, omega) -> _Implementor:
    """Particle-hole implementor R = b_1 ... b_N of a `DensityMatrix` omega
    that is an orthogonal projection, with b_j = a*(f_j) + a(f_j) over its
    orbitals f_j, applied factor by factor as gathers over the table (b_N acts
    first).  Phi -> Phi W changes R only by a phase and a number-conserving
    unitary, so any orthonormal basis of omega serves.

    Every lambda_j must be 1 and the f_j orthonormal.  Then the CAR give
    b_j* = b_j and b_j^2 = 1: R is unitary, R* = b_N ... b_1 (`.H` applies
    the factors in reverse), and R vacuum = a*(f_1) ... a*(f_N) vacuum.  The block
    conditions of the Bogoliubov map u = 1 - omega, v = conj(Phi) Phi* need
    no check of their own: with E = Phi* Phi - I their defects
    u*u + v*v - 1 = Phi (E + conj E) Phi* and
    u* conj(v) + v* conj(u) = -Phi (E + conj E) Phi^T vanish with E."""
    if not np.all(np.abs(omega.occupations - 1.0) <= 1e-10):
        raise ValueError("input is not an orthogonal projection")
    f = omega.orbitals
    gram = np.max(np.abs(f.conj().T @ f - np.eye(f.shape[1])), initial=0.0)
    if not gram <= 1e-12:
        raise ValueError(f"orbitals are not orthonormal (defect {gram:.2e})")
    bits, jw, flip = space._table
    # b(f) psi[b] = sum_x jw[b, x] (f_x if n_x(b) = 1 else conj f_x) psi[b ^ 2^x]
    return _Implementor(flip, [jw * np.where(bits, fj, fj.conj()) for fj in f.T])


def quasi_free_state(space: FockSpace, omega) -> np.ndarray:
    """The pairing-free quasi-free state R_nu vacuum = a*(f_1) ... a*(f_N) vacuum
    with rdm1 = omega, set to 0 off the N-particle sector: the a(f_j) factors leave
    round-off in sectors N-2, N-4, ..., which `propagate` would densify and step."""
    psi = implement_bogoliubov(space, omega) @ space.vacuum()
    psi[space.occupations() != omega.n_particles] = 0.0
    return psi


def propagate(space: FockSpace, v: Potential, n_particles: int, psi0: np.ndarray,
              times, hbar: float):
    """Yield exp(-i H t / hbar) psi0 at the ascending times t >= 0, H = dGamma(K) + W
    the `hamiltonian` of v.  The block of each sector that psi0 reaches is built once and
    stepped between the times by `apply_exponential` on Weyl's interval from H's parts:
    dGamma(K) on n fermions spans [sum of the n lowest, sum of the n highest] levels
    hbar^2 |p|^2 of K, W the block diagonal minus n K_xx (K_xx: the levels' mean)."""
    k = np.sort(hbar ** 2 * v.lattice.momentum_squared())  # K's levels, ascending
    occ, sectors = space.occupations(), []
    for n in range(space.l_sites + 1):
        if np.any(psi0[idx := np.nonzero(occ == n)[0]]):
            block = hamiltonian(space, v, hbar, n_particles, idx)
            w = block.diagonal() - n * k.mean()
            sectors.append((idx, block, (k[:n].sum() + w.min(), k[len(k) - n:].sum() + w.max())))
    psi, t_prev, norm0 = psi0, 0.0, np.linalg.norm(psi0)
    for t in times:
        out = np.zeros(space.dim, dtype=complex)
        for idx, block, interval in sectors:
            out[idx] = apply_exponential(psi[idx, None], block, interval, t - t_prev, hbar)[:, 0]
        psi, t_prev = out, t
        drift = abs(np.linalg.norm(psi) - norm0)
        if not drift <= 1e-10 * max(1.0, norm0):  # also true for NaN
            raise RuntimeError(f"exact propagation lost norm ({drift:.2e})")
        yield psi


def rdm1(psi: np.ndarray, space: FockSpace) -> np.ndarray:
    """gamma(x;y) = <psi, a*_y a_x psi>; Hermitian PSD, trace = <N>.  Column x of the
    table's one gather is a_x psi: jw[b, x] psi[b ^ 2^x] where n_x(b) = 0."""
    bits, jw, flip = space._table
    a_psi = np.where(bits, 0, jw * psi[flip])
    return a_psi.T @ a_psi.conj()


def number_moment(xi: np.ndarray, k: int, space: FockSpace,
                  shift: float = 1.0) -> float:
    """<xi, (N_op + shift)^k xi> / ||xi||^2, >= shift^k exactly: numerator and
    norm sum over one array of |xi|^2.  shift=0, k=1 is <N> without the
    round-off of <N + 1> - 1, which loses the leading digits of a small <N>."""
    if not 0 <= k <= 6:
        raise ValueError("k must be between 0 and 6")
    weights = (space.occupations() + shift) ** k
    prob = np.abs(xi) ** 2
    return float(np.sum(weights * prob) / np.sum(prob))


def fluctuation_vector(space: FockSpace, omega, psi: np.ndarray) -> np.ndarray:
    """xi = R*_omega psi: the particles of psi outside the Slater sea of the
    projection omega.  With psi_t = exp(-i H t / hbar) R_{omega_0} xi_0 and
    omega_t on the Hartree-Fock flow, this is the fluctuation dynamics
    U(t;0) xi_0 = R*_{omega_t} exp(-i H t / hbar) R_{omega_0} xi_0."""
    xi = implement_bogoliubov(space, omega).H @ psi
    drift = abs(np.linalg.norm(xi) - np.linalg.norm(psi))
    if not drift <= 1e-9 * max(1.0, np.linalg.norm(psi)):  # also true for NaN
        raise RuntimeError(f"fluctuation vector lost norm ({drift:.2e})")
    return xi


def verify_operator_bounds(space: FockSpace, trials: int, seed: int) -> dict:
    """Numerically check the quadratic-operator norm inequalities on random
    one-particle matrices and random Fock vectors; violations indicate bugs.
    Needs L <= DENSE_MAX_SITES, and holds one dense word at a time."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    occ = space.occupations().astype(float)
    report = {}  # one entry per inequality, in the order of the first trial's tallies

    def tally(name, lhs, rhs, tol=1e-10):
        slack = rhs - lhs
        entry = report.setdefault(name, {"violations": 0, "worst_slack": np.inf})
        entry["worst_slack"] = min(entry["worst_slack"], slack)
        if slack < -tol:
            entry["violations"] += 1

    def norms(creates):  # |word psi| and the word's operator norm; the word dies here
        word = _word(space, creates, o)
        return np.linalg.norm(word @ psi), np.linalg.svd(word, compute_uv=False)[0]

    l = space.l_sites
    for _ in range(trials):
        o = rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l))
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi /= np.linalg.norm(psi)
        sv = np.linalg.svd(o, compute_uv=False)
        op_norm, hs, tr = sv[0], np.linalg.norm(sv), np.sum(sv)
        (dg, dg_norm), (pa, pa_norm), (pc, pc_norm) = [
            norms(creates) for creates in ((True, False), (False, False), (True, True))]
        tally("dgamma_operator_norm_bound", dg, op_norm * np.linalg.norm(occ * psi))
        tally("dgamma_hs_bound", dg, hs * np.linalg.norm(np.sqrt(occ) * psi))
        tally("pair_annihilation_hs_bound", pa, hs * np.linalg.norm(np.sqrt(occ) * psi))
        tally("pair_creation_hs_bound", pc, 2.0 * hs * np.linalg.norm(np.sqrt(occ + 1.0) * psi))
        tally("dgamma_trace_bound", dg_norm, 2.0 * tr)
        tally("pair_annihilation_trace_bound", pa_norm, 2.0 * tr)
        tally("pair_creation_trace_bound", pc_norm, 2.0 * tr)

    for entry in report.values():
        entry["worst_slack"] = float(entry["worst_slack"])
    return report
