"""Exact second-quantized oracle on a tiny lattice of any ds, L = d^ds sites, on numpy alone.

A Fock state is a vector on one particle-number sector, whose basis is the occupation
bitmasks with n bits set, ascending (`FockSpace.sector`): no state or operator is 2^L
long.  Jordan-Wigner strings follow the row-major site order, so a_x picks up (-1)^(number
of occupied modes below x), a convention fixed in one place: `_letter`, by bit operations on
the masks.  States are ranked in one place too, `_raising`'s cached tables of a*_x on one
sector, which every operator reads: `d_gamma` (so `hamiltonian`) and the pair blocks are
scattered from them, and `rdm1` and `fluctuation_moments` gather a_x psi on sector N - 1
(the moments from 2 dGamma(1 - omega) on sector N, with no implementor).  `propagate`
steps the `hamiltonian` block with `apply_exponential` on an interval read from its parts,
as the mean-field flow's is.  The full-space operators, the implementor and the
fluctuation vector, the k-particle densities and the Slater vector factor by factor are
test oracles (`tests/_oracles.py`).
"""

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .meanfield import apply_exponential
from .model import FOCK_MAX_SITES, Potential, kinetic_operator

__all__ = [
    "FockSpace",
    "car_defect",
    "d_gamma",
    "hamiltonian",
    "quasi_free_state",
    "propagate",
    "rdm1",
    "fluctuation_moments",
    "verify_operator_bounds",
]


@dataclass(frozen=True)
class FockSpace:
    """Fermionic Fock space over L lattice sites, mode order = site order; a state is a
    vector on the basis `sector(n)` of one particle number n."""

    l_sites: int

    def __post_init__(self):
        if not 1 <= self.l_sites <= FOCK_MAX_SITES:
            raise ValueError(f"need 1 <= L <= {FOCK_MAX_SITES}, got {self.l_sites}")

    @functools.cached_property
    def _sectors(self) -> list:
        masks = np.arange(1 << self.l_sites)
        count = sum((masks >> x) & 1 for x in range(self.l_sites))
        sectors = [masks[count == n] for n in range(self.l_sites + 1)]
        for basis in sectors:
            basis.setflags(write=False)
        return sectors

    def sector(self, n: int) -> np.ndarray:
        """The n-particle basis: the bitmasks with n bits set, ascending (read-only); empty
        outside 0 <= n <= L."""
        return self._sectors[n] if 0 <= n <= self.l_sites else self._sectors[0][:0]


def _letter(masks, x, create: bool):
    """The letter a*_x (create) or a_x on bitmasks, broadcast over masks and sites x:
    whether it acts (a* needs mode x empty, a needs it filled), its sign (-1)^(modes
    occupied below x) and the flipped masks b ^ 2^x."""
    below = masks & ((1 << x) - 1)
    for shift in (8, 4, 2, 1):  # fold the parity of the bits below x into bit 0 (L <= 16)
        below = below ^ (below >> shift)
    return ((masks >> x) & 1) != create, 1 - 2 * (below & 1), masks ^ (1 << x)


@functools.lru_cache(maxsize=32)
def _raising(space: FockSpace, m: int) -> tuple:
    """(sign, rank), read-only (C(L, m), L) tables: a*_x takes row b's mask of sector m to
    sign[b, x] times the state at rank[b, x] of sector m + 1; sign 0, rank 0 where x is filled."""
    acts, sign, flipped = _letter(space.sector(m)[:, None], np.arange(space.l_sites), True)
    sign, rank = np.where(acts, sign, 0), np.searchsorted(space.sector(m + 1), flipped * acts)
    for table in (sign, rank):
        table.setflags(write=False)
    return sign, rank


def car_defect(space: FockSpace) -> float:
    """Largest entry of {a_x, a*_y} - delta_xy, {a_x, a_y} and {a*_x, a*_y} over all site
    pairs, from two `_letter`s over every mask b, in integers: both orders of a pair land on
    b ^ 2^x ^ 2^y, so an anticommutator is one sum per b, x and y."""
    masks, sites = np.arange(1 << space.l_sites)[:, None, None], np.arange(space.l_sites)

    def word(c, d):  # c_x d_y on b at [b, y, x]: d_y acts first
        acts, sign, flipped = _letter(masks, sites[:, None], d)
        acts_c, sign_c, _ = _letter(flipped, sites, c)
        return acts * acts_c * sign * sign_c

    eye = np.eye(space.l_sites, dtype=int)  # {a_x, a*_y} = delta_xy, the others vanish
    return float(max(np.abs(word(c, d) + word(d, c).transpose(0, 2, 1) - (c != d) * eye).max()
                     for c, d in ((False, True), (False, False), (True, True))))


def _scatter(space: FockSpace, o, n: int, c: int, rows, cols, sign) -> np.ndarray:
    """The block from sector n to sector n + c of sum_{xy} O(x;y) w_xy, w_xy two letters
    whose target ranks, source ranks and signs are broadcast over [b, x, y]: one `np.add.at`
    sums O(x;y) sign into them, in O's dtype raised to at least float."""
    o = np.asarray(o)
    if o.shape != (space.l_sites,) * 2:
        raise ValueError(f"coefficients must have shape {(space.l_sites,) * 2}, got {o.shape}")
    out = np.zeros((len(space.sector(n + c)), len(space.sector(n))), np.result_type(o, float))
    if out.size:  # else the tables rank into an empty sector
        np.add.at(out, (rows, cols), o * sign)
    return out


def d_gamma(space: FockSpace, o: np.ndarray, n: int) -> np.ndarray:
    """Second quantization sum_{xy} O(x;y) a*_x a_y on sector n, from the a* table of sector
    n - 1: a*_x a_y takes a*_y b to a*_x b, so O(x;y) sign[b, x] sign[b, y] lands at (rank[b,
    x], rank[b, y])."""
    sign, rank = _raising(space, n - 1)
    return _scatter(space, o, n, 0, rank[:, :, None], rank[:, None, :],
                    sign[:, :, None] * sign[:, None, :])


def _pair_creation(space: FockSpace, o: np.ndarray, n: int) -> np.ndarray:
    """sum_{xy} O(x;y) a*_x a*_y from sector n to n + 2: a*_y b by the a* table of n, then a*_x
    by that of n + 1 (of L past L, where a* vanishes).  Minus its transpose is sum_{xy} O(x;y)
    a_x a_y from n + 2 to n, as a_x = (a*_x)^T and a_y a_x = -a_x a_y."""
    sign, rank = _raising(space, n)
    sign_x, rank_x = (table[rank].transpose(0, 2, 1)  # [b, x, y]
                      for table in _raising(space, min(n + 1, space.l_sites)))
    return _scatter(space, o, n, 2, rank_x, np.arange(len(rank))[:, None, None],
                    sign_x * sign[:, None, :])


def hamiltonian(space: FockSpace, v: Potential, hbar: float, n_particles: int) -> np.ndarray:
    """dGamma(-hbar^2 Lap) + (1/2N) sum_{x,y} V(x-y) a*_x a*_y a_y a_x, dense on the
    N-particle sector of v's lattice sites, at any ds.  The interaction is diagonal in the
    occupation basis; its site-pair coupling uses the same V samples as the mean-field
    direct/exchange terms, so the exact dynamics is tangent to the Hartree-Fock flow."""
    h = d_gamma(space, kinetic_operator(v.lattice, hbar), n_particles)
    w = v.pair_matrix.copy()
    np.fill_diagonal(w, 0.0)
    occ = (_raising(space, n_particles)[0] == 0).astype(float)  # n_x(b): a*_x vanishes
    h[np.diag_indices_from(h)] += 0.5 / n_particles * np.einsum("bx,xy,by->b", occ, w, occ)
    return h


def _sea(space: FockSpace, omega) -> np.ndarray:
    """The orbitals f_j of a `DensityMatrix` omega on the Fock sites, refused unless every
    lambda_j is 1 and the f_j are orthonormal: then R = b_1 ... b_N, b_j = a*(f_j) + a(f_j),
    is unitary (the CAR give b_j* = b_j, b_j^2 = 1) and R vacuum = a*(f_1) ... a*(f_N)
    vacuum.  The Bogoliubov map's block conditions need no check of their own: with
    E = Phi* Phi - I their defects are Phi (E + conj E) Phi* and -Phi (E + conj E) Phi^T.
    Phi -> Phi W changes R only by a phase and a number-conserving unitary."""
    if not np.all(np.abs(omega.occupations - 1.0) <= 1e-10):
        raise ValueError("input is not an orthogonal projection")
    f = omega.orbitals
    if f.shape[0] != space.l_sites:
        raise ValueError(f"orbitals on {f.shape[0]} sites, the Fock space has {space.l_sites}")
    gram = np.max(np.abs(omega.gram - np.eye(f.shape[1])), initial=0.0)
    if not gram <= 1e-12:
        raise ValueError(f"orbitals are not orthonormal (defect {gram:.2e})")
    return f


def quasi_free_state(space: FockSpace, omega) -> np.ndarray:
    """The pairing-free quasi-free state R_omega vacuum = a*(f_1) ... a*(f_N) vacuum with
    rdm1 = omega, on sector N: a*_{x_1} ... a*_{x_N} vacuum, x_1 < ... < x_N, is the mask
    of those sites with sign +1, so its amplitude is det[f_j(x_i)]."""
    f = _sea(space, omega)
    n = f.shape[1]
    sites = np.nonzero(_raising(space, n)[0] == 0)[1].reshape(len(space.sector(n)), n)
    return np.linalg.det(f[sites]).astype(complex)


def _on_sector(space: FockSpace, n: int, psi: np.ndarray) -> np.ndarray:
    if psi.shape != (len(space.sector(n)),):
        raise ValueError(f"need a vector on the {len(space.sector(n))} states of sector {n}, "
                         f"got shape {psi.shape}")
    return psi


def propagate(space: FockSpace, v: Potential, n_particles: int, psi0: np.ndarray,
              times, hbar: float):
    """Yield exp(-i H t / hbar) psi0 at the ascending times t >= 0, psi0 on sector N and H =
    dGamma(K) + W the `hamiltonian` of v there.  Its block is built once and stepped
    between the times by `apply_exponential`, on a copy as the series overwrites it, on
    Weyl's interval from H's parts: dGamma(K) on N fermions spans [sum of the N lowest, sum
    of the N highest] levels hbar^2 |p|^2 of K, W the block diagonal minus N K_xx (K_xx:
    the levels' mean)."""
    n, psi = n_particles, _on_sector(space, n_particles, psi0)
    k = np.sort(hbar ** 2 * v.lattice.momentum_squared())  # K's levels, ascending
    block = hamiltonian(space, v, hbar, n)
    w = block.diagonal() - n * k.mean()
    interval = (k[:n].sum() + w.min(), k[len(k) - n:].sum() + w.max())
    t_prev, norm0 = 0.0, np.linalg.norm(psi0)
    for t in times:
        psi = apply_exponential(psi[:, None], block.copy(), interval, t - t_prev, hbar)[:, 0]
        t_prev = t
        drift = abs(np.linalg.norm(psi) - norm0)
        if not drift <= 1e-10 * max(1.0, norm0):  # also true for NaN
            raise RuntimeError(f"exact propagation lost norm ({drift:.2e})")
        yield psi


def _lowered(space: FockSpace, n: int, psi: np.ndarray) -> np.ndarray:
    """The columns a_x psi, x in site order, of psi on sector n: (C(L, n - 1), L)."""
    sign, rank = _raising(space, n - 1)
    return sign * _on_sector(space, n, psi)[rank]


def _raised(space: FockSpace, m: int, cols: np.ndarray) -> np.ndarray:
    """sum_x a*_x cols[:, x], the columns on sector m: the adjoint of `_lowered` on m + 1."""
    sign, rank = _raising(space, m)
    vals, size = (sign * cols).ravel(), len(space.sector(m + 1))
    return (np.bincount(rank.ravel(), vals.real, size)
            + 1j * np.bincount(rank.ravel(), vals.imag, size))


def rdm1(space: FockSpace, n: int, psi: np.ndarray) -> np.ndarray:
    """gamma(x;y) = <psi, a*_y a_x psi> of psi on sector n; Hermitian PSD, trace = n |psi|^2."""
    a_psi = _lowered(space, n, psi)
    return a_psi.T @ a_psi.conj()


def fluctuation_moments(space: FockSpace, omega, psi: np.ndarray, k: int) -> tuple:
    """(<N>, <(N + 1)^k>) of the fluctuation vector xi = R*_omega psi, over |xi|^2 = |psi|^2,
    for psi on sector N = rank omega: the particles outside the Slater sea of omega.  With
    psi_t = exp(-i H t / hbar) R_{omega_0} xi_0 and omega_t on the Hartree-Fock flow, xi is
    the paper's fluctuation dynamics U(t;0) xi_0 (on the Hartree flow, its analogue).

    R N R* counts the particles outside omega and the holes inside: 2D, D = dGamma(1 -
    omega), on sector N.  So <N^j> = |(2D)^m psi|^2 for j = 2m and 2 |A_m (1 - omega)^T|_F^2
    for j = 2m + 1, A_m the columns a_x (2D)^m psi: each is >= 0, so <N> >= 0 and <(N +
    1)^k> = sum_j C(k, j) <N^j> >= 1 exactly.  D raises A_phi (1 - omega)^T back to N."""
    if not 0 <= k <= 6:
        raise ValueError("k must be between 0 and 6")
    f = _sea(space, omega)
    n, norm2 = f.shape[1], np.vdot(psi, psi).real
    if not 0 < norm2 < np.inf:  # also true for NaN
        raise RuntimeError(f"fluctuation moments of a state of squared norm {norm2:.2e}")
    powers, phi = [norm2], psi  # <N^j> |psi|^2
    while len(powers) <= max(k, 1):
        a_phi = _lowered(space, n, phi)
        a_phi = a_phi - (a_phi @ f.conj()) @ f.T
        phi = 2 * _raised(space, n - 1, a_phi)
        powers += [2 * np.vdot(a_phi, a_phi).real, np.vdot(phi, phi).real]
    return (float(powers[1] / norm2),
            float(sum(comb(k, j) * powers[j] for j in range(k + 1)) / norm2))


def verify_operator_bounds(space: FockSpace, trials: int, seed: int) -> dict:
    """Numerically check the quadratic-operator norm inequalities on random one-particle
    matrices and random Fock vectors; violations indicate bugs.  A trial's psi is drawn on
    all 2^L masks in integer order and split into sectors: a word with c more a* than a
    maps sector n into n + c, so |word psi|^2 sums over its blocks n -> n + c and its
    operator norm is the largest of theirs.  Holds at most two blocks at once; the pair
    annihilation block n + 2 -> n is minus the transpose of the pair creation block n -> n + 2
    (one SVD)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    report = {}  # one entry per inequality, in the order of the first trial's tallies

    def tally(name, lhs, rhs, tol=1e-10):
        slack = rhs - lhs
        entry = report.setdefault(name, {"violations": 0, "worst_slack": np.inf})
        entry["worst_slack"] = min(entry["worst_slack"], float(slack))
        if slack < -tol:
            entry["violations"] += 1

    l, count = space.l_sites, np.arange(space.l_sites + 1.0)  # count: each sector's n
    for _ in range(trials):
        o = rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l))
        psi = rng.normal(size=1 << l) + 1j * rng.normal(size=1 << l)
        psi /= np.linalg.norm(psi)
        parts = [psi[space.sector(n)] for n in range(l + 1)]
        weight = np.array([np.vdot(part, part).real for part in parts])  # |psi_n|^2
        n_psi, root_n_psi, root_n1_psi = (np.sqrt(weight @ g) for g in (count ** 2, count,
                                                                         count + 1))
        sv = np.linalg.svd(o, compute_uv=False)
        op_norm, hs, tr = sv[0], np.linalg.norm(sv), np.sum(sv)
        squared, dg_norm, pair_norm = np.zeros(3), 0.0, 0.0  # squared: dGamma, pa, pc
        for n, part in enumerate(parts):
            block = d_gamma(space, o, n)
            squared[0] += np.linalg.norm(block @ part) ** 2
            dg_norm = max(dg_norm, np.linalg.norm(block, 2))
            if n + 2 <= l:
                block = _pair_creation(space, o, n)
                squared[1] += np.linalg.norm(block.T @ parts[n + 2]) ** 2
                squared[2] += np.linalg.norm(block @ part) ** 2
                pair_norm = max(pair_norm, np.linalg.norm(block, 2))
        dg, pa, pc = np.sqrt(squared)
        tally("dgamma_operator_norm_bound", dg, op_norm * n_psi)
        tally("dgamma_hs_bound", dg, hs * root_n_psi)
        tally("pair_annihilation_hs_bound", pa, hs * root_n_psi)
        tally("pair_creation_hs_bound", pc, 2.0 * hs * root_n1_psi)
        tally("dgamma_trace_bound", dg_norm, 2.0 * tr)
        tally("pair_annihilation_trace_bound", pair_norm, 2.0 * tr)
        tally("pair_creation_trace_bound", pair_norm, 2.0 * tr)

    return report
