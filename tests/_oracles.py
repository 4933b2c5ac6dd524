"""Independent oracles the tests and criteria check `fermiflow` against; none
is run by a scenario.

The full-space Fock oracles came here from `fermiflow.fock` once its states
became vectors on one particle-number sector: `field_operator`,
`pair_operator`, `implement_bogoliubov` (with `_Implementor`),
`fluctuation_vector`, `number_moment`, and the 2^L Jordan-Wigner table
(`full_table`, formerly `FockSpace._table`).

- `dense`: omega = Phi diag(lam) Phi* as an M x M matrix, which checks
  every orbital computation against its dense form.
- `dense_wigner`: the Wigner transform by one gather of kernel slices from
  the dense omega, which checks `semiclassics.wigner`.
- `orbital_wigner`: the Wigner transform with its kernel slices summed
  orbital by orbital, never forming omega, a second check of
  `semiclassics.wigner`, which gathers them from the dense omega as
  `dense_wigner` does.
- `full_fft_vlasov_step`: the Strang-split Vlasov step by full complex FFTs
  on transposed views, every phase table rebuilt per sweep and the
  momentum labels q passed in, which checks the half-spectrum
  `semiclassics.vlasov_step`.
- `cos_sin_phases`: the kick's phase table exp(-2 pi i kappa s / n) by one
  cos and one sin per entry, which checks the running product of
  `semiclassics._phases`.
- `momentum_indices`, `momenta`: the momentum grid enumerated row-major
  with ascending components, independently of `Lattice.fft_indices` and
  `Lattice.fft_momenta`, the (ds, M) tables in FFT order on the site index.
- `fourier`: Vhat(p_k) in that ascending order, by one full `fftn` of V's
  samples, which checks the potential shapes and `Potential.fourier`.
- `fourier_matrix`, `momentum_operator`, `phase_operator`: dense M x M
  operators that check the FFT kernels and the low-rank commutator norms.
- `circulant_gather`: the translation-invariant matrix c(x_i - x_j) by one
  (M, M, ds) gather of index differences, which checks `pair_matrix` and
  `kinetic_operator` entry by entry.
- `dense_slater`: the projection onto the n lowest eigenvectors of
  -hbar^2 Lap + V_ext for any site potential, by one dense M x M `eigh`,
  which checks the one-axis construction of `trapped_slater` and builds
  the non-separable states some tests need.
- `spectral_form`: one dense `eigh`, factoring a dense Hermitian matrix
  into the (Phi, lam) a `DensityMatrix` holds, for states built as matrices.
- `weyl_quantize`: Weyl quantization of a phase-space symbol, a
  diagonal-concentrated state that is not a projection for the commutator
  norms.
- `assumption_weight`: the paper's regularity weight of V, which checks
  `fourier` against a direct sum.
- `full_table`: the Jordan-Wigner table of the whole 2^L space, the one the
  full-space oracles below read: occupation bits, signs and flipped states
  b ^ 2^x, one (2^L, L) array each.  `occupations`, `vacuum` and `embed` are
  the full space's particle counts, its vacuum, and a sector vector placed in
  it, so the oracles check the sector vectors of `fermiflow.fock`.
- `letter`: no oracle but the program's own a*_x or a_x as a dense block from
  sector n, scattered from `fock._raising`'s ladder tables (a_x on n is the
  transpose of a*_x on n - 1), for the CAR checks that multiply letters.
- `csr_word`: a product of field operators summed over its coefficients as a
  sparse matrix on the whole Fock space, by one CSR build over that table,
  which checks the sector blocks n -> n + c of `letter`, `fock.d_gamma`, the
  pair blocks and `fock.hamiltonian`.
- `field_operator`, `pair_operator`: a(f), a*(f) and the pair words as dense
  full-space matrices, from `csr_word`.
- `number_operator`: the number operator as a sparse diagonal matrix, which
  checks the occupation counts and dGamma(1).
- `slater_vector`: a*(f_1) ... a*(f_N) vacuum, which checks the determinants
  of `fock.quasi_free_state` and the implementor's R vacuum.
- `implement_bogoliubov`: the particle-hole implementor R = b_1 ... b_N,
  applied factor by factor as gathers over the full table, and
  `fluctuation_vector`, xi = R* psi, with `number_moment`, the moments of the
  number operator in xi: together they check `fock.fluctuation_moments`,
  which reads the moments from the sector identity instead.
- `SectorPropagator`: exp(-i h t / hbar) by one dense `eigh` per
  particle-number sector, which checks the Chebyshev steps of
  `fock.propagate`.
- `gershgorin_interval`: the union of the Gershgorin discs of a Hermitian
  matrix, an enclosure of its spectrum by a pass over |h|, the baseline the
  intervals read from the parts of the flow's generator and of the Fock
  sectors are checked against.
- `rdmk`, `wick_rdmk`: k-particle reduced densities of a Fock vector and
  their Wick determinants, which check quasi-free states (criterion 05).
- `generalized_density`: the block density [[gamma, alpha], ...], whose
  projection property checks quasi-free states (criterion 05).
- `fit_double_exponential`: the double-exponential envelope of the number
  growth (criterion 08).
- `count_fft_calls`: a tally of `np.fft` calls by name, which checks how many
  transforms a step dispatches.
"""

import functools
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from fermiflow import fock
from fermiflow.fock import FockSpace
from fermiflow.initial_data import _GAP_TOL, DegenerateFermiLevel, DensityMatrix
from fermiflow.meanfield import apply_exponential, direct_term, generator
from fermiflow.model import Lattice, Potential, is_hermitian, kinetic_operator


def dense(omega: DensityMatrix) -> np.ndarray:
    """omega = Phi diag(lam) Phi*, Hermitized."""
    m = (omega.orbitals * omega.occupations) @ omega.orbitals.conj().T
    return 0.5 * (m + m.conj().T)


def dense_wigner(omega: DensityMatrix, d: int) -> np.ndarray:
    """W(x_j, q_k), k in {-d/2, ..., d/2 - 1}, complex: the FFT over m of the
    slices omega[(j+m) mod d, (j-m) mod d], gathered from the dense omega."""
    j, off = np.arange(d)[:, None], np.arange(d)[None, :]
    slices = dense(omega)[(j + off) % d, (j - off) % d]
    return np.fft.fftshift(np.fft.fft(slices, axis=1), axes=1)


def orbital_wigner(omega: DensityMatrix, d: int) -> np.ndarray:
    """W(x_j, q_k) as `dense_wigner`, its slices sum_k lam_k Phi[j+m, k] conj Phi[j-m, k]
    accumulated one orbital at a time in d x d temporaries."""
    phi, j = omega.orbitals, np.arange(d)[:, None]
    plus, minus = (j + j.T) % d, (j - j.T) % d  # indexed [j, m]
    slices = np.zeros((d, d), dtype=complex)
    for k, lam_k in enumerate(omega.occupations):
        slices += lam_k * phi[plus, k] * phi[minus, k].conj()
    return np.fft.fftshift(np.fft.fft(slices, axis=1), axes=1)


def _shift_rows_spectral(values: np.ndarray, shifts: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Shift each row of a periodic array by a (fractional) number of cells: a
    phase on its FFT, k the integer frequencies."""
    n = values.shape[1]
    phase = np.exp(-2j * np.pi * k[None, :] * np.asarray(shifts)[:, None] / n)
    return np.fft.ifft(np.fft.fft(values, axis=1) * phase, axis=1).real


def cos_sin_phases(shifts: np.ndarray, n: int) -> np.ndarray:
    """exp(-2 pi i kappa s / n), kappa = 0..n//2 on a new last axis, one cos and one sin
    per entry."""
    angle = np.multiply.outer(shifts, np.arange(n // 2 + 1) * (-2.0 * np.pi / n))
    phase = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return phase


def _full_fft_force(w: np.ndarray, v: Potential, n_particles: int) -> np.ndarray:
    """-d/dx (V * rho), rho the normalized position marginal: -i p on V * rho."""
    lattice = v.lattice
    rho = np.sum(w, axis=1) * (1.0 / lattice.d) / (n_particles * lattice.cell)  # weight 1/d
    u = direct_term(rho, v)
    return np.fft.ifft(-1j * lattice.fft_momenta()[0] * np.fft.fft(u)).real


def full_fft_vlasov_step(w: np.ndarray, dt: float, v: Potential, q: np.ndarray,
                         n_particles: int) -> np.ndarray:
    """One Strang-split Vlasov step (transport velocity 2q), q the labels
    `momentum_grid(v.lattice, hbar)` of w's momentum axis."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k = v.lattice.fft_indices()[0]
    drift = 2.0 * q * (0.5 * dt) / v.lattice.spacing  # cells per half step
    w = _shift_rows_spectral(w.T, drift, k).T  # the rows of w.T are momentum slices
    w = _shift_rows_spectral(w, _full_fft_force(w, v, n_particles) * dt / (q[1] - q[0]), k)
    return _shift_rows_spectral(w.T, drift, k).T


def momentum_indices(lattice: Lattice) -> np.ndarray:
    """Integer momentum indices k, shape (M, ds), row-major, components in
    {-floor(d/2), ..., ceil(d/2)-1} ascending."""
    half = lattice.d // 2
    axis = np.arange(-half, lattice.d - half)
    grids = np.meshgrid(*([axis] * lattice.ds), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def momenta(lattice: Lattice) -> np.ndarray:
    """Momentum vectors p_k = (2 pi / l) k, shape (M, ds), in `momentum_indices` order."""
    return momentum_indices(lattice) * (2.0 * np.pi / lattice.length)


def fourier(v: Potential) -> np.ndarray:
    """Vhat(p_k) = sum_j V(x_j) e^{-i p_k.x_j} / M in `momentum_indices` order."""
    lat = v.lattice
    coef = np.fft.fftn(v.real_space.reshape((lat.d,) * lat.ds)) / lat.site_count
    return np.fft.fftshift(coef).ravel()


@functools.lru_cache(maxsize=32)
def fourier_matrix(lattice: Lattice) -> np.ndarray:
    """Unitary lattice Fourier transform F[k, j] = exp(-i p_k.x_j)/sqrt(M)."""
    phase = momenta(lattice) @ lattice.sites().T
    return np.exp(-1j * phase) / np.sqrt(lattice.site_count)


@functools.lru_cache(maxsize=32)
def momentum_operator(lattice: Lattice, hbar: float, axis: int = 0) -> np.ndarray:
    """hbar * d/dx_axis: anti-Hermitian, momentum-basis eigenvalues i*hbar*p_k."""
    if not 0 <= axis < lattice.ds:
        raise ValueError(f"axis {axis} out of range for ds={lattice.ds}")
    f = fourier_matrix(lattice)
    eig = 1j * hbar * momenta(lattice)[:, axis]
    op = f.conj().T @ (eig[:, None] * f)
    return 0.5 * (op - op.conj().T)


def phase_operator(lattice: Lattice, r) -> np.ndarray:
    """Diagonal unitary with entries exp(i r.x_j); r need not be on the grid."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (lattice.ds,):
        raise ValueError(f"r must have {lattice.ds} components")
    return np.diag(np.exp(1j * (lattice.sites() @ r)))


def circulant_gather(lattice: Lattice, samples: np.ndarray) -> np.ndarray:
    """c(x_i - x_j), shape (M, M): `samples` (c on the sites, row-major) at the
    periodic index difference (idx_i - idx_j) mod d."""
    idx = lattice.site_indices()
    diff = (idx[:, None, :] - idx[None, :, :]) % lattice.d
    return samples[np.ravel_multi_index(np.moveaxis(diff, -1, 0), (lattice.d,) * lattice.ds)]


def dense_slater(lattice: Lattice, hbar: float, v_ext: np.ndarray,
                 n: int) -> DensityMatrix:
    """Projection onto the n lowest eigenvectors of -hbar^2 Lap + V_ext.

    Refuses a degenerate Fermi level rather than picking a basis arbitrarily.
    """
    v_ext = np.asarray(v_ext)
    if np.iscomplexobj(v_ext) and np.max(np.abs(v_ext.imag)) > 0:
        raise ValueError("external potential must be real")
    v_ext = v_ext.real.astype(float)
    if v_ext.shape != (lattice.site_count,):
        raise ValueError("v_ext must be sampled on the full site grid")
    if not 1 <= n <= lattice.site_count:
        raise ValueError(f"need 1 <= n <= {lattice.site_count}")
    h = kinetic_operator(lattice, hbar) + np.diag(v_ext)
    eig, vec = np.linalg.eigh(h)
    tol = _GAP_TOL * max(1.0, np.max(np.abs(eig)))  # eigh's round-off grows with ||h||
    if n < lattice.site_count and eig[n] - eig[n - 1] < tol:
        raise DegenerateFermiLevel(
            f"levels {n - 1} and {n} coincide within {tol:.3g} "
            f"(gap {eig[n] - eig[n - 1]:.3e})"
        )
    return DensityMatrix(vec[:, :n], np.ones(n))


def spectral_form(m: np.ndarray):
    """(phi, lam, dropped) with m = phi diag(lam) phi* up to the dropped
    eigenvalues, |lam| <= M eps max(1, max |lam|), from one eigh; phi has
    orthonormal columns and dropped = sum |lam_dropped|."""
    if not np.all(np.isfinite(m)):
        raise ValueError("spectral form of a matrix with non-finite entries")
    if not is_hermitian(m):
        raise ValueError("spectral form of a non-Hermitian matrix")
    lam, phi = np.linalg.eigh(m)
    cut = m.shape[0] * np.finfo(float).eps * max(1.0, np.max(np.abs(lam), initial=0.0))
    keep = np.abs(lam) > cut
    return phi[:, keep], lam[keep], float(np.sum(np.abs(lam[~keep])))


def _midpoint_indices(d: int) -> np.ndarray:
    """Nearest-site index of (x_j + x_{j'})/2 for every index pair, ties
    broken toward the first (row) argument.  Shape (d, d)."""
    j = np.arange(d)[:, None]
    jp = np.arange(d)[None, :]
    s = j + jp
    # floor for even sums (exact); for odd sums move the half step toward j
    return np.where(s % 2 == 0, s // 2, np.where(j > jp, (s + 1) // 2, s // 2))


def _pair_midpoints(lattice: Lattice) -> np.ndarray:
    """Flat site index of the midpoint sample for every (row, col) site pair."""
    mid1 = _midpoint_indices(lattice.d)
    idx = lattice.site_indices()
    flat = np.zeros((lattice.site_count, lattice.site_count), dtype=int)
    for ax in range(lattice.ds):
        flat = flat * lattice.d + mid1[np.ix_(idx[:, ax], idx[:, ax])]
    return flat


def weyl_quantize(symbol: np.ndarray, lattice: Lattice, hbar: float) -> DensityMatrix:
    """Discrete Weyl quantization of a real phase-space symbol M(p, x), given
    as its samples on momentum grid x site grid.

    Matrix entries transcribe
        a^ds * (2 pi hbar)^(-ds) * sum_k dp^ds M(p_k, (x+y)/2) e^{i p_k.(x-y)/hbar},
    with the midpoint evaluated at the nearest site sample (ties toward x).
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    values = np.asarray(symbol, dtype=float)
    if values.shape != (lattice.site_count, lattice.site_count):
        raise ValueError("symbol must be sampled on momentum grid x site grid")
    x = lattice.sites()
    p = momenta(lattice)
    dp = 2.0 * np.pi / lattice.length
    pref = lattice.cell * (dp / (2.0 * np.pi * hbar)) ** lattice.ds
    diff = (x[:, None, :] - x[None, :, :]) / hbar  # (M, M, ds)
    mid = _pair_midpoints(lattice)
    m_at_mid = values[:, mid]  # (K, M, M)
    phases = np.exp(1j * np.einsum("kd,xyd->kxy", p, diff))
    omega = pref * np.einsum("kxy,kxy->xy", m_at_mid, phases)
    return DensityMatrix(*spectral_form(0.5 * (omega + omega.conj().T))[:2])


def assumption_weight(v: Potential) -> float:
    """sum_k (1 + |p_k|)^2 |Vhat(p_k)|, the paper's regularity weight of V."""
    p = momenta(v.lattice)
    return float(np.sum((1.0 + np.linalg.norm(p, axis=1)) ** 2 * np.abs(fourier(v))))


@functools.lru_cache(maxsize=16)
def full_table(space: FockSpace) -> tuple:
    """The Jordan-Wigner table of the whole space, three (2^L x L) arrays: occupation bits
    n_x(b), signs (-1)^(modes occupied below x) as +-1 integers, and the flipped states
    b ^ 2^x."""
    states, modes = np.arange(1 << space.l_sites)[:, None], np.arange(space.l_sites)
    bits = (states >> modes) & 1
    return bits, 1 - 2 * ((np.cumsum(bits, axis=1) - bits) & 1), states ^ (1 << modes)


def occupations(space: FockSpace) -> np.ndarray:
    return full_table(space)[0].sum(axis=1)


def vacuum(space: FockSpace) -> np.ndarray:
    psi = np.zeros(1 << space.l_sites, dtype=complex)
    psi[0] = 1.0
    return psi


def embed(space: FockSpace, n: int, psi: np.ndarray) -> np.ndarray:
    """The vector psi on sector n as a full-space vector, 0 off the sector."""
    out = np.zeros(1 << space.l_sites, dtype=complex)
    out[space.sector(n)] = psi
    return out


def letter(space: FockSpace, x: int, create: bool, n: int) -> np.ndarray:
    """a*_x (create) or a_x, the program's block from sector n: a*_x puts sign[b, x] at
    (rank[b, x], b) of the a* table of sector n, and a_x is a*_x on n - 1 transposed."""
    if not create:
        return letter(space, x, True, n - 1).T
    sign, rank = fock._raising(space, n)
    out = np.zeros((len(space.sector(n + 1)), len(space.sector(n))))
    acts = np.nonzero(sign[:, x])[0]
    out[rank[acts, x], acts] = sign[acts, x]
    return out


def csr_word(space: FockSpace, creates, coef) -> sp.csr_matrix:
    """sum coef[x_1, ..., x_k] c_1(x_1) ... c_k(x_k), with c_i = a* where
    creates[i] and a otherwise; the rightmost operator acts first.

    Built at once from `full_table` over every index tuple with a nonzero
    coefficient and every basis state; duplicate entries are summed by the CSR
    build, in the dtype of the coefficients raised to at least float."""
    coef = np.asarray(coef)
    coef = coef.astype(np.result_type(coef, float))
    bits, jw, _ = full_table(space)
    dim = 1 << space.l_sites
    sites = np.nonzero(coef)
    cols = np.broadcast_to(np.arange(dim), (len(sites[0]), dim))
    rows = cols
    vals = np.broadcast_to(coef[sites][:, None], cols.shape)
    alive = np.ones(cols.shape, dtype=bool)
    for create, x in zip(reversed(creates), reversed(sites)):
        x = x[:, None]
        alive &= bits[rows, x] != create  # a* needs mode x empty, a needs it filled
        vals = vals * jw[rows, x]
        rows = rows ^ (1 << x)
    return sp.csr_matrix((vals[alive], (rows[alive], cols[alive])), shape=(dim, dim))


def field_operator(space: FockSpace, f: np.ndarray, create: bool) -> np.ndarray:
    """Dense a(f) = sum conj(f(x)) a_x, or a*(f) = sum f(x) a*_x, on the whole space."""
    return csr_word(space, (create,), f if create else np.conj(f)).toarray()


def pair_operator(space: FockSpace, o: np.ndarray, create: bool) -> np.ndarray:
    """Dense sum_{xy} O(x;y) a_x a_y (annihilating pair) or a*_x a*_y (creating)."""
    return csr_word(space, (create, create), o).toarray()


def number_operator(space: FockSpace) -> sp.csr_matrix:
    return sp.diags(occupations(space).astype(complex)).tocsr()


def slater_vector(space: FockSpace, orbitals: np.ndarray) -> np.ndarray:
    """a*(f_1) ... a*(f_N) applied to the vacuum."""
    psi = vacuum(space)
    for j in range(orbitals.shape[1] - 1, -1, -1):
        psi = field_operator(space, orbitals[:, j], True) @ psi
    return psi


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
    """Particle-hole implementor R = b_1 ... b_N of a projection omega, b_j = a*(f_j) +
    a(f_j) over its orbitals f_j, applied factor by factor as gathers over the full table
    (b_N acts first); R* = b_N ... b_1 (`.H`).  Refuses what `fock.quasi_free_state`
    refuses: a lambda_j off 1, or a Gram defect above 1e-12."""
    if not np.all(np.abs(omega.occupations - 1.0) <= 1e-10):
        raise ValueError("input is not an orthogonal projection")
    f = omega.orbitals
    gram = np.max(np.abs(f.conj().T @ f - np.eye(f.shape[1])), initial=0.0)
    if not gram <= 1e-12:
        raise ValueError(f"orbitals are not orthonormal (defect {gram:.2e})")
    bits, jw, flip = full_table(space)
    # b(f) psi[b] = sum_x jw[b, x] (f_x if n_x(b) = 1 else conj f_x) psi[b ^ 2^x]
    return _Implementor(flip, [jw * np.where(bits, fj, fj.conj()) for fj in f.T])


def fluctuation_vector(space: FockSpace, omega, psi: np.ndarray) -> np.ndarray:
    """xi = R*_omega psi, psi a full-space vector: the particles of psi outside the Slater
    sea of the projection omega."""
    xi = implement_bogoliubov(space, omega).H @ psi
    drift = abs(np.linalg.norm(xi) - np.linalg.norm(psi))
    if not drift <= 1e-9 * max(1.0, np.linalg.norm(psi)):  # also true for NaN
        raise RuntimeError(f"fluctuation vector lost norm ({drift:.2e})")
    return xi


def number_moment(xi: np.ndarray, k: int, space: FockSpace, shift: float = 1.0) -> float:
    """<xi, (N_op + shift)^k xi> / ||xi||^2, >= shift^k exactly: numerator and
    norm sum over one array of |xi|^2.  shift=0, k=1 is <N> without the
    round-off of <N + 1> - 1, which loses the leading digits of a small <N>."""
    if not 0 <= k <= 6:
        raise ValueError("k must be between 0 and 6")
    weights = (occupations(space) + shift) ** k
    prob = np.abs(xi) ** 2
    return float(np.sum(weights * prob) / np.sum(prob))


def gershgorin_interval(h: np.ndarray) -> tuple:
    """[lo, hi] ⊇ spec(h) for Hermitian h: the union of the Gershgorin discs."""
    centre, radius = h.diagonal().real, np.abs(h).sum(axis=1) - np.abs(h.diagonal())
    return (centre - radius).min(), (centre + radius).max()


def midpoint_step(omega: DensityMatrix, h: np.ndarray, interval: tuple, cfg, v: Potential,
                  hbar: float) -> DensityMatrix:
    """The exponential midpoint step with its predictor inside, from `generator`'s h(omega)
    and interval, each exponential on a copy of its generator: the schedule that keeps h(omega)
    beside h(mid) and the series' scaled copy, whose arithmetic `evolve` must repeat."""
    phi, lam = omega.orbitals, omega.occupations
    pred = apply_exponential(phi, h.copy(), interval, cfg.dt, hbar)
    mid = DensityMatrix(np.hstack([phi, pred]), np.concatenate([lam, lam]) / 2)
    h_mid, mid_interval = generator(mid, v, hbar)
    return DensityMatrix(apply_exponential(phi, h_mid.copy(), mid_interval, cfg.dt, hbar), lam)


class SectorPropagator:
    """exp(-i h t / hbar) applied sector by sector; dense eigendecompositions
    are cached per fixed-particle-number sector."""

    def __init__(self, space: FockSpace, h, hbar: float):
        self.space = space
        self.h = sp.csr_matrix(h)
        herm_defect = abs(self.h - self.h.conj().T).max()
        if herm_defect > 1e-10:
            raise ValueError(f"generator not Hermitian (defect {herm_defect:.2e})")
        self.hbar = hbar
        self._sectors = [space.sector(n) for n in range(space.l_sites + 1)]
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


def _site_stack(space: FockSpace, psi: np.ndarray, create: bool) -> np.ndarray:
    """Rows a_x psi (or a*_x psi if create), x in site order."""
    return np.stack([field_operator(space, e, create) @ psi
                     for e in np.eye(space.l_sites)])


def rdmk(psi: np.ndarray, k: int, space: FockSpace) -> np.ndarray:
    """k-particle reduced density as a rank-2k tensor, normalized so the
    total trace is <N!/(N-k)!>."""
    if not 1 <= k <= 3:
        raise ValueError("k must be 1, 2 or 3")
    mean_n = number_moment(psi, 1, space, shift=0.0)
    if k > mean_n + 1e-9:
        raise ValueError(f"k={k} exceeds the mean particle number {mean_n:.3f}")
    l = space.l_sites
    a = [field_operator(space, e, False) for e in np.eye(l)]
    tuples = list(product(range(l), repeat=k))
    phi = np.zeros((len(tuples), 1 << space.l_sites), dtype=complex)
    for i, tup in enumerate(tuples):
        vec = psi
        for y in tup:  # rightmost operator a_{y_1} acts first
            vec = a[y] @ vec
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


def generalized_density(psi: np.ndarray, space: FockSpace) -> np.ndarray:
    """Block matrix [[gamma, alpha], [-conj(alpha), 1 - conj(gamma)]]."""
    a_psi = _site_stack(space, psi, False)
    c_psi = _site_stack(space, psi, True)
    gamma = a_psi @ a_psi.conj().T
    # alpha(x;y) = <psi, a_y a_x psi> = <a*_y psi, a_x psi>
    alpha = (np.conj(c_psi) @ a_psi.T).T
    ident = np.eye(space.l_sites)
    top = np.hstack([gamma, alpha])
    bot = np.hstack([-np.conj(alpha), ident - np.conj(gamma)])
    return np.vstack([top, bot])


def fit_double_exponential(series, times):
    """Fit log v = log K + c2 * exp(c1 * t) by nested least squares over c1.

    Returns (K, c1, c2, rms log residual).  Used for number-growth envelopes,
    where the bound has the double-exponential shape.
    """
    v = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    if np.any(v <= 0):
        raise ValueError("double-exponential fit requires positive values")
    logv = np.log(v)
    span = max(t.max() - t.min(), 1e-12)

    def inner(c1):
        design = np.stack([np.ones_like(t), np.exp(c1 * t)], axis=1)
        coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
        resid = logv - design @ coef
        return coef, float(np.sqrt(np.mean(resid ** 2)))

    grid = np.linspace(1e-3, 10.0 / span, 400)
    best_c1 = min(grid, key=lambda c1: inner(c1)[1])
    step = grid[1] - grid[0]
    res = minimize_scalar(lambda c1: inner(c1)[1], bracket=None,
                          bounds=(max(best_c1 - step, 1e-6), best_c1 + step),
                          method="bounded")
    c1 = float(res.x) if res.fun <= inner(best_c1)[1] else float(best_c1)
    coef, rms = inner(c1)
    return (float(np.exp(coef[0])), c1, float(coef[1]), rms)


def count_fft_calls(monkeypatch) -> dict:
    """Count every `np.fft` call by name, from now until the test ends, into the returned
    dict (clear it to start a new tally)."""
    counts = {}
    for name in np.fft.__all__:
        def counted(*args, fn=getattr(np.fft, name), name=name, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts
