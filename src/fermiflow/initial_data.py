"""Semiclassically structured initial density matrices.

Plane-wave Fermi balls, trapped Slater projections, Weyl quantizations of
phase-space symbols, and the diagonal-concentrated kernel ansatz; plus the
commutator diagnostics quantifying how semiclassical a given state is.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import Lattice, ModelParams, kinetic_operator

__all__ = [
    "DensityMatrix",
    "PhaseSpaceSymbol",
    "SemiclassicalReport",
    "DegenerateFermiLevel",
    "fermi_ball_indices",
    "plane_wave_projection",
    "trapped_slater",
    "weyl_quantize",
    "kernel_ansatz",
    "semiclassical_constant",
    "default_probe_momenta",
]


class DegenerateFermiLevel(Exception):
    """Raised when a Slater construction would have to pick an arbitrary
    basis inside a degenerate Fermi shell."""


@dataclass
class DensityMatrix:
    """One-particle reduced density: Hermitian matrix with intended trace N."""

    matrix: np.ndarray
    n_particles: int

    def validate(self):
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("density matrix is not Hermitian")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -1e-10 or eig.max() > 1.0 + 1e-10:
            raise ValueError(
                f"eigenvalues outside [0, 1]: min={eig.min():.3e} max={eig.max():.3e}"
            )
        if abs(np.trace(m).real - self.n_particles) > 1e-9:
            raise ValueError(
                f"trace {np.trace(m).real!r} does not match N={self.n_particles}"
            )

    def idempotency_defect(self) -> float:
        m = self.matrix
        return float(np.linalg.norm(m @ m - m, "fro"))


@dataclass
class PhaseSpaceSymbol:
    """Real function M(p, x) sampled on momentum grid x site grid."""

    values: np.ndarray  # shape (momentum count, site count)


@dataclass
class SemiclassicalReport:
    """Normalized commutator sizes of a state; small values mean the state
    carries the diagonal-concentration structure at scale hbar."""

    c_phase: float
    c_momentum: float
    p_set: np.ndarray = field(repr=False)
    phase_norms: np.ndarray = field(repr=False)  # tr |[e^{i p.x}, omega]| per probe


def fermi_ball_indices(lattice: Lattice, n: int) -> np.ndarray:
    """The n momentum indices of smallest |p_k|, ties broken lexicographically
    on the integer index vector k."""
    if n < 1 or n > lattice.site_count:
        raise ValueError(f"need 1 <= n <= {lattice.site_count}, got {n}")
    k = lattice.momentum_indices()
    p2 = np.sum(lattice.momenta() ** 2, axis=1)
    order = sorted(range(lattice.site_count), key=lambda i: (p2[i], tuple(k[i])))
    return k[order[:n]]


def plane_wave_projection(lattice: Lattice, occupied) -> DensityMatrix:
    """Projection onto the plane waves with the given integer momentum indices."""
    occupied = np.atleast_2d(np.asarray(occupied, dtype=int))
    if occupied.shape[1] != lattice.ds:
        occupied = occupied.reshape(-1, lattice.ds)
    if len({tuple(k) for k in occupied}) != len(occupied):
        raise ValueError("duplicate momentum indices in occupied set")
    if len(occupied) == 0:
        raise ValueError("occupied set must be nonempty")
    if len(occupied) > lattice.site_count:
        raise ValueError("more orbitals than lattice sites")
    half = lattice.d // 2
    lo, hi = -half, lattice.d - half - 1
    if occupied.min() < lo or occupied.max() > hi:
        raise ValueError(f"momentum index components must lie in [{lo}, {hi}]")
    p = occupied * (2.0 * np.pi / lattice.length)
    orbitals = np.exp(1j * (lattice.sites() @ p.T)) / np.sqrt(lattice.site_count)
    omega = orbitals @ orbitals.conj().T
    return DensityMatrix(matrix=0.5 * (omega + omega.conj().T),
                         n_particles=len(occupied))


def trapped_slater(lattice: Lattice, hbar: float, v_ext: np.ndarray,
                   n: int, gap_tol: float = 1e-10) -> DensityMatrix:
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
    if n < lattice.site_count and eig[n] - eig[n - 1] < gap_tol:
        raise DegenerateFermiLevel(
            f"levels {n - 1} and {n} coincide within {gap_tol:g} "
            f"(gap {eig[n] - eig[n - 1]:.3e})"
        )
    occ = vec[:, :n]
    omega = occ @ occ.conj().T
    return DensityMatrix(matrix=0.5 * (omega + omega.conj().T), n_particles=n)


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


def weyl_quantize(symbol: PhaseSpaceSymbol, lattice: Lattice, hbar: float) -> DensityMatrix:
    """Discrete Weyl quantization of a phase-space symbol.

    Matrix entries transcribe
        a^ds * (2 pi hbar)^(-ds) * sum_k dp^ds M(p_k, (x+y)/2) e^{i p_k.(x-y)/hbar},
    with the midpoint evaluated at the nearest site sample (ties toward x).
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    values = np.asarray(symbol.values, dtype=float)
    if values.shape != (lattice.site_count, lattice.site_count):
        raise ValueError("symbol must be sampled on momentum grid x site grid")
    x = lattice.sites()
    p = lattice.momenta()
    dp = 2.0 * np.pi / lattice.length
    pref = lattice.spacing ** lattice.ds * (dp / (2.0 * np.pi * hbar)) ** lattice.ds
    diff = (x[:, None, :] - x[None, :, :]) / hbar  # (M, M, ds)
    mid = _pair_midpoints(lattice)
    m_at_mid = values[:, mid]  # (K, M, M)
    phases = np.exp(1j * np.einsum("kd,xyd->kxy", p, diff))
    omega = pref * np.einsum("kxy,kxy->xy", m_at_mid, phases)
    omega = 0.5 * (omega + omega.conj().T)
    return DensityMatrix(matrix=omega, n_particles=int(round(np.trace(omega).real)))


def ball_fourier_profile(xi: np.ndarray, fermi_radius: float, ds: int) -> np.ndarray:
    """Fourier transform of the indicator of the momentum ball |q| <= c,
    evaluated at xi (radial).  Continuous at xi = 0."""
    c = fermi_radius
    r = np.abs(np.asarray(xi, dtype=float))
    small = r < 1e-8
    rs = np.where(small, 1.0, r)
    if ds == 1:
        out = 2.0 * np.sin(c * rs) / rs
        return np.where(small, 2.0 * c, out)
    if ds == 2:
        from scipy.special import j1

        out = 2.0 * np.pi * c * j1(c * rs) / rs
        return np.where(small, np.pi * c ** 2, out)
    if ds == 3:
        out = 4.0 * np.pi / rs ** 2 * (np.sin(c * rs) / rs - c * np.cos(c * rs))
        return np.where(small, 4.0 * np.pi * c ** 3 / 3.0, out)
    raise ValueError(f"unsupported dimension {ds}")


def kernel_ansatz(chi: np.ndarray, fermi_radius: float, lattice: Lattice,
                  hbar: float):
    """Diagonal-concentrated kernel hbar^(-ds) phi((x-y)/hbar) chi((x+y)/2).

    phi is the Fourier transform of the momentum-ball indicator of radius
    fermi_radius.  The result is Hermitized; it is generally NOT an exact
    projection, so the idempotency defect is returned alongside it.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (lattice.site_count,):
        raise ValueError("chi must be sampled on the site grid")
    if np.any(chi < 0):
        raise ValueError("chi must be nonnegative")
    x = lattice.sites()
    diff = x[:, None, :] - x[None, :, :]
    diff -= lattice.length * np.round(diff / lattice.length)  # min-image
    xi = np.linalg.norm(diff, axis=-1) / hbar
    phi = ball_fourier_profile(xi, fermi_radius, lattice.ds)
    mid = _pair_midpoints(lattice)
    omega = (lattice.spacing / hbar) ** lattice.ds * phi * chi[mid]
    omega = 0.5 * (omega + omega.conj().T).astype(complex)
    n = int(round(np.trace(omega).real))
    dm = DensityMatrix(matrix=omega, n_particles=max(n, 1))
    return dm, dm.idempotency_defect()


def default_probe_momenta(lattice: Lattice, max_index: int = 4) -> np.ndarray:
    """All nonzero lattice momenta with |k_i| <= max_index per axis."""
    axis = np.arange(-max_index, max_index + 1)
    grids = np.meshgrid(*([axis] * lattice.ds), indexing="ij")
    k = np.stack([g.ravel() for g in grids], axis=-1)
    k = k[np.any(k != 0, axis=1)]
    return k * (2.0 * np.pi / lattice.length)


def semiclassical_constant(omega: DensityMatrix, lattice: Lattice, hbar: float,
                           p_set: np.ndarray = None) -> SemiclassicalReport:
    """Exact commutator trace norms (one Hermitian `eigvalsh` each), normalized
    by N*hbar.  tr|[e^{-i p.x}, omega]| = tr|[e^{i p.x}, omega]|, so a probe
    whose negative was already measured reuses that norm."""
    from .diagnostics import commutator_momentum, commutator_phase

    if p_set is None:
        p_set = default_probe_momenta(lattice)
    p_set = np.atleast_2d(np.asarray(p_set, dtype=float))
    if p_set.shape[0] == 0:
        raise ValueError("p_set must be nonempty")
    norm = omega.n_particles * hbar
    norms = {}
    for p in p_set:
        if tuple(p) not in norms:
            norms[tuple(p)] = norms[tuple(-p)] = commutator_phase(omega, p, lattice)
    phase_norms = np.array([norms[tuple(p)] for p in p_set])
    c_phase = max(val / ((1.0 + np.linalg.norm(p)) * norm)
                  for val, p in zip(phase_norms, p_set))
    params = ModelParams(n_particles=omega.n_particles, ds=lattice.ds, hbar=hbar)
    c_momentum = commutator_momentum(omega, params, lattice) / norm
    return SemiclassicalReport(c_phase=float(c_phase), c_momentum=float(c_momentum),
                               p_set=p_set, phase_norms=phase_norms)
