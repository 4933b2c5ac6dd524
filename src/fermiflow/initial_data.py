"""Semiclassically structured initial density matrices.

The state type, `DensityMatrix`: orbitals and occupations (Phi, lam), of
which omega = Phi diag(lam) Phi* and N = sum lam are derived views.  The
states the flows start from: plane-wave Fermi balls and trapped Slater
projections, built from their orbitals with lam = 1, and Weyl quantizations
of phase-space symbols and the diagonal-concentrated kernel ansatz, dense
matrices factored by `diagnostics.spectral_form`.  How semiclassical a
state is, is measured in `diagnostics`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagnostics import spectral_form
from .model import Lattice, kinetic_operator

__all__ = [
    "DensityMatrix",
    "PhaseSpaceSymbol",
    "DegenerateFermiLevel",
    "fermi_ball_indices",
    "plane_wave_projection",
    "trapped_slater",
    "weyl_quantize",
    "kernel_ansatz",
]


class DegenerateFermiLevel(Exception):
    """Raised when a Slater construction would have to pick an arbitrary
    basis inside a degenerate Fermi shell."""


@dataclass(frozen=True)
class DensityMatrix:
    """omega = Phi diag(lam) Phi*: orbitals Phi (M x r), occupations lam (r,).
    `matrix`, `n_particles` = sum lam and `idempotency_defect` are exact for
    any Phi (a step's midpoint has columns that are not orthonormal);
    `validate` requires orthonormal orbitals."""

    orbitals: np.ndarray
    occupations: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        m = (self.orbitals * self.occupations) @ self.orbitals.conj().T
        return 0.5 * (m + m.conj().T)

    @cached_property
    def n_particles(self) -> int:
        return int(round(np.sum(self.occupations)))

    def validate(self):
        phi, lam = self.orbitals, self.occupations
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(lam))):
            raise ValueError("density matrix has non-finite entries")
        gram = np.max(np.abs(phi.conj().T @ phi - np.eye(len(lam))), initial=0.0)
        if not gram <= 1e-10:
            raise ValueError(f"orbitals are not orthonormal (defect {gram:.3e})")
        lo, hi = np.min(lam, initial=0.0), np.max(lam, initial=0.0)
        if lo < -1e-10 or hi > 1.0 + 1e-10:
            raise ValueError(f"eigenvalues outside [0, 1]: min={lo:.3e} max={hi:.3e}")
        total = float(np.sum(lam))
        if abs(total - round(total)) > 1e-9:
            raise ValueError(f"trace {total!r} is not a whole number of particles")

    def idempotency_defect(self) -> float:
        """||omega^2 - omega||_F = sqrt|tr C^2|, C = B^2 - B with
        B = (Phi* Phi) diag(lam): an r x r computation, valid for any Phi."""
        b = (self.orbitals.conj().T @ self.orbitals) * self.occupations
        c = b @ b - b
        return float(np.sqrt(abs(np.sum(c * c.T))))


@dataclass
class PhaseSpaceSymbol:
    """Real function M(p, x) sampled on momentum grid x site grid."""

    values: np.ndarray  # shape (momentum count, site count)


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
    return DensityMatrix(orbitals, np.ones(len(occupied)))


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
    return DensityMatrix(vec[:, :n], np.ones(n))


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
    pref = lattice.cell * (dp / (2.0 * np.pi * hbar)) ** lattice.ds
    diff = (x[:, None, :] - x[None, :, :]) / hbar  # (M, M, ds)
    mid = _pair_midpoints(lattice)
    m_at_mid = values[:, mid]  # (K, M, M)
    phases = np.exp(1j * np.einsum("kd,xyd->kxy", p, diff))
    omega = pref * np.einsum("kxy,kxy->xy", m_at_mid, phases)
    return DensityMatrix(*spectral_form(0.5 * (omega + omega.conj().T))[:2])


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
    dm = DensityMatrix(*spectral_form(0.5 * (omega + omega.conj().T).astype(complex))[:2])
    return dm, dm.idempotency_defect()
