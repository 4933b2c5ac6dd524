"""Semiclassically structured initial density matrices.

The state type, `DensityMatrix`: orbitals and occupations (Phi, lam), all
of omega = Phi diag(lam) Phi*, which is never formed as an M x M matrix.
The states the flows start from: plane-wave Fermi balls and trapped Slater
projections, both built from their orbitals with lam = 1, so no dense
matrix is factored: the trapped orbitals are products of the eigenvectors
of one d x d one-axis Hamiltonian.  How semiclassical a state is, is
measured in `diagnostics`.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .model import Lattice, kinetic_operator

__all__ = [
    "DensityMatrix",
    "DegenerateFermiLevel",
    "fermi_ball_indices",
    "plane_wave_projection",
    "trapped_slater",
]

_GAP_TOL = 1e-10  # a gap below this times max(1, max |eig|) counts as a degeneracy


class DegenerateFermiLevel(Exception):
    """Raised when a Slater construction would have to pick an arbitrary
    basis inside a degenerate Fermi shell."""


@dataclass(frozen=True)
class DensityMatrix:
    """omega = Phi diag(lam) Phi*, held as its orbitals Phi (M x r) and
    occupations lam (r,) only.  `n_particles` = sum lam and
    `idempotency_defect` are exact for any Phi (a step's midpoint has columns
    that are not orthonormal); `validate` requires orthonormal orbitals."""

    orbitals: np.ndarray
    occupations: np.ndarray

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


def fermi_ball_indices(lattice: Lattice, n: int) -> np.ndarray:
    """The n momentum indices of smallest |p_k|, ties broken lexicographically
    on the integer index vector k."""
    if n < 1 or n > lattice.site_count:
        raise ValueError(f"need 1 <= n <= {lattice.site_count}, got {n}")
    k = lattice.fft_indices()
    return k.T[np.lexsort((*k[::-1], lattice.momentum_squared()))[:n]]  # by |p|^2, then by k


def plane_wave_projection(lattice: Lattice, occupied) -> DensityMatrix:
    """Projection onto the plane waves with the given integer momentum indices, one row
    (n, ds) per wave; a 1-D sequence is read as consecutive rows."""
    occupied = np.asarray(occupied, dtype=int)
    if occupied.ndim <= 1:
        occupied = occupied.reshape(-1, lattice.ds)
    elif occupied.ndim != 2 or occupied.shape[1] != lattice.ds:
        raise ValueError(f"occupied momentum indices must have shape (n, {lattice.ds}), "
                         f"got {occupied.shape}")
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


def trapped_slater(lattice: Lattice, hbar: float, strength: float, n: int) -> DensityMatrix:
    """Projection onto the n lowest eigenvectors of -hbar^2 Lap + V_ext, V_ext
    the harmonic trap strength * dist(x, center)^2 summed over axes, with
    torus distance.  Both terms are sums over the axes, so each eigenvector is
    a product u(x_1, a_1) ... u(x_ds, a_ds) of eigenvectors of the one-axis
    h_1 = K_1 + strength * dist(x, l/2)^2, with level e_a1 + ... + e_ads.

    Refuses a degenerate Fermi level rather than picking a basis arbitrarily.
    """
    if not 1 <= n <= lattice.site_count:
        raise ValueError(f"need 1 <= n <= {lattice.site_count}")
    # the sites lie in [0, l), so |x - l/2| is already the torus distance
    x = np.arange(lattice.d) * lattice.spacing - 0.5 * lattice.length
    k1 = kinetic_operator(Lattice(1, lattice.d, lattice.length), hbar)
    eig, vec = np.linalg.eigh(k1 + np.diag(strength * x ** 2))
    levels = reduce(np.add, eig[lattice.site_indices().T])  # row-major (a_1, ...), as the sites
    order = np.argsort(levels, kind="stable")
    tol = _GAP_TOL * max(1.0, np.max(np.abs(levels)))  # eigh's round-off grows with ||h||
    if n < lattice.site_count and levels[order[n]] - levels[order[n - 1]] < tol:
        raise DegenerateFermiLevel(
            f"levels {n - 1} and {n} coincide within {tol:.3g} "
            f"(gap {levels[order[n]] - levels[order[n - 1]]:.3e})"
        )
    factors = [vec[:, a] for a in lattice.site_indices()[order[:n]].T]
    orbitals = reduce(lambda phi, u: (phi[:, None] * u).reshape(-1, n), factors)
    return DensityMatrix(np.ascontiguousarray(orbitals), np.ones(n))
