"""Dense one-particle operators on a lattice, kept as independent oracles for
the FFT kernels of `fermiflow`: the unitary Fourier matrix, hbar d/dx and
the phase operators e^{i r.x}, each an explicit M x M matrix."""

import functools

import numpy as np

from fermiflow.model import Lattice


@functools.lru_cache(maxsize=32)
def fourier_matrix(lattice: Lattice) -> np.ndarray:
    """Unitary lattice Fourier transform F[k, j] = exp(-i p_k.x_j)/sqrt(M)."""
    phase = lattice.momenta() @ lattice.sites().T
    return np.exp(-1j * phase) / np.sqrt(lattice.site_count)


@functools.lru_cache(maxsize=32)
def momentum_operator(lattice: Lattice, hbar: float, axis: int = 0) -> np.ndarray:
    """hbar * d/dx_axis: anti-Hermitian, momentum-basis eigenvalues i*hbar*p_k."""
    if not 0 <= axis < lattice.ds:
        raise ValueError(f"axis {axis} out of range for ds={lattice.ds}")
    f = fourier_matrix(lattice)
    eig = 1j * hbar * lattice.momenta()[:, axis]
    op = f.conj().T @ (eig[:, None] * f)
    return 0.5 * (op - op.conj().T)


def phase_operator(lattice: Lattice, r) -> np.ndarray:
    """Diagonal unitary with entries exp(i r.x_j); r need not be on the grid."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (lattice.ds,):
        raise ValueError(f"r must have {lattice.ds} components")
    return np.diag(np.exp(1j * (lattice.sites() @ r)))
