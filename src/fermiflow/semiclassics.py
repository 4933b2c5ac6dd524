"""Wigner transform and a split-step semi-Lagrangian Vlasov solver for the
classical-limit comparison (ds = 1 only).

A phase-space density, Wigner transform or Vlasov state, is a real (d, d)
array indexed [site j, momentum k].  Discrete Wigner convention (part of the
contract, echoed in run metadata):
    W(x_j, q_k) = sum_{m=0}^{d-1} omega[(j+m) mod d, (j-m) mod d] e^{-2 pi i k m / d}
with momentum labels q_k = pi * hbar * k / l for k in {-d/2, ..., d/2 - 1}
(`momentum_grid`; even-offset sampling keeps both kernel arguments on-grid
at the cost of a factor-2 momentum coarsening).  The quadrature weight is
the constant 1/d, pinned by the sum rule sum_{j,k} W / d = tr omega; with
that weight the position marginal is exactly the diagonal of omega.

The Vlasov kick's force -d/dx (V * rho) is the symbol -i p of
`Lattice.fft_momenta` on V * rho: one fft and one ifft.  The semiclassics
scenario in `runner` loops `vlasov_step` and `wigner` over the snapshots.
"""

import numpy as np

from .initial_data import DensityMatrix
from .meanfield import direct_term
from .model import Lattice, Potential

__all__ = ["wigner", "momentum_grid", "vlasov_step"]


def momentum_grid(lattice: Lattice, hbar: float) -> np.ndarray:
    half = lattice.d // 2
    return np.pi * hbar / lattice.length * np.arange(-half, lattice.d - half)


def wigner(omega: DensityMatrix, lattice: Lattice) -> np.ndarray:
    """Symmetrized discrete Wigner transform, summed over the orbitals in O(d^2 r)."""
    if lattice.ds != 1:
        raise ValueError("Wigner transform implemented for ds = 1 only")
    if lattice.d % 2 != 0:
        raise ValueError("Wigner transform needs an even site count")
    d, phi, j = lattice.d, omega.orbitals, np.arange(lattice.d)[:, None]
    plus, minus = (j + j.T) % d, (j - j.T) % d  # indexed [j, m]
    slices = np.zeros((d, d), dtype=complex)  # omega[(j+m) mod d, (j-m) mod d]
    for k, lam_k in enumerate(omega.occupations):  # d x d temporaries, never d x d x r
        slices += lam_k * phi[plus, k] * phi[minus, k].conj()
    w = np.fft.fft(slices, axis=1)  # sum_m s_m e^{-2 pi i k m / d}, k in fft order
    w = np.fft.fftshift(w, axes=1)
    if not np.max(np.abs(w.imag)) <= 1e-10 * max(1.0, np.max(np.abs(w))):  # also NaN
        raise ValueError("Wigner transform of a non-Hermitian or non-finite matrix")
    return w.real


def _shift_rows_spectral(values: np.ndarray, shifts: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Shift each row of a periodic array by a (fractional) number of cells: a
    phase on its FFT, k the integer frequencies.  Exact for band-limited data,
    exact at integer shifts, and conserves each row's sum (the zero mode is
    never touched); this makes the transport sweeps free of time-step error,
    so the splitting is the only dt-dependent approximation."""
    n = values.shape[1]
    phase = np.exp(-2j * np.pi * k[None, :] * np.asarray(shifts)[:, None] / n)
    return np.fft.ifft(np.fft.fft(values, axis=1) * phase, axis=1).real


def _force(w: np.ndarray, v: Potential, n_particles: int) -> np.ndarray:
    """-d/dx (V * rho), rho the normalized position marginal: -i p on V * rho."""
    lattice = v.lattice
    rho = np.sum(w, axis=1) * (1.0 / lattice.d) / (n_particles * lattice.cell)  # weight 1/d
    u = direct_term(rho, v)
    return np.fft.ifft(-1j * lattice.fft_momenta()[0] * np.fft.fft(u)).real


def vlasov_step(w: np.ndarray, dt: float, v: Potential, q: np.ndarray,
                n_particles: int) -> np.ndarray:
    """One Strang-split step of the Vlasov flow matching the quantum
    generator -hbar^2 Lap + direct term (transport velocity 2q), q the
    labels `momentum_grid(v.lattice, hbar)` of w's momentum axis."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k = v.lattice.fft_indices()[0]
    drift = 2.0 * q * (0.5 * dt) / v.lattice.spacing  # cells per half step
    w = _shift_rows_spectral(w.T, drift, k).T  # the rows of w.T are momentum slices
    w = _shift_rows_spectral(w, _force(w, v, n_particles) * dt / (q[1] - q[0]), k)
    return _shift_rows_spectral(w.T, drift, k).T
