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

Vlasov sweeps and the kick's force -d/dx (V * rho), -i p (`Lattice.fft_momenta`) on V * rho's
spectrum a^ds `site_rfft` rfft(rho), are rfft/irfft pairs on a real half spectrum.
`vlasov_step` runs n Strang steps with n + 1 drift sweeps, adjacent half drifts merged;
`runner` calls it once per snapshot interval and `wigner` once per snapshot.
"""

import functools

import numpy as np

from .initial_data import DensityMatrix
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


def _phases(shifts: np.ndarray, n: int) -> np.ndarray:
    """exp(-2 pi i kappa s / n), kappa = 0..n//2 on a new last axis: shifts by s cells."""
    angle = np.multiply.outer(shifts, np.arange(n // 2 + 1) * (-2.0 * np.pi / n))
    phase = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return phase


@functools.lru_cache(maxsize=4)
def _drift_phases(lattice: Lattice, hbar: float, dt: float) -> tuple:
    """The half- and full-drift phases [kappa, k] of dt, s_k = q_k dt / a cells per half
    (velocity 2q); read-only.  A full drift is two half drifts: the half table squared,
    (Re phase)^2 at a real Nyquist bin, where each irfft keeps Re(X phase)."""
    half = _phases(momentum_grid(lattice, hbar) * dt / lattice.spacing, lattice.d).T.copy()
    full = half * half
    if lattice.d % 2 == 0:
        full[-1] = half[-1].real ** 2
    for table in (half, full):
        table.setflags(write=False)
    return half, full


def _force(w: np.ndarray, v: Potential, n_particles: int) -> np.ndarray:
    """-d/dx (V * rho), rho the normalized position marginal: -i p on a `site_rfft` rfft(rho)."""
    lattice = v.lattice
    rho = np.sum(w, axis=1) * (1.0 / lattice.d) / (n_particles * lattice.cell)  # weight 1/d
    p = lattice.fft_momenta()[0, :lattice.d // 2 + 1]
    return np.fft.irfft(-1j * lattice.cell * p * v.site_rfft * np.fft.rfft(rho), lattice.d)


def vlasov_step(w: np.ndarray, n_steps: int, dt: float, v: Potential, hbar: float,
                n_particles: int) -> np.ndarray:
    """n_steps Strang-split steps of the Vlasov flow for -hbar^2 Lap + direct term, w's
    momenta `momentum_grid(v.lattice, hbar)` (velocity 2q): D(dt/2) (K D(dt))^(n-1) K
    D(dt/2), each pair of adjacent half drifts merged into one.  Each sweep is exact for
    band-limited data and integer shifts and keeps each line's sum (irfft keeps
    Re(X phase) at the real Nyquist bin): the splitting is the only dt error."""
    if not (dt > 0 and n_steps >= 1):
        raise ValueError("dt must be positive and n_steps at least 1")
    d, (half, full) = v.lattice.d, _drift_phases(v.lattice, hbar, dt)
    w = np.fft.irfft(np.fft.rfft(w, axis=0) * half, d, axis=0)  # momentum columns drift
    for drift in [full] * (n_steps - 1) + [half]:
        shifts = _force(w, v, n_particles) * dt / (np.pi * hbar / v.lattice.length)  # q spacing
        if not np.all(np.isfinite(shifts)):
            raise RuntimeError("Vlasov kick is not finite")
        w = np.fft.irfft(np.fft.rfft(w, axis=1) * _phases(shifts, d), d, axis=1)  # site rows kicked
        w = np.fft.irfft(np.fft.rfft(w, axis=0) * drift, d, axis=0)
    return w
