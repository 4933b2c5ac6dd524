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

A Vlasov sweep is a real DFT along one axis of the phase-space array, a phase multiply and the
inverse DFT, no site-grid DFT: each transform is one BLAS product with a cached real table
(`_dft_tables`), O(d) work per point.  A kick maps the forward transform's column 0, the row
sums, to shifts by one real `circulant` for the force -d/dx (V * rho), the real part of the
inverse `Lattice.fft` of its symbol from `Potential.fourier`, and builds its phases as a running
product.  n Strang steps take 2n + 1 sweeps; `runner` calls `vlasov_step` once per snapshot
interval and `wigner` once per snapshot.
"""

import functools

import numpy as np

from .initial_data import DensityMatrix
from .model import Lattice, Potential, circulant

__all__ = ["wigner", "momentum_grid", "vlasov_step"]


def momentum_grid(lattice: Lattice, hbar: float) -> np.ndarray:
    half = lattice.d // 2
    return np.pi * hbar / lattice.length * np.arange(-half, lattice.d - half)


def wigner(omega: DensityMatrix, lattice: Lattice) -> np.ndarray:
    """Symmetrized discrete Wigner transform, its kernel slices gathered from one (Phi lam) Phi*."""
    if lattice.ds != 1:
        raise ValueError("Wigner transform implemented for ds = 1 only")
    if lattice.d % 2 != 0:
        raise ValueError("Wigner transform needs an even site count")
    d, phi, j = lattice.d, omega.orbitals, np.arange(lattice.d)[:, None]
    dense = (phi * omega.occupations) @ phi.conj().T  # one d x d product, the slices' size
    slices = dense[(j + j.T) % d, (j - j.T) % d]  # omega[(j+m) mod d, (j-m) mod d], [j, m]
    w = np.fft.fft(slices, axis=1)  # sum_m s_m e^{-2 pi i k m / d}, k in fft order
    w = np.fft.fftshift(w, axes=1)
    if not np.max(np.abs(w.imag)) <= 1e-10 * max(1.0, np.max(np.abs(w))):  # also NaN
        raise ValueError("Wigner transform of a non-Hermitian or non-finite matrix")
    return w.real


def _phases(shifts: np.ndarray, n: int) -> np.ndarray:
    """exp(-2 pi i kappa s / n), kappa = 0..n//2 on a new last axis: shifts by s cells.  One
    exp(-2 pi i s / n) per shift, then a running product along kappa; column 0 is exactly 1."""
    phase = np.repeat(np.exp(np.asarray(shifts) * (-2j * np.pi / n))[..., None], n // 2 + 1, -1)
    phase[..., 0] = 1.0
    return np.multiply.accumulate(phase, axis=-1, out=phase)


@functools.lru_cache(maxsize=4)
def _drift_phases(lattice: Lattice, hbar: float, dt: float) -> tuple:
    """The half- and full-drift phases [k, kappa] (the drift spectrum's layout) of dt, s_k =
    q_k dt / a cells per half (velocity 2q); read-only and reused every step, so built by cos
    and sin of the exact angle, not by `_phases`' running product.  A full drift is two half
    drifts: the half table squared, (Re phase)^2 at a real Nyquist bin, where G keeps Re."""
    angle = np.multiply.outer(momentum_grid(lattice, hbar) * dt / lattice.spacing,
                              np.arange(lattice.d // 2 + 1) * (-2 * np.pi / lattice.d))
    half = np.cos(angle) + 1j * np.sin(angle)
    full = half * half
    if lattice.d % 2 == 0:
        full[:, -1] = half[:, -1].real ** 2
    half.flags.writeable = full.flags.writeable = False
    return half, full


def _kick_matrix(v: Potential, n_particles: int, scale: float) -> np.ndarray:
    """The real circulant C[i, j] = g[(i - j) mod d], C sum_q w = scale * (-d/dx (V * rho)) for
    rho = sum_q w / (d N a): g = Re ifft(-i p a `fourier`) scale / (d N a), a cancelling."""
    lat = v.lattice
    t = -1j * lat.fft_momenta()[0] * v.fourier * (scale / (lat.d * n_particles))
    return circulant(lat, lat.fft(t, inverse=True).real)


@functools.lru_cache(maxsize=8)
def _dft_tables(d: int) -> tuple:
    """The real d-point DFT tables F (d, 2 (d//2+1)) and G (2 (d//2+1), d): (a @ F).view(complex)
    is rfft(a, axis=-1) and c.view(float) @ G is irfft(c, d).  F interleaves cos and -sin of the
    exact angle 2 pi ((j kappa) mod d) / d; G weighs DC (and an even d's Nyquist bin) by 1/d and
    the other bins by 2/d, and its rows for their imaginary parts are zero, as irfft ignores
    them.  Read-only and built once per d."""
    kappa = np.arange(d // 2 + 1)
    angle = np.multiply.outer(np.arange(d), kappa) % d * (2 * np.pi / d)  # [j, kappa]
    f = np.stack([np.cos(angle), -np.sin(angle)], axis=-1).reshape(d, -1)
    real_bins = (kappa == 0) | (2 * kappa == d)  # DC and an even d's Nyquist bin
    # C-ordered: as a transposed view it made each inverse a C x F dgemm, ~1.5x slower at d=64
    g = (f * np.repeat(np.where(real_bins, 1.0, 2.0) / d, 2)).T.copy()
    g[1::2][real_bins] = 0.0
    f.flags.writeable = g.flags.writeable = False
    return f, g


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is refused at the end
def vlasov_step(w: np.ndarray, n_steps: int, dt: float, v: Potential, hbar: float,
                n_particles: int) -> np.ndarray:
    """n_steps Strang-split steps of the Vlasov flow for -hbar^2 Lap + direct term, w's
    momenta `momentum_grid(v.lattice, hbar)` (velocity 2q): D(dt/2) (K D(dt))^(n-1) K D(dt/2),
    adjacent half drifts merged.  Sweeps are exact for band-limited data and integer shifts and
    keep line sums (the inverse table keeps Re(X phase) at the real Nyquist bin): only the
    splitting errs.  Each transform is one product with `_dft_tables`, the drift's on the
    transposed state, its spectrum [k, kappa].  Returns a finite, C-contiguous array."""
    if not (dt > 0 and n_steps >= 1):
        raise ValueError("dt must be positive and n_steps at least 1")
    d, (half, full) = v.lattice.d, _drift_phases(v.lattice, hbar, dt)
    f, g = _dft_tables(d)
    kick = _kick_matrix(v, n_particles, dt / (np.pi * hbar / v.lattice.length))  # q spacing
    for axis, phase in [(0, half), *[(1, None), (0, full)] * (n_steps - 1), (1, None), (0, half)]:
        # axis 0: momentum columns drift; 1: site rows kicked
        w_hat = ((w if axis else w.T) @ f).view(complex)
        if phase is None:  # column 0 holds the row sums
            phase = _phases(kick @ w_hat[:, 0].real, d)
        np.multiply(w_hat, phase, out=w_hat)
        w = w_hat.view(float) @ g if axis else g.T @ w_hat.view(float).T
    if not np.all(np.isfinite(w)):  # once: a non-finite kick's NaN phases reach every entry
        raise RuntimeError("Vlasov step is not finite")
    return w
