"""Wigner transform and a split-step semi-Lagrangian Vlasov solver for the
classical-limit comparison (ds = 1 only).

Discrete Wigner convention (part of the contract, echoed in run metadata):
    W(x_j, q_k) = sum_{m=0}^{d-1} omega[(j+m) mod d, (j-m) mod d] e^{-2 pi i k m / d}
with momentum labels q_k = pi * hbar * k / l for k in {-d/2, ..., d/2 - 1}
(even-offset sampling keeps both kernel arguments on-grid at the cost of a
factor-2 momentum coarsening).  The quadrature weight is the constant 1/d,
pinned by the sum rule sum_{j,k} W * weight = tr omega; with that weight the
position marginal is exactly the diagonal of omega.

The Vlasov kick's force -d/dx (V * rho) is the symbol -i p of
`Lattice.fft_momenta` on V * rho: one fft and one ifft.
"""

from dataclasses import dataclass

import numpy as np

from .initial_data import DensityMatrix
from .meanfield import direct_term
from .model import Lattice, Potential

__all__ = [
    "PhaseSpaceDensity",
    "wigner",
    "momentum_grid",
    "vlasov_step",
    "compare_wigner_vlasov",
]


@dataclass
class PhaseSpaceDensity:
    """A signed density on the site x momentum grid: a Wigner transform or a
    Vlasov state."""

    values: np.ndarray   # shape (d sites, d momenta), signed
    momenta: np.ndarray  # q_k labels
    weight: float        # constant quadrature weight: mass = sum(values) * weight

    @property
    def mass(self) -> float:
        return float(np.sum(self.values) * self.weight)


def momentum_grid(lattice: Lattice, hbar: float) -> np.ndarray:
    half = lattice.d // 2
    return np.pi * hbar / lattice.length * np.arange(-half, lattice.d - half)


def wigner(omega: DensityMatrix, lattice: Lattice, hbar: float) -> PhaseSpaceDensity:
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
    if np.max(np.abs(w.imag)) > 1e-10 * max(1.0, np.max(np.abs(w))):
        raise ValueError("Wigner transform of a non-Hermitian matrix")
    return PhaseSpaceDensity(values=w.real, momenta=momentum_grid(lattice, hbar),
                             weight=1.0 / d)


def _shift_rows_spectral(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Shift each row of a periodic array by a (fractional) number of cells
    using Fourier phase multiplication.  Exact for band-limited data, exact
    at integer shifts, and conserves each row's sum (the zero mode is never
    touched); this makes the transport sweeps free of time-step error, so
    the splitting is the only dt-dependent approximation."""
    n = values.shape[1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    phase = np.exp(-2j * np.pi * k[None, :] * np.asarray(shifts)[:, None] / n)
    return np.fft.ifft(np.fft.fft(values, axis=1) * phase, axis=1).real


def _force(w: PhaseSpaceDensity, v: Potential, n_particles: int) -> np.ndarray:
    """-d/dx (V * rho), rho the normalized position marginal: -i p on V * rho."""
    rho = np.sum(w.values, axis=1) * w.weight / (n_particles * v.lattice.cell)
    u = direct_term(rho, v)
    return np.fft.ifft(-1j * v.lattice.fft_momenta()[0] * np.fft.fft(u)).real


def vlasov_step(w: PhaseSpaceDensity, dt: float, v: Potential,
                n_particles: int) -> PhaseSpaceDensity:
    """One Strang-split step of the Vlasov flow matching the quantum
    generator -hbar^2 Lap + direct term (transport velocity 2q)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    q = w.momenta
    dq = q[1] - q[0]
    a = v.lattice.spacing
    vals = w.values.T  # rows = momentum slices for the x-transport

    vals = _shift_rows_spectral(vals, 2.0 * q * (0.5 * dt) / a)
    half = PhaseSpaceDensity(values=vals.T, momenta=q, weight=w.weight)
    force = _force(half, v, n_particles)
    vals = _shift_rows_spectral(half.values, force * dt / dq)
    vals = _shift_rows_spectral(vals.T, 2.0 * q * (0.5 * dt) / a).T
    return PhaseSpaceDensity(values=vals, momenta=q, weight=w.weight)


def compare_wigner_vlasov(mf_traj, v: Potential, hbar: float, dt: float):
    """Weighted L1 distance between the Wigner transform of a mean-field
    trajectory and the Vlasov flow started from the same phase-space data.
    Each snapshot interval must be a whole number of Vlasov steps `dt`."""
    if not mf_traj.states:
        raise ValueError("empty trajectory")
    lattice, n = v.lattice, mf_traj.states[0].n_particles
    cur = wigner(mf_traj.states[0], lattice, hbar)
    dists = []
    t_now = 0.0
    for t, state in zip(mf_traj.times, mf_traj.states):
        interval = t - t_now
        n_sub = int(round(interval / dt))
        if abs(n_sub * dt - interval) > 1e-9 * interval:
            raise ValueError(f"snapshot interval {interval!r} is not a whole "
                             f"number of dt={dt!r} steps")
        for _ in range(n_sub):
            cur = vlasov_step(cur, dt, v, n)
        t_now += n_sub * dt
        wq = wigner(state, lattice, hbar)
        dists.append(float(np.sum(np.abs(wq.values - cur.values)) * cur.weight))
    gap = np.array(dists)
    return np.array(mf_traj.times), gap, gap / (hbar * n)
