"""Hartree-Fock and Hartree flows for one-particle density matrices.

The state is a `DensityMatrix` (Phi, lam): omega = Phi diag(lam) Phi* and
N = sum lam.  The generator h(omega) = -hbar^2 Lap + (V * rho) - X is
assembled in one place, `generator`: the direct term is the site vector
V * rho, rho read from the orbitals, on the diagonal of the kinetic
operator, and for Hartree-Fock the exchange term
X_{xy} = V(x-y) omega_{xy} / N, read from the pair table
`Potential.pair_matrix`, is subtracted.  The flow
i*hbar d/dt omega = [h(omega), omega] is a unitary conjugation, so lam is
fixed and only the orbitals move.  It is integrated by one rule, the
exponential midpoint rule: each step maps Phi to exp(-i dt h / hbar) Phi,
with h evaluated at the average of omega and an exponential-Euler
predictor, so a projection stays a projection at every step.  The exponential
is a Chebyshev series in h on Phi, or an `eigh` of h where it needs dim h terms.

The flows take hbar as a number, N from the state and the lattice from `v`.
"""

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import distance_series
from .initial_data import DensityMatrix
from .model import Lattice, Potential, kinetic_operator

__all__ = [
    "MeanFieldKind",
    "EvolutionConfig",
    "Trajectory",
    "density_profile",
    "direct_term",
    "exchange_term",
    "generator",
    "step",
    "evolve",
    "hf_energy",
    "compare_hf_hartree",
]


class MeanFieldKind(enum.Enum):
    HARTREE_FOCK = "hartree_fock"
    HARTREE = "hartree"


@dataclass(frozen=True)
class EvolutionConfig:
    """Time step dt and horizon t_final, a whole number of steps; snapshots
    are kept every `snapshot_stride` steps and at t_final."""

    dt: float
    t_final: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not np.isfinite(self.t_final):
            raise ValueError("t_final must be finite")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if abs(self.n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(f"t_final={self.t_final!r} is not a whole number "
                             f"of dt={self.dt!r} steps")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    """Snapshots at the configured stride plus per-step scalar records."""

    times: list = field(default_factory=list)           # snapshot times
    states: list = field(default_factory=list)          # DensityMatrix snapshots
    trace: list = field(default_factory=list)           # one entry per step, t=0 first
    energy: list = field(default_factory=list)
    idempotency_defect: list = field(default_factory=list)


def density_profile(omega: DensityMatrix, lattice: Lattice) -> np.ndarray:
    """Normalized density rho(x_j) = omega_jj / (N a^ds) from the orbitals,
    omega_jj = sum_k lam_k |Phi_jk|^2; a^ds sum rho = 1."""
    if omega.n_particles <= 0:
        raise ValueError("density matrix must hold at least one particle")
    diag = (np.abs(omega.orbitals) ** 2) @ omega.occupations
    return diag / (omega.n_particles * lattice.cell)


def direct_term(rho: np.ndarray, v: Potential) -> np.ndarray:
    """Site vector (V * rho)(x_j) = a^ds sum_y V(x_j - y) rho(y): one circular
    convolution of the site grids by real FFT, with V's transform cached."""
    grid, axes = (v.lattice.d,) * v.lattice.ds, tuple(range(v.lattice.ds))
    rhat = np.fft.rfftn(np.reshape(rho, grid), axes=axes)
    return v.lattice.cell * np.fft.irfftn(v.site_rfft * rhat, grid, axes=axes).ravel()


def exchange_term(omega: DensityMatrix, v: Potential) -> np.ndarray:
    """Exchange operator X_{xy} = (1/N) V(x-y) omega_{xy} (entrywise)."""
    return v.pair_matrix * omega.matrix / omega.n_particles


def generator(omega: DensityMatrix, kind: MeanFieldKind, v: Potential,
              hbar: float) -> np.ndarray:
    """Effective one-particle Hamiltonian h(omega) for the requested flow."""
    h = kinetic_operator(v.lattice, hbar) + np.diag(
        direct_term(density_profile(omega, v.lattice), v))
    if kind is MeanFieldKind.HARTREE_FOCK:
        h -= exchange_term(omega, v)
    return 0.5 * (h + h.conj().T)


def _gershgorin_interval(h: np.ndarray) -> tuple:
    """[lo, hi] ⊇ spec(h) for Hermitian h: the union of the Gershgorin discs."""
    centre, radius = h.diagonal().real, np.abs(h).sum(axis=1) - np.abs(h.diagonal())
    return (centre - radius).min(), (centre + radius).max()


@functools.lru_cache(maxsize=256)
def _chebyshev_coefficients(a: float, n: int = 1024) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(a): exp(-i a x) = sum c_k T_k(x) on [-1, 1].
    J_k(a) is the FFT of exp(-i a cos theta) along the exact (-i)^k, cut at the
    first k > a with |c_k| < 1e-15; n doubles until it holds the cut, from 1024
    as steps reuse the c_k: their rounding is a norm drift that adds up."""
    k = np.arange(n // 2)
    f = np.fft.fft(np.exp(-1j * a * np.cos(2 * np.pi * np.arange(n) / n)))[k] / n
    phase = np.array([1, -1j, -1, 1j])[k % 4]  # (-i)^k, exact
    c = np.where(k == 0, 1, 2) * phase * (f * phase.conj()).real
    cut = np.flatnonzero((k > a) & (np.abs(c) < 1e-15))
    return c[: cut[0]] if cut.size else _chebyshev_coefficients(a, 2 * n)


def _conjugate(phi: np.ndarray, h: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """exp(-i tau h) Phi, tau = dt / hbar: a Chebyshev series in h2 = (tau/a)(h - mid),
    a = tau (hi - lo) / 2 rounded up to a multiple of 1/64.  No degree >= dim h is
    needed (Cayley-Hamilton): then, or for a non-finite h, h is diagonalized."""
    m, tau = len(h), dt / hbar
    lo, hi = _gershgorin_interval(h)
    a = tau * (hi - lo) / 2
    a = max(math.ceil(64 * a), 1) / 64 if a < m else a  # a < m is False for NaN
    if not (a < m and len(c := _chebyshev_coefficients(a)) < m):
        eig, vec = np.linalg.eigh(h)
        return (vec * np.exp(-1j * dt * eig / hbar)) @ (vec.conj().T @ phi)
    mid = (lo + hi) / 2
    c = np.exp(-1j * tau * mid) * c  # exp(-i tau h) = exp(-i tau mid) exp(-i a h2)
    two_h2 = (2 * tau / a) * h
    two_h2.flat[:: m + 1] -= 2 * tau / a * mid
    prev, cur = phi, 0.5 * (two_h2 @ phi)
    out = c[0] * prev + c[1] * cur
    for ck in c[2:]:  # T_{k+1} = 2 h2 T_k - T_{k-1}
        prev, cur = cur, two_h2 @ cur - prev
        out += ck * cur
    return out


def step(omega: DensityMatrix, cfg: EvolutionConfig, kind: MeanFieldKind,
         v: Potential, hbar: float) -> DensityMatrix:
    """One exponential midpoint step on the orbitals: the generator is
    re-evaluated at the average of omega and an exponential-Euler predictor,
    the factored state [Phi, Phi_pred] diag(lam/2, lam/2) [Phi, Phi_pred]*."""
    phi, lam = omega.orbitals, omega.occupations
    pred = _conjugate(phi, generator(omega, kind, v, hbar), cfg.dt, hbar)
    mid = DensityMatrix(np.hstack([phi, pred]), np.concatenate([lam, lam]) / 2)
    return DensityMatrix(_conjugate(phi, generator(mid, kind, v, hbar), cfg.dt, hbar), lam)


def hf_energy(omega: DensityMatrix, kind: MeanFieldKind, v: Potential,
              hbar: float) -> float:
    """Mean-field energy of the requested flow; the 1/2 symmetry factor on
    both interaction terms makes this the conserved quantity of the flow."""
    m = omega.matrix
    # tr(K m) = sum_xy conj(m_xy) K_xy for Hermitian m, without a matmul
    e = np.vdot(m, kinetic_operator(v.lattice, hbar)).real
    occ = np.real(np.diag(m))
    w = v.pair_matrix
    e += 0.5 / omega.n_particles * float(occ @ w @ occ)
    if kind is MeanFieldKind.HARTREE_FOCK:
        e -= 0.5 / omega.n_particles * float(np.sum(w * np.abs(m) ** 2))
    return float(e)


def evolve(omega0: DensityMatrix, cfg: EvolutionConfig, kind: MeanFieldKind,
           v: Potential, hbar: float) -> Trajectory:
    """Integrate the flow; scalars recorded per step, snapshots at the
    snapshot stride.  Aborts on integrator blow-up or a non-finite state."""
    omega0.validate()
    traj = Trajectory()
    state, defect = omega0, omega0.idempotency_defect()
    for i in range(cfg.n_steps + 1):
        t = i * cfg.dt
        if i > 0:
            state = step(state, cfg, kind, v, hbar)
            defect = state.idempotency_defect()
            if not defect <= 1e-4:  # also true for NaN
                raise RuntimeError(
                    f"integrator blow-up at t={t:.6g}: idempotency defect {defect:.3e}")
        traj.trace.append(float(np.vdot(state.orbitals, state.orbitals * state.occupations).real))
        traj.energy.append(hf_energy(state, kind, v, hbar))
        traj.idempotency_defect.append(defect)
        if i % cfg.snapshot_stride == 0 or i == cfg.n_steps:  # states are immutable
            traj.times.append(t)
            traj.states.append(state)
    return traj


def compare_hf_hartree(omega0: DensityMatrix, cfg: EvolutionConfig, v: Potential,
                       hbar: float):
    """Trace-norm gap tr|omega_HF(t) - omega_H(t)| from shared initial data."""
    hf = evolve(omega0, cfg, MeanFieldKind.HARTREE_FOCK, v, hbar)
    hh = evolve(omega0, cfg, MeanFieldKind.HARTREE, v, hbar)
    gaps = distance_series([s.matrix for s in hf.states], [s.matrix for s in hh.states]).tr
    return np.array(hf.times), gaps
