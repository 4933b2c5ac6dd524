"""Hartree-Fock and Hartree flows for one-particle density matrices.

The generator h(omega) = -hbar^2 Lap + (V * rho) - X is assembled in one
place, `generator`: the direct term is a site vector added onto the
diagonal of a copy of the kinetic operator, and for Hartree-Fock the
exchange term X_{xy} = V(x-y) omega_{xy} / N, read from the pair table
`Potential.pair_matrix`, is subtracted.  The flow
i*hbar d/dt omega = [h(omega), omega] is integrated by one rule, the
exponential midpoint rule: each step conjugates omega with
exp(-i dt h / hbar), with h evaluated at the average of omega and an
exponential-Euler predictor.  Conjugation preserves the spectrum of omega
structurally, so a projection stays a projection at every step.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .initial_data import DensityMatrix
from .model import (Lattice, ModelParams, Potential, _shifted_fft, _shifted_ifft,
                    kinetic_operator)

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
    FREE = "free"


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
    step_times: list = field(default_factory=list)      # every integrator step
    trace: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    idempotency_defect: list = field(default_factory=list)


def density_profile(omega: DensityMatrix, lattice: Lattice) -> np.ndarray:
    """Normalized density rho(x_j) = omega_jj / (N a^ds); a^ds sum rho = 1."""
    tr = np.trace(omega.matrix).real
    if tr <= 0:
        raise ValueError("density matrix must have positive trace")
    cell = lattice.spacing ** lattice.ds
    return np.real(np.diag(omega.matrix)) / (omega.n_particles * cell)


def direct_term(rho: np.ndarray, v: Potential, lattice: Lattice) -> np.ndarray:
    """Site vector (V * rho)(x_j) = a^ds sum_y V(x_j - y) rho(y), computed by
    multiplying with the stored Fourier coefficients of V."""
    cell = lattice.spacing ** lattice.ds
    rhat = _shifted_fft(rho, lattice)
    conv = _shifted_ifft(v.fourier * rhat * lattice.site_count, lattice).real
    return cell * conv


def exchange_term(omega: DensityMatrix, v: Potential) -> np.ndarray:
    """Exchange operator X_{xy} = (1/N) V(x-y) omega_{xy} (entrywise)."""
    return v.pair_matrix * omega.matrix / omega.n_particles


def generator(omega: DensityMatrix, kind: MeanFieldKind, v: Potential,
              params: ModelParams, lattice: Lattice) -> np.ndarray:
    """Effective one-particle Hamiltonian h(omega) for the requested flow."""
    kinetic = kinetic_operator(lattice, params.hbar)
    if kind is MeanFieldKind.FREE:
        return kinetic
    h = kinetic.copy()  # kinetic_operator is cached: never write into it
    h[np.diag_indices_from(h)] += direct_term(density_profile(omega, lattice),
                                              v, lattice)
    if kind is MeanFieldKind.HARTREE_FOCK:
        h -= exchange_term(omega, v)
    return 0.5 * (h + h.conj().T)


def _conjugate(omega_mat: np.ndarray, h: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    eig, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * dt * eig / hbar)) @ vec.conj().T
    out = u @ omega_mat @ u.conj().T
    return 0.5 * (out + out.conj().T)


def step(omega: DensityMatrix, cfg: EvolutionConfig, kind: MeanFieldKind,
         v: Potential, params: ModelParams, lattice: Lattice) -> DensityMatrix:
    """One exponential midpoint step: the generator is re-evaluated at the
    average of omega and an exponential-Euler predictor.  The free generator
    does not depend on omega and needs no predictor."""
    h = generator(omega, kind, v, params, lattice)
    if kind is not MeanFieldKind.FREE:
        pred = _conjugate(omega.matrix, h, cfg.dt, params.hbar)
        mid = DensityMatrix(matrix=0.5 * (omega.matrix + pred),
                            n_particles=omega.n_particles)
        h = generator(mid, kind, v, params, lattice)
    new = _conjugate(omega.matrix, h, cfg.dt, params.hbar)
    return DensityMatrix(matrix=new, n_particles=omega.n_particles)


def hf_energy(omega: DensityMatrix, v: Potential, params: ModelParams,
              lattice: Lattice, include_exchange: bool = True) -> float:
    """Mean-field energy; the 1/2 symmetry factor on both interaction terms
    makes this the conserved quantity of the flow."""
    m = omega.matrix
    # tr(K m) = sum_xy conj(m_xy) K_xy for Hermitian m, without a matmul
    e = np.vdot(m, kinetic_operator(lattice, params.hbar)).real
    occ = np.real(np.diag(m))
    w = v.pair_matrix
    e += 0.5 / params.n_particles * float(occ @ w @ occ)
    if include_exchange:
        e -= 0.5 / params.n_particles * float(np.sum(w * np.abs(m) ** 2))
    return float(e)


def evolve(omega0: DensityMatrix, cfg: EvolutionConfig, kind: MeanFieldKind,
           v: Potential, params: ModelParams, lattice: Lattice) -> Trajectory:
    """Integrate the flow; scalars recorded per step, snapshots at the
    snapshot stride.  Aborts on integrator blow-up or a non-finite state."""
    omega0.validate()
    include_x = kind is MeanFieldKind.HARTREE_FOCK
    traj = Trajectory()

    def record_snapshot(t, state):
        traj.times.append(t)
        traj.states.append(DensityMatrix(matrix=state.matrix.copy(),
                                         n_particles=state.n_particles))

    def record_scalars(t, state, defect):
        traj.step_times.append(t)
        traj.trace.append(float(np.trace(state.matrix).real))
        traj.energy.append(hf_energy(state, v, params, lattice,
                                     include_exchange=include_x))
        traj.idempotency_defect.append(defect)

    state = omega0
    record_scalars(0.0, state, state.idempotency_defect())
    record_snapshot(0.0, state)
    n_steps = cfg.n_steps
    for i in range(1, n_steps + 1):
        state = step(state, cfg, kind, v, params, lattice)
        t = i * cfg.dt
        defect = state.idempotency_defect()
        if not defect <= 1e-4:  # also true for NaN
            raise RuntimeError(
                f"integrator blow-up at t={t:.6g}: idempotency defect {defect:.3e}"
            )
        record_scalars(t, state, defect)
        if i % cfg.snapshot_stride == 0 or i == n_steps:
            record_snapshot(t, state)
    return traj


def compare_hf_hartree(omega0: DensityMatrix, cfg: EvolutionConfig, v: Potential,
                       params: ModelParams, lattice: Lattice):
    """Trace-norm gap tr|omega_HF(t) - omega_H(t)| from shared initial data."""
    from .diagnostics import _hermitian_trace_norm

    hf = evolve(omega0, cfg, MeanFieldKind.HARTREE_FOCK, v, params, lattice)
    hh = evolve(omega0, cfg, MeanFieldKind.HARTREE, v, params, lattice)
    gaps = [_hermitian_trace_norm(a.matrix - b.matrix)
            for a, b in zip(hf.states, hh.states)]
    return np.array(hf.times), np.array(gaps)
