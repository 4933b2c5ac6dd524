"""Hartree-Fock and Hartree flows for one-particle density matrices.

The state is a `DensityMatrix` (Phi, lam): omega = Phi diag(lam) Phi*, N = sum lam.  The flow
i*hbar d/dt omega = [h(omega), omega], h = -hbar^2 Lap + (V * rho) - X (X = 0 for Hartree), is
a unitary conjugation: lam is fixed, the orbitals move, and each scheme is a product of
unitaries on Phi, so a projection stays one.  tau = dt/hbar.  Hartree is split (Strang),
`split_step`: exp(-i tau K/2) exp(-i tau V * rho) exp(-i tau K/2).  K is diagonal on the
orbitals' `Lattice.fft`, M x r like Phi, and the phase keeps rho, so each sub-step is exact,
with no series and no M x M array: three orbital transforms a step, the last one's product
serving `energy`.  Its V * rho, `direct_term`, is the real part of the inverse `Lattice.fft`
of `Potential.fourier` times rho's transform.  Hartree-Fock takes the exponential midpoint
rule, `step`: Phi -> exp(-i tau h) Phi, h at the average of omega and an exponential-Euler
predictor.  `generator` assembles h in one M x M buffer: X_{xy} = V(x-y) omega_{xy} / N is
(Phi lam / N) Phi* times `Potential.pair_matrix`, negated, the real K added to it and V * rho,
that table times rho (no FFT), to its diagonal; both tables are exactly symmetric, so h is
not Hermitized.  The exponential is a Chebyshev series in h on Phi over the interval
`generator` reads from h's parts, in real arithmetic where h is real, or an `eigh` of h where
it needs dim h terms; the series overwrites h.  `evolve` builds h once per state, for `energy`,
the one energy of both flows (its kinetic part by Parseval), then for the predictor: a
Hartree-Fock step holds one M x M array at a time, 16 M^2 bytes complex.

The flows take hbar as a number, N from the state and the lattice from `v`.  `evolve` is a
generator: it yields one `Snapshot` per kept step and holds no earlier state, so a run's memory
does not grow with its snapshot count.  This module measures nothing: a scenario reads each
snapshot's state with `diagnostics` as it arrives.
"""

import enum
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .initial_data import DensityMatrix
from .model import Lattice, Potential, kinetic_operator

__all__ = [
    "MeanFieldKind",
    "EvolutionConfig",
    "Snapshot",
    "density_profile",
    "direct_term",
    "exchange_term",
    "generator",
    "apply_exponential",
    "step",
    "split_step",
    "energy",
    "evolve",
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


# One kept step of `evolve`: t, the state and that step's scalars, then the running maxima over
# every step since t = 0 of the idempotency defect, |tr - tr_0| and |E - E_0|.
Snapshot = namedtuple("Snapshot", "t state trace energy idempotency_defect "
                      "max_idempotency_defect max_trace_drift max_energy_drift")


def density_profile(omega: DensityMatrix, lattice: Lattice) -> np.ndarray:
    """Normalized density rho(x_j) = omega_jj / (N a^ds) from the orbitals,
    omega_jj = sum_k lam_k |Phi_jk|^2; a^ds sum rho = 1."""
    if omega.n_particles <= 0:
        raise ValueError("density matrix must hold at least one particle")
    diag = (np.abs(omega.orbitals) ** 2) @ omega.occupations
    return diag / (omega.n_particles * lattice.cell)


def direct_term(rho: np.ndarray, v: Potential) -> np.ndarray:
    """Site vector (V * rho)(x_j) = a^ds sum_y V(x_j - y) rho(y): one circular
    convolution by `Lattice.fft`, with V's transform `Potential.fourier` cached."""
    lat = v.lattice
    return lat.cell * lat.fft(v.fourier * lat.fft(rho), inverse=True).real


def exchange_term(omega: DensityMatrix, v: Potential) -> np.ndarray:
    """Exchange operator X_{xy} = (1/N) V(x-y) omega_{xy} (entrywise): one product
    (Phi lam / N) Phi* into a buffer taken before its operands, scaled by V in place."""
    phi, w = omega.orbitals, omega.occupations / omega.n_particles
    x = np.empty((len(phi),) * 2, np.result_type(phi, w))  # first: a freed h's block fits it
    return np.multiply(np.matmul(phi * w, phi.conj().T, out=x), v.pair_matrix, out=x)


def generator(omega: DensityMatrix, v: Potential, hbar: float) -> tuple:
    """The Hartree-Fock Hamiltonian h(omega) in one buffer: K - X written over X in one
    pass, V * rho added to its diagonal; real where omega's orbitals are.  With it,
    Weyl's [lo, hi] ⊇ spec h from the parts: K's [0, hbar^2 max|p|^2], u = V * rho's range
    and -X's [-v+ c, -v- c], c = max omega_jj / N: omega >= 0 puts V o omega between
    v- Diag(omega) and v+ Diag(omega), [v-, v+] = `Potential.pair_range`."""
    rho = density_profile(omega, v.lattice)
    u = v.lattice.cell * (v.pair_matrix @ rho)  # V * rho from X's table: no FFT
    h = exchange_term(omega, v)
    np.subtract(kinetic_operator(v.lattice, hbar), h, out=h)
    h.flat[:: len(h) + 1] += u
    c, (v_lo, v_hi) = v.lattice.cell * rho.max(), v.pair_range
    k_top = hbar ** 2 * v.lattice.momentum_squared().max()
    return h, (u.min() - v_hi * c, u.max() + k_top - v_lo * c)


def _times(h: np.ndarray):
    """psi -> h psi on C-contiguous complex blocks psi; a real h acts on their real
    (M, 2r) view, where numpy's real x complex product would upcast h."""
    return h.__matmul__ if np.iscomplexobj(h) else lambda psi: (h @ psi.view(float)).view(complex)


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


def apply_exponential(phi: np.ndarray, h: np.ndarray, interval: tuple, dt: float,
                      hbar: float) -> np.ndarray:
    """exp(-i tau h) Phi, tau = dt / hbar, [lo, hi] = interval ⊇ spec h: a Chebyshev
    series in h2 = (tau/a)(h - mid), a = |tau| (hi - lo) / 2 rounded up to a multiple of
    1/64, on Phi's C-contiguous complex copy.  The series overwrites h with 2 h2, so it
    allocates no M x M array; a caller that needs h again passes a copy.  No degree >= dim h
    is needed (Cayley-Hamilton): then, or for a non-finite interval, h is diagonalized."""
    (lo, hi), m, tau = interval, len(h), dt / hbar
    a = abs(tau) * (hi - lo) / 2
    a = max(math.ceil(64 * a), 1) / 64 if a < m else a  # a < m is False for NaN
    if not (a < m and len(c := _chebyshev_coefficients(a)) < m):
        eig, vec = np.linalg.eigh(h)
        return (vec * np.exp(-1j * dt * eig / hbar)) @ (vec.conj().T @ phi)
    mid = (lo + hi) / 2
    c = np.exp(-1j * tau * mid) * c  # exp(-i tau h) = exp(-i tau mid) exp(-i a h2)
    two_h2 = np.multiply(h, 2 * tau / a, out=h)
    two_h2.flat[:: m + 1] -= 2 * tau / a * mid
    times, prev = _times(two_h2), np.ascontiguousarray(phi, dtype=complex)
    cur = 0.5 * times(prev)
    out = c[0] * prev + c[1] * cur
    for ck in c[2:]:  # T_{k+1} = 2 h2 T_k - T_{k-1}
        prev, cur = cur, times(cur) - prev
        out += ck * cur
    return out


def step(omega: DensityMatrix, pred: np.ndarray, cfg: EvolutionConfig, v: Potential,
         hbar: float) -> DensityMatrix:
    """One Hartree-Fock exponential midpoint step on the orbitals, the corrector on the
    exponential-Euler predictor Phi_pred = exp(-i tau h(omega)) Phi: the generator is
    re-evaluated at their average, the factored state [Phi, Phi_pred] diag(lam/2, lam/2)
    [Phi, Phi_pred]*, and its h is the step's one M x M array, overwritten by the series."""
    phi, lam = omega.orbitals, omega.occupations
    mid = DensityMatrix(np.hstack([phi, pred]), np.concatenate([lam, lam]) / 2)
    return DensityMatrix(apply_exponential(phi, *generator(mid, v, hbar), cfg.dt, hbar), lam)


def split_step(omega: DensityMatrix, phi_hat: np.ndarray, half: np.ndarray,
               cfg: EvolutionConfig, v: Potential, hbar: float) -> tuple:
    """One Strang step of the Hartree flow, Phi -> exp(-i tau K/2) exp(-i tau u) exp(-i tau
    K/2) Phi, tau = dt / hbar, u = V * rho of Phi' = exp(-i tau K/2) Phi, which the phase
    leaves unchanged; half is exp(-i tau hbar^2 |p|^2 / 2), shape (M, 1), on the rows of
    phi_hat, the `Lattice.fft` of omega's orbitals.  Returns the new state and its phi_hat."""
    lat, lam = v.lattice, omega.occupations
    phi = lat.fft(half * phi_hat, inverse=True)
    u = direct_term(density_profile(DensityMatrix(phi, lam), lat), v)
    phi *= np.exp(-1j * (cfg.dt / hbar) * u)[:, None]
    phi_hat = half * lat.fft(phi)
    return DensityMatrix(lat.fft(phi_hat, inverse=True), lam), phi_hat


def energy(omega: DensityMatrix, v: Potential, hbar: float, h: np.ndarray = None,
           phi_hat: np.ndarray = None) -> tuple:
    """The mean-field energy E and Phi_hat, the `Lattice.fft` of the orbitals, taken here
    unless given.  T = sum lam hbar^2 |p|^2 |Phi_hat|^2 / M (Parseval).  Hartree (no h):
    E = T + (1/2) sum_x (V * rho)(x) omega_xx.  Hartree-Fock, h = h(omega) from `generator`:
    E = (T + tr(h omega)) / 2, the 1/2 on both interaction terms making it the conserved one."""
    lat, phi, lam = v.lattice, omega.orbitals, omega.occupations
    phi_hat = phi_hat if phi_hat is not None else lat.fft(phi)
    weights = np.abs(phi_hat) ** 2 @ lam
    kinetic = hbar ** 2 * (lat.momentum_squared() @ weights) / lat.site_count
    if h is None:
        rho = density_profile(omega, lat)
        e = kinetic + 0.5 * omega.n_particles * lat.cell * (direct_term(rho, v) @ rho)
    else:
        phi = np.ascontiguousarray(phi, dtype=complex)
        e = 0.5 * (kinetic + np.vdot(phi * lam, _times(h)(phi)).real)
    return float(e), phi_hat


def evolve(omega0: DensityMatrix, cfg: EvolutionConfig, kind: MeanFieldKind,
           v: Potential, hbar: float):
    """Integrate the flow (Hartree by `split_step`, Hartree-Fock by `step`), yielding a
    `Snapshot` at the snapshot stride and at t_final; the running maxima read every step.
    Validates omega0 at the first `next`; aborts on integrator blow-up or a non-finite E.
    Hartree-Fock's h(omega_n) serves E, then, once omega_n is checked and yielded, the
    predictor's series overwrites it: a step holds one M x M array beside K and V's table."""
    omega0.validate()
    split = kind is MeanFieldKind.HARTREE
    half = np.exp(-0.5j * (cfg.dt / hbar) * (hbar ** 2 * v.lattice.momentum_squared()))[..., None]
    state, defect, phi_hat = omega0, omega0.idempotency_defect(), None
    for i in range(cfg.n_steps + 1):
        t = i * cfg.dt
        if i > 0:
            state, phi_hat = (split_step(state, phi_hat, half, cfg, v, hbar) if split
                              else (step(state, pred, cfg, v, hbar), None))
            defect = state.idempotency_defect()
        # Hartree: Phi_hat serves the next step.  Hartree-Fock: h(omega) serves the predictor,
        # and Phi_hat is dropped (held across the step, it cost hf3d ~2 MB of peak RSS).
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite E is refused below
            if split:
                e, phi_hat = energy(state, v, hbar, phi_hat=phi_hat)
            else:
                h, interval = generator(state, v, hbar)
                e = energy(state, v, hbar, h)[0]
        blow_up = i > 0 and not defect <= 1e-4  # also true for NaN
        if blow_up or not math.isfinite(e):
            raise RuntimeError(f"integrator blow-up at t={t:.6g}: idempotency defect {defect:.3e}"
                               if blow_up else f"the energy at t={t:.6g} is not finite ({e})")
        tr = float(np.vdot(state.orbitals, state.orbitals * state.occupations).real)
        if i == 0:
            tr0, e0, peaks = tr, e, (0.0, 0.0, 0.0)
        peaks = tuple(map(max, peaks, (defect, abs(tr - tr0), abs(e - e0))))
        if i % cfg.snapshot_stride == 0 or i == cfg.n_steps:  # states are immutable
            yield Snapshot(t, state, tr, e, defect, *peaks)
        if not split and i < cfg.n_steps:  # the series overwrites h, then h is dropped
            pred, h = apply_exponential(state.orbitals, h, interval, cfg.dt, hbar), None
