"""Every diagnostic the flows are measured by: the trace norm of a Hermitian
matrix, the trace distance of two states on one unitary orbit, the
semiclassical commutator norms of a state, and exponential growth fits.  Each
norm is a function of one state or of one pair of states; a scenario loops
over its snapshots itself.

Each trace norm is tr|h| = sum |eigvalsh(h)| of a Hermitian h, computed by
one function, `trace_norm`.  The other norms read the orbitals of states
omega = Phi diag(lam) Phi*, Phi M x r, and write the operator as B S B* with
B of 2r columns and S Hermitian:

* two states with the same occupations lam, omega_a and omega_b, differ by
  omega_b - omega_a = B S B* with B = [Phi_a, Phi_b - Phi_a],
  S = [[0, lam], [lam, lam]]; `trace_distance` is its norm, exactly 0 for
  Phi_a = Phi_b;
* A = diag(e^{i r.x}) is unitary and [A, omega] = A (omega - A* omega A),
  so tr|[A, omega]| is the trace distance of omega and A* omega A, whose
  orbitals are A* Phi;
* hbar d/dx is anti-Hermitian, so [hbar d/dx, omega] = B S B* with
  B = [hbar dPhi, Phi], S = [[0, lam], [lam, 0]]; hbar dPhi is the symbol
  i hbar p (`Lattice.fft_momenta`) on Phi, by one `Lattice.fft` and one inverse.

With B = QR, B S B* = Q (R S R*) Q*, so each norm is that of the k x k
matrix R S R*, k = min(M, 2r).  A factorization that drops eigenvalues of
omega changes a phase norm by at most 2 sum |lam_dropped| and the norm of
axis j by at most 2 hbar max |p_j| sum |lam_dropped|, since
||hbar d/dx_j|| = hbar max |p_j|.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import Lattice, is_hermitian

__all__ = [
    "SemiclassicalReport",
    "trace_norm",
    "trace_distance",
    "commutator_phase",
    "commutator_momentum",
    "default_probe_momenta",
    "semiclassical_constant",
    "fit_exponential",
]


@dataclass
class SemiclassicalReport:
    """Normalized commutator sizes of a state; small values mean the state
    carries the diagonal-concentration structure at scale hbar."""

    c_phase: float
    c_momentum: float
    phase_norms: np.ndarray = field(repr=False)  # tr |[e^{i p.x}, omega]| per probe


def trace_norm(h: np.ndarray) -> float:
    """tr|h| of a Hermitian matrix: the sum of |eigenvalues|.  Non-finite or
    non-Hermitian input (beyond round-off) is rejected."""
    if not np.all(np.isfinite(h)):
        raise ValueError("trace norm of a matrix with non-finite entries")
    if not is_hermitian(h):
        raise ValueError("trace norm of a non-Hermitian matrix")
    try:
        return float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError("eigvalsh failed to converge in a trace norm") from exc


def _low_rank_norm(b: np.ndarray, s: np.ndarray) -> float:
    """tr|b s b*| for a Hermitian s, from the k x k matrix r s r*, b = q r."""
    r = np.linalg.qr(b, mode="r")
    h = r @ s @ r.conj().T
    return trace_norm(0.5 * (h + h.conj().T))


def trace_distance(phi_a: np.ndarray, phi_b: np.ndarray, lam: np.ndarray) -> float:
    """tr |omega_a - omega_b| of omega = phi diag(lam) phi* for two states with the
    same occupations lam, from the orbitals; exactly 0 when phi_a = phi_b."""
    zero, diag = np.zeros((len(lam),) * 2), np.diag(lam)
    return _low_rank_norm(np.hstack([phi_a, phi_b - phi_a]),
                          np.block([[zero, diag], [diag, diag]]))


def commutator_phase(phi: np.ndarray, lam: np.ndarray, r, lattice: Lattice) -> float:
    """tr |[e^{i r.x}, omega]| of omega = phi diag(lam) phi*."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (lattice.ds,):
        raise ValueError(f"r must have {lattice.ds} components")
    a_star = np.exp(-1j * (lattice.sites() @ r))
    return trace_distance(phi, a_star[:, None] * phi, lam)


def commutator_momentum(phi: np.ndarray, lam: np.ndarray, hbar: float,
                        lattice: Lattice) -> float:
    """sum over axes of tr |[hbar d/dx_axis, omega]| of omega = phi diag(lam) phi*;
    hbar d phi for all axes from one `Lattice.fft` and one inverse, of an (M, ds, r) array."""
    phi_hat = lattice.fft(phi)[:, None]
    dphi = lattice.fft((1j * hbar) * lattice.fft_momenta().T[..., None] * phi_hat, inverse=True)
    zero, diag = np.zeros((len(lam),) * 2), np.diag(lam)
    s = np.block([[zero, diag], [diag, zero]])
    return sum(_low_rank_norm(np.hstack([dphi[:, axis], phi]), s) for axis in range(lattice.ds))


def default_probe_momenta(lattice: Lattice, max_index: int = 4) -> np.ndarray:
    """All nonzero lattice momenta with |k_i| <= min(max_index, d // 2) per axis: a
    probe outside that box equals one inside on the sites, with a larger |p|."""
    max_index = min(max_index, lattice.d // 2)
    axis = np.arange(-max_index, max_index + 1)
    grids = np.meshgrid(*([axis] * lattice.ds), indexing="ij")
    k = np.stack([g.ravel() for g in grids], axis=-1)
    k = k[np.any(k != 0, axis=1)]
    return k * (2.0 * np.pi / lattice.length)


def semiclassical_constant(omega, lattice: Lattice, hbar: float,
                           p_set: np.ndarray = None) -> SemiclassicalReport:
    """The commutator norms of a `DensityMatrix` omega, normalized by N*hbar,
    from its orbitals.  tr|[e^{-i p.x}, omega]| = tr|[e^{i p.x}, omega]|,
    so a probe whose negative was already measured reuses that norm."""
    if p_set is None:
        p_set = default_probe_momenta(lattice)
    p_set = np.atleast_2d(np.asarray(p_set, dtype=float))
    if p_set.shape[0] == 0:
        raise ValueError("p_set must be nonempty")
    phi, lam = omega.orbitals, omega.occupations
    norm = omega.n_particles * hbar
    norms = {}
    for p in p_set:
        if tuple(p) not in norms:
            norms[tuple(p)] = norms[tuple(-p)] = commutator_phase(phi, lam, p, lattice)
    phase_norms = np.array([norms[tuple(p)] for p in p_set])
    c_phase = max(val / ((1.0 + np.linalg.norm(p)) * norm)
                  for val, p in zip(phase_norms, p_set))
    c_momentum = commutator_momentum(phi, lam, hbar, lattice) / norm
    return SemiclassicalReport(c_phase=float(c_phase), c_momentum=float(c_momentum),
                               phase_norms=phase_norms)


def fit_exponential(series, times) -> dict:
    """Least squares for log v = log K + c t: {"amplitude": K, "rate": c, "residual":
    RMS of the log-residuals}; rejects non-positive values."""
    v = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    if v.shape != t.shape or v.ndim != 1 or len(v) < 2:
        raise ValueError("need matching 1-d series and times of length >= 2")
    if np.any(v <= 0):
        raise ValueError("exponential fit requires strictly positive values")
    logv = np.log(v)
    design = np.stack([np.ones_like(t), t], axis=1)
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    resid = logv - design @ coef
    return {"amplitude": float(np.exp(coef[0])), "rate": float(coef[1]),
            "residual": float(np.sqrt(np.mean(resid ** 2)))}
