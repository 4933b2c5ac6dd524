"""Trace-norm machinery, commutator diagnostics along trajectories,
mean-field-vs-exact distances, and exponential growth fits."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .model import Lattice, ModelParams, momentum_operator, phase_operator

__all__ = [
    "CommutatorSeries",
    "GrowthFit",
    "DistanceSeries",
    "trace_norm",
    "hs_norm",
    "commutator_phase",
    "commutator_momentum",
    "semiclassical_series",
    "fit_exponential",
    "fit_double_exponential",
    "distance_series",
]


@dataclass
class CommutatorSeries:
    times: np.ndarray
    c_phase: np.ndarray
    c_momentum: np.ndarray
    normalization: float  # N * hbar
    p_set: np.ndarray = field(repr=False)


@dataclass
class GrowthFit:
    amplitude: float  # K in K * exp(c t)
    rate: float
    residual: float   # RMS of log-residuals


@dataclass
class DistanceSeries:
    times: np.ndarray
    hs: np.ndarray
    tr: np.ndarray


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("trace norm of a matrix with non-finite entries")
    try:
        return float(np.sum(scipy.linalg.svdvals(a)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError("SVD failed to converge in trace_norm") from exc


def hs_norm(a: np.ndarray) -> float:
    """Frobenius (Hilbert-Schmidt) norm."""
    return float(np.linalg.norm(np.asarray(a), "fro"))


def commutator_phase(omega, r, lattice: Lattice) -> float:
    """tr |[e^{i r.x}, omega]|."""
    e = phase_operator(lattice, r)
    m = omega.matrix if hasattr(omega, "matrix") else omega
    return trace_norm(e @ m - m @ e)


def commutator_momentum(omega, params: ModelParams, lattice: Lattice) -> float:
    """sum over axes of tr |[hbar d/dx_axis, omega]|."""
    m = omega.matrix if hasattr(omega, "matrix") else omega
    total = 0.0
    for ax in range(lattice.ds):
        g = momentum_operator(lattice, params.hbar, ax)
        total += trace_norm(g @ m - m @ g)
    return total


def semiclassical_series(trajectory, p_set, params: ModelParams,
                         lattice: Lattice) -> CommutatorSeries:
    """Per-snapshot normalized commutator sizes along a trajectory."""
    p_set = np.atleast_2d(np.asarray(p_set, dtype=float))
    norm = params.n_particles * params.hbar
    c_phase, c_mom = [], []
    for state in trajectory.states:
        best = 0.0
        for p in p_set:
            val = commutator_phase(state, p, lattice) / (1.0 + np.linalg.norm(p))
            best = max(best, val)
        c_phase.append(best / norm)
        c_mom.append(commutator_momentum(state, params, lattice) / norm)
    return CommutatorSeries(times=np.array(trajectory.times),
                            c_phase=np.array(c_phase),
                            c_momentum=np.array(c_mom),
                            normalization=norm, p_set=p_set)


def fit_exponential(series, times) -> GrowthFit:
    """Least squares for log v = log K + c t; rejects non-positive values."""
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
    return GrowthFit(amplitude=float(np.exp(coef[0])), rate=float(coef[1]),
                     residual=float(np.sqrt(np.mean(resid ** 2))))


def fit_double_exponential(series, times):
    """Fit log v = log K + c2 * exp(c1 * t) by nested least squares over c1.

    Returns (K, c1, c2, rms log residual).  Used for number-growth envelopes,
    where the bound has the double-exponential shape.
    """
    v = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    if np.any(v <= 0):
        raise ValueError("double-exponential fit requires positive values")
    logv = np.log(v)
    span = max(t.max() - t.min(), 1e-12)

    def inner(c1):
        design = np.stack([np.ones_like(t), np.exp(c1 * t)], axis=1)
        coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
        resid = logv - design @ coef
        return coef, float(np.sqrt(np.mean(resid ** 2)))

    grid = np.linspace(1e-3, 10.0 / span, 400)
    best_c1 = min(grid, key=lambda c1: inner(c1)[1])
    from scipy.optimize import minimize_scalar

    step = grid[1] - grid[0]
    res = minimize_scalar(lambda c1: inner(c1)[1], bracket=None,
                          bounds=(max(best_c1 - step, 1e-6), best_c1 + step),
                          method="bounded")
    c1 = float(res.x) if res.fun <= inner(best_c1)[1] else float(best_c1)
    coef, rms = inner(c1)
    return (float(np.exp(coef[0])), c1, float(coef[1]), rms)


def distance_series(gamma_series, omega_series, times=None) -> DistanceSeries:
    """HS and trace distances per time between two matched state series."""
    if len(gamma_series) != len(omega_series):
        raise ValueError("mismatched series lengths")
    mats = []
    for g, w in zip(gamma_series, omega_series):
        gm = g.matrix if hasattr(g, "matrix") else np.asarray(g)
        wm = w.matrix if hasattr(w, "matrix") else np.asarray(w)
        if gm.shape != wm.shape:
            raise ValueError("mismatched state dimensions")
        mats.append(gm - wm)
    hs = np.array([hs_norm(m) for m in mats])
    tr = np.array([trace_norm(m) for m in mats])
    if times is None:
        times = np.arange(len(mats), dtype=float)
    return DistanceSeries(times=np.asarray(times, dtype=float), hs=hs, tr=tr)
