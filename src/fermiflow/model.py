"""Periodic lattices, momentum grids, interaction potentials and the
elementary one-particle operators everything else is assembled from.

Conventions used throughout the package:

* sites are x_j = j*a on the torus [0, l)^ds, enumerated row-major over
  the integer index j;
* momenta are p_k = (2*pi/l)*k with integer components in
  {-floor(d/2), ..., ceil(d/2)-1}, enumerated row-major over k;
* a kernel A(x; y) is transcribed to the matrix A_{xy} = a^ds * A(x_j; y_j),
  so that matrix products discretize operator composition;
* the interaction is expanded as V(x) = sum_k Vhat(p_k) exp(i p_k . x),
  i.e. Vhat carries no extra volume factor.

Each model fact has one source: the lattice is `Potential.lattice`, N is
`DensityMatrix.n_particles`, and hbar a number (`default_hbar` is N^(-1/ds)).
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lattice",
    "Potential",
    "default_hbar",
    "make_lattice",
    "build_potential",
    "fourier_matrix",
    "is_hermitian",
    "kinetic_operator",
    "momentum_operator",
    "phase_operator",
]


@dataclass(frozen=True)
class Lattice:
    """Periodic spatial grid with its paired momentum grid."""

    ds: int
    d: int
    length: float

    @property
    def spacing(self) -> float:
        return self.length / self.d

    @property
    def cell(self) -> float:
        """Cell volume a^ds, the weight of one site in a lattice sum."""
        return self.spacing ** self.ds

    @property
    def site_count(self) -> int:
        return self.d ** self.ds

    def site_indices(self) -> np.ndarray:
        """Integer site indices j, shape (site_count, ds), row-major."""
        grids = np.indices((self.d,) * self.ds)
        return grids.reshape(self.ds, -1).T

    def sites(self) -> np.ndarray:
        """Site coordinates x_j, shape (site_count, ds)."""
        return self.site_indices() * self.spacing

    def momentum_indices(self) -> np.ndarray:
        """Integer momentum indices k, shape (site_count, ds), row-major,
        components in {-floor(d/2), ..., ceil(d/2)-1} ascending."""
        half = self.d // 2
        axis = np.arange(-half, self.d - half)
        grids = np.meshgrid(*([axis] * self.ds), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def momenta(self) -> np.ndarray:
        """Momentum vectors p_k, shape (site_count, ds)."""
        return self.momentum_indices() * (2.0 * np.pi / self.length)


def default_hbar(n_particles: int, ds: int) -> float:
    """The coupled semiclassical scale hbar = N^(-1/ds)."""
    return float(n_particles) ** (-1.0 / ds)


@dataclass(frozen=True)
class Potential:
    """Even interaction V given by its site samples; its other forms derive from them."""

    lattice: Lattice
    real_space: np.ndarray

    @functools.cached_property
    def fourier(self) -> np.ndarray:
        """Vhat(p_k) in ascending-k order (real up to round-off for an even V)."""
        return _shifted_fft(self.real_space, self.lattice)

    @functools.cached_property
    def site_rfft(self) -> np.ndarray:
        """rfftn of the samples on the (d,)*ds site grid, for the direct term."""
        grid = (self.lattice.d,) * self.lattice.ds
        return np.fft.rfftn(self.real_space.reshape(grid), axes=tuple(range(len(grid))))

    @functools.cached_property
    def assumption_weight(self) -> float:
        """sum_k (1 + |p_k|)^2 |Vhat(p_k)|, the paper's regularity weight of V."""
        p = self.lattice.momenta()
        return float(np.sum((1.0 + np.linalg.norm(p, axis=1)) ** 2 * np.abs(self.fourier)))

    @functools.cached_property
    def pair_matrix(self) -> np.ndarray:
        """V(x_i - x_j) for every site pair, shape (M, M): `real_space` at the
        periodic index difference (idx_i - idx_j) mod d, flattened row-major.
        Built once per potential; the exchange term, the mean-field energy and
        the exact Hamiltonian read it and must not write into it."""
        lat = self.lattice
        idx = lat.site_indices()
        diff = (idx[:, None, :] - idx[None, :, :]) % lat.d
        return self.real_space[np.ravel_multi_index(np.moveaxis(diff, -1, 0),
                                                    (lat.d,) * lat.ds)]


def make_lattice(ds: int, d: int, length: float) -> Lattice:
    if ds not in (1, 2, 3):
        raise ValueError(f"spatial dimension must be 1, 2 or 3, got {ds}")
    if d < 2:
        raise ValueError(f"need at least 2 sites per dimension, got {d}")
    if length <= 0:
        raise ValueError(f"torus side must be positive, got {length}")
    return Lattice(ds=ds, d=int(d), length=float(length))


@functools.lru_cache(maxsize=32)
def fourier_matrix(lattice: Lattice) -> np.ndarray:
    """Unitary lattice Fourier transform F[k, j] = exp(-i p_k.x_j)/sqrt(M)."""
    phase = lattice.momenta() @ lattice.sites().T
    return np.exp(-1j * phase) / np.sqrt(lattice.site_count)


def is_hermitian(m: np.ndarray) -> bool:
    """m = m* to round-off: no entry of m - m* above 1e-12 max(1, max |m|)."""
    scale = max(1.0, np.max(np.abs(m), initial=0.0))
    return bool(np.max(np.abs(m - m.conj().T), initial=0.0) <= 1e-12 * scale)


def _shifted_fft(values: np.ndarray, lattice: Lattice) -> np.ndarray:
    """DFT coefficients in our ascending-k order: Vhat_k = (1/M) sum_j V_j e^{-i p_k.x_j}."""
    grid = values.reshape((lattice.d,) * lattice.ds)
    coef = np.fft.fftn(grid) / lattice.site_count
    return np.fft.fftshift(coef).ravel()


def _shifted_ifft(coef: np.ndarray, lattice: Lattice) -> np.ndarray:
    grid = np.fft.ifftshift(coef.reshape((lattice.d,) * lattice.ds))
    return (np.fft.ifftn(grid) * lattice.site_count).ravel()


_GAUSSIAN_IMAGES = 2  # wrap 5 torus images per axis: m in {-2, ..., 2}


def _potential_from_samples(samples: np.ndarray, lattice: Lattice,
                            evenness_tol: float = 1e-10) -> Potential:
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (lattice.site_count,):
        raise ValueError(
            f"potential table must have {lattice.site_count} samples, "
            f"got shape {samples.shape}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("potential samples must be finite")
    grid = samples.reshape((lattice.d,) * lattice.ds)
    # x -> -x on the torus is index j -> (-j) mod d along every axis
    reflected = grid
    for ax in range(lattice.ds):
        reflected = np.flip(np.roll(reflected, -1, axis=ax), axis=ax)
    defect = np.max(np.abs(grid - reflected))
    if defect > evenness_tol:
        raise ValueError(f"potential violates evenness by {defect:.3e}")
    v = Potential(lattice=lattice, real_space=samples)
    if np.max(np.abs(v.fourier.imag)) > 1e-12 * max(1.0, np.max(np.abs(v.fourier))):
        raise ValueError("Fourier coefficients of an even real potential must be real")
    return v


def build_potential(spec: dict, lattice: Lattice) -> Potential:
    """Build an interaction from a named shape.

    Supported shapes: {"shape": "zero"}, {"shape": "gaussian", "strength", "sigma"},
    {"shape": "cosine", "strength", "mode"}, {"shape": "table", "samples"}.
    The gaussian is periodized by wrapping over 5 torus images per axis.
    """
    shape = spec.get("shape")
    if shape == "zero":
        samples = np.zeros(lattice.site_count)
    elif shape == "gaussian":
        lam = float(spec["strength"])
        sigma = float(spec["sigma"])
        if sigma <= 0:
            raise ValueError(f"gaussian width must be positive, got {sigma}")
        x = lattice.sites()
        l = lattice.length
        # wrap to [-l/2, l/2) so the image set is symmetric under x -> -x
        xc = x - l * np.round(x / l)
        samples = np.ones(lattice.site_count)
        for ax in range(lattice.ds):
            axis_sum = np.zeros(lattice.site_count)
            for m in range(-_GAUSSIAN_IMAGES, _GAUSSIAN_IMAGES + 1):
                with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
                    axis_sum += np.exp(-((xc[:, ax] + m * l) ** 2) / (2.0 * sigma ** 2))
            samples *= axis_sum
        samples *= lam
    elif shape == "cosine":
        lam = float(spec["strength"])
        mode = int(spec["mode"])
        x = lattice.sites()
        samples = lam * np.sum(
            np.cos(2.0 * np.pi * mode * x / lattice.length), axis=1
        )
    elif shape == "table":
        samples = np.asarray(spec["samples"], dtype=float)
    else:
        raise ValueError(f"unknown potential shape {shape!r}")
    return _potential_from_samples(samples, lattice)


@functools.lru_cache(maxsize=32)
def kinetic_operator(lattice: Lattice, hbar: float) -> np.ndarray:
    """-hbar^2 Laplacian: F* diag(hbar^2 |p_k|^2) F, Hermitian PSD."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    f = fourier_matrix(lattice)
    eig = hbar ** 2 * np.sum(lattice.momenta() ** 2, axis=1)
    op = f.conj().T @ (eig[:, None] * f)
    return 0.5 * (op + op.conj().T)


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
