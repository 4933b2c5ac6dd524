"""Periodic lattices, momentum grids, interaction potentials and the
elementary one-particle operators everything else is assembled from.

Conventions used throughout the package:

* sites are x_j = j*a on the torus [0, l)^ds, enumerated row-major over the integer
  index j, and every site array is flat on that index: shape (M, ...);
* momenta are p_k = (2*pi/l)*k, k the FFT frequency of j, with components in
  {-floor(d/2), ..., ceil(d/2)-1}: `Lattice.fft_momenta`, flat on the same index, is read
  by every symbol (the Wigner output axis is the one ascending exception);
* a kernel A(x; y) is transcribed to the matrix A_{xy} = a^ds * A(x_j; y_j),
  so that matrix products discretize operator composition;
* the interaction is expanded as V(x) = sum_k Vhat(p_k) exp(i p_k . x),
  i.e. Vhat carries no extra volume factor; `Potential.fourier` is M Vhat, real, on the
  flat index of `Lattice.momentum_squared`.

Only `Lattice.fft` views a site array as its (d,)^ds grid: it is the one site-grid DFT.
The pair table V(x_i - x_j) and K = -hbar^2 Lap are circulants, one gather (`circulant`) of
V's samples and of the inverse DFT of hbar^2 |p|^2, from `Lattice.momentum_squared`, the one
source of |p|^2; `Potential.fourier` holds the pair table's eigenvalues.

Each model fact has one source: the lattice is `Potential.lattice`, N is
`DensityMatrix.n_particles`, and hbar a number (`default_hbar` is N^(-1/ds)).
Cached tables (a lattice's grids, a potential's tables, K) are read-only.
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
    "circulant",
    "is_hermitian",
    "kinetic_operator",
]

# Fock lattices: the largest sector, C(14, 7) = 3432 states, is a dense block (94 MiB real,
# 188 MiB complex), which `fock.propagate` steps and `fock.verify_operator_bounds` takes an SVD of
FOCK_MAX_SITES = 14


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _built_once(build):
    """A `Lattice` grid method: the array is built on the first call, kept on
    the frozen instance and returned read-only by every call."""
    key = "_" + build.__name__

    @functools.wraps(build)
    def grid(self):
        if key not in self.__dict__:
            self.__dict__[key] = _read_only(build(self))
        return self.__dict__[key]
    return grid


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

    @_built_once
    def sites(self) -> np.ndarray:
        """Site coordinates x_j, shape (site_count, ds)."""
        return self.site_indices() * self.spacing

    @_built_once
    def fft_indices(self) -> np.ndarray:
        """Integer k on the sites, shape (ds, site_count): the FFT frequency of `site_indices`,
        0, 1, ..., ceil(d/2)-1, -floor(d/2), ..., -1 along each axis."""
        return ((self.site_indices() + self.d // 2) % self.d - self.d // 2).T

    @_built_once
    def fft_momenta(self) -> np.ndarray:
        """p_k = (2 pi / l) k on `fft_indices`, shape (ds, site_count): row k of `fft`'s output
        is the coefficient of exp(i p_k . x)."""
        return self.fft_indices() * (2.0 * np.pi / self.length)

    @_built_once
    def momentum_squared(self) -> np.ndarray:
        """|p|^2 = sum_axis p_axis^2 on `fft_momenta`, shape (site_count,): K's symbol over
        hbar^2, so K's levels, its phases and the kinetic energy's Parseval weights."""
        return np.sum(self.fft_momenta() ** 2, axis=0)

    def fft(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """fftn (ifftn) of a site array, shape (site_count, ...), over its sites: the one-axis
        transform along each site axis of its (d,)*ds + ... view, last first, as fftn does."""
        grid = a.reshape((self.d,) * self.ds + a.shape[1:])
        for axis in range(self.ds - 1, -1, -1):
            grid = (np.fft.ifft if inverse else np.fft.fft)(grid, axis=axis)
        return grid.reshape(a.shape)


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
        """M Vhat(p_k) on `Lattice.fft_indices`, shape (site_count,): the real part of the
        `Lattice.fft` of the samples, refused unless finite and real."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            spectrum = self.lattice.fft(self.real_space)
        if not np.all(np.isfinite(spectrum)):
            raise ValueError("the Fourier transform of the samples overflows the floats")
        m = self.lattice.site_count  # |Im Vhat| within 1e-12 max(1, max |Vhat|)
        if np.max(np.abs(spectrum.imag)) > 1e-12 * max(m, np.max(np.abs(spectrum))):
            raise ValueError("Fourier coefficients of an even real potential must be real")
        return _read_only(spectrum.real)

    @functools.cached_property
    def pair_range(self) -> tuple:
        """[v-, v+] ∋ 0 holding spec `pair_matrix`, whose eigenvalues are `fourier`'s values."""
        return min(self.fourier.min(), 0.0), max(self.fourier.max(), 0.0)

    @functools.cached_property
    def pair_matrix(self) -> np.ndarray:
        """V(x_i - x_j) for every site pair, the circulant of the samples: built once
        per potential, exactly symmetric (the samples are even); the exchange term
        and the exact Hamiltonian read it."""
        return circulant(self.lattice, self.real_space)


def make_lattice(ds: int, d: int, length: float) -> Lattice:
    if ds not in (1, 2, 3):
        raise ValueError(f"spatial dimension must be 1, 2 or 3, got {ds}")
    if d < 2:
        raise ValueError(f"need at least 2 sites per dimension, got {d}")
    if length <= 0:
        raise ValueError(f"torus side must be positive, got {length}")
    return Lattice(ds=ds, d=int(d), length=float(length))


def is_hermitian(m: np.ndarray) -> bool:
    """m = m* to round-off: no entry of m - m* above 1e-12 max(1, max |m|)."""
    scale = max(1.0, np.max(np.abs(m), initial=0.0))
    return bool(np.max(np.abs(m - m.conj().T), initial=0.0) <= 1e-12 * scale)


def circulant(lattice: Lattice, samples: np.ndarray) -> np.ndarray:
    """The translation-invariant matrix c(x_i - x_j), shape (M, M): `samples`
    (c on the sites, row-major) at the periodic index difference (idx_i - idx_j) mod d."""
    flat = np.zeros((lattice.site_count,) * 2, dtype=np.int32)  # M <= 8192 sites
    for col in lattice.site_indices().T.astype(np.int32):  # row-major, axis by axis
        diff = np.subtract.outer(col, col)
        diff %= lattice.d
        flat *= lattice.d
        flat += diff
    return _read_only(samples[flat])


def _reflected(samples: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Site samples at -x: the row-major site of index (-j) mod d gathered for site j."""
    return samples[(-lattice.site_indices() % lattice.d) @ lattice.d ** np.arange(lattice.ds)[::-1]]


_GAUSSIAN_IMAGES = 2  # wrap 5 torus images per axis: m in {-2, ..., 2}
_EVENNESS_TOL = 1e-10  # max |V(x) - V(-x)| a table may have, relative to max(1, max |V|)


def _potential_from_samples(samples: np.ndarray, lattice: Lattice) -> Potential:
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (lattice.site_count,):
        raise ValueError(
            f"potential table must have {lattice.site_count} samples, "
            f"got shape {samples.shape}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("potential samples must be finite")
    reflected = _reflected(samples, lattice)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        defect = np.max(np.abs(samples - reflected))
        # evenized, so that V(x) and V(-x) are one float and `pair_matrix` is symmetric
        v = Potential(lattice=lattice, real_space=_read_only(0.5 * (samples + reflected)))
    if defect > _EVENNESS_TOL * max(1.0, np.max(np.abs(samples))):
        raise ValueError(f"potential violates evenness by {defect:.3e}")
    v.fourier  # the one transform of the samples, refused if not finite or not real
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


@functools.lru_cache(maxsize=2)  # trapped_slater's one-axis K and the run's K
def kinetic_operator(lattice: Lattice, hbar: float) -> np.ndarray:
    """-hbar^2 Laplacian, the circulant of the inverse `Lattice.fft` of hbar^2 |p|^2: real
    (|p|^2 is even), exactly symmetric (its kernel is evenized), PSD; cached and read-only."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    kernel = lattice.fft(hbar ** 2 * lattice.momentum_squared(), inverse=True).real
    return circulant(lattice, 0.5 * (kernel + _reflected(kernel, lattice)))
