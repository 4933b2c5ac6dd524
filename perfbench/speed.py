"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to ~1.8x slower in phases that last
from seconds to minutes (a fixed 64x64 `eigh` loop measured 0.07-0.11 s per
block across 20 s windows, a 29% quartile spread). That drift is far larger
than the bounds a regression check needs, and it hits this kernel and the
workloads alike: scaling each run by the kernel's time measured next to it
cut the quartile spread of 20 s window medians from 26% to 3% (hf1d), 28%
to 4% (fluct1d) and 23% to 5% (vlasov1d).

A timing t measured next to a calibration time c is reported as
t * REFERENCE_S / c: the time the run would take on a machine where the
kernel takes REFERENCE_S. The raw wall times are printed and kept too.

Runs of large dense kernels are the exception. hf3d (M=512 SVDs and
`eigh`, 18 s per run) is steady unscaled (6% spread over 11 runs) and is
slowed less than this small kernel, so scaling its runs widened the spread
to 30%; its runs are reported unscaled (see workloads.UNSCALED_RUNS).
"""

import time

# Roughly the kernel's time on a quiet core of a 2-vCPU Xeon with OpenBLAS
# and two BLAS threads; any fixed value works, since only ratios of runs
# made with the same benchmark code are compared.
REFERENCE_S = 0.05


def calibrate():
    """Seconds for a fixed small dense kernel: 60 Hermitian eigendecompositions
    of one 64x64 complex matrix, the size and the BLAS/LAPACK path of a ds=1
    mean-field step."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    a = a + a.conj().T
    for _ in range(5):  # untimed: a fresh process starts its BLAS threads here
        np.linalg.eigh(a)
    t0 = time.perf_counter()
    for _ in range(60):
        np.linalg.eigh(a)
    return time.perf_counter() - t0


def scaled(seconds, calibration_s):
    return seconds * REFERENCE_S / calibration_s
