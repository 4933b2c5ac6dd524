"""Initial density matrices and semiclassical diagnostics of states."""

import numpy as np
import pytest

from fermiflow.diagnostics import (default_probe_momenta, semiclassical_constant,
                                   spectral_form)
from fermiflow.initial_data import (DegenerateFermiLevel,
                                    ball_fourier_profile, fermi_ball_indices,
                                    kernel_ansatz, plane_wave_projection,
                                    trapped_slater, weyl_quantize)
from fermiflow.model import make_lattice, momentum_operator, phase_operator


def svd_trace_norm(a):
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def harmonic(lat, strength):
    x = lat.sites() - 0.5 * lat.length
    x -= lat.length * np.round(x / lat.length)
    return strength * np.sum(x ** 2, axis=1)


def test_fermi_ball_indices_order():
    lat = make_lattice(1, 8, 1.0)
    k = fermi_ball_indices(lat, 3)[:, 0]
    assert set(k) == {-1, 0, 1}


def test_plane_wave_projection_basics():
    lat = make_lattice(1, 8, 1.0)
    om = plane_wave_projection(lat, np.array([[-1], [0], [1]]))
    assert np.trace(om.matrix).real == pytest.approx(3.0, abs=1e-12)
    assert om.idempotency_defect() < 1e-14
    # commutes with the momentum operator exactly (both diagonal in p)
    g = momentum_operator(lat, 0.5)
    assert np.max(np.abs(g @ om.matrix - om.matrix @ g)) < 1e-13


def test_plane_wave_projection_rejects_duplicates():
    lat = make_lattice(1, 8, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        plane_wave_projection(lat, np.array([[0], [0]]))


def test_phase_commutator_counts_symmetric_difference():
    # |[e^{ir.x}, omega]| projects onto the symmetric difference of the
    # occupied momentum set and its shift, so the trace norm counts modes:
    # {-1,0,1} shifted by one step is {0,1,2}, symmetric difference size 2.
    lat = make_lattice(1, 8, 1.0)
    om = plane_wave_projection(lat, np.array([[-1], [0], [1]]))
    e = phase_operator(lat, 2.0 * np.pi / lat.length)
    assert svd_trace_norm(e @ om.matrix - om.matrix @ e) == pytest.approx(2.0, abs=1e-10)


def test_trapped_slater_free_case_matches_plane_waves():
    lat = make_lattice(1, 8, 1.0)
    om = trapped_slater(lat, 0.5, np.zeros(8), 3)
    ball = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    assert np.max(np.abs(om.matrix - ball.matrix)) < 1e-10


def test_trapped_slater_refuses_degenerate_fermi_level():
    # the +-(2 pi / l) pair is degenerate, so n=2 has no canonical filling
    lat = make_lattice(1, 8, 1.0)
    with pytest.raises(DegenerateFermiLevel):
        trapped_slater(lat, 0.5, np.zeros(8), 2)


def test_trapped_slater_harmonic_concentration():
    # trap 200*dist^2 keeps the 4th level (~25) well below the rim (~50);
    # with a 50*dist^2 trap the Fermi level would sit at the rim and leak
    lat = make_lattice(1, 64, 1.0)
    om = trapped_slater(lat, 0.25, harmonic(lat, 200.0), 4)
    assert np.trace(om.matrix).real == pytest.approx(4.0, abs=1e-10)
    assert om.idempotency_defect() < 1e-10
    density = np.real(np.diag(om.matrix))
    assert density[0] < 1e-3 * density.max()  # torus edge vs trap center


def test_weyl_quantize_constant_symbol():
    # hbar = 1/3 makes the phase sum over the momentum grid cancel at every
    # nonzero site separation (3 is coprime to d=16)
    lat = make_lattice(1, 16, 1.0)
    om = weyl_quantize(np.ones((16, 16)), lat, 1.0 / 3.0)
    off = om.matrix - np.diag(np.diag(om.matrix))
    assert np.max(np.abs(off)) < 1e-10
    diag = np.diag(om.matrix).real
    assert np.max(np.abs(diag - diag[0])) < 1e-10


def test_weyl_quantize_hermitian_for_real_symbol():
    rng = np.random.default_rng(1)
    lat = make_lattice(1, 8, 1.0)
    om = weyl_quantize(rng.normal(size=(8, 8)), lat, 0.5)
    assert np.max(np.abs(om.matrix - om.matrix.conj().T)) < 1e-12


def test_weyl_quantize_momentum_ball_matches_projection():
    lat = make_lattice(1, 128, 1.0)
    hbar = 1.0
    c = 9.0 * np.pi  # strictly between the 4th and 5th momentum shells
    p = lat.momenta()[:, 0]
    sym = np.repeat((np.abs(p) <= c / hbar)[:, None] * 1.0, 128, axis=1)
    om = weyl_quantize(sym, lat, hbar)
    k_ball = lat.momentum_indices()[np.abs(p) <= c, :]
    ball = plane_wave_projection(lat, k_ball)
    assert np.linalg.norm(om.matrix - ball.matrix, 2) <= 0.05


def test_kernel_ansatz_constant_envelope_near_ball():
    lat = make_lattice(1, 128, 1.0)
    n = 9
    hbar = 1.0 / n
    radius = np.pi  # = pi * hbar * n / l, trace works out to n
    chi = np.full(128, 1.0 / (2.0 * np.pi))
    dm, defect = kernel_ansatz(chi, radius, lat, hbar)
    assert np.trace(dm.matrix).real == pytest.approx(n, rel=1e-6)
    ball = plane_wave_projection(lat, fermi_ball_indices(lat, n))
    assert np.linalg.norm(dm.matrix - ball.matrix, 2) <= 0.1
    assert defect >= 0.0


def test_kernel_ansatz_zero_envelope():
    lat = make_lattice(1, 16, 1.0)
    dm, defect = kernel_ansatz(np.zeros(16), 1.0, lat, 0.25)
    assert np.all(dm.matrix == 0)
    assert defect == 0.0


def test_ball_profile_3d_small_argument_limit():
    c = 1.7
    # Taylor oracle: 4 pi / xi^2 (sin(c xi)/xi - c cos(c xi)) -> 4 pi c^3 / 3
    xi = np.array([1e-3])
    taylor = 4 * np.pi * (c ** 3 / 3 - c ** 5 * xi ** 2 / 30)
    val = ball_fourier_profile(xi, c, 3)
    assert val[0] == pytest.approx(taylor[0], rel=1e-5)
    assert ball_fourier_profile(np.array([0.0]), c, 3)[0] == pytest.approx(
        4 * np.pi * c ** 3 / 3)


def test_semiclassical_constant_plane_wave_ball():
    lat = make_lattice(1, 16, 1.0)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    rep = semiclassical_constant(om, lat, 1.0 / 3.0)
    assert rep.c_momentum == pytest.approx(0.0, abs=1e-12)
    assert rep.c_phase > 0.0


def test_semiclassical_constant_flags_localized_state():
    lat = make_lattice(1, 64, 1.0)
    n, hbar = 8, 1.0 / 8.0
    ball = plane_wave_projection(lat, fermi_ball_indices(lat, n))
    local = np.zeros((64, 64), dtype=complex)
    local[np.arange(n), np.arange(n)] = 1.0
    from fermiflow.initial_data import DensityMatrix

    localized = DensityMatrix(*spectral_form(local)[:2])
    rep_ball = semiclassical_constant(ball, lat, hbar)
    rep_local = semiclassical_constant(localized, lat, hbar)
    # a position-localized projection commutes with every phase operator, so
    # the momentum commutator is what flags it as non-semiclassical
    assert rep_local.c_momentum > 10.0
    assert rep_local.c_momentum > 10.0 * rep_ball.c_phase


def test_zero_momentum_probe_contributes_nothing():
    lat = make_lattice(1, 16, 1.0)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    e = phase_operator(lat, 0.0)
    assert svd_trace_norm(e @ om.matrix - om.matrix @ e) == 0.0
    probes = default_probe_momenta(lat, 4)
    assert not np.any(np.all(probes == 0.0, axis=1))
