"""Initial density matrices and semiclassical diagnostics of states."""

import re
import time
import tracemalloc

import numpy as np
import pytest

from fermiflow.diagnostics import default_probe_momenta, semiclassical_constant
from fermiflow.initial_data import (DegenerateFermiLevel, fermi_ball_indices,
                                    plane_wave_projection, trapped_slater)
from fermiflow.model import default_hbar, make_lattice

from _oracles import (dense, dense_slater, momenta, momentum_indices, momentum_operator,
                      phase_operator, spectral_form, weyl_quantize)


def svd_trace_norm(a):
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def test_fermi_ball_indices_order():
    lat = make_lattice(1, 8, 1.0)
    k = fermi_ball_indices(lat, 3)[:, 0]
    assert set(k) == {-1, 0, 1}


@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (2, 6), (3, 4), (3, 5)])
def test_fermi_ball_sorts_the_ascending_enumeration_by_p2_then_k(ds, d):
    # (|p|^2, k) is a total order: the ball read from the FFT-order grid is
    # that of the ascending enumeration, its set and its order alike
    lat = make_lattice(ds, d, 1.3)
    k = momentum_indices(lat)
    p2 = np.sum(momenta(lat) ** 2, axis=1)
    order = sorted(range(lat.site_count), key=lambda i: (p2[i], tuple(k[i])))
    for n in (1, lat.site_count // 2, lat.site_count):
        assert np.array_equal(fermi_ball_indices(lat, n), k[order[:n]])


def test_plane_wave_projection_basics():
    lat = make_lattice(1, 8, 1.0)
    om = plane_wave_projection(lat, np.array([[-1], [0], [1]]))
    assert np.trace(dense(om)).real == pytest.approx(3.0, abs=1e-12)
    assert om.idempotency_defect() < 1e-14
    # commutes with the momentum operator exactly (both diagonal in p)
    g = momentum_operator(lat, 0.5)
    assert np.max(np.abs(g @ dense(om) - dense(om) @ g)) < 1e-13


def test_plane_wave_projection_rejects_duplicates():
    lat = make_lattice(1, 8, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        plane_wave_projection(lat, np.array([[0], [0]]))


def test_plane_wave_projection_refuses_a_malformed_index_array():
    # two momenta passed as columns, shape (ds, 2), are no rows to reshape
    lat = make_lattice(3, 4, 1.0)
    rows = np.array([[0, 1, 0], [1, 0, -1]])
    for bad in (rows.T, rows[None], np.zeros((4, 2), dtype=int)):
        with pytest.raises(ValueError, match=rf"shape \(n, 3\), got {re.escape(str(bad.shape))}"):
            plane_wave_projection(lat, bad)
    # a 1-D sequence is read as consecutive rows
    assert np.array_equal(plane_wave_projection(lat, rows.ravel()).orbitals,
                          plane_wave_projection(lat, rows).orbitals)


def test_phase_commutator_counts_symmetric_difference():
    # |[e^{ir.x}, omega]| projects onto the symmetric difference of the
    # occupied momentum set and its shift, so the trace norm counts modes:
    # {-1,0,1} shifted by one step is {0,1,2}, symmetric difference size 2.
    lat = make_lattice(1, 8, 1.0)
    om = plane_wave_projection(lat, np.array([[-1], [0], [1]]))
    e = phase_operator(lat, 2.0 * np.pi / lat.length)
    assert svd_trace_norm(e @ dense(om) - dense(om) @ e) == pytest.approx(2.0, abs=1e-10)


def test_trapped_slater_free_case_matches_plane_waves():
    lat = make_lattice(1, 8, 1.0)
    om = trapped_slater(lat, 0.5, 0.0, 3)
    ball = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    assert np.max(np.abs(dense(om) - dense(ball))) < 1e-10


def test_trapped_slater_refuses_degenerate_fermi_level():
    # the +-(2 pi / l) pair is degenerate, so n=2 has no canonical filling
    lat = make_lattice(1, 8, 1.0)
    with pytest.raises(DegenerateFermiLevel):
        trapped_slater(lat, 0.5, 0.0, 2)
    # the twofold first excited shell of a strong ds=2 trap: levels (0, 1) and
    # (1, 0) are the same sum of one-axis levels, a gap of exactly 0
    lat = make_lattice(2, 8, 1.0)
    with pytest.raises(DegenerateFermiLevel):
        trapped_slater(lat, 0.5, 1e8, 2)


def test_trapped_slater_harmonic_concentration():
    # trap 200*dist^2 keeps the 4th level (~25) well below the rim (~50);
    # with a 50*dist^2 trap the Fermi level would sit at the rim and leak
    lat = make_lattice(1, 64, 1.0)
    om = trapped_slater(lat, 0.25, 200.0, 4)
    assert np.trace(dense(om)).real == pytest.approx(4.0, abs=1e-10)
    assert om.idempotency_defect() < 1e-10
    density = np.real(np.diag(dense(om)))
    assert density[0] < 1e-3 * density.max()  # torus edge vs trap center


@pytest.mark.parametrize("ds,d,n", [(1, 64, 8), (3, 4, 4)])
def test_trapped_slater_real_trap_gives_real_orbitals(ds, d, n):
    # -hbar^2 Lap + V_ext is a real symmetric matrix: a real eigh, real orbitals
    lat = make_lattice(ds, d, 1.0)
    om = trapped_slater(lat, 0.5, 50.0, n)
    assert om.orbitals.dtype == np.float64
    om.validate()


def site_trap(lat, strength):
    """strength * |x - l/2|^2 summed over axes on every site: sites lie in
    [0, l), so this is the torus distance to the centre."""
    return strength * np.sum((lat.sites() - 0.5 * lat.length) ** 2, axis=1)


@pytest.mark.parametrize("ds,d,n,strength", [
    (1, 64, 8, 50.0), (1, 32, 4, 200.0), (1, 9, 3, 5.0),
    (2, 8, 6, 10.0), (2, 6, 3, 50.0),
    (3, 8, 10, 50.0), (3, 6, 4, 20.0), (3, 5, 7, 1.0),
])
def test_trapped_slater_matches_the_dense_construction(ds, d, n, strength):
    # products of one-axis eigenvectors span the same space as the n lowest
    # eigenvectors of the M x M -hbar^2 Lap + V_ext; at ds=1 it is one eigh
    lat = make_lattice(ds, d, 1.0)
    hbar = default_hbar(n, ds)
    om = trapped_slater(lat, hbar, strength, n)
    oracle = dense_slater(lat, hbar, site_trap(lat, strength), n)
    assert np.max(np.abs(dense(om) - dense(oracle))) <= 1e-12
    assert om.orbitals.dtype == np.float64 and om.orbitals.flags.c_contiguous
    if ds == 1:
        assert np.array_equal(om.orbitals, oracle.orbitals)


def test_trapped_slater_at_the_papers_size_without_an_m_by_m_array():
    # ds=3, d=16 (M=4096): one M x M float64 is 128 MiB.  Trap 50 closes
    # shells at N=50 and 63 and leaves N=56 and 64 inside degenerate ones
    lat = make_lattice(3, 16, 1.0)
    for n in (50, 63):
        tracemalloc.start()
        start = time.perf_counter()
        om = trapped_slater(lat, default_hbar(n, 3), 50.0, n)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert om.orbitals.shape == (4096, n)
        assert elapsed < 1.0 and peak < 16 * 2 ** 20, (n, elapsed, peak)
    for n in (56, 64):
        with pytest.raises(DegenerateFermiLevel):
            trapped_slater(lat, default_hbar(n, 3), 50.0, n)


def test_weyl_quantize_constant_symbol():
    # hbar = 1/3 makes the phase sum over the momentum grid cancel at every
    # nonzero site separation (3 is coprime to d=16)
    lat = make_lattice(1, 16, 1.0)
    om = weyl_quantize(np.ones((16, 16)), lat, 1.0 / 3.0)
    off = dense(om) - np.diag(np.diag(dense(om)))
    assert np.max(np.abs(off)) < 1e-10
    diag = np.diag(dense(om)).real
    assert np.max(np.abs(diag - diag[0])) < 1e-10


def test_weyl_quantize_hermitian_for_real_symbol():
    rng = np.random.default_rng(1)
    lat = make_lattice(1, 8, 1.0)
    om = weyl_quantize(rng.normal(size=(8, 8)), lat, 0.5)
    assert np.max(np.abs(dense(om) - dense(om).conj().T)) < 1e-12


def test_weyl_quantize_momentum_ball_matches_projection():
    lat = make_lattice(1, 128, 1.0)
    hbar = 1.0
    c = 9.0 * np.pi  # strictly between the 4th and 5th momentum shells
    p = momenta(lat)[:, 0]
    sym = np.repeat((np.abs(p) <= c / hbar)[:, None] * 1.0, 128, axis=1)
    om = weyl_quantize(sym, lat, hbar)
    k_ball = momentum_indices(lat)[np.abs(p) <= c, :]
    ball = plane_wave_projection(lat, k_ball)
    assert np.linalg.norm(dense(om) - dense(ball), 2) <= 0.05


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
    assert svd_trace_norm(e @ dense(om) - dense(om) @ e) == 0.0
    probes = default_probe_momenta(lat, 4)
    assert not np.any(np.all(probes == 0.0, axis=1))
