"""Lattice conventions, potentials, and the elementary operators."""

import ast
import dataclasses
import glob
import os

import numpy as np
import pytest

from fermiflow.model import (Lattice, Potential, build_potential, default_hbar,
                             kinetic_operator, make_lattice)

from _oracles import (assumption_weight, circulant_gather, fourier, fourier_matrix, momenta,
                      momentum_indices, momentum_operator, phase_operator)


def test_lattice_sites_and_momenta_1d():
    lat = make_lattice(1, 8, 1.0)
    assert np.allclose(lat.sites()[:, 0], np.arange(8) / 8.0)
    assert np.allclose(momentum_indices(lat)[:, 0], np.arange(-4, 4))
    assert np.allclose(momenta(lat)[:, 0], 2.0 * np.pi * np.arange(-4, 4))


def test_lattice_two_site_torus():
    lat = make_lattice(1, 2, 2.0)
    assert lat.spacing == 1.0
    assert np.allclose(sorted(momenta(lat)[:, 0]), [-np.pi, 0.0])


def test_lattice_3d_site_count():
    assert make_lattice(3, 4, 1.0).site_count == 64


def test_lattice_cell_volume():
    assert make_lattice(3, 4, 1.0).cell == 0.25 ** 3
    assert make_lattice(1, 8, 2.0).cell == 0.25


def test_lattice_validation():
    with pytest.raises(ValueError):
        make_lattice(4, 8, 1.0)
    with pytest.raises(ValueError):
        make_lattice(1, 1, 1.0)
    with pytest.raises(ValueError):
        make_lattice(1, 8, -1.0)


def test_default_hbar():
    assert default_hbar(8, 1) == pytest.approx(1 / 8)
    assert default_hbar(8, 3) == pytest.approx(8 ** (-1 / 3))
    assert isinstance(default_hbar(8, 2), float)


def test_potential_stores_only_its_lattice_and_samples():
    assert [f.name for f in dataclasses.fields(Potential)] == ["lattice", "real_space"]


def test_zero_potential():
    lat = make_lattice(1, 8, 1.0)
    v = build_potential({"shape": "zero"}, lat)
    assert np.all(fourier(v) == 0)
    assert assumption_weight(v) == 0.0


def test_cosine_potential_single_mode():
    lat = make_lattice(1, 8, 1.0)
    v = build_potential({"shape": "cosine", "strength": 1.0, "mode": 1}, lat)
    k = momentum_indices(lat)[:, 0]
    expected = np.where(np.abs(k) == 1, 0.5, 0.0)
    assert np.allclose(fourier(v).real, expected, atol=1e-14)
    assert np.max(np.abs(fourier(v).imag)) < 1e-14
    assert assumption_weight(v) == pytest.approx((1 + 2 * np.pi) ** 2, rel=1e-12)


def test_gaussian_potential_against_direct_sum_oracle():
    lat = make_lattice(1, 64, 1.0)
    v = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    # independent oracle: direct DFT sum over the momentum grid
    x = lat.sites()[:, 0]
    p = momenta(lat)[:, 0]
    vhat = np.array([np.sum(v.real_space * np.exp(-1j * pk * x)) / lat.site_count
                     for pk in p])
    assert np.max(np.abs(fourier(v) - vhat)) < 1e-12
    weight = np.sum((1.0 + np.abs(p)) ** 2 * np.abs(vhat))
    assert assumption_weight(v) == pytest.approx(weight, rel=1e-10)
    assert np.isfinite(assumption_weight(v))


_SHAPES = [{"shape": "gaussian", "strength": 1.3, "sigma": 0.2},
           {"shape": "cosine", "strength": 0.7, "mode": 2}]


@pytest.mark.parametrize("spec", _SHAPES)
@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (2, 5), (2, 6), (3, 4), (3, 5)])
def test_potential_fourier_is_the_fftn_table_on_the_fft_indices(spec, ds, d):
    lat = make_lattice(ds, d, 1.3)
    v = build_potential(spec, lat)
    ascending = {tuple(k): i for i, k in enumerate(momentum_indices(lat))}
    order = [ascending[tuple(k)] for k in lat.fft_indices().T]
    want = lat.site_count * fourier(v)[order]
    assert v.fourier.shape == (lat.site_count,) and v.fourier.dtype == np.float64
    assert np.max(np.abs(v.fourier - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("spec", _SHAPES)
@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (2, 5), (2, 6), (3, 4), (3, 5)])
def test_plane_waves_are_eigenvectors_of_the_pair_matrix(spec, ds, d):
    # pair_matrix e^{i p_k.x} = fourier[k] e^{i p_k.x}: `fourier` holds the eigenvalues that
    # `pair_range`, and with it the Hartree-Fock generator's interval, rests on
    lat = make_lattice(ds, d, 1.3)
    v = build_potential(spec, lat)
    waves = np.exp(1j * (lat.sites() @ lat.fft_momenta()))  # column k: the wave of p_k
    tol = 1e-12 * lat.site_count * np.max(np.abs(v.real_space))
    assert np.max(np.abs(v.pair_matrix @ waves - waves * v.fourier)) <= tol


def test_odd_potential_rejected():
    lat = make_lattice(1, 8, 1.0)
    samples = np.sin(2 * np.pi * lat.sites()[:, 0])
    with pytest.raises(ValueError, match="evenness"):
        build_potential({"shape": "table", "samples": samples}, lat)


def _reflected(samples, lat):
    """Samples at -x: index j -> (-j) mod d along every axis."""
    grid = samples.reshape((lat.d,) * lat.ds)
    return grid[np.ix_(*[(-np.arange(lat.d)) % lat.d] * lat.ds)].ravel()


@pytest.mark.parametrize("spec", [{"shape": "gaussian", "strength": 1.3, "sigma": 0.2},
                                  {"shape": "cosine", "strength": 0.7, "mode": 3}])
@pytest.mark.parametrize("ds,d", [(1, 9), (1, 64), (3, 4)])
def test_pair_matrix_exactly_symmetric(spec, ds, d):
    v = build_potential(spec, make_lattice(ds, d, 1.0))
    assert np.array_equal(v.real_space, _reflected(v.real_space, v.lattice))
    assert np.array_equal(v.pair_matrix, v.pair_matrix.T)


def test_table_with_a_round_off_odd_part_is_evenized():
    lat = make_lattice(1, 16, 1.0)
    even = np.cos(2 * np.pi * lat.sites()[:, 0])
    odd = 1e-11 * np.sin(2 * np.pi * lat.sites()[:, 0])
    v = build_potential({"shape": "table", "samples": even + odd}, lat)
    assert np.array_equal(v.real_space, _reflected(v.real_space, lat))
    assert np.max(np.abs(v.real_space - even)) <= 1e-11
    assert np.array_equal(v.pair_matrix, v.pair_matrix.T)
    with pytest.raises(ValueError, match="evenness"):
        build_potential({"shape": "table", "samples": even + 100 * odd}, lat)


@pytest.mark.parametrize("spec", [{"shape": "cosine", "mode": 3},
                                  {"shape": "gaussian", "sigma": 0.2}])
@pytest.mark.parametrize("ds,d", [(1, 64), (3, 8)])
def test_evenness_is_judged_relative_to_the_potential_size(spec, ds, d):
    # the round-off of a strong, exactly even shape is no odd part
    lat = make_lattice(ds, d, 1.0)
    for strength in (1e5, 1e8, 1e12):
        v = build_potential(dict(spec, strength=strength), lat)
        assert np.array_equal(v.real_space, _reflected(v.real_space, lat))
    # an odd part of 1e-9 relative to max |V| is still one
    even = 1e6 * np.cos(2 * np.pi * lat.sites()[:, 0])
    odd = 1e-3 * np.sin(2 * np.pi * lat.sites()[:, 0])
    with pytest.raises(ValueError, match="evenness"):
        build_potential({"shape": "table", "samples": even + odd}, lat)


@pytest.mark.parametrize("ds,d", [(1, 9), (2, 6), (3, 4), (3, 8)])
def test_circulants_equal_the_index_difference_gather(ds, d):
    # the per-axis int32 flat index against the (M, M, ds) gather, entry by entry
    lat = make_lattice(ds, d, 1.3)
    v = build_potential({"shape": "gaussian", "strength": 1.3, "sigma": 0.2}, lat)
    assert np.array_equal(v.pair_matrix, circulant_gather(lat, v.real_space))
    k = kinetic_operator(lat, 0.7)
    assert np.array_equal(k, circulant_gather(lat, np.ascontiguousarray(k[:, 0])))
    # samples that are not even: the gather's index order, not only its symmetry
    ramp = np.arange(lat.site_count, dtype=float)
    assert np.array_equal(circulant_gather(lat, ramp)[:, 0], ramp)
    assert np.array_equal(Potential(lat, ramp).pair_matrix, circulant_gather(lat, ramp))


@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (2, 6), (3, 4), (3, 8)])
def test_kinetic_operator_real_symmetric(ds, d):
    lat = make_lattice(ds, d, 1.3)
    k = kinetic_operator(lat, 0.7)
    assert k.dtype == np.float64
    assert np.array_equal(k, k.T)
    f = fourier_matrix(lat)
    oracle = f.conj().T @ np.diag(0.7 ** 2 * np.sum(momenta(lat) ** 2, axis=1)) @ f
    assert np.max(np.abs(k - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    # its levels are its symbol hbar^2 |p|^2, from which the exponentials read their intervals
    levels = np.sort(0.7 ** 2 * lat.momentum_squared(), None)
    assert np.max(np.abs(levels - np.linalg.eigvalsh(k))) <= 1e-12 * levels[-1]


@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (2, 5), (3, 4)])
def test_kinetic_plane_waves_are_eigenvectors(ds, d):
    # e^{ip.x} is an eigenvector of -hbar^2 Lap with eigenvalue hbar^2 |p|^2
    lat = make_lattice(ds, d, 1.3)
    hbar = 0.7
    k = kinetic_operator(lat, hbar)
    waves = np.exp(1j * lat.sites() @ momenta(lat).T)  # one plane wave per column
    eig = hbar ** 2 * np.sum(momenta(lat) ** 2, axis=1)
    assert np.max(np.abs(k @ waves - waves * eig)) <= 1e-12 * np.max(eig)


@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (2, 5), (3, 4)])
def test_fft_momenta_reorder_the_momenta(ds, d):
    lat = make_lattice(ds, d, 1.3)
    p = lat.fft_momenta()
    # flat, row-major over the sites like `sites()`: one table per axis
    assert p.shape == (ds, d ** ds)
    # grid point n carries the momentum of fftn's frequency n: fftfreq order
    freq = np.fft.fftfreq(d, 1.0 / d)
    for ax in range(ds):
        along = [1] * ds
        along[ax] = d
        expected = np.broadcast_to((2.0 * np.pi / lat.length) * freq.reshape(along), (d,) * ds)
        assert np.array_equal(p[ax], expected.ravel())
    rows = p.reshape(ds, -1).T
    assert sorted(map(tuple, rows)) == sorted(map(tuple, momenta(lat)))
    k = lat.fft_indices()
    assert k.dtype.kind == "i" and np.array_equal(p, k * (2.0 * np.pi / lat.length))
    assert sorted(map(tuple, k.reshape(ds, -1).T)) == sorted(map(tuple, momentum_indices(lat)))
    # both layouts share one index: Lattice.fft takes the plane wave exp(i x . p_k) to M at row k
    m = lat.site_count
    spectra = lat.fft(np.exp(1j * (lat.sites() @ p)))  # column k: the wave of p_k
    assert np.max(np.abs(spectra - m * np.eye(m))) <= 1e-12 * m


def test_only_the_lattice_transforms_the_site_grid():
    # np.fft is reached only by `Lattice.fft` and the sweeps that are no site-grid DFT (the
    # Chebyshev coefficients and the phase-space transforms), and no module but `model`
    # views a site array as its (d,)*ds grid
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = sorted(glob.glob(os.path.join(src, "fermiflow", "*.py")))
    assert os.path.join(src, "fermiflow", "model.py") in paths
    fft_users, grid_views = set(), []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "fft"
                    and isinstance(child.value, ast.Name) and child.value.id == "np") or (
                    isinstance(child, (ast.Import, ast.ImportFrom))
                    and "fft" in ast.unparse(child)):
                fft_users.add((module, owner))
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult)
                    and isinstance(child.left, (ast.Tuple, ast.List)) and len(child.left.elts) == 1
                    and ast.unparse(child.left.elts[0]).split(".")[-1] == "d"
                    and ast.unparse(child.right).split(".")[-1] == "ds" and module != "model"):
                grid_views.append(f"{module}:{child.lineno} {ast.unparse(child)}")
            visit(child, module, owner)

    for path in paths:
        with open(path) as fh:
            visit(ast.parse(fh.read(), path), os.path.basename(path)[:-3], None)
    transforms = {("model", "Lattice.fft")}
    sweeps = {("meanfield", "_chebyshev_coefficients"), ("semiclassics", "wigner"),
              ("semiclassics", "vlasov_step")}
    assert transforms <= fft_users <= transforms | sweeps, fft_users
    assert grid_views == []


@pytest.mark.parametrize("ds,d", [(1, 8), (1, 9), (3, 4)])
def test_lattice_grids_are_built_once_and_read_only(ds, d):
    lat = make_lattice(ds, d, 1.3)
    for grid in (lat.sites, lat.fft_indices, lat.fft_momenta, lat.momentum_squared):
        assert grid() is grid()
        assert not grid().flags.writeable
        with pytest.raises(ValueError):
            grid()[...] = 0
    # the cache is no field: equal lattices stay equal and hash alike
    fresh = make_lattice(ds, d, 1.3)
    assert fresh == lat and hash(fresh) == hash(lat)


def test_cached_tables_are_read_only():
    lat = make_lattice(2, 6, 1.1)
    v = build_potential({"shape": "gaussian", "strength": 1.3, "sigma": 0.2}, lat)
    k = kinetic_operator(lat, 0.61)
    assert kinetic_operator(lat, 0.61) is k
    assert lat.momentum_squared() is lat.momentum_squared()
    for table in (v.real_space, v.pair_matrix, v.fourier, k, lat.momentum_squared()):
        with pytest.raises(ValueError):
            table[...] = 0


def test_kinetic_operator_cache_keeps_two_entries():
    # one entry for trapped_slater's one-axis K and one for the run's K: a
    # sweep over hbar keeps two M x M tables alive, not one per hbar
    lat = make_lattice(2, 6, 1.1)
    for hbar in (0.3, 0.4, 0.5):
        k = kinetic_operator(lat, hbar)
    assert kinetic_operator.cache_info().currsize <= 2
    assert kinetic_operator(lat, 0.5) is k


def test_fourier_matrix_unitary():
    lat = make_lattice(1, 12, 2.0)
    f = fourier_matrix(lat)
    assert np.max(np.abs(f @ f.conj().T - np.eye(12))) < 1e-12


def test_kinetic_two_mode_spectrum():
    lat = make_lattice(1, 2, 2.0)
    eig = np.linalg.eigvalsh(kinetic_operator(lat, 1.0))
    assert np.allclose(sorted(eig), [0.0, np.pi ** 2], atol=1e-12)


def test_kinetic_commutes_with_momentum():
    lat = make_lattice(1, 10, 1.5)
    h = kinetic_operator(lat, 0.7)
    g = momentum_operator(lat, 0.7)
    scale = np.linalg.norm(h, 2) * np.linalg.norm(g, 2)
    assert np.max(np.abs(h @ g - g @ h)) < 1e-12 * scale


def test_kinetic_trace_matches_momentum_sum():
    lat = make_lattice(1, 8, 1.0)
    hbar = 0.5
    expected = hbar ** 2 * np.sum(momenta(lat) ** 2)
    assert np.trace(kinetic_operator(lat, hbar)).real == pytest.approx(expected)


def test_momentum_operator_anti_hermitian():
    lat = make_lattice(2, 5, 1.0)
    for ax in range(2):
        g = momentum_operator(lat, 0.3, ax)
        assert np.max(np.abs(g + g.conj().T)) < 1e-12


def test_momentum_two_mode_spectrum():
    lat = make_lattice(1, 2, 2.0)
    eig = np.linalg.eigvals(momentum_operator(lat, 1.0))
    assert sorted(eig.imag) == pytest.approx([-np.pi, 0.0], abs=1e-12)
    assert np.max(np.abs(eig.real)) < 1e-12


def test_momentum_plane_wave_eigenvector():
    lat = make_lattice(1, 8, 1.0)
    hbar = 0.25
    pk = momenta(lat)[5, 0]
    wave = np.exp(1j * pk * lat.sites()[:, 0])
    g = momentum_operator(lat, hbar)
    assert np.max(np.abs(g @ wave - 1j * hbar * pk * wave)) < 1e-12


def test_phase_operator_identity_and_unitarity():
    lat = make_lattice(1, 8, 1.0)
    assert np.allclose(phase_operator(lat, 0.0), np.eye(8))
    e = phase_operator(lat, 1.234)
    assert np.max(np.abs(e @ e.conj().T - np.eye(8))) < 1e-14


def test_phase_operator_momentum_shift():
    lat = make_lattice(1, 8, 1.0)
    r = 2.0 * np.pi / lat.length  # one momentum step
    f = fourier_matrix(lat)
    shift = f @ phase_operator(lat, r) @ f.conj().T
    # e^{ir.x} maps the plane wave p to p + r: one cyclic step in our k order
    expected = np.zeros((8, 8))
    for k in range(7):
        expected[k + 1, k] = 1.0
    expected[0, 7] = 1.0  # top momentum wraps around the grid
    assert np.max(np.abs(shift - expected)) < 1e-12
