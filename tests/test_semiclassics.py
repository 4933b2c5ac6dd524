"""Discrete Wigner transform, the semi-Lagrangian Vlasov solver and the
semiclassics scenario that compares them."""

import json

import numpy as np
import pytest

from fermiflow.initial_data import (DensityMatrix, fermi_ball_indices,
                                    plane_wave_projection, trapped_slater)
from fermiflow.model import build_potential, default_hbar, make_lattice
from fermiflow.runner import parse_config, run
from fermiflow import semiclassics
from fermiflow.semiclassics import momentum_grid, vlasov_step, wigner

from _oracles import (_full_fft_force, circulant_gather, cos_sin_phases, count_fft_calls,
                      dense, dense_wigner, full_fft_vlasov_step, orbital_wigner,
                      spectral_form)


def test_wigner_translation_invariant_state():
    lat = make_lattice(1, 16, 1.0)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    w = wigner(om, lat)
    assert np.max(np.abs(w - w[0])) < 1e-10  # x-independent
    assert np.sum(w) / 16 == pytest.approx(3.0, abs=1e-10)


def test_wigner_identity_state_momentum_profile():
    # the identity matrix is x-independent; in the even-offset convention its
    # momentum profile alternates 2, 0 (the m = 0 and m = d/2 kernel slices
    # both hit the diagonal), so adjacent momentum bins sum to the flat value 2
    lat = make_lattice(1, 8, 1.0)
    om = DensityMatrix(*spectral_form(np.eye(8, dtype=complex))[:2])
    w = wigner(om, lat)
    assert np.max(np.abs(w - w[:1, :])) < 1e-12  # x-independent
    pair_sums = w[:, ::2] + w[:, 1::2]
    assert np.max(np.abs(pair_sums - 2.0)) < 1e-12
    assert np.sum(w) / 8 == pytest.approx(8.0, abs=1e-10)


def test_wigner_sum_rule_and_marginal():
    lat = make_lattice(1, 32, 1.0)
    om = trapped_slater(lat, 0.25, 50.0, 4)
    w = wigner(om, lat)
    assert np.sum(w) / 32 == pytest.approx(4.0, abs=1e-10)
    marginal = np.sum(w, axis=1) / 32
    assert np.max(np.abs(marginal - np.diag(dense(om)).real)) < 1e-8


def test_wigner_linearity():
    rng = np.random.default_rng(0)
    lat = make_lattice(1, 8, 1.0)

    def rand_dm():
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        return DensityMatrix(*spectral_form(a + a.conj().T)[:2])

    a, b = rand_dm(), rand_dm()
    combo = DensityMatrix(*spectral_form(0.3 * dense(a) + 0.7 * dense(b))[:2])
    wa = wigner(a, lat)
    wb = wigner(b, lat)
    wc = wigner(combo, lat)
    assert np.max(np.abs(wc - 0.3 * wa - 0.7 * wb)) < 1e-10


def _signed_state(d):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return DensityMatrix(*spectral_form(a + a.conj().T)[:2])


@pytest.mark.parametrize("name,d,make", [
    ("trapped", 32, lambda lat: trapped_slater(lat, 0.25, 50.0, 4)),
    ("signed", 8, lambda lat: _signed_state(lat.d)),
    ("ball", 16, lambda lat: plane_wave_projection(lat, fermi_ball_indices(lat, 5))),
])
def test_wigner_from_orbitals_matches_dense_slices(name, d, make):
    lat = make_lattice(1, d, 1.0)
    om = make(lat)
    w = wigner(om, lat)
    assert np.max(np.abs(w - dense_wigner(om, d))) <= 1e-12
    assert np.max(np.abs(w - orbital_wigner(om, d))) <= 1e-12


@pytest.mark.parametrize("d,mode", [(16, 1), (16, 3), (9, 2)])
def test_force_of_a_cosine_potential(d, mode):
    # V = s cos(kx) and rho = (1 + cos(kx)) / l: V * rho = (s/2) cos(kx), so
    # the force -d/dx (V * rho) is (s k / 2) sin(kx)
    lat = make_lattice(1, d, 1.7)
    s, k = 0.8, 2.0 * np.pi * mode / lat.length
    v = build_potential({"shape": "cosine", "strength": s, "mode": mode}, lat)
    x = lat.sites()[:, 0]
    values = np.zeros((d, d))
    values[:, 0] = 1.0 + np.cos(k * x)  # marginal sum(values) / (d N a) = rho
    force = semiclassics._kick_matrix(v, 1, 1.0) @ np.sum(values, axis=1)
    assert np.max(np.abs(force - 0.5 * s * k * np.sin(k * x))) <= 1e-12


def test_vlasov_free_transport_on_grid_characteristics():
    # single momentum slice whose per-step shift is an exact number of cells
    lat = make_lattice(1, 16, 1.0)
    hbar = 1.0
    q = momentum_grid(lat, hbar)
    m = 10  # q = pi * m
    k = int(np.argmin(np.abs(q - np.pi * (m - 8))))  # just index bookkeeping
    rng = np.random.default_rng(1)
    vals = np.zeros((16, 16))
    slice_k = 12  # q = pi * 4
    vals[:, slice_k] = rng.random(16)
    v0 = build_potential({"shape": "zero"}, lat)
    # shift per half step = 2 q dt / (2 a) = q dt / a cells; make it exactly 1
    dt = lat.spacing / q[slice_k]
    out = vlasov_step(vals, 1, dt, v0, hbar, n_particles=1)
    expected = np.zeros_like(vals)
    expected[:, slice_k] = np.roll(vals[:, slice_k], 2)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_vlasov_mass_conservation_per_slice():
    lat = make_lattice(1, 32, 1.0)
    hbar = default_hbar(4, 1)
    om = trapped_slater(lat, hbar, 50.0, 4)
    w = wigner(om, lat)
    v0 = build_potential({"shape": "zero"}, lat)
    out = vlasov_step(w, 1, 1e-3, v0, hbar, 4)
    # with V = 0 each momentum slice is transported, preserving its own mass
    assert np.max(np.abs(out.sum(axis=0) - w.sum(axis=0))) < 1e-10
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    out = vlasov_step(w, 1, 1e-3, pot, hbar, 4)
    assert abs(np.sum(out) / 32 - np.sum(w) / 32) < 1e-10


def test_vlasov_step_second_order():
    # smooth band-limited phase-space data: the spectral transport sweeps are
    # exact, so the Strang splitting error O(dt^2) is what the ratios measure
    lat = make_lattice(1, 64, 1.0)
    hbar = 0.25
    q = momentum_grid(lat, hbar)
    x = lat.sites()[:, 0]
    vals0 = np.exp(-((x[:, None] - 0.5) ** 2) / 0.02 - (q[None, :] ** 2) / 8.0)
    pot = build_potential({"shape": "gaussian", "strength": 20.0, "sigma": 0.15},
                          lat)

    def run(dt, t_final):
        return vlasov_step(vals0, int(round(t_final / dt)), dt, pot, hbar, n_particles=1)

    t_final = 0.01
    ref = run(t_final / 400, t_final)
    err1 = np.linalg.norm(run(t_final / 4, t_final) - ref)
    err2 = np.linalg.norm(run(t_final / 8, t_final) - ref)
    assert 3.3 < err1 / err2 < 4.7


@pytest.mark.parametrize("d,steps", [(64, 200), (16, 1), (9, 1), (80, 3), (81, 3), (128, 3),
                                     (256, 2)])
def test_vlasov_step_matches_the_full_fft_step(d, steps):
    # the half-spectrum step by the DFT tables, at every d, against full complex FFTs on
    # transposed views; odd d has no Nyquist bin
    lat = make_lattice(1, d, 1.0)
    hbar = default_hbar(8, 1)
    q = momentum_grid(lat, hbar)
    x = lat.sites()[:, 0]
    if d == 64:  # vlasov1d's state and potential
        w0 = wigner(trapped_slater(lat, hbar, 50.0, 8), lat)
    else:
        w0 = np.exp(-((x[:, None] - 0.5) ** 2) / 0.02 - (q[None, :] ** 2) / 8.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    w, ref = vlasov_step(w0, steps, 2.5e-4, pot, hbar, 8), w0  # merged half drifts
    for _ in range(steps):
        ref = full_fft_vlasov_step(ref, 2.5e-4, pot, q, 8)
    assert np.max(np.abs(w - ref)) <= 1e-12
    assert not any(t.flags.writeable for t in semiclassics._drift_phases(lat, hbar, 2.5e-4))


@pytest.mark.parametrize("d", [64, 16, 9, 80, 81, 128])
def test_vlasov_step_matches_a_fortran_ordered_inverse_table(d, monkeypatch):
    # G is stored C-ordered only for the speed of its products: the same values F-ordered
    # give the same step, byte for byte at vlasov1d's d=64 and to round-off at the others
    lat = make_lattice(1, d, 1.0)
    hbar = default_hbar(8, 1)
    x, q = lat.sites()[:, 0], momentum_grid(lat, hbar)
    w0 = np.exp(-((x[:, None] - 0.5) ** 2) / 0.02 - (q[None, :] ** 2) / 8.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    w = vlasov_step(w0, 20, 2.5e-4, pot, hbar, 8)
    f, g = semiclassics._dft_tables(d)
    monkeypatch.setattr(semiclassics, "_dft_tables", lambda n: (f, np.asfortranarray(g)))
    ref = vlasov_step(w0, 20, 2.5e-4, pot, hbar, 8)
    if d == 64:
        assert np.array_equal(w, ref)
    assert np.max(np.abs(w - ref)) <= 1e-12


@pytest.mark.parametrize("d", [64, 9])
def test_kick_force_matches_the_full_fft_force(d):
    # the kick's circulant on the row sums against -i p on direct_term's V * rho by full
    # complex FFTs; odd d has no Nyquist bin
    lat = make_lattice(1, d, 1.0)
    hbar = default_hbar(8, 1)
    if d == 64:  # vlasov1d's state
        w = wigner(trapped_slater(lat, hbar, 50.0, 8), lat)
    else:
        x, q = lat.sites()[:, 0], momentum_grid(lat, hbar)
        w = np.exp(-((x[:, None] - 0.3) ** 2) / 0.02 - (q[None, :] ** 2) / 8.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.2, "sigma": 0.2}, lat)
    kick = semiclassics._kick_matrix(pot, 8, 1.0)
    assert np.array_equal(kick, circulant_gather(lat, kick[:, 0]))  # C[i, j] = g[(i - j) mod d]
    force = kick @ np.sum(w, axis=1)
    assert np.max(np.abs(force - _full_fft_force(w, pot, 8))) <= 1e-13


@pytest.mark.parametrize("d", [9, 16, 64, 256])
def test_phase_table_matches_the_cos_sin_table(d):
    # the running product along kappa against one cos/sin per entry, for shifts up to
    # half the line.  The oracle rounds its angle kappa s 2 pi / d (up to 128 pi at
    # d=256) and the product each of its kappa factors, so both errors grow with kappa
    # and the angle: 1e-14 holds up to d=16, and where the angle is small
    shifts = np.concatenate([np.random.default_rng(d).uniform(-d / 2, d / 2, 4 * d),
                             [-d / 2, d / 2, 0.0, 1e-3]])
    table = semiclassics._phases(shifts, d)
    kappa = np.arange(d // 2 + 1)
    angle = np.abs(np.multiply.outer(shifts, kappa)) * (2 * np.pi / d)
    bound = np.maximum(1e-14, 2 * np.finfo(float).eps * (kappa + angle))
    assert np.all(np.abs(table - cos_sin_phases(shifts, d)) <= bound)
    assert np.all(table[:, 0] == 1.0)  # line sums stay exact


def test_vlasov_step_transform_count(monkeypatch):
    # n Strang steps: 2n + 1 sweeps, n of them kicks that each build one `_phases` table, each
    # transform one product with the DFT tables at every d: the only np.fft call is the one
    # ifft that builds the kick's circulant
    counts = count_fft_calls(monkeypatch)
    kicks = []
    monkeypatch.setattr(semiclassics, "_phases",
                        lambda *args, fn=semiclassics._phases: kicks.append(1) or fn(*args))
    for d in (16, 80):
        lat = make_lattice(1, d, 1.0)
        pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
        x, q = lat.sites()[:, 0], momentum_grid(lat, 0.5)
        w = np.exp(-((x[:, None] - 0.5) ** 2) / 0.02 - (q[None, :] ** 2) / 8.0)
        for n in (1, 3, 10):
            counts.clear(), kicks.clear()
            out = vlasov_step(w, n, 1e-3, pot, 0.5, 4)
            assert counts == {"ifft": 1}
            assert len(kicks) == n
            assert out.flags.c_contiguous


@pytest.mark.parametrize("d", [2, 9, 16, 64, 80, 81, 128])
def test_dft_tables_match_np_fft(d):
    # (a @ F).view(complex) is rfft and c.view(float) @ G is irfft, along either axis (the
    # drift transforms the transposed state).  Each of the two sides sums d terms and errs by
    # at most ~ d eps times the sum of the terms' sizes, |a_j| forward and (2/d) |c_kappa|
    # inverse: bounds 2 d eps sum |a| and 4 eps sum |c| per line.  Odd d has no Nyquist bin
    semiclassics._dft_tables.cache_clear()
    f, g = semiclassics._dft_tables(d)
    assert f.shape == (d, 2 * (d // 2 + 1)) and g.shape == (2 * (d // 2 + 1), d)
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    eps = np.finfo(float).eps
    fwd_bound = 2 * d * eps * np.sum(np.abs(a), axis=1, keepdims=True)
    assert np.all(np.abs((a @ f).view(complex) - np.fft.rfft(a, axis=1)) <= fwd_bound)
    assert np.all(np.abs((a.T @ f).view(complex) - np.fft.rfft(a, axis=0).T) <= fwd_bound)
    c = rng.standard_normal((d, d // 2 + 1)) + 1j * rng.standard_normal((d, d // 2 + 1))
    inv_bound = 4 * eps * np.sum(np.abs(c), axis=1, keepdims=True)
    assert np.all(np.abs(c.view(float) @ g - np.fft.irfft(c, d, axis=1)) <= inv_bound)
    assert np.all(np.abs(g.T @ c.view(float).T - np.fft.irfft(c.T, d, axis=0)) <= inv_bound.T)
    # irfft ignores the imaginary parts of DC and Nyquist, and so does G
    real_edges = c.copy()
    real_edges[:, 0] = c[:, 0].real
    if d % 2 == 0:
        real_edges[:, -1] = c[:, -1].real
    assert np.array_equal(c.view(float) @ g, real_edges.view(float) @ g)
    assert not (f.flags.writeable or g.flags.writeable)
    assert f.flags.c_contiguous and g.flags.c_contiguous  # a C x F product is a slow dgemm
    assert all(t is u for t, u in zip(semiclassics._dft_tables(d), (f, g)))
    info = semiclassics._dft_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_vlasov_step_rejects_a_non_finite_state():
    # NaN > tol is False: the finiteness check must be written to fail on NaN
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    w = np.ones((16, 16))
    w[5, 3] = np.nan
    with pytest.raises(RuntimeError, match="not finite"):
        vlasov_step(w, 1, 1e-3, pot, 0.5, 4)


def test_vlasov_step_rejects_a_kick_that_overflows():
    # finite entries whose column sums are finite, so the first drift is, but whose row sums
    # overflow: the kick's shifts are not finite, and the check once per call refuses the
    # result its NaN phases spread to, with no floating-point warning on the way
    lat = make_lattice(1, 16, 1.0)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    w = np.zeros((16, 16))
    w[5] = 1e308
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(w.sum(axis=0))) and not np.isfinite(w.sum(axis=1)[5])
    with pytest.raises(RuntimeError, match="Vlasov step is not finite"):
        vlasov_step(w, 1, 1e-3, pot, 0.5, 4)


def _semiclassics(tmp_path, lattice, n, potential, initial, evolution, vlasov_dt):
    """Run the semiclassics scenario (Hartree); its times, gaps and result."""
    doc = {"scenario": "semiclassics", "kind": "hartree", "lattice": lattice,
           "model": {"n_particles": n}, "potential": potential, "initial": initial,
           "evolution": evolution, "vlasov": {"dt": vlasov_dt}}
    result = run(parse_config(json.dumps(doc)), str(tmp_path))["result"]
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    times, gap, gap_norm = (np.array([float(row.split(",")[i]) for row in rows])
                            for i in range(3))
    return times, gap, gap_norm, result


def test_semiclassics_gap_of_stationary_cases(tmp_path):
    times, gap, _, _ = _semiclassics(
        tmp_path, {"ds": 1, "d": 16}, 3, {"shape": "zero"}, {"kind": "ball"},
        {"dt": 1e-2, "t_final": 0.2, "snapshot_stride": 5}, 1e-2)
    assert len(times) == 5
    assert gap[0] == 0.0
    assert np.max(gap) < 1e-8  # both sides stationary


def test_semiclassics_takes_several_substeps_per_step(tmp_path):
    # snapshots every 0.05, four Vlasov steps of 2.5e-3 per step of 1e-2; a
    # Vlasov dt of 3e-3 is a config error (test_runner's exit-two cases)
    times, gap, _, _ = _semiclassics(
        tmp_path, {"ds": 1, "d": 16}, 3, {"shape": "zero"}, {"kind": "ball"},
        {"dt": 1e-2, "t_final": 0.1, "snapshot_stride": 5}, 2.5e-3)
    np.testing.assert_allclose(times, [0.0, 0.05, 0.1], atol=1e-15)
    assert np.max(gap) < 1e-8


def test_semiclassics_normalized_gap_stays_order_one(tmp_path):
    # interacting run: the gap normalized by hbar*N should stay within an
    # order of magnitude of its early-time value (loose consistency check)
    times, gap, gap_norm, result = _semiclassics(
        tmp_path, {"ds": 1, "d": 64}, 8, {"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
        {"kind": "trapped", "strength": 50.0},
        {"dt": 1e-3, "t_final": 1.0, "snapshot_stride": 100}, 1e-3)
    np.testing.assert_array_equal(gap_norm, gap / (default_hbar(8, 1) * 8))
    assert result["final_gap_over_hbar_n"] == gap_norm[-1]
    ref = gap_norm[np.argmin(np.abs(times - 0.1))]
    late = gap_norm[times >= 0.1]
    assert ref > 0
    assert np.max(late) <= 10.0 * ref and np.min(late) >= ref / 10.0


def test_semiclassics_transforms_each_snapshot_once(tmp_path, monkeypatch):
    calls = {"wigner": [], "vlasov_step": []}
    for name, fn in [("wigner", wigner), ("vlasov_step", vlasov_step)]:
        def counted(*args, fn=fn, name=name):
            calls[name].append(args)
            return fn(*args)
        monkeypatch.setattr(semiclassics, name, counted)
    times, _, _, _ = _semiclassics(
        tmp_path, {"ds": 1, "d": 16}, 3, {"shape": "zero"}, {"kind": "ball"},
        {"dt": 1e-2, "t_final": 0.2, "snapshot_stride": 5}, 5e-3)
    assert len(times) == 5
    assert len(calls["wigner"]) == 5  # omega0 once, then one per later snapshot
    assert len({id(args[0]) for args in calls["wigner"]}) == 5
    assert len(calls["vlasov_step"]) == 4  # once per snapshot interval
    assert sum(args[1] for args in calls["vlasov_step"]) == 40  # t_final / vlasov.dt


def test_semiclassics_builds_the_momentum_grid_once(tmp_path, monkeypatch):
    # a vlasov1d-sized run of 1000 Vlasov steps in 5 calls builds each drift
    # phase table (half and full drift) once, and the momentum labels q once
    # for the scenario and once for those tables
    labels = []
    monkeypatch.setattr(semiclassics, "momentum_grid",
                        lambda *args: labels.append(momentum_grid(*args)) or labels[-1])
    semiclassics._drift_phases.cache_clear()
    _semiclassics(
        tmp_path, {"ds": 1, "d": 64}, 8, {"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
        {"kind": "trapped", "strength": 50.0},
        {"dt": 1e-3, "t_final": 0.25, "snapshot_stride": 50}, 2.5e-4)
    info = semiclassics._drift_phases.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert len(labels) == 2


def test_wigner_rejects_odd_or_multidimensional():
    with pytest.raises(ValueError):
        wigner(DensityMatrix(*spectral_form(np.eye(5, dtype=complex))[:2]),
               make_lattice(1, 5, 1.0))


def test_wigner_rejects_a_non_finite_state():
    # NaN > tol is False: the imaginary-part check must be written to fail on NaN
    lat = make_lattice(1, 8, 1.0)
    orbitals = np.eye(8, 2, dtype=complex)
    orbitals[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        wigner(DensityMatrix(orbitals, np.ones(2)), lat)
