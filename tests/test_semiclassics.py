"""Discrete Wigner transform and the semi-Lagrangian Vlasov solver."""

import numpy as np
import pytest

from fermiflow.initial_data import (DensityMatrix, fermi_ball_indices,
                                    plane_wave_projection, trapped_slater)
from fermiflow.meanfield import EvolutionConfig, MeanFieldKind, evolve
from fermiflow.model import build_potential, default_hbar, make_lattice
from fermiflow import semiclassics
from fermiflow.semiclassics import (PhaseSpaceDensity, compare_wigner_vlasov,
                                    momentum_grid, vlasov_step, wigner)

from _oracles import dense, dense_wigner, spectral_form


def harmonic(lat, strength):
    x = lat.sites() - 0.5 * lat.length
    x -= lat.length * np.round(x / lat.length)
    return strength * np.sum(x ** 2, axis=1)


def test_wigner_translation_invariant_state():
    lat = make_lattice(1, 16, 1.0)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    w = wigner(om, lat, 1.0 / 3.0)
    assert np.max(np.abs(w.values - w.values[0])) < 1e-10  # x-independent
    assert np.sum(w.values) * w.weight == pytest.approx(3.0, abs=1e-10)


def test_wigner_identity_state_momentum_profile():
    # the identity matrix is x-independent; in the even-offset convention its
    # momentum profile alternates 2, 0 (the m = 0 and m = d/2 kernel slices
    # both hit the diagonal), so adjacent momentum bins sum to the flat value 2
    lat = make_lattice(1, 8, 1.0)
    om = DensityMatrix(*spectral_form(np.eye(8, dtype=complex))[:2])
    w = wigner(om, lat, 0.5)
    assert np.max(np.abs(w.values - w.values[:1, :])) < 1e-12  # x-independent
    pair_sums = w.values[:, ::2] + w.values[:, 1::2]
    assert np.max(np.abs(pair_sums - 2.0)) < 1e-12
    assert np.sum(w.values) * w.weight == pytest.approx(8.0, abs=1e-10)


def test_wigner_sum_rule_and_marginal():
    lat = make_lattice(1, 32, 1.0)
    om = trapped_slater(lat, 0.25, harmonic(lat, 50.0), 4)
    w = wigner(om, lat, 0.25)
    assert np.sum(w.values) * w.weight == pytest.approx(4.0, abs=1e-10)
    marginal = np.sum(w.values, axis=1) * w.weight
    assert np.max(np.abs(marginal - np.diag(dense(om)).real)) < 1e-8


def test_wigner_linearity():
    rng = np.random.default_rng(0)
    lat = make_lattice(1, 8, 1.0)

    def rand_dm():
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        return DensityMatrix(*spectral_form(a + a.conj().T)[:2])

    a, b = rand_dm(), rand_dm()
    combo = DensityMatrix(*spectral_form(0.3 * dense(a) + 0.7 * dense(b))[:2])
    wa = wigner(a, lat, 0.5).values
    wb = wigner(b, lat, 0.5).values
    wc = wigner(combo, lat, 0.5).values
    assert np.max(np.abs(wc - 0.3 * wa - 0.7 * wb)) < 1e-10


def _signed_state(d):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return DensityMatrix(*spectral_form(a + a.conj().T)[:2])


@pytest.mark.parametrize("name,d,make", [
    ("trapped", 32, lambda lat: trapped_slater(lat, 0.25, harmonic(lat, 50.0), 4)),
    ("signed", 8, lambda lat: _signed_state(lat.d)),
    ("ball", 16, lambda lat: plane_wave_projection(lat, fermi_ball_indices(lat, 5))),
])
def test_wigner_from_orbitals_matches_dense_slices(name, d, make):
    lat = make_lattice(1, d, 1.0)
    om = make(lat)
    w = wigner(om, lat, 0.25)
    assert np.max(np.abs(w.values - dense_wigner(om, d))) <= 1e-12


@pytest.mark.parametrize("d,mode", [(16, 1), (16, 3), (9, 2)])
def test_force_of_a_cosine_potential(d, mode):
    # V = s cos(kx) and rho = (1 + cos(kx)) / l: V * rho = (s/2) cos(kx), so
    # the force -d/dx (V * rho) is (s k / 2) sin(kx)
    lat = make_lattice(1, d, 1.7)
    s, k = 0.8, 2.0 * np.pi * mode / lat.length
    v = build_potential({"shape": "cosine", "strength": s, "mode": mode}, lat)
    x = lat.sites()[:, 0]
    values = np.zeros((d, d))
    values[:, 0] = 1.0 + np.cos(k * x)  # marginal sum(values) * weight / (N a) = rho
    w = PhaseSpaceDensity(values=values, momenta=np.zeros(d), weight=1.0 / d)
    force = semiclassics._force(w, v, 1)
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
    w = PhaseSpaceDensity(values=vals, momenta=q, weight=1.0 / 16)
    v0 = build_potential({"shape": "zero"}, lat)
    # shift per half step = 2 q dt / (2 a) = q dt / a cells; make it exactly 1
    dt = lat.spacing / q[slice_k]
    out = vlasov_step(w, dt, v0, n_particles=1)
    expected = np.zeros_like(vals)
    expected[:, slice_k] = np.roll(vals[:, slice_k], 2)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_vlasov_mass_conservation_per_slice():
    lat = make_lattice(1, 32, 1.0)
    hbar = default_hbar(4, 1)
    om = trapped_slater(lat, hbar, harmonic(lat, 50.0), 4)
    w = wigner(om, lat, hbar)
    v0 = build_potential({"shape": "zero"}, lat)
    out = vlasov_step(w, 1e-3, v0, 4)
    # with V = 0 each momentum slice is transported, preserving its own mass
    assert np.max(np.abs(out.values.sum(axis=0) - w.values.sum(axis=0))) < 1e-10
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2}, lat)
    out = vlasov_step(w, 1e-3, pot, 4)
    assert abs(out.mass - w.mass) < 1e-10


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
        w = PhaseSpaceDensity(values=vals0.copy(), momenta=q, weight=1.0 / 64)
        for _ in range(int(round(t_final / dt))):
            w = vlasov_step(w, dt, pot, n_particles=1)
        return w.values

    t_final = 0.01
    ref = run(t_final / 400, t_final)
    err1 = np.linalg.norm(run(t_final / 4, t_final) - ref)
    err2 = np.linalg.norm(run(t_final / 8, t_final) - ref)
    assert 3.3 < err1 / err2 < 4.7


def test_compare_wigner_vlasov_stationary_cases():
    lat = make_lattice(1, 16, 1.0)
    hbar = default_hbar(3, 1)
    v0 = build_potential({"shape": "zero"}, lat)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    cfg = EvolutionConfig(dt=1e-2, t_final=0.2, snapshot_stride=5)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE, v0, hbar)
    times, gap, gap_norm = compare_wigner_vlasov(traj, v0, hbar, 1e-2)
    assert gap[0] == 0.0
    assert np.max(gap) < 1e-8  # both sides stationary


def test_compare_wigner_vlasov_rejects_partial_substeps():
    # snapshots every 0.05; a Vlasov dt of 3e-3 would need 16.67 sub-steps
    lat = make_lattice(1, 16, 1.0)
    hbar = default_hbar(3, 1)
    v0 = build_potential({"shape": "zero"}, lat)
    om = plane_wave_projection(lat, fermi_ball_indices(lat, 3))
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, snapshot_stride=5)
    traj = evolve(om, cfg, MeanFieldKind.HARTREE, v0, hbar)
    with pytest.raises(ValueError, match="whole number"):
        compare_wigner_vlasov(traj, v0, hbar, 3e-3)
    times, gap, _ = compare_wigner_vlasov(traj, v0, hbar, 2.5e-3)
    assert list(times) == traj.times and np.max(gap) < 1e-8


def test_compare_wigner_vlasov_normalized_gap_stays_order_one():
    # interacting run: the gap normalized by hbar*N should stay within an
    # order of magnitude of its early-time value (loose consistency check)
    lat = make_lattice(1, 64, 1.0)
    hbar = default_hbar(8, 1)
    pot = build_potential({"shape": "gaussian", "strength": 1.0, "sigma": 0.2},
                          lat)
    om0 = trapped_slater(lat, hbar, harmonic(lat, 50.0), 8)
    cfg = EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=100)
    traj = evolve(om0, cfg, MeanFieldKind.HARTREE, pot, hbar)
    times, gap, gap_norm = compare_wigner_vlasov(traj, pot, hbar, 1e-3)
    ref = gap_norm[np.argmin(np.abs(times - 0.1))]
    late = gap_norm[times >= 0.1]
    assert ref > 0
    assert np.max(late) <= 10.0 * ref and np.min(late) >= ref / 10.0


def test_wigner_rejects_odd_or_multidimensional():
    with pytest.raises(ValueError):
        wigner(DensityMatrix(*spectral_form(np.eye(5, dtype=complex))[:2]),
               make_lattice(1, 5, 1.0), 0.5)
