"""Seeded workload configs and the checks every run's outputs must pass.

The seed draws only the interaction (gaussian `strength` in [0.5, 1.5] and
`sigma` in [0.15, 0.25]); lattice sizes, particle numbers, the trap and the
run length are fixed per workload, so the work done, the exact counts and
the bytes written do not depend on the seed.
"""

import json
import math
import os
import random

DEFAULT_SEED = 0
TRAP = {"kind": "trapped", "strength": 50.0}

# Sizes are fixed by the issue that defined each workload; t_final sets the
# length of one run, and run.py repeats runs for the requested seconds.
WORKLOADS = {
    # Mean-field steps are ~85% of the run: per step two `eigh`, the
    # generator, and a `direct_term` that redoes the potential's FFT. The
    # dense 64x64 matrices (64 KiB) stay in cache. This is where a leaner
    # mean-field step shows.
    "hf1d": {"scenario": "evolve", "kind": "hartree_fock",
             "lattice": {"ds": 1, "d": 64}, "model": {"n_particles": 8},
             "evolution": {"dt": 1e-3, "t_final": 0.5, "snapshot_stride": 50}},
    # The paper's dimension, ds=3 (M=512). The 58 commutator SVDs in
    # `semiclassical_series` take ~75% of the run and the steps ~20%. Each
    # dense matrix is 4 MiB, larger than a 2 MiB per-core L2. The default
    # p_set (max_index=4, 728 probes) would cost minutes per snapshot, so
    # the probe set is max_index=1 (26 probes).
    "hf3d": {"scenario": "evolve", "kind": "hartree_fock",
             "lattice": {"ds": 3, "d": 8}, "model": {"n_particles": 10},
             "evolution": {"dt": 2e-3, "t_final": 0.02, "snapshot_stride": 10},
             "p_set": {"max_index": 1}},
    # The Fock-space oracle: `fock.implement_bogoliubov` rebuilds the
    # implementor by sparse products and checks unitarity densely at each
    # output time, every 0.05 (~90% of the run); mean-field work is ~8%.
    "fluct1d": {"scenario": "fluctuation",
                "lattice": {"ds": 1, "d": 10}, "model": {"n_particles": 4},
                "evolution": {"dt": 1e-3, "t_final": 0.2, "snapshot_stride": 50},
                "fock": {"l_sites": 10}},
    # The classical limit: `vlasov_step` (~60% of the run) and Hartree
    # steps (~35%). The only workload that reaches `semiclassics` and the Hartree
    # branch of `meanfield` (direct term without exchange).
    "vlasov1d": {"scenario": "semiclassics", "kind": "hartree",
                 "lattice": {"ds": 1, "d": 64}, "model": {"n_particles": 8},
                 "evolution": {"dt": 1e-3, "t_final": 0.25, "snapshot_stride": 50},
                 "vlasov": {"dt": 2.5e-4}},
}

# Workloads whose run times are reported as raw wall time rather than at
# the reference speed of speed.py, whose small calibration kernel does not
# track their large dense kernels.
UNSCALED_RUNS = {"hf3d"}

# Counts that depend only on the config; the benchmark asserts that two
# traced runs give identical values.
EXACT_COUNTS = ("meanfield.step.calls", "diagnostics.trace_norm.calls",
                "fock.implement_bogoliubov.calls", "semiclassics.vlasov_step.calls",
                "snapshots.write_fmf1.bytes")

# Criterion 01 limits of the acceptance suite.
HF_LIMITS = {"max_idempotency_defect": 1e-8, "max_trace_drift": 1e-9,
             "max_relative_energy_drift": 1e-6}
WIGNER_SUM_TOL = 1e-8


def make_config(name, seed):
    """The config document for a workload; the same seed gives the same
    document."""
    rng = random.Random(f"{name}:{seed}")
    doc = json.loads(json.dumps(WORKLOADS[name]))
    doc["potential"] = {"shape": "gaussian",
                        "strength": rng.uniform(0.5, 1.5),
                        "sigma": rng.uniform(0.15, 0.25)}
    doc["initial"] = dict(TRAP)
    return doc


def matrix_dimension(name):
    lat = WORKLOADS[name]["lattice"]
    return lat["d"] ** lat["ds"]


def _finite(values):
    return all(math.isfinite(v) for v in values)


def check_run(name, run, reference=None):
    """Problems with one run's outputs, as a list of messages (empty when the
    run is good). `run` holds the summary `status` and `result` and the
    `series` columns of series.csv. When `reference` is given, the scalar
    results must also match it within its per-value tolerances."""
    if run.get("error"):
        return [f"raised {run['error']}"]
    if run.get("status") != "success":
        return [f"summary status {run.get('status')!r}"]
    res, series = run["result"], run["series"]
    problems = []
    if not all(_finite(col) for col in series.values()):
        problems.append("series.csv holds a non-finite value")
    scenario = WORKLOADS[name]["scenario"]
    if scenario == "evolve":
        for key, limit in HF_LIMITS.items():
            if not res[key] <= limit:
                problems.append(f"{key} {res[key]:.3e} exceeds {limit:g}")
    elif scenario == "fluctuation":
        n, moment = series["mean_particle_number"], series["moment_order_2"]
        if not (_finite(n) and _finite(moment)):
            problems.append("fluctuation moments are not finite")
        elif min(n) < 0 or min(moment) < 1:
            problems.append(f"fluctuation moments out of range: min <N> "
                            f"{min(n):.3e}, min moment {min(moment):.6f}")
    elif scenario == "semiclassics":
        n = WORKLOADS[name]["model"]["n_particles"]
        if not abs(res["wigner_sum_rule"] - n) <= WIGNER_SUM_TOL:
            problems.append(f"Wigner sum rule {res['wigner_sum_rule']!r} != N={n}")
        if not math.isfinite(res["final_gap_over_hbar_n"]):
            problems.append("final Wigner-Vlasov gap is not finite")
    if reference is not None:
        scalars = final_scalars(name, run)
        for key, ref in reference.items():
            value = scalars[key]
            if not abs(value - ref["value"]) <= ref["tol"]:
                problems.append(f"{key} = {value!r} differs from reference "
                                f"{ref['value']!r} by more than {ref['tol']:.1e}")
    return problems


def final_scalars(name, run):
    """The scalar results compared with the reference values: the last row
    of series.csv plus the scenario's final result numbers."""
    series, res = run["series"], run["result"]
    scenario = WORKLOADS[name]["scenario"]
    if scenario == "evolve":
        return {k: series[k][-1] for k in ("energy", "c_phase", "c_momentum")}
    if scenario == "fluctuation":
        return {"final_mean_particle_number": res["final_mean_particle_number"],
                "final_moment": res["final_moment"]}
    return {"final_gap_over_hbar_n": res["final_gap_over_hbar_n"],
            "wigner_sum_rule": res["wigner_sum_rule"]}


def load_reference(name, seed):
    """The workload's reference scalars, recorded for the default seed only
    (see make_reference.py); None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as fh:
        return json.load(fh)["workloads"][name]
