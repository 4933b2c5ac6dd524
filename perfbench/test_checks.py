"""Each output check of the benchmark rejects a run that violates its limit.

    python3 -m pytest -q perfbench/test_checks.py

Synthetic run records, no fermiflow run needed.
"""

import copy
import json
import math
import os

import pytest

from run import LAYER_METRICS, ROOT, count_mismatches, run_problems
from workloads import check_run


def good(name):
    if name in ("hf1d", "hf3d"):
        result = {"max_idempotency_defect": 1e-13, "max_trace_drift": 1e-13,
                  "max_relative_energy_drift": 1e-8}
        series = {"t": [0.0, 1.0], "trace": [8.0, 8.0], "energy": [5.0, 5.0],
                  "idempotency_defect": [0.0, 1e-13], "c_phase": [0.4, 0.5],
                  "c_momentum": [6.0, 6.1]}
    elif name == "fluct1d":
        result = {"final_mean_particle_number": 2e-4, "final_moment": 1.001}
        series = {"t": [0.0, 0.5], "mean_particle_number": [0.0, 2e-4],
                  "moment_order_2": [1.0, 1.001]}
    else:
        result = {"wigner_sum_rule": 8.0, "final_gap_over_hbar_n": 1.37}
        series = {"t": [0.0, 0.5], "l1_gap": [0.0, 0.1], "gap_over_hbar_n": [0.0, 1.37]}
    return {"error": None, "status": "success", "result": result, "series": series,
            "manifest": {"series.csv": "ab"}}


def violated(name, path, value):
    run = copy.deepcopy(good(name))
    target = run
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return run


@pytest.mark.parametrize("name", ["hf1d", "hf3d", "fluct1d", "vlasov1d"])
def test_good_runs_pass(name):
    assert check_run(name, good(name)) == []


@pytest.mark.parametrize("name,path,value", [
    ("hf1d", ("result", "max_idempotency_defect"), 2e-8),
    ("hf1d", ("result", "max_trace_drift"), 2e-9),
    ("hf3d", ("result", "max_relative_energy_drift"), 2e-6),
    ("hf3d", ("result", "max_relative_energy_drift"), math.nan),
    ("hf1d", ("series", "energy"), [5.0, math.inf]),
    ("fluct1d", ("series", "mean_particle_number"), [0.0, -1e-6]),
    ("fluct1d", ("series", "moment_order_2"), [1.0, 0.999]),
    ("fluct1d", ("series", "moment_order_2"), [1.0, math.nan]),
    ("vlasov1d", ("result", "wigner_sum_rule"), 8.0 + 2e-8),
    ("vlasov1d", ("result", "final_gap_over_hbar_n"), math.nan),
    ("vlasov1d", ("status",), "failed"),
    ("hf1d", ("error",), "RuntimeError: integrator blow-up"),
])
def test_each_limit_rejects(name, path, value):
    assert check_run(name, violated(name, path, value))


def test_reference_tolerance():
    ref = {"final_moment": {"value": 1.001, "tol": 1e-6}}
    assert check_run("fluct1d", good("fluct1d"), ref) == []
    moved = violated("fluct1d", ("result", "final_moment"), 1.001 + 2e-6)
    assert check_run("fluct1d", moved, ref)


def test_reruns_must_write_identical_files():
    runs = [good("hf1d"), violated("hf1d", ("manifest",), {"series.csv": "cd"})]
    assert run_problems("hf1d", runs, None) == [[], [
        "outputs differ from the first run's (sha256)"]]


def test_exact_counts_must_repeat():
    first = {"meanfield.step": {"calls": 1000}}
    assert count_mismatches(first, {"meanfield.step": {"calls": 1000}}) == []
    assert count_mismatches(first, {"meanfield.step": {"calls": 999}})


def test_benchmark_json_lists_the_reported_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == LAYER_METRICS
