"""fermiflow benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload hf1d --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. Each child process (see child.py) runs alone, with BLAS threads
capped at the number of usable cores, and calls `fermiflow.runner.run`, the
call the CLI makes.

--trace 0 prints the end-to-end metrics: `run_s` (median wall time of one
run), `setup_s` (median over fresh processes of import, config parse,
potential and initial state) and `peak_rss_mb`; `fail_ratio` is printed
beside them. Times are reported at a reference machine speed (speed.py):
each is scaled by a calibration kernel timed next to it, except the runs
of hf3d; the raw wall times are printed too. --trace 1 prints per-layer
metrics from traced runs. Every run's outputs are checked. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from speed import REFERENCE_S, scaled
from workloads import (DEFAULT_SEED, EXACT_COUNTS, UNSCALED_RUNS, WORKLOADS,
                       check_run, load_reference, make_config, matrix_dimension)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RESULT = os.path.join(WORK, "child_result.json")
# Set-up children per end-to-end run: some before the runs child and the
# rest after it, so that the median spans more than one phase of the
# machine's speed, which drifts over seconds on a shared host.
SETUP_BEFORE, SETUP_AFTER = 4, 5
CHILD_TIMEOUT_S = 150

# Per-layer metrics reported in the JSON line. Times are listed only for the
# layers every workload enters, so no time reads a constant 0; the call
# counts of the other layers are exact and listed for all of them. The full
# per-function table of a traced run is printed above the JSON line.
LAYER_METRICS = [
    ("runner.run.self_s", "s", "lower"),
    ("runner.build_initial_state.s", "s", "lower"),
    ("model.build_potential.s", "s", "lower"),
    ("initial_data.trapped_slater.s", "s", "lower"),
    ("initial_data.DensityMatrix.idempotency_defect.calls", "count", "lower"),
    ("meanfield.step.calls", "count", "lower"),
    ("meanfield.step.self_s", "s", "lower"),
    ("meanfield.step.p50_ms", "ms", "lower"),
    ("meanfield.step.p99_ms", "ms", "lower"),
    ("meanfield.generator.calls", "count", "lower"),
    ("meanfield.generator.self_s", "s", "lower"),
    ("meanfield.direct_term.calls", "count", "lower"),
    ("meanfield.direct_term.s", "s", "lower"),
    ("meanfield.exchange_term.calls", "count", "lower"),
    ("meanfield.hf_energy.calls", "count", "lower"),
    ("diagnostics.commutator_phase.calls", "count", "lower"),
    ("diagnostics.commutator_momentum.calls", "count", "lower"),
    ("diagnostics.trace_norm.calls", "count", "lower"),
    ("fock.SectorPropagator.__call__.calls", "count", "lower"),
    ("fock.implement_bogoliubov.calls", "count", "lower"),
    ("fock.field_operator.calls", "count", "lower"),
    ("fock.bogoliubov_from_projection.calls", "count", "lower"),
    ("fock.FluctuationDynamics.evolve.calls", "count", "lower"),
    ("semiclassics.vlasov_step.calls", "count", "lower"),
    ("semiclassics.wigner.calls", "count", "lower"),
    ("snapshots.write_fmf1.calls", "count", "lower"),
    ("snapshots.write_fmf1.bytes", "bytes", "lower"),
    ("snapshots.write_csv.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
]


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    return env


def run_child(*args):
    """Run child.py with the given arguments, one of which is RESULT; the
    JSON it wrote there, or an exception naming the failure."""
    if os.path.exists(RESULT):
        os.remove(RESULT)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=sys.stderr.fileno())
    if proc.returncode != 0 or not os.path.exists(RESULT):
        raise RuntimeError(f"child {args[0]} exited with code {proc.returncode}")
    with open(RESULT) as fh:
        return json.load(fh)


def machine_record(setup):
    """Versions, BLAS, cores, CPU model, cache sizes and commit."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": setup["python"], "numpy": setup["numpy"],
            "scipy": setup["scipy"], "blas": setup["blas"],
            "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "commit": commit}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_problems(name, runs, reference):
    """Per-run problem lists; reruns must also write byte-identical files."""
    problems = [check_run(name, r, reference) for r in runs]
    manifests = [r.get("manifest") for r in runs if not r.get("error")]
    for r, probs in zip(runs, problems):
        if not r.get("error") and r.get("manifest") != manifests[0]:
            probs.append("outputs differ from the first run's (sha256)")
    return problems


def count_mismatches(first, second):
    """The exact counts that differ between the stats of two traced runs."""
    out = []
    for key in EXACT_COUNTS:
        fn, stat = key.rsplit(".", 1)
        a, b = first.get(fn, {}).get(stat, 0), second.get(fn, {}).get(stat, 0)
        if a != b:
            out.append(f"{key} differs between traced runs: {a} != {b}")
    return out


def setup_child(work):
    return run_child("setup", os.path.join(work, "config.json"), RESULT)


def end_to_end(name, work, seconds, setups, reference):
    setups += [setup_child(work) for _ in range(SETUP_BEFORE - 1)]
    out = run_child("runs", os.path.join(work, "config.json"), work,
                    str(seconds), RESULT)
    setups += [setup_child(work) for _ in range(SETUP_AFTER)]
    runs = out["runs"]
    problems = run_problems(name, runs, reference)
    failed = sum(1 for p in problems if p)
    times = [run_time(name, r) for r in runs]
    setup_times = [scaled(s["setup_s"], s["calibration_s"]) for s in setups]
    for metric, values, what in (("run_s", times, "runs"),
                                 ("setup_s", setup_times, "fresh processes")):
        q1, q3 = quartiles(values)
        print(f"{metric:12s} {statistics.median(values):.4f} s   median of "
              f"{len(values)} {what} (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  run_s {'raw' if name in UNSCALED_RUNS else 'at reference speed'}, "
          f"setup_s at reference speed (speed.py)")
    print(f"  raw wall   run {statistics.median(r['wall'] for r in runs):.4f} s, "
          f"setup {statistics.median(s['setup_s'] for s in setups):.4f} s; "
          f"calibration kernel median "
          f"{statistics.median(r['calibration_s'] for r in runs):.4f} s "
          f"(reference {REFERENCE_S} s)")
    print(f"peak_rss_mb  {out['peak_rss_mb']:.1f} MB  1 process, {len(runs)} runs")
    print(f"fail_ratio   {failed / len(runs):.4f} 1    {failed} of {len(runs)} runs")
    metrics = {
        "run_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }
    return runs, problems, metrics


STAT_KEYS = ("calls", "s", "self_s", "p50_ms", "p99_ms", "bytes")
TIME_KEYS = ("s", "self_s", "p50_ms", "p99_ms")


def run_time(name, rec, seconds=None):
    """A time measured in run `rec` (its wall time by default), at the
    reference speed unless the workload's runs are reported raw."""
    seconds = rec["wall"] if seconds is None else seconds
    return seconds if name in UNSCALED_RUNS else scaled(seconds, rec["calibration_s"])


def run_stats(name, rec):
    """A traced run's span statistics, times as run_time gives them."""
    return {fn: {k: run_time(name, rec, v) if k in TIME_KEYS else v
                 for k, v in st.items()}
            for fn, st in rec["stats"].items()}


def median_stats(stats_list):
    """Per span name and statistic, the median over several traced runs
    (for counts and bytes one of the values, so they stay whole)."""
    names = sorted(set().union(*stats_list))
    return {fn: {k: (statistics.median if k in TIME_KEYS else statistics.median_low)(
                     [st.get(fn, {}).get(k, 0) for st in stats_list])
                 for k in STAT_KEYS}
            for fn in names}


def traced(name, work, seconds, reference):
    out = run_child("trace", os.path.join(work, "config.json"), work, str(seconds),
                    RESULT, os.path.join(work, "spans.json"))
    runs = [out["cold"], *out["untraced"], *out["traced"]]
    problems = run_problems(name, runs, reference)
    if any(r.get("error") for r in runs):
        return runs, problems, {}
    for i, rec in enumerate(out["traced"], start=1 + len(out["untraced"])):
        problems[i].extend(count_mismatches(out["cold"]["stats"], rec["stats"]))
    per_run = [run_stats(name, r) for r in out["traced"]]
    warm = median_stats(per_run)

    print(f"{'span (median of ' + str(len(per_run)) + ' traced runs)':52s} "
          f"{'calls':>7s} {'s':>9s} {'self_s':>9s} {'p50_ms':>9s} {'p99_ms':>9s} "
          f"{'bytes':>10s}")
    for fn, st in warm.items():
        print(f"{fn:52s} {st['calls']:7.0f} {st['s']:9.4f} {st['self_s']:9.4f} "
              f"{st['p50_ms']:9.4f} {st['p99_ms']:9.4f} {st['bytes']:10.0f}")
    traced_walls = [run_time(name, r) for r in out["traced"]]
    untraced_wall = statistics.median(run_time(name, r) for r in out["untraced"])
    derived = {
        "trace.overhead_s": statistics.median(traced_walls) - untraced_wall,
        # wall time of a traced call that no span below runner.run covers
        "trace.uncovered_s": statistics.median(
            wall - st["runner.run"]["s"] + st["runner.run"]["self_s"]
            for wall, st in zip(traced_walls, per_run)),
    }
    metrics = {}
    for key, unit, _ in LAYER_METRICS:
        if key in derived:
            value = derived[key]
        else:
            fn, stat = key.rsplit(".", 1)
            value = warm.get(fn, {}).get(stat, 0)
        metrics[key] = {"value": value, "unit": unit}
    print(f"times above are {'raw' if name in UNSCALED_RUNS else 'at reference speed'}"
          f" (see speed.py)")
    print(f"trace.overhead_s   {derived['trace.overhead_s']:.4f} s  (median traced "
          f"{statistics.median(traced_walls):.4f} s - median untraced "
          f"{untraced_wall:.4f} s, {len(per_run)} of each)")
    print(f"trace.uncovered_s  {derived['trace.uncovered_s']:.4f} s")
    return runs, problems, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fermiflow", "runner.py")):
        print(f"error: no fermiflow sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    doc = make_config(args.workload, args.seed)
    with open(os.path.join(work, "config.json"), "w") as fh:
        json.dump(doc, fh, indent=1)

    # The first set-up child also confirms that the generated config runs.
    try:
        setup = setup_child(work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload {args.workload} seed {args.seed} does not set "
              f"up: {exc}", file=sys.stderr)
        return 1
    env = machine_record(setup)
    m = matrix_dimension(args.workload)
    print(f"workload {args.workload}  seed {args.seed}  potential {doc['potential']}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"layout M={m}  dense complex matrix {16 * m * m} bytes  "
          f"caches {env['caches']}")

    reference = load_reference(args.workload, args.seed)
    try:
        if args.trace:
            runs, problems, metrics = traced(args.workload, work, args.seconds,
                                             reference)
        else:
            runs, problems, metrics = end_to_end(
                args.workload, work, args.seconds,
                [setup], reference)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for i, probs in enumerate(problems):
        for p in probs:
            print(f"check failed, run {i}: {p}")
    failed = sum(1 for p in problems if p)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"environment": env, "config": doc, "result": result,
                   "runs": [{"wall": r["wall"], "calibration_s": r["calibration_s"],
                             "problems": p} for r, p in zip(runs, problems)]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
