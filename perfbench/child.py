"""One benchmark child process; `run.py` starts one at a time.

    child.py setup CONFIG RESULT
        time `import fermiflow`, `parse_config`, `build_potential` and
        `runner.build_initial_state` in this fresh process, then record the
        library versions;
    child.py runs CONFIG WORKDIR SECONDS RESULT
        call `runner.run` repeatedly for about SECONDS (at least once);
    child.py trace CONFIG WORKDIR SECONDS RESULT SPANS
        a cold traced run, then untraced and traced runs in turn for about
        SECONDS (at least one of each); SPANS gets the last traced run's
        spans.

Only the standard library is imported before the timed region. Every
timed run and set-up records `calibration_s`, the machine-speed kernel of
speed.py timed right before and after it (after it, for a set-up). The
result is written as JSON to RESULT.
"""

import csv
import json
import os
import resource
import shutil
import sys
import time
import traceback

from speed import calibrate
from tracer import Tracer, aggregate


def _load_fermiflow():
    import fermiflow
    from fermiflow import runner

    expected = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(fermiflow.__file__).startswith(expected + os.sep):
        raise SystemExit(f"imported fermiflow from {fermiflow.__file__}, "
                         f"not from {expected}")
    return runner


def _setup(config_path):
    with open(config_path) as fh:
        text = fh.read()
    t0 = time.perf_counter()
    runner = _load_fermiflow()
    from fermiflow.model import build_potential

    cfg = runner.parse_config(text)
    build_potential(cfg.potential_spec, cfg.lattice)
    runner.build_initial_state(cfg)
    setup_s = time.perf_counter() - t0
    calibration_s = calibrate()

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"setup_s": setup_s, "calibration_s": calibration_s,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _read_series(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(row[i]) for row in rows[1:]]
            for i, name in enumerate(rows[0])}


def one_run(runner, cfg, out_dir):
    """runner.run(cfg, out_dir) timed, with what the checks need."""
    record = {"error": None}
    t0 = time.perf_counter()
    try:
        summary = runner.run(cfg, out_dir)
    except Exception:  # a failed run is counted, not fatal to the benchmark
        record["wall"] = time.perf_counter() - t0
        record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        shutil.rmtree(out_dir, ignore_errors=True)
        return record
    record["wall"] = time.perf_counter() - t0
    record["status"] = summary["status"]
    record["result"] = summary["result"]
    record["manifest"] = {m["path"]: m["sha256"] for m in summary["manifest"]}
    record["series"] = _read_series(os.path.join(out_dir, "series.csv"))
    shutil.rmtree(out_dir)
    return record


def _calibrated_run(runner, cfg, out_dir, before, tracer=None):
    """one_run, traced when a tracer is given, plus the mean of the
    calibration times `before` it and after it; returns the record and the
    calibration after it."""
    if tracer is None:
        record = one_run(runner, cfg, out_dir)
    else:
        tracer.reset()
        with tracer:
            record = one_run(runner, cfg, out_dir)
    after = calibrate()
    record["calibration_s"] = 0.5 * (before + after)
    if tracer is not None:
        record["stats"] = aggregate(tracer.spans)
    return record, after


def _runs(runner, cfg, work, seconds):
    records = []
    start = time.perf_counter()
    cal = calibrate()
    while True:
        t0 = time.perf_counter()
        rec, cal = _calibrated_run(runner, cfg, os.path.join(work, f"run{len(records)}"),
                                   cal)
        records.append(rec)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return {"runs": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _trace(runner, cfg, work, seconds, spans_path):
    tracer = Tracer()
    # The first traced run is cold (lru caches empty) and is only used to
    # check the counts. Then untraced and traced runs alternate, so that
    # both see the same phases of the machine's speed.
    cold, cal = _calibrated_run(runner, cfg, os.path.join(work, "cold"), calibrate(),
                                tracer)
    out = {"cold": cold, "untraced": [], "traced": []}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rec, cal = _calibrated_run(runner, cfg, os.path.join(work, "untraced"), cal)
        out["untraced"].append(rec)
        rec, cal = _calibrated_run(runner, cfg, os.path.join(work, "traced"), cal, tracer)
        out["traced"].append(rec)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    tracer.write(spans_path)
    return out


def main(argv):
    mode, config_path = argv[0], argv[1]
    if mode == "setup":
        result, result_path = _setup(config_path), argv[2]
    else:
        runner = _load_fermiflow()
        with open(config_path) as fh:
            cfg = runner.parse_config(fh.read())
        if mode == "runs":
            result = _runs(runner, cfg, argv[2], float(argv[3]))
            result_path = argv[4]
        elif mode == "trace":
            result = _trace(runner, cfg, argv[2], float(argv[3]), argv[5])
            result_path = argv[4]
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
