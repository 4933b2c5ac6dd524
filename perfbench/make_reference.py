"""Record the reference scalars that run.py checks on the default seed.

    python3 perfbench/make_reference.py

For each workload the default-seed config is run at its time step dt and
at dt/2 (the Vlasov step halved too, snapshot times unchanged). The
integrators are second order, so the dt run's error is about 4/3 of the
difference between the two; the tolerance is ten times that estimate, with
a floor of 1e-9 relative for values the step does not move. A change of
scheme whose error constant is up to about ten times the current one still
passes; a wrong result does not. Writes perfbench/reference.json.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fermiflow import runner  # noqa: E402

from child import one_run  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, check_run, final_scalars,  # noqa: E402
                       make_config)

FACTOR = 10.0


def halved(doc):
    doc = json.loads(json.dumps(doc))
    doc["evolution"]["dt"] /= 2
    doc["evolution"]["snapshot_stride"] *= 2
    if "vlasov" in doc:
        doc["vlasov"]["dt"] /= 2
    return doc


def scalars(name, doc, work):
    rec = one_run(runner, runner.parse_config(json.dumps(doc)), work)
    problems = check_run(name, rec)
    if problems:
        raise SystemExit(f"{name}: {problems}")
    return final_scalars(name, rec)


def main():
    work = os.path.join(ROOT, ".perfbench_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    out = {"seed": DEFAULT_SEED, "factor": FACTOR, "workloads": {}}
    for name in WORKLOADS:
        doc = make_config(name, DEFAULT_SEED)
        full = scalars(name, doc, os.path.join(work, name))
        half = scalars(name, halved(doc), os.path.join(work, name + "_half"))
        out["workloads"][name] = {
            key: {"value": full[key], "half_dt_value": half[key],
                  "tol": max(FACTOR * 4.0 / 3.0 * abs(full[key] - half[key]),
                             1e-9 * max(1.0, abs(full[key])))}
            for key in full}
        print(name, json.dumps(out["workloads"][name]))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
