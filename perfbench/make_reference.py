"""Write reference.json: the per-level records every sample is checked
against.

    python3 perfbench/make_reference.py

Run it on a commit whose results are trusted, and only when a change is
meant to alter what the adaptive loop computes.  Seeded workloads get one
reference per seed in SEEDS; run.py checks other seeds for repeatability and
the guaranteed bound only.
"""

import json
import os
import sys
import time

import run

SEEDS = range(32)


def main() -> int:
    keep = ("level",) + run.COUNTS + run.TOTALS
    out = {}
    for workload in run.WORKLOADS:
        seeds = SEEDS if workload in run.SEEDED else [0]
        out[workload] = {}
        for seed in seeds:
            res, err = run.spawn(workload, seed, 0,
                                 time.perf_counter() + run.DEADLINE_S, None)
            if res is None:
                print(f"{workload} seed {seed}: {err}", file=sys.stderr)
                return 1
            key = str(seed) if workload in run.SEEDED else "any"
            out[workload][key] = [{k: r[k] for k in keep}
                                  for r in res["records"]]
            print(f"{workload} {key}: {len(res['records'])} levels, "
                  f"{res['records'][-1]['n_dofs']} dofs", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
