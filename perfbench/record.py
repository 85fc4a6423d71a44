"""Run every workload on the reference seeds and record the numbers.

    python3 perfbench/record.py [--out FILE]

For each workload and each of ``SEEDS`` this makes one untraced and one
traced pass of ``run.py``, each lasting the ``run_seconds`` of
``BENCHMARK.json``.  It prints every end-to-end metric with its unit and
the error rate and, with ``--out``, writes the environment, metrics,
per-layer metrics, workload properties and artifact digests as JSON
(``baseline.json`` holds the committed reference).
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import run

# the first is the reference seed; the second is there so that a claim can
# be re-checked on a seed it was not tuned on
SEEDS = (1, 2)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    sys.path.insert(0, run.SRC)
    import workloads

    recorded = {"environment": run.environment(), "seconds": seconds,
                "reference_seed": SEEDS[0], "workloads": {}}
    for workload in workloads.WORKLOADS.values():
        entry = recorded["workloads"][workload.name] = {"seeds": {}}
        for seed in SEEDS:
            passes = {}
            for trace in (False, True):
                work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
                try:
                    passes[trace] = run.run_workload(
                        workload, seed, seconds, trace, work_dir
                    )
                finally:
                    shutil.rmtree(work_dir, ignore_errors=True)
            plain, traced = passes[False], passes[True]
            entry["seeds"][str(seed)] = {
                "end_to_end": plain["end_to_end"],
                "per_layer": traced["per_layer"],
                "properties": plain["properties"],
                "digests": plain["digests"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
            }
            print(f"{workload.name} seed {seed}")
            for name, value in plain["end_to_end"].items():
                print(f"  {name:14s} {value:10.4f} {run.END_TO_END_UNITS[name]}")
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            print(f"  {'error_rate':14s} {failed / attempted:10.4f} "
                  f"({failed} of {attempted} repetitions failed)")
            print(f"  {'trace overhead':14s} "
                  f"{traced['per_layer']['trace.overhead_s']:10.4f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
