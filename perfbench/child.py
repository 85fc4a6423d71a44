"""One benchmark repetition, in a fresh process.

Sets up (imports fairsift, writes the workload's input files), then runs
``fairsift experiment`` once and ``fairsift analyze`` in ``--analyze-blocks``
blocks of ``--analyze-repeats`` calls through ``fairsift.cli.main``, and
writes its timings as JSON; ``analyze_s`` lists each block's time per call.
With ``--trace`` the layers are wrapped by ``spans.install`` first, analyze
runs once, and the per-layer numbers are written too.

    python3 child.py --workload NAME --seed N --n-datasets D --n-rows R
                     --dir DIR --spawned-at T [--analyze-blocks B]
                     [--analyze-repeats M] [--trace]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` includes interpreter start-up.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since it exec'd.

    ``getrusage`` ru_maxrss also counts the memory of the parent that
    forked this process, so VmHWM of the current address space is read
    where Linux provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-datasets", type=int, required=True)
    p.add_argument("--n-rows", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--analyze-blocks", type=int, default=1)
    p.add_argument("--analyze-repeats", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    from fairsift import cli
    import workloads

    workload = dataclasses.replace(
        workloads.WORKLOADS[args.workload],
        n_datasets=args.n_datasets, n_rows=args.n_rows,
    )
    config = workloads.write_inputs(workload, args.seed, os.path.join(args.dir, "in"))
    report = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at}

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    out = os.path.join(args.dir, "out")
    start = time.perf_counter()
    codes = [cli.main(["experiment", "--config", config, "--out", out,
                       "--jobs", "1"])]
    report["experiment_s"] = time.perf_counter() - start
    blocks, repeats = (
        (1, 1) if args.trace else (args.analyze_blocks, args.analyze_repeats)
    )
    report["analyze_s"] = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(repeats):
            codes.append(cli.main(["analyze", "--results",
                                   os.path.join(out, "results.csv"), "--out", out]))
        report["analyze_s"].append((time.perf_counter() - start) / repeats)
    report["exit_codes"] = codes
    report["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer)
        report["coverage_errors"] = spans.coverage_errors(tracer)

    with open(os.path.join(args.dir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
