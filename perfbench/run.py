"""fairsift benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload {many-small,ties-3k}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``src/fairsift`` is imported from
there, nothing is installed.  Each repetition is a fresh child process
(``child.py``) that writes the workload's inputs from the seed and runs
``fairsift experiment --jobs 1`` then ``fairsift analyze`` through
``fairsift.cli.main``, with BLAS pinned to one thread.  Repetitions fill
about ``--seconds``, with at least two, and each is checked for
correctness.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (medians over the repetitions):

    experiment_s  wall seconds of one ``fairsift experiment``
    analyze_s     wall seconds of one ``fairsift analyze``, the median over
                  every block of analyze calls of every repetition
    peak_rss_mb   peak resident memory of a repetition's process
    setup_s       child start to inputs ready (interpreter, imports, files),
                  over every repetition, traced ones included

With ``--trace 1`` repetitions alternate untraced and traced, and the JSON
holds the per-layer metrics of ``spans.py`` (medians over the traced
repetitions) and ``trace.overhead_s``, traced minus untraced
``experiment_s``.  Both modes print the workload properties of
``workloads.properties`` above the JSON.

``attempted`` counts repetitions and ``failed`` those that broke a check;
error_rate = failed / attempted is printed above the JSON.  A traced layer
that saw no call stops the benchmark with exit code 2 and no result line.
"""

import argparse
import csv
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE_PATH = os.path.join(HERE, "baseline.json")

MIN_REPETITIONS = 2  # results.csv is compared across repetitions
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "experiment_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
ARTIFACTS = (
    "correlation.csv", "dendrogram.dot", "dendrogram.txt",
    "correlation_dataset.csv", "dendrogram_dataset.dot", "dendrogram_dataset.txt",
    "clusters.json", "sensitivity.csv", "movement.csv", "report.md",
)
DIGESTED = ("results.csv", "clusters.json", "report.md")
IDENTITY_TOLERANCE = 1e-12


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(workload, seed, rep_dir, trace=False):
    """Run one child; return its report dict, or None if it produced none."""
    os.makedirs(rep_dir)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload.name, "--seed", str(seed),
        "--n-datasets", str(workload.n_datasets), "--n-rows", str(workload.n_rows),
        "--analyze-blocks", str(workload.analyze_blocks),
        "--analyze-repeats", str(workload.analyze_repeats), "--dir", rep_dir,
    ]
    cmd += ["--trace"] * trace
    with open(os.path.join(rep_dir, "child.log"), "w", encoding="utf-8") as log:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)], stdout=log,
            stderr=subprocess.STDOUT, env=_child_env(), timeout=CHILD_TIMEOUT_S,
        )
    report_path = os.path.join(rep_dir, "child.json")
    if proc.returncode != 0 or not os.path.exists(report_path):
        return None
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh)


def digests(out_dir) -> dict:
    from fairsift.harness import file_sha256

    return {name: file_sha256(os.path.join(out_dir, name)) for name in DIGESTED}


def identity_errors(results_path) -> list[str]:
    """Records breaking C2 == -C0 or C20 == 2*sqrt(C16) (alpha 2)."""
    cells = {}
    with open(results_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for dataset, model, repeat, fold, metric_id, value in reader:
            if metric_id in ("C0", "C2", "C16", "C20"):
                cell = cells.setdefault((dataset, model, repeat, fold), {})
                cell[metric_id] = float(value) if value else None
    if not cells:
        return [f"{results_path}: no C0/C2/C16/C20 records"]
    errors = []
    for key, v in cells.items():
        c0, c2, c16, c20 = (v.get(m) for m in ("C0", "C2", "C16", "C20"))
        if (c0 is None) != (c2 is None) or (
            c0 is not None and abs(c2 + c0) > IDENTITY_TOLERANCE
        ):
            errors.append(f"{key}: C2={c2} is not -C0 (C0={c0})")
        if (c16 is None) != (c20 is None) or (
            c16 is not None
            and abs(c20 - 2.0 * math.sqrt(max(c16, 0.0))) > IDENTITY_TOLERANCE
        ):
            errors.append(f"{key}: C20={c20} is not 2*sqrt(C16) (C16={c16})")
    return errors


def rep_errors(rep_dir, report, n_records) -> list[str]:
    """Checks of one repetition that need no other repetition."""
    if report is None:
        return [f"child failed; see {os.path.join(rep_dir, 'child.log')}"]
    errors = []
    if any(report["exit_codes"]):
        errors.append(f"exit codes {report['exit_codes']}")
    out = os.path.join(rep_dir, "out")
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            records = json.load(fh)["record_count"]
    except (OSError, ValueError, KeyError) as exc:
        return errors + [f"manifest.json unreadable: {exc}"]
    if records != n_records:
        errors.append(f"record_count {records}, expected {n_records}")
    missing = [
        name for name in ARTIFACTS + ("results.csv",)
        if not os.path.isfile(os.path.join(out, name))
        or os.path.getsize(os.path.join(out, name)) == 0
    ]
    if missing:
        errors.append(f"missing artifacts {missing}")
    return errors


def gate(reps, n_records) -> tuple[int, dict | None]:
    """Check every repetition; return the failure count and the digests.

    The first passing repetition's results.csv is checked for the metric
    identities; every later one must reproduce its artifacts byte for byte.
    """
    failed, reference = 0, None
    for _, rep_dir, report in reps:
        errors = rep_errors(rep_dir, report, n_records)
        if not errors:
            out = os.path.join(rep_dir, "out")
            found = digests(out)
            if reference is None:
                errors = identity_errors(os.path.join(out, "results.csv"))
                reference = None if errors else found
            elif found != reference:
                errors = [f"artifacts differ from the first repetition: {found}"]
        if errors:
            failed += 1
            print(f"FAILED {rep_dir}: " + "; ".join(errors[:5]), file=sys.stderr)
    return failed, reference


def _recorded_digests(workload, seed):
    try:
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"][workload.name]
    except (OSError, KeyError):
        return None
    return recorded.get("seeds", {}).get(str(seed), {}).get("digests")


def expected_records(workload) -> int:
    from fairsift import harness

    return harness.expected_record_count(workload.n_datasets, harness.ExperimentConfig())


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir) -> dict:
    """Run one benchmark pass; return everything it measured and checked."""
    import workloads

    config = workloads.write_inputs(workload, seed, os.path.join(work_dir, "inputs"))
    properties = workloads.properties(workload, config)

    # traced runs alternate the order within each untraced/traced pair
    order = itertools.cycle((False, True, True, False)) if trace else itertools.repeat(False)
    step = 2 if trace else 1
    reps, started = [], time.monotonic()
    for i, traced in enumerate(order):
        rep_dir = os.path.join(work_dir, f"rep{i}")
        reps.append((traced, rep_dir, _spawn(workload, seed, rep_dir, trace=traced)))
        elapsed = time.monotonic() - started
        # stop once the middle of the next step would fall past the budget
        if (len(reps) >= MIN_REPETITIONS and len(reps) % step == 0
                and elapsed + 0.5 * step * elapsed / len(reps) >= seconds):
            break

    failed, found = gate(reps, expected_records(workload))
    reports = [(traced, r) for traced, _, r in reps if r is not None]
    plain = [r for traced, r in reports if not traced]
    result = {
        "attempted": len(reps),
        "failed": failed,
        "digests": found,
        "properties": properties,
        "end_to_end": {
            "experiment_s": statistics.median(r["experiment_s"] for r in plain),
            "analyze_s": statistics.median(t for r in plain for t in r["analyze_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for _, r in reports),
        } if plain else {},
    }
    recorded = _recorded_digests(workload, seed)
    if found and recorded and recorded != found:
        changed = sorted(k for k in found if recorded.get(k) != found[k])
        print(f"note: {changed} differ from the digests recorded in "
              f"baseline.json for seed {seed}; review, not a failure")
    if trace:
        traced = [r for t, r in reports if t]
        if not traced or not plain:
            raise BenchError("no traced or untraced repetition produced a report")
        for r in traced:
            if r["coverage_errors"]:
                raise BenchError("tracing missed layers: " + "; ".join(r["coverage_errors"]))
        # seconds are medians over the traced repetitions; counts are exact
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            if name.endswith("_s") else value
            for name, value in traced[0]["layers"].items()
        }
        layers["trace.overhead_s"] = (
            statistics.median(r["experiment_s"] for r in traced)
            - result["end_to_end"]["experiment_s"]
        )
        result["per_layer"] = layers
    return result


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fairsift", "__init__.py")):
        print(f"error: no fairsift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, value in sorted(result["properties"].items()):
        print(f"  {name} {value}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in result["end_to_end"].items()
        }
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(f"  error_rate {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} repetitions failed)")
    print(f"  digests {json.dumps(result['digests'], sort_keys=True)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
