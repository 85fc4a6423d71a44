#!/usr/bin/env python3
"""Byte-compare the artifacts of two fairsift source trees.

    python3 scripts/compare_artifacts.py --parent DIR --change DIR [--work DIR]

The inputs are written once, from the parent tree: both workloads of
``perfbench/workloads.py`` (``write_inputs``) for seeds 1 and 2, and a
300-row synthetic dataset with four prediction columns, a 303-row
synthetic dataset (``uneven``), whose folds have 61 or 60 rows, so the
experiment pads a short fold's fits, and a 400-row synthetic dataset whose
numeric values are rounded to halves (``halves``): not integers, so D0
takes the float kernel, with about a fifth of a training fold's rows tied
at the k-th distance, so its tie rule is compared too, and a 120-row
synthetic dataset (``quoted``) whose name, ``quoted, "name"``, needs CSV
quoting in ``results.csv``, and 500 German-style integer rows
(``integers``), one of them 90 years old: D0 reads the other folds off the
neighbour list, and the folds that hold that row out have narrower spans,
so they run the per-mask exact kernel.  Then, for each
tree, child processes with that tree's ``src`` on the path and one BLAS
thread run:

* ``fairsift experiment --jobs 1`` on every workload input, and
  ``fairsift analyze`` on its ``results.csv`` with ``--correlation-scope``
  ``avg`` and ``pooled``;
* ``fairsift experiment --jobs 2`` on every workload input, into
  ``out-jobs2``, so the worker-pool path is compared too;
* ``fairsift experiment --jobs 1 --global-normalize`` on every workload
  input, into ``out-global``, so scaling by all rows' bounds is compared too;
* ``fairsift experiment --jobs 1`` and ``fairsift analyze`` on ``uneven``,
  ``halves``, ``quoted`` and ``integers``;
* ``fairsift demo``;
* ``fairsift metrics`` on the synthetic dataset, without and with each
  ``--predictions-column``.

Each tree runs in its own working directory with the same relative output
paths, so the files can be compared byte for byte.  Every artifact is
printed as ``same`` or ``DIFFERS``; the exit code is 1 if any differs or
exists in one tree only, 2 if a command fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("many-small", "ties-3k")
SEEDS = (1, 2)
SCOPES = ("avg", "pooled")
PREDICTIONS = ("pred_random", "pred_label", "pred_all", "pred_group")
# input directories of the single-dataset cases
SINGLE_CASES = ("uneven", "halves", "quoted", "integers")

# run with the parent's src and perfbench on the path, in the input directory
WRITE_INPUTS = f"""
import csv
import json
import os

import numpy as np
import workloads
from fairsift import synth
from fairsift.datamodel import write_csv, write_json

for name in {WORKLOADS!r}:
    for seed in {SEEDS!r}:
        case = os.path.abspath(f"{{name}}-{{seed}}")
        workloads.write_inputs(workloads.WORKLOADS[name], seed, case)

header, rows = synth.generate_rows(300, 0.4, 5)
rng = np.random.default_rng(5)
group, label = header.index(synth.GROUP_COLUMN), header.index(synth.LABEL_COLUMN)
yes, no = synth.FAVORABLE, synth.UNFAVORABLE
with open("metrics.csv", "w", encoding="utf-8", newline="") as fh:
    writer = csv.writer(fh, lineterminator="\\n")
    writer.writerow(header + {list(PREDICTIONS)!r})
    for row, coin in zip(rows, rng.random(len(rows)) < 0.5):
        group_yes = row[group] == synth.PRIVILEGED
        writer.writerow(row + [yes if coin else no, row[label], yes,
                               yes if group_yes else no])
with open("metrics.spec.json", "w", encoding="utf-8") as fh:
    json.dump(synth.spec_dict("metrics"), fh, indent=2, sort_keys=True)

halves = synth.generate_rows(400, 0.3, 11)
numeric = [halves[0].index(name) for name in ("f1", "f2", "f3", "proxy", "noise")]
for row in halves[1]:
    for c in numeric:
        row[c] = str(round(float(row[c]) * 2) / 2)
# integer-coded rows, D0 off the neighbour list; the one oldest row makes
# the folds that hold it out narrower, so they take the per-mask exact kernel
integers = workloads._german_style(500, 17)
integers[1][0][integers[0].index("age_years")] = "90"
tables = (
    (*synth.generate_rows(303, 0.3, 7), synth.spec_dict("uneven")),
    (*halves, synth.spec_dict("halves")),
    (*synth.generate_rows(120, 0.3, 13), synth.spec_dict('quoted, "name"')),
    integers,
)
for name, (header, rows, spec) in zip({SINGLE_CASES!r}, tables):
    os.makedirs(name, exist_ok=True)
    entry = {{"data": os.path.abspath(f"{{name}}/data.csv"),
             "spec": os.path.abspath(f"{{name}}/data.spec.json")}}
    write_csv(entry["data"], header, rows)
    write_json(entry["spec"], spec)
    with open(f"{{name}}/config.json", "w", encoding="utf-8") as fh:
        json.dump({{"datasets": [entry]}}, fh, indent=2)
"""


def _env(pythonpath) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(argv, cwd, pythonpath, stdout=None) -> None:
    done = subprocess.run(argv, cwd=cwd, env=_env(pythonpath), stdout=stdout,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")


def commands(inputs: str):
    """(argv after ``fairsift``, stdout file or None) for every run, in order."""
    for name in WORKLOADS:
        for seed in SEEDS:
            case = f"{name}-{seed}"
            config = os.path.join(inputs, case, "config.json")
            yield ["experiment", "--config", config, "--out", f"{case}/out",
                   "--jobs", "1"], None
            for scope in SCOPES:
                yield ["analyze", "--results", f"{case}/out/results.csv",
                       "--out", f"{case}/{scope}", "--correlation-scope", scope], None
            yield ["experiment", "--config", config, "--out", f"{case}/out-jobs2",
                   "--jobs", "2"], None
            yield ["experiment", "--config", config, "--out", f"{case}/out-global",
                   "--jobs", "1", "--global-normalize"], None
    for name in SINGLE_CASES:
        yield ["experiment", "--config", os.path.join(inputs, name, "config.json"),
               "--out", f"{name}/out", "--jobs", "1"], None
        yield ["analyze", "--results", f"{name}/out/results.csv", "--out", f"{name}/analysis"], None
    yield ["demo", "--out", "demo"], None
    data = ["--data", os.path.join(inputs, "metrics.csv"),
            "--spec", os.path.join(inputs, "metrics.spec.json")]
    yield ["metrics", *data], "metrics/plain.csv"
    for column in PREDICTIONS:
        yield ["metrics", *data, "--predictions-column", column], f"metrics/{column}.csv"


def run_tree(tree: str, out_dir: str, inputs: str) -> None:
    os.makedirs(os.path.join(out_dir, "metrics"), exist_ok=True)
    for argv, stdout in commands(inputs):
        print(f"[{os.path.basename(out_dir)}] {' '.join(argv[:3])}", flush=True)
        argv = [sys.executable, "-m", "fairsift.cli", *argv]
        src = [os.path.join(tree, "src")]
        if stdout is None:
            _run(argv, out_dir, src, subprocess.DEVNULL)
        else:
            with open(os.path.join(out_dir, stdout), "w", encoding="utf-8") as fh:
                _run(argv, out_dir, src, fh)


def files(root: str) -> set[str]:
    return {str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file()}


def compare(a: str, b: str) -> int:
    """Print every file's verdict; return the number that are not the same."""
    bad = 0
    for rel in sorted(files(a) | files(b)):
        paths = [Path(root, rel) for root in (a, b)]
        if not all(p.exists() for p in paths):
            verdict = "only in " + ("parent" if paths[0].exists() else "change")
        else:
            verdict = "same" if paths[0].read_bytes() == paths[1].read_bytes() else "DIFFERS"
        bad += verdict != "same"
        print(f"{verdict:8} {rel}")
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="source tree of the parent")
    p.add_argument("--change", required=True, help="source tree of the change")
    p.add_argument("--work", default=None,
                   help="directory for inputs and outputs (default: a temporary one)")
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.abspath(args.work or tmp)
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs, exist_ok=True)
        parent = trees["parent"]
        try:
            _run([sys.executable, "-c", WRITE_INPUTS], inputs,
                 [os.path.join(parent, "src"), os.path.join(parent, "perfbench")])
            for label, tree in trees.items():
                run_tree(tree, os.path.join(work, label), inputs)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        bad = compare(os.path.join(work, "parent"), os.path.join(work, "change"))
    print(f"{bad} artifact(s) differ" if bad else "all artifacts are byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
