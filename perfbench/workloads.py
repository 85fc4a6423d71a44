"""Benchmark workloads: the input files each one feeds to ``fairsift``.

Every workload is a list of synthetic datasets written as CSV + spec JSON,
plus one run config naming them, all derived from the workload seed alone.
The two workloads load different layers (see ``WORKLOADS``):

* ``many-small``: 48 datasets of 250 rows, bias gap alternating 0.4/0.0;
  logistic fits, classification metrics, record building and the
  Spearman-heavy analysis over 96 (dataset, model) cells dominate.
* ``ties-3k``: 3000 German-Credit-style rows with integer-valued,
  low-cardinality columns and a label-encoded categorical, so many
  training rows have tied k-th-neighbour distances and take the tie path
  of ``metrics.consistency`` (``properties`` measures how many); kNN
  consistency (D0) dominates experiment time.

A third workload, one untied 4000-row dataset, was left out: with two
workloads each run can last about twice as long within the time all runs
may take, and on a shared host the runs need that length to read steadily.
ties-3k still spends most of its time in kNN consistency.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from fairsift import harness, synth
from fairsift.datamodel import DatasetSpec, apply_minmax, encode_dataset, fit_minmax

K_NEIGHBORS = 5  # fairsift's default k for consistency (D0)


@dataclass(frozen=True)
class Workload:
    name: str
    n_datasets: int
    n_rows: int
    # analyze runs in this many blocks per repetition, each of
    # ``analyze_repeats`` calls timed per call over the block, so that a
    # block spans about a second or more rather than one tenth of a second,
    # and a run has several analyze_s samples to take the median of
    analyze_blocks: int
    analyze_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-small", 48, 250, 2, 1),
        Workload("ties-3k", 1, 3000, 4, 10),
    )
}


def _german_style(n_rows: int, seed: int):
    """Integer-valued credit rows; the label depends on features and group."""
    rng = np.random.default_rng(seed)
    male = rng.random(n_rows) < 0.69
    age = rng.integers(19, 76, n_rows)
    duration = rng.choice((6, 12, 18, 24, 36, 48), n_rows)
    rate = rng.integers(1, 5, n_rows)
    telephone = rng.random(n_rows) < 0.4
    z = (0.6 - 0.04 * (duration - 20) + 0.02 * (age - 35) - 0.25 * (rate - 2.5)
         + 0.3 * telephone + 0.6 * male)
    good = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-z))
    header = ["sex", "credit", "age_years", "duration_months",
              "installment_rate", "telephone"]
    rows = [
        ["male" if male[i] else "female", "good" if good[i] else "bad",
         str(age[i]), str(duration[i]), str(rate[i]),
         "yes" if telephone[i] else "none"]
        for i in range(n_rows)
    ]
    spec = {
        "name": "german_style",
        "label_column": "credit",
        "favorable_value": "good",
        "protected_column": "sex",
        "privileged_value": "male",
        "feature_columns": [
            {"name": "age_years", "kind": "numeric"},
            {"name": "duration_months", "kind": "numeric"},
            {"name": "installment_rate", "kind": "numeric"},
            {"name": "telephone", "kind": "categorical"},
        ],
        "encoding": {"telephone": "label_encode"},
    }
    return header, rows, spec


def _datasets(workload: Workload, seed: int):
    """Yield (header, rows, spec dict) for each dataset of the workload."""
    if workload.name == "ties-3k":
        yield _german_style(workload.n_rows, seed)
        return
    for i in range(workload.n_datasets):
        gap = 0.4 if i % 2 == 0 else 0.0
        name = f"synth{i:02d}"
        header, rows = synth.generate_rows(workload.n_rows, gap, seed * 100 + i)
        yield header, rows, synth.spec_dict(name)


def write_inputs(workload: Workload, seed: int, directory) -> str:
    """Write the workload's CSV, spec and run-config files; return the config."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, (header, rows, spec) in enumerate(_datasets(workload, seed)):
        data_path = os.path.join(directory, f"data{i:02d}.csv")
        spec_path = os.path.join(directory, f"data{i:02d}.spec.json")
        with open(data_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2, sort_keys=True)
        entries.append({"data": data_path, "spec": spec_path})
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"datasets": entries}, fh, indent=2)
    return config_path


def tied_share(X: np.ndarray, k: int = K_NEIGHBORS) -> float:
    """Share of rows whose k-th and (k+1)-th nearest distances are equal.

    Those rows need the smallest-row-index tie rule.  Distances are on
    min-max scaled columns, self excluded, by direct differences.  When
    every column is integer-valued the squared distances are computed
    exactly, as integers scaled by the lcm of the squared column spans.
    """
    X = np.asarray(X, dtype=float)
    mins, spans = X.min(axis=0), np.ptp(X, axis=0)
    keep = spans > 0
    X, spans = X[:, keep] - mins[keep], spans[keep]
    weights = 1.0 / spans**2
    if np.array_equal(X, np.round(X)):
        lcm = math.lcm(*(int(s) ** 2 for s in spans))
        if lcm * len(spans) < 2**53:  # every partial sum an exact float
            weights = np.array([lcm // int(s) ** 2 for s in spans], dtype=float)
    n, tied, block = len(X), 0, 256
    for start in range(0, n, block):
        rows = X[start : start + block]
        d = ((rows[:, None, :] - X[None, :, :]) ** 2) @ weights
        d[np.arange(len(rows)), np.arange(start, start + len(rows))] = np.inf
        part = np.partition(d, (k - 1, k), axis=1)
        tied += int((part[:, k - 1] == part[:, k]).sum())
    return tied / n


def tie_path_share(X: np.ndarray, k: int = K_NEIGHBORS) -> float:
    """Share of rows that take the tie path of ``metrics.consistency``.

    Computes the distances as it does, |a|^2 + |b|^2 - 2ab on the scaled
    training fold, and counts the rows with other than k distances at most
    the k-th smallest.  Rounding in that formula can split equal distances
    or merge unequal ones, so this share can differ from ``tied_share``.
    """
    X = np.asarray(X, dtype=float)
    sq = (X * X).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, np.inf)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    return float(((d <= kth[:, None]).sum(axis=1) != k).mean())


def properties(workload: Workload, config_path) -> dict:
    """Input properties the layers' cost depends on, counted without timing.

    The tie shares are taken over the training rows of repeat 0, fold 0 of
    every dataset, as the harness's default CV plan splits and scales them:
    ``tie_share`` counts exact ties, ``tie_path_share`` the rows that take
    the program's tie path.
    """
    with open(config_path, encoding="utf-8") as fh:
        entries = json.load(fh)["datasets"]
    train_rows, tied, tie_path = 0, 0.0, 0.0
    for entry in entries:
        ds = encode_dataset(entry["data"], DatasetSpec.from_json_file(entry["spec"]))
        train = harness.make_cv_plan(ds.row_count).assignments[0] != 0
        X_train = ds.X[train]
        n_train = int(train.sum())
        train_rows += n_train
        tied += tied_share(X_train) * n_train
        X_scaled = apply_minmax(X_train, *fit_minmax(X_train))
        tie_path += tie_path_share(X_scaled) * n_train
    n_models = len(harness.MODEL_NAMES)
    return {
        "workload.datasets": len(entries),
        "workload.cells": len(entries) * n_models,
        "workload.train_rows": train_rows // len(entries),
        "workload.tie_share": tied / train_rows,
        "workload.tie_path_share": tie_path / train_rows,
    }
