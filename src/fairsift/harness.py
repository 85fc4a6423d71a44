"""Cross-validation experiment harness.

For each dataset: 5-fold cross-validation repeated 5 times with per-repeat
seeds.  In every fold the baseline logistic model and the reweighed logistic
model are trained on the training split and evaluated on the held-out split.
Each model keeps one count tensor of its test predictions
(``metrics.confusion_counts``) and one label-weight tensor of its (raw /
reweighed) training weights (``metrics.label_weights``); the models share
the training split's D0.  A fold whose reweighing failed keeps all-zero
tensors, so all 30 of its metrics are Undefined.

The unit of work is one repeat of one dataset (``_repeat_job``, also the
unit of ``--jobs``).  The run builds each dataset's kNN neighbour list
once, with that dataset's five jobs (``metrics.neighbour_list``: a list on
integer-coded data, else None), and hands it to each of them.  A job fits
each fold's min-max bounds once, gets D0 of its five training splits from
one ``metrics.consistency`` call on the raw rows, those bounds and the
list, then scales each fold's rows once by the same bounds, and returns
its slice of the run's arrays: count tensors ``[model, fold, 2, 2, 2]``,
label-weight tensors ``[model, fold, 2, 2]`` and D0 ``[1, fold]``.  The
run stacks the slices into ``[dataset, model, repeat, fold, ...]`` and
makes one ``metrics.compute_classification_metrics`` and one
``metrics.compute_dataset_metrics`` call.

That yields 25 samples per (dataset, model, metric) cell, which is what the
downstream correlation and sensitivity analyses consume.
``MetricSampleMatrix`` holds them as one float array
``values[dataset, model, metric, repeat * 5 + fold]`` with NaN for
Undefined; ``results.csv`` lists that grid one entry per row.

Scaling statistics and reweighing weights are fit on training rows only and
applied to test rows, so no information leaks across the split.  A
``global_normalize`` switch restores the simpler one-pass normalization for
pipelines that were defined that way.  This module is the one place that
decides the scaling: D0 gets the bounds the fits use.

Everything is a pure function of (data, seeds, config): rerunning with the
same inputs rewrites byte-identical results, regardless of worker count.
"""

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics, models
from .datamodel import (
    UNDEFINED_FIELD,
    ConfigError,
    DatasetSpec,
    EncodedDataset,
    apply_minmax,
    check_fields,
    encode_dataset,
    file_sha256,
    fit_minmax,
    format_value,
    read_csv,
    write_csv,
    write_json,
)
from .models import Mitigator, ReweighingError, ReweighingMitigator

N_FOLDS = 5
N_REPEATS = 5
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

BASELINE = "baseline"
REWEIGHING = "reweighing"
MODEL_NAMES = (BASELINE, REWEIGHING)
# lower-cased model name -> mitigator name; other names pass unchanged
_MODEL_ALIASES = {BASELINE: BASELINE, "rw": REWEIGHING, REWEIGHING: REWEIGHING}

# built-in mitigator per model name; run_experiment accepts extra ones
BUILTIN_MITIGATORS: dict[str, Mitigator] = {
    BASELINE: Mitigator(),
    REWEIGHING: ReweighingMitigator(),
}

# the (repeat, fold) of each sample, in the order of the grid's last axis
SLOTS = tuple(itertools.product(range(N_REPEATS), range(N_FOLDS)))


@dataclass(frozen=True)
class CvPlan:
    """Per-repeat fold id for every row; folds are shuffled, not stratified."""

    assignments: np.ndarray  # shape (n_repeats, n_rows), values in 0..N_FOLDS-1

    def __post_init__(self):
        self.assignments.setflags(write=False)


def make_cv_plan(n_rows: int, seeds=DEFAULT_SEEDS) -> CvPlan:
    """Deterministic shuffled fold assignment, sizes differing by at most 1."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) != N_REPEATS:
        raise ValueError(f"need exactly {N_REPEATS} seeds, got {len(seeds)}")
    if n_rows < 2 * N_FOLDS:
        raise ValueError(f"need at least {2 * N_FOLDS} rows, got {n_rows}")
    # the first n_rows % N_FOLDS folds get one row more
    sizes = n_rows // N_FOLDS + (np.arange(N_FOLDS) < n_rows % N_FOLDS)
    folds = np.repeat(np.arange(N_FOLDS), sizes)
    assignments = np.empty((N_REPEATS, n_rows), dtype=np.int64)
    for r, seed in enumerate(seeds):
        assignments[r, np.random.default_rng(seed).permutation(n_rows)] = folds
    return CvPlan(assignments)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run settings; ``ConfigError`` names a field of the wrong type or range."""

    seeds: tuple[int, ...] = DEFAULT_SEEDS
    models: tuple[str, ...] = MODEL_NAMES
    alpha: float = 2.0
    k_neighbors: int = 5
    concentration: float = 1.0
    l2_strength: float = 1.0
    max_iterations: int = 1000
    tolerance: float = 1e-6
    global_normalize: bool = False
    jobs: int = 1

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "models", tuple(
            dict.fromkeys(_MODEL_ALIASES.get(m.lower(), m) for m in self.models)
        ))
        if len(self.seeds) != N_REPEATS:
            raise ConfigError(f"exactly {N_REPEATS} seeds required, got {len(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must not be negative, got {list(self.seeds)}")
        if not self.models:
            raise ConfigError("at least one model required")
        for name in ("alpha", "k_neighbors", "concentration", "l2_strength",
                     "max_iterations", "tolerance", "jobs"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        """The settings that shape the results, for ``manifest.json``."""
        settings = asdict(self)
        del settings["jobs"]
        return settings


class MetricSampleMatrix:
    """Every sample of a run: ``values[d, m, k, repeat * N_FOLDS + fold]`` is
    metric ``metric_ids[k]`` of model ``models[m]`` on dataset
    ``datasets[d]``, NaN for Undefined.  Datasets and models are sorted by
    name, metric ids follow ``metric_sort_key``, and the last axis follows
    ``SLOTS``.  ``len()`` is the number of entries.

    The constructor takes the axes and the grid as they are; ``from_entries``
    builds them from (dataset, model, repeat, fold, metric_id, value) rows.
    """

    def __init__(self, datasets, models, metric_ids, values):
        self.datasets = tuple(datasets)
        self.models = tuple(models)
        self.metric_ids = tuple(metric_ids)
        self.values = np.array(values, dtype=float, order="C")
        shape = (len(self.datasets), len(self.models), len(self.metric_ids),
                 N_REPEATS * N_FOLDS)
        if self.values.shape != shape:
            raise ValueError(f"values have shape {self.values.shape}, axes give {shape}")
        self.values.setflags(write=False)

    @classmethod
    def from_entries(cls, entries) -> "MetricSampleMatrix":
        """The grid of (dataset, model, repeat, fold, metric_id, value)
        entries, a value that is None, NaN or infinite being Undefined.  Every
        (dataset, model, metric, repeat, fold) of the axes must occur exactly
        once, with repeat and fold in 0..4; anything else raises
        ``ValueError``."""
        columns = tuple(zip(*entries))
        if not columns:
            raise ValueError("no entries")
        datasets, models, repeats, folds, metric_ids, values = columns
        axes = (
            tuple(sorted(set(datasets))),
            tuple(sorted(set(models))),
            tuple(sorted(set(metric_ids), key=metrics.metric_sort_key)),
            SLOTS,
        )
        shape = tuple(len(axis) for axis in axes)
        index = [{key: i for i, key in enumerate(axis)} for axis in axes]
        labels = (datasets, models, metric_ids, zip(repeats, folds))
        try:
            flat = np.ravel_multi_index(
                [[ix[key] for key in column] for ix, column in zip(index, labels)], shape
            )
        except KeyError as exc:
            raise ValueError(f"(repeat, fold) {exc.args[0]} outside 0..4") from None
        counts = np.bincount(flat, minlength=math.prod(shape))
        if (counts != 1).any():
            i = int(np.argmax(counts != 1))
            d, m, k, t = np.unravel_index(i, shape)
            raise ValueError(
                f"entry {axes[0][d]},{axes[1][m]},{SLOTS[t][0]},{SLOTS[t][1]},"
                f"{axes[2][k]} occurs {counts[i]} times, not once"
            )
        grid = np.empty(counts.size)
        grid[flat] = values
        grid[~np.isfinite(grid)] = np.nan
        return cls(*axes[:3], grid.reshape(shape))

    def __len__(self) -> int:
        return self.values.size

    def cell(self, dataset: str, model: str, metric_id: str) -> np.ndarray:
        """One cell's values in repeat-then-fold order, NaN for Undefined."""
        return self.values[self.datasets.index(dataset), self.models.index(model),
                           self.metric_ids.index(metric_id)]


def _repeat_job(args):
    """One repeat of one dataset, as its slice of the run's arrays: D0 of each
    fold's training split in ``consistency[0, fold]`` (one row, shared by the
    models), and each model's count tensor of the test split and label-weight
    tensor of the training split in ``counts[model, fold]`` and
    ``label_weights[model, fold]``.  Each model is ``models.train_logistic``
    on its (name, mitigator)'s training weights; a model whose reweighing
    failed keeps all-zero tensors, so all 30 of its metrics are Undefined.

    Each fold's min-max bounds are fitted once on its training rows or,
    under ``global_normalize``, one fit on all rows serves every fold; the
    same bounds scale the fits' rows and D0's.  D0 of all five folds is one
    ``metrics.consistency`` call on the raw rows before the fold loop, so no
    scaled fold is alive while it runs.  ``listed`` is the dataset's
    ``metrics.neighbour_list``, shared by its five jobs: every fold whose
    bounds have the list's spans reads its neighbours off it."""
    ds, cfg, repeat, assignment, mitigators, listed = args
    counts = np.zeros((len(mitigators), N_FOLDS, 2, 2, 2), dtype=np.int64)
    label_weights = np.zeros((len(mitigators), N_FOLDS, 2, 2))
    trains = assignment != np.arange(N_FOLDS)[:, None]
    bounds = ([fit_minmax(ds.X)] * N_FOLDS if cfg.global_normalize
              else [fit_minmax(ds.X[train]) for train in trains])
    # consistency ignores instance weights, so all models share the value
    consistency = metrics.consistency(ds.X, ds.y, cfg.k_neighbors, trains, bounds,
                                      listed)[None]
    for fold, train in enumerate(trains):
        test = ~train
        # apply_minmax scales every entry on its own, so scaling all rows once
        # gives both splits the bits they would get scaled apart
        X = apply_minmax(ds.X, *bounds[fold])
        X_train, y_train, s_train = X[train], ds.y[train], ds.s[train]
        X_test, y_test, s_test = X[test], ds.y[test], ds.s[test]

        for m, (name, mitigator) in enumerate(mitigators):
            try:
                weights = mitigator.training_weights(y_train, s_train)
            except ReweighingError as exc:
                warnings.warn(
                    f"{ds.name} repeat={repeat} fold={fold}: {exc}; "
                    f"recording Undefined for the {name} model"
                )
                continue
            # through the module attribute, so a wrapper set on it sees each fit
            fitted = models.train_logistic(
                X_train, y_train, weights, l2_strength=cfg.l2_strength,
                max_iterations=cfg.max_iterations, tolerance=cfg.tolerance,
            )
            counts[m, fold] = metrics.confusion_counts(y_test, fitted.predict(X_test), s_test)
            label_weights[m, fold] = metrics.label_weights(y_train, s_train, weights)
    return counts, label_weights, consistency


def run_experiment(
    datasets,
    config: ExperimentConfig | None = None,
    mitigators: dict[str, Mitigator] | None = None,
) -> MetricSampleMatrix:
    """Run the full CV pipeline over encoded (unnormalized) datasets.

    ``datasets`` is an iterable of EncodedDataset as produced by
    ``datamodel.encode_dataset``; scaling happens inside each fold.  Custom
    mitigators can be plugged in by name: ``config.models`` selects from the
    built-ins merged with the ``mitigators`` mapping.
    """
    cfg = config or ExperimentConfig()
    registry = dict(BUILTIN_MITIGATORS)
    if mitigators:
        registry.update(mitigators)
    unknown = [m for m in cfg.models if m not in registry]
    if unknown:
        raise ConfigError(f"no mitigator registered for models {unknown}")

    datasets = sorted(datasets, key=lambda d: d.name)
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError(f"dataset names must be unique, got {names}")
    if not datasets:
        raise ValueError("no datasets")
    model_names = tuple(sorted(cfg.models))
    selected = tuple((m, registry[m]) for m in model_names)

    jobs = []
    for ds in datasets:
        plan = make_cv_plan(ds.row_count, cfg.seeds)
        # the list depends only on the rows and k: one per dataset, read by
        # every repeat job, which stays the unit of --jobs
        listed = metrics.neighbour_list(ds.X, cfg.k_neighbors)
        for repeat in range(N_REPEATS):
            jobs.append((ds, cfg, repeat, plan.assignments[repeat], selected, listed))

    if cfg.jobs > 1 and len(jobs) > 1:
        # the fork start method starts every worker up front: no more than jobs
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(jobs))) as pool:
            results = list(pool.map(_repeat_job, jobs))
    else:
        results = [_repeat_job(job) for job in jobs]

    # jobs run dataset by dataset, repeat by repeat: each array's job slices
    # stack to [dataset, repeat, model, fold, ...], then model goes first
    counts, label_weights, consistency = (
        np.stack(part).reshape((len(datasets), N_REPEATS) + part[0].shape).swapaxes(1, 2)
        for part in zip(*results)
    )
    per_fold = np.concatenate([
        metrics.compute_classification_metrics(
            counts, alpha=cfg.alpha, concentration=cfg.concentration
        ),
        metrics.compute_dataset_metrics(
            label_weights, consistency, concentration=cfg.concentration
        ),
    ], axis=-1)
    values = per_fold.reshape(counts.shape[:2] + (N_REPEATS * N_FOLDS, -1)).swapaxes(2, 3)
    return MetricSampleMatrix(names, model_names, metrics.CLASSIFICATION_IDS + metrics.DATASET_IDS,
                              values)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

RESULTS_HEADER = ("dataset", "model", "repeat", "fold", "metric_id", "value")


def write_results_csv(samples: MetricSampleMatrix, path) -> None:
    """Long format, one row per grid entry in grid order: by dataset, model
    name, repeat, fold and ``metric_sort_key``; Undefined serialized as
    empty."""
    write_csv(path, RESULTS_HEADER, (
        (dataset, model, repeat, fold, metric_id, format_value(v))
        for dataset, by_model in zip(samples.datasets, samples.values)
        for model, by_metric in zip(samples.models, by_model)
        for (repeat, fold), column in zip(SLOTS, by_metric.T.tolist())
        for metric_id, v in zip(samples.metric_ids, column)
    ))


def _parse_row(row) -> tuple:
    dataset, model, repeat, fold, metric_id, value = row
    if metric_id not in metrics.METRIC_CATALOG:
        raise ValueError(f"unknown metric id {metric_id!r}")
    number = math.nan if value == UNDEFINED_FIELD else float(value)
    if value != UNDEFINED_FIELD and not math.isfinite(number):
        raise ValueError(f"value {value!r} is not finite; Undefined is an empty field")
    return dataset, model, int(repeat), int(fold), metric_id, number


def read_results_csv(path) -> MetricSampleMatrix:
    """``results.csv`` back as its grid.  A file that cannot be read, is not
    UTF-8 or is empty raises ``DataError`` (``datamodel.read_csv``); a header,
    row or grid that is not a results grid raises ``ValueError``."""
    entries = []
    with read_csv(path) as (header, reader):
        if tuple(header) != RESULTS_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(RESULTS_HEADER)}, got {header}"
            )
        for row in filter(None, reader):
            try:
                entries.append(_parse_row(row))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    try:
        return MetricSampleMatrix.from_entries(entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class DatasetSource:
    """A dataset as named on the command line: CSV path + spec path."""

    data_path: str
    spec_path: str

    def load(self) -> EncodedDataset:
        return encode_dataset(self.data_path, DatasetSpec.from_json_file(self.spec_path))

    def digests(self) -> dict:
        return {
            "data_path": str(self.data_path),
            "data_sha256": file_sha256(self.data_path),
            "spec_path": str(self.spec_path),
            "spec_sha256": file_sha256(self.spec_path),
        }


def write_manifest(path, config: ExperimentConfig, sources, record_count: int,
                   failures=()) -> None:
    write_json(path, {
        "config": config.to_dict(),
        "inputs": [src.digests() for src in sources],
        "record_count": record_count,
        "complete": not failures,
        "failures": [
            {"dataset": name, "error": message} for name, message in failures
        ],
    })


def expected_record_count(n_datasets: int, config: ExperimentConfig) -> int:
    per_model = len(metrics.CLASSIFICATION_IDS) + len(metrics.DATASET_IDS)
    return n_datasets * len(config.models) * N_FOLDS * N_REPEATS * per_model
