"""Cross-validation experiment harness.

For each dataset: 5-fold cross-validation repeated 5 times with per-repeat
seeds.  In every fold the baseline logistic model and the reweighed logistic
model are trained on the training split and evaluated on the held-out split;
each model's predictions are kept as one count tensor
(``metrics.confusion_counts``), and the 4 dataset metrics are recorded on
the (raw / reweighed) training data.  The run's count tensors are stacked into
``counts[dataset, model, repeat, fold, 2, 2, 2]`` and one
``metrics.compute_classification_metrics`` call turns them into all 26
classification metrics.  A fold whose reweighing failed keeps an all-zero
tensor and NaN dataset metrics, so all 30 of its metrics are Undefined.

That yields 25 samples per (dataset, model, metric) cell, which is what the
downstream correlation and sensitivity analyses consume.
``MetricSampleMatrix`` holds them as one float array
``values[dataset, model, metric, repeat * 5 + fold]`` with NaN for
Undefined; ``results.csv`` lists that grid one entry per row.

Scaling statistics and reweighing weights are fit on training rows only and
applied to test rows, so no information leaks across the split.  A
``global_normalize`` switch restores the simpler one-pass normalization for
pipelines that were defined that way.

Everything is a pure function of (data, seeds, config): rerunning with the
same inputs rewrites byte-identical results, regardless of worker count.
"""

import csv
import hashlib
import itertools
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics
from .datamodel import (
    DatasetSpec,
    EncodedDataset,
    apply_minmax,
    encode_dataset,
    fit_minmax,
)
from .models import (
    LogisticConfig,
    Mitigator,
    ReweighingError,
    ReweighingMitigator,
)

N_FOLDS = 5
N_REPEATS = 5
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

BASELINE = "baseline"
REWEIGHING = "reweighing"
MODEL_NAMES = (BASELINE, REWEIGHING)

# built-in mitigator per model name; run_experiment accepts extra ones
BUILTIN_MITIGATORS: dict[str, Mitigator] = {
    BASELINE: Mitigator(),
    REWEIGHING: ReweighingMitigator(),
}

UNDEFINED_FIELD = ""


@dataclass(frozen=True)
class CvPlan:
    """Per-repeat fold id for every row; folds are shuffled, not stratified."""

    n_rows: int
    seeds: tuple[int, ...]
    assignments: np.ndarray  # shape (n_repeats, n_rows), values in 0..N_FOLDS-1

    def __post_init__(self):
        self.assignments.setflags(write=False)

    def test_mask(self, repeat: int, fold: int) -> np.ndarray:
        return self.assignments[repeat] == fold


def make_cv_plan(n_rows: int, seeds=DEFAULT_SEEDS) -> CvPlan:
    """Deterministic shuffled fold assignment, sizes differing by at most 1."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) != N_REPEATS:
        raise ValueError(f"need exactly {N_REPEATS} seeds, got {len(seeds)}")
    if n_rows < 2 * N_FOLDS:
        raise ValueError(f"need at least {2 * N_FOLDS} rows, got {n_rows}")
    assignments = np.empty((N_REPEATS, n_rows), dtype=np.int64)
    base, extra = divmod(n_rows, N_FOLDS)
    sizes = [base + (1 if f < extra else 0) for f in range(N_FOLDS)]
    for r, seed in enumerate(seeds):
        perm = np.random.default_rng(seed).permutation(n_rows)
        start = 0
        for f, size in enumerate(sizes):
            assignments[r, perm[start : start + size]] = f
            start += size
    return CvPlan(n_rows=n_rows, seeds=seeds, assignments=assignments)


@dataclass(frozen=True)
class ExperimentConfig:
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
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "models", tuple(self.models))
        if len(self.seeds) != N_REPEATS:
            raise ValueError(f"exactly {N_REPEATS} seeds required, got {len(self.seeds)}")
        if not self.models:
            raise ValueError("at least one model required")
        metrics.check_parameters(self.alpha, self.k_neighbors, self.concentration)
        if not self.l2_strength > 0:
            raise ValueError(f"l2_strength must be positive, got {self.l2_strength}")

    def logistic_config(self) -> LogisticConfig:
        return LogisticConfig(
            l2_strength=self.l2_strength,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
        )

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "models": list(self.models),
            "alpha": self.alpha,
            "k_neighbors": self.k_neighbors,
            "concentration": self.concentration,
            "l2_strength": self.l2_strength,
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "global_normalize": self.global_normalize,
        }


def canonical_models(names) -> tuple[str, ...]:
    """The grid's model order: the built-in models first, then the others
    sorted by name."""
    named = set(names)
    return tuple([m for m in MODEL_NAMES if m in named] + sorted(named - set(MODEL_NAMES)))


class MetricSampleMatrix:
    """Every sample of a run: ``values[d, m, k, repeat * N_FOLDS + fold]`` is
    metric ``metric_ids[k]`` of model ``models[m]`` on dataset
    ``datasets[d]``, NaN for Undefined.  Datasets are sorted, models follow
    ``canonical_models``, metric ids follow ``metric_sort_key``.  ``len()``
    is the number of entries.

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
        entries, a value that is None or not finite being Undefined.  Every
        (dataset, model, metric, repeat, fold) of the axes must occur exactly
        once, with repeat and fold in 0..4; anything else raises
        ``ValueError``."""
        columns = tuple(zip(*entries))
        if not columns:
            raise ValueError("no entries")
        datasets, models, repeats, folds, metric_ids, values = columns
        slots = tuple(itertools.product(range(N_REPEATS), range(N_FOLDS)))
        axes = (
            tuple(sorted(set(datasets))),
            canonical_models(models),
            tuple(sorted(set(metric_ids), key=metrics.metric_sort_key)),
            slots,
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
                f"entry {axes[0][d]},{axes[1][m]},{slots[t][0]},{slots[t][1]},"
                f"{axes[2][k]} occurs {counts[i]} times, not once"
            )
        grid = np.empty(counts.size)
        grid[flat] = [np.nan if v is None else v for v in values]
        grid[~np.isfinite(grid)] = np.nan
        return cls(*axes[:3], grid.reshape(shape))

    def __len__(self) -> int:
        return self.values.size

    def cell(self, dataset: str, model: str, metric_id: str) -> np.ndarray:
        """One cell's values in repeat-then-fold order, NaN for Undefined."""
        return self.values[self.datasets.index(dataset), self.models.index(model),
                           self.metric_ids.index(metric_id)]


def _scale_split(X: np.ndarray, train: np.ndarray, test: np.ndarray, global_normalize: bool):
    if global_normalize:
        mins, maxs = fit_minmax(X)
    else:
        mins, maxs = fit_minmax(X[train])
    return apply_minmax(X[train], mins, maxs), apply_minmax(X[test], mins, maxs)


def _fold(ds: EncodedDataset, cfg: ExperimentConfig, repeat: int, fold: int,
          assignment: np.ndarray, mitigators: tuple[Mitigator, ...]):
    """Count tensors ``[model, 2, 2, 2]`` of the test split and D0..D3
    ``[model, 4]`` of the training split.  A model whose reweighing failed
    keeps zero counts and NaN D values, so all 30 of its metrics are
    Undefined."""
    test = assignment == fold
    train = ~test
    X_train, X_test = _scale_split(ds.X, train, test, cfg.global_normalize)
    y_train, y_test = ds.y[train], ds.y[test]
    s_train, s_test = ds.s[train], ds.s[test]
    base_w = ds.weights[train]

    counts = np.zeros((len(mitigators), 2, 2, 2), dtype=np.int64)
    dataset_values = np.full((len(mitigators), len(metrics.DATASET_IDS)), np.nan)
    # consistency ignores instance weights, so all models share the value
    train_consistency = metrics.consistency(X_train, y_train, k=cfg.k_neighbors)

    for m, mitigator in enumerate(mitigators):
        try:
            weights = mitigator.training_weights(y_train, s_train, base_w)
        except ReweighingError as exc:
            warnings.warn(
                f"{ds.name} repeat={repeat} fold={fold}: {exc}; "
                f"recording Undefined for the {mitigator.name} model"
            )
            continue
        fitted = mitigator.train(X_train, y_train, weights, cfg.logistic_config())
        counts[m] = metrics.confusion_counts(y_test, fitted.predict(X_test), s_test)
        values = metrics.compute_dataset_metrics(
            y_train, s_train, X_train, weights,
            k=cfg.k_neighbors, concentration=cfg.concentration,
            precomputed_consistency=train_consistency,
        )
        dataset_values[m] = [values[mid] for mid in metrics.DATASET_IDS]  # None -> NaN
    return counts, dataset_values


def _repeat_job(args):
    """Count tensors ``[model, fold, 2, 2, 2]`` and D values
    ``[model, fold, 4]`` of one repeat."""
    ds, cfg, repeat, assignment, mitigators = args
    folds = [_fold(ds, cfg, repeat, fold, assignment, mitigators)
             for fold in range(N_FOLDS)]
    return tuple(np.stack(part, axis=1) for part in zip(*folds))


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
        raise ValueError(f"no mitigator registered for models {unknown}")

    datasets = sorted(datasets, key=lambda d: d.name)
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError(f"dataset names must be unique, got {names}")
    if not datasets:
        raise ValueError("no datasets")
    models = canonical_models(cfg.models)
    selected = tuple(registry[m] for m in models)

    jobs = []
    for ds in datasets:
        plan = make_cv_plan(ds.row_count, cfg.seeds)
        for repeat in range(N_REPEATS):
            jobs.append((ds, cfg, repeat, plan.assignments[repeat], selected))

    if cfg.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_repeat_job, jobs))
    else:
        results = [_repeat_job(job) for job in jobs]

    # [dataset, model, repeat, fold, ...], then one metric call for the run
    grid = (len(datasets), len(models), N_REPEATS, N_FOLDS)
    counts = np.empty(grid + (2, 2, 2), dtype=np.int64)
    dataset_values = np.empty(grid + (len(metrics.DATASET_IDS),))
    for i, (repeat_counts, repeat_values) in enumerate(results):
        d, repeat = divmod(i, N_REPEATS)
        counts[d, :, repeat] = repeat_counts
        dataset_values[d, :, repeat] = repeat_values
    per_fold = np.concatenate([
        metrics.compute_classification_metrics(
            counts, alpha=cfg.alpha, concentration=cfg.concentration
        ),
        dataset_values,
    ], axis=-1)
    values = per_fold.reshape(grid[:2] + (N_REPEATS * N_FOLDS, -1)).swapaxes(2, 3)
    return MetricSampleMatrix(names, models, metrics.CLASSIFICATION_IDS + metrics.DATASET_IDS,
                              values)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

RESULTS_HEADER = ("dataset", "model", "repeat", "fold", "metric_id", "value")


def write_results_csv(samples: MetricSampleMatrix, path) -> None:
    """Long format, one row per grid entry, sorted by dataset, model name,
    repeat, fold and ``metric_sort_key``; Undefined serialized as empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for dataset, by_model in zip(samples.datasets, samples.values):
            for model, by_metric in sorted(zip(samples.models, by_model),
                                           key=lambda pair: pair[0]):
                for t, column in enumerate(by_metric.T.tolist()):
                    repeat, fold = divmod(t, N_FOLDS)
                    writer.writerows(
                        (dataset, model, repeat, fold, metric_id,
                         UNDEFINED_FIELD if math.isnan(v) else repr(v))
                        for metric_id, v in zip(samples.metric_ids, column)
                    )


def _parse_row(row) -> tuple:
    dataset, model, repeat, fold, metric_id, value = row
    if metric_id not in metrics.METRIC_CATALOG:
        raise ValueError(f"unknown metric id {metric_id!r}")
    number = None if value == UNDEFINED_FIELD else float(value)
    if number is not None and not math.isfinite(number):
        raise ValueError(f"value {value!r} is not finite; Undefined is an empty field")
    return dataset, model, int(repeat), int(fold), metric_id, number


def read_results_csv(path) -> MetricSampleMatrix:
    """``results.csv`` back as its grid; a malformed file raises ``ValueError``."""
    entries = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULTS_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(RESULTS_HEADER)}, got {header}"
            )
        for row in reader:
            if not row:
                continue
            try:
                entries.append(_parse_row(row))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    try:
        return MetricSampleMatrix.from_entries(entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


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
    manifest = {
        "config": config.to_dict(),
        "inputs": [src.digests() for src in sources],
        "record_count": record_count,
        "complete": not failures,
        "failures": [
            {"dataset": name, "error": message} for name, message in failures
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def expected_record_count(n_datasets: int, config: ExperimentConfig) -> int:
    per_model = len(metrics.CLASSIFICATION_IDS) + len(metrics.DATASET_IDS)
    return n_datasets * len(config.models) * N_FOLDS * N_REPEATS * per_model
