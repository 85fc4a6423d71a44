"""Cross-validation experiment harness.

For each dataset: 5-fold cross-validation repeated 5 times with per-repeat
seeds.  In every fold the baseline logistic model and the reweighed logistic
model are trained on the training split and evaluated on the held-out split.
Each model keeps one count tensor ``c[group, label, prediction]`` of its
test predictions and one label-weight tensor of its (raw / reweighed)
training weights (``metrics.label_weights``); the models share the
training split's D0.  A fold whose reweighing failed keeps all-zero
tensors, so all 30 of its metrics are Undefined.

The unit of work (``_repeats_job``, also the unit of ``--jobs``) is as many
consecutive whole repeats of one dataset as keep its stacked fit input
within ``FIT_STACK_ELEMENTS`` entries, and at least one: all five repeats
of a small dataset, one of a large one.  Stacking many small fits saves
their per-call overhead, but a large stack runs slower per fit and holds
more memory.  The run builds each dataset's kNN neighbour list once, when
its first job starts (``metrics.neighbour_list``: exact on integer-coded
data, float on other data), and hands it to each of its jobs; run one by
one, the jobs keep one list alive at a time.  A job makes one
``metrics.consistency`` call for D0 of all its training splits (raw rows,
each fold's bounds, the list) and calls its mitigators once per fold, which
fill a ``fitted[model, slot]`` table, one slot per (repeat, fold); then one
``apply_minmax``, one stacked ``models.train_logistic``, one
``metrics.confusion_counts`` and one ``metrics.label_weights`` call serve
all the table's models.  The run joins the jobs' ``[model, slot, ...]``
slices into ``[dataset, model, repeat, fold, ...]`` and makes one
``metrics.compute_classification_metrics`` and one
``metrics.compute_dataset_metrics`` call.  How the repeats are grouped
changes no bit of the results.

That yields 25 samples per (dataset, model, metric) cell, which is what the
downstream correlation and sensitivity analyses consume.
``MetricSampleMatrix`` holds them as one float array
``values[dataset, model, metric, repeat * 5 + fold]`` with NaN for
Undefined; ``results.csv`` lists that grid one entry per row.
``write_results_csv`` streams the lines, each (dataset, model) prefix quoted
once, and ``read_results_csv`` streams the rows into key codes, one small
int per key field, and values, collected per chunk of ``READ_CHUNK_ROWS``
rows into an int32 code array and a float64 value array: the one path from
keyed rows to a grid.

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
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics, models
from .datamodel import (
    UNDEFINED_FIELD,
    ConfigError,
    DataError,
    DatasetSpec,
    EncodedDataset,
    apply_minmax,
    check_fields,
    csv_line,
    encode_dataset,
    file_sha256,
    fit_minmax,
    format_value,
    read_csv,
    write_json,
    write_lines,
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

# a job stacks the fold models of as many whole repeats of one dataset as
# keep its fit input within this many entries, and takes at least one
FIT_STACK_ELEMENTS = 2**17


@dataclass(frozen=True)
class CvPlan:
    """Per-repeat fold id for every row; folds are shuffled, not stratified."""

    assignments: np.ndarray  # shape (n_repeats, n_rows), values in 0..N_FOLDS-1

    def __post_init__(self):
        self.assignments.setflags(write=False)


def _fold_sizes(n_rows: int) -> np.ndarray:
    """The test fold sizes of ``make_cv_plan``: the first n_rows % N_FOLDS
    folds get one row more."""
    return n_rows // N_FOLDS + (np.arange(N_FOLDS) < n_rows % N_FOLDS)


def make_cv_plan(n_rows: int, seeds=DEFAULT_SEEDS) -> CvPlan:
    """Deterministic shuffled fold assignment, sizes differing by at most 1.
    ``check_cv_size`` holds the size rule a dataset must meet."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) != N_REPEATS:
        raise ValueError(f"need exactly {N_REPEATS} seeds, got {len(seeds)}")
    folds = np.repeat(np.arange(N_FOLDS), _fold_sizes(n_rows))
    assignments = np.empty((N_REPEATS, n_rows), dtype=np.int64)
    for r, seed in enumerate(seeds):
        assignments[r, np.random.default_rng(seed).permutation(n_rows)] = folds
    return CvPlan(assignments)


def check_cv_size(ds: EncodedDataset, k_neighbors: int) -> None:
    """Raise ``DataError`` unless ``ds`` has two rows per fold and its
    smallest training fold has more than ``k_neighbors`` rows, the candidates
    D0 needs.  ``run_experiment`` checks every dataset by this rule."""
    if ds.row_count < 2 * N_FOLDS:
        raise DataError(
            f"dataset {ds.name!r}: {ds.row_count} usable rows, "
            f"{N_FOLDS}-fold cross-validation needs at least {2 * N_FOLDS}"
        )
    n_train = ds.row_count - int(_fold_sizes(ds.row_count).max())
    if k_neighbors >= n_train:
        raise DataError(
            f"dataset {ds.name!r}: smallest training fold: k_neighbors must "
            f"be below the row count {n_train}, got {k_neighbors}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Run settings; ``ConfigError`` names a field of the wrong type or range."""

    seeds: tuple[int, ...] = DEFAULT_SEEDS
    models: tuple[str, ...] = MODEL_NAMES
    alpha: float = 2.0
    k_neighbors: int = 5
    concentration: float = 1.0
    l2_strength: float = 1.0
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
        for name in ("alpha", "k_neighbors", "concentration", "l2_strength", "jobs"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        """The settings that shape the results, for ``manifest.json``: the
        fields but ``jobs``, and the solver's fixed limits."""
        settings = asdict(self)
        del settings["jobs"]
        settings.update(max_iterations=models.MAX_ITERATIONS, tolerance=models.TOLERANCE)
        return settings


class _KeyCodes(dict):
    """Each key's code, numbered from 0 in the order the keys are first
    looked up.  ``parse`` runs once per new key, before it gets its code,
    and ``parsed[code]`` is what it returned."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse
        self.parsed = []

    def __missing__(self, key):
        self.parsed.append(self.parse(key))
        code = self[key] = len(self)
        return code


def _positions(axis, keys) -> np.ndarray:
    """Each key's index in ``axis``, -1 for a key not on it, as int32."""
    index = {key: i for i, key in enumerate(axis)}
    return np.array([index.get(key, -1) for key in keys], dtype=np.int32)


class MetricSampleMatrix:
    """Every sample of a run: ``values[d, m, k, repeat * N_FOLDS + fold]`` is
    metric ``metric_ids[k]`` of model ``models[m]`` on dataset
    ``datasets[d]``, NaN for Undefined.  Datasets and models are sorted by
    name, metric ids follow ``metric_sort_key``, and the last axis follows
    ``SLOTS``.  ``len()`` is the number of entries.

    The constructor takes the axes and the grid as they are;
    ``read_results_csv`` builds them from ``results.csv``.
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
    def _from_codes(cls, keys, codes, values) -> "MetricSampleMatrix":
        """The grid of entries given as key codes: ``keys`` lists the distinct
        datasets, models, repeats, folds and metric ids, in that order, and
        entry i is ``keys[field][codes[field, i]]`` with value ``values[i]``.
        ``codes`` is an int32 array, whose codes become grid positions in
        place, and the flat grid index is built once from them.  Its checks
        run in entry order (repeat and fold), then grid order."""
        if not values.size:
            raise ValueError("no entries")
        axes = (
            tuple(sorted(keys[0])),
            tuple(sorted(keys[1])),
            range(N_REPEATS),
            range(N_FOLDS),
            tuple(sorted(keys[4], key=metrics.metric_sort_key)),
        )
        positions = [_positions(axis, key) for axis, key in zip(axes, keys)]
        outside = (positions[2] < 0)[codes[2]] | (positions[3] < 0)[codes[3]]
        if outside.any():
            i = int(np.argmax(outside))
            slot = (keys[2][codes[2, i]], keys[3][codes[3, i]])
            raise ValueError(f"(repeat, fold) {slot} outside 0..4")
        for position, code in zip(positions, codes):
            np.take(position, code, out=code)
        d, m, r, f, k = codes
        datasets, models, _, _, metric_ids = axes
        shape = (len(datasets), len(models), len(metric_ids), N_REPEATS, N_FOLDS)
        flat = np.ravel_multi_index((d, m, k, r, f), shape)
        counts = np.bincount(flat, minlength=math.prod(shape))
        if (counts != 1).any():
            i = int(np.argmax(counts != 1))
            d, m, k, r, f = np.unravel_index(i, shape)
            raise ValueError(
                f"entry {datasets[d]},{models[m]},{r},{f},{metric_ids[k]} "
                f"occurs {counts[i]} times, not once"
            )
        grid = np.empty(counts.size)
        grid[flat] = values
        return cls(datasets, models, metric_ids, grid.reshape(shape[:3] + (-1,)))

    def __len__(self) -> int:
        return self.values.size

    def cell(self, dataset: str, model: str, metric_id: str) -> np.ndarray:
        """One cell's values in repeat-then-fold order, NaN for Undefined."""
        return self.values[self.datasets.index(dataset), self.models.index(model),
                           self.metric_ids.index(metric_id)]


def _repeats_job(args):
    """Consecutive repeats of one dataset, as their slice of the run's arrays:
    slot ``i`` is repeat ``first + i // N_FOLDS``, fold ``i % N_FOLDS``.  D0
    of each slot's training split is ``consistency[0, slot]`` (one row,
    shared by the models), and each model's count tensor of the test split
    and label-weight tensor of the training split are ``counts[model, slot]``
    and ``label_weights[model, slot]``.  A model whose reweighing failed
    keeps all-zero tensors, so all 30 of its metrics are Undefined.

    Each slot's min-max bounds are fitted once on its training rows or,
    under ``global_normalize``, one fit on all rows serves every slot; the
    same bounds scale the fits' rows and D0's.  D0 of all slots is one
    ``metrics.consistency`` call on the raw rows before anything is scaled,
    so no scaled row is alive while it runs.  ``listed`` is the dataset's
    ``metrics.neighbour_list``, shared by its jobs, off which D0 reads what
    it can.

    The mitigators, called slot by slot, fill ``fitted[model, slot]`` and
    the zero-filled weights ``w_fit[model, slot, row]``; weights that are
    negative, non-finite, all zero or of the wrong shape stop the run,
    naming the dataset, repeat, fold and model.  The fits are one stacked
    ``models.train_logistic`` call on ``w_fit[fitted]``, model by model,
    then slot by slot.  A member's rows
    are its slot's training rows, then its test rows, both in row order,
    scaled by one ``apply_minmax`` call for all slots (one copy under
    ``global_normalize``).  The repeats share one fold-size pattern, so a
    member's stack width and padding do not depend on which job it is in: a
    fold one row short of the longest is padded by its first test row at
    weight 0.  Each padded term is 0, but the pad regroups the fit's sums,
    so the fit is the unpadded one up to float rounding.  One
    ``metrics.confusion_counts`` call over the test rows fills
    ``counts[fitted]``, and one ``metrics.label_weights`` call over the
    training rows (``where`` drops the pad) ``label_weights[fitted]``."""
    ds, cfg, first, assignments, mitigators, listed = args
    n_slots = len(assignments) * N_FOLDS
    counts = np.zeros((len(mitigators), n_slots, 2, 2, 2), dtype=np.int64)
    label_weights = np.zeros((len(mitigators), n_slots, 2, 2))
    trains = (assignments[:, None] != np.arange(N_FOLDS)[:, None]).reshape(n_slots, -1)
    bounds = ([fit_minmax(ds.X)] * n_slots if cfg.global_normalize
              else [fit_minmax(ds.X[train]) for train in trains])
    # consistency ignores instance weights, so all models share the value
    consistency = metrics.consistency(ds.X, ds.y, cfg.k_neighbors, trains, bounds,
                                      listed)[None]
    n_train = trains.sum(axis=1)
    fitted = np.zeros((len(mitigators), n_slots), dtype=bool)
    w_fit = np.zeros((len(mitigators), n_slots, n_train.max()))
    for slot, train in enumerate(trains):
        repeat, fold = first + slot // N_FOLDS, slot % N_FOLDS
        for m, (name, mitigator) in enumerate(mitigators):
            try:
                weights = mitigator.training_weights(ds.y[train], ds.s[train])
            except ReweighingError as exc:
                warnings.warn(
                    f"{ds.name} repeat={repeat} fold={fold}: {exc}; "
                    f"recording Undefined for the {name} model"
                )
                continue
            # named as the reweighing warning names its fold
            where = f"{ds.name} repeat={repeat} fold={fold}: {name}"
            if np.shape(weights) != (n_train[slot],):
                raise ValueError(f"{where} gave {np.shape(weights)} weights for "
                                 f"{n_train[slot]} rows")
            w = w_fit[m, slot, :n_train[slot]]
            w[:] = weights
            # NaN fails w >= 0, and an infinite weight makes the sum infinite
            total = w.sum()
            if not ((w >= 0).all() and np.isfinite(total) and total != 0):
                raise ValueError(f"{where} weights must be non-negative, finite and not all zero")
            fitted[m, slot] = True
    if not fitted.any():
        return counts, label_weights, consistency

    member_slot = np.nonzero(fitted)[1]
    rows = np.argsort(~trains, axis=1, kind="stable")[member_slot]
    # global bounds are one pair: scaled once, every slot reads that copy
    pairs = bounds[:1] if cfg.global_normalize else bounds
    mins, maxs = (np.stack(column)[:, None] for column in zip(*pairs))
    # apply_minmax scales every entry on its own, so scaling all rows once per
    # slot gives both splits the bits they would get scaled apart
    X = np.broadcast_to(apply_minmax(ds.X, mins, maxs),
                        (n_slots,) + ds.X.shape)[member_slot[:, None], rows]
    y, s = ds.y[rows], ds.s[rows]
    n_fit = w_fit.shape[-1]
    # through the module attribute, so a wrapper set on it sees each fit
    fits = models.train_logistic(X[:, :n_fit], y[:, :n_fit], w_fit[fitted],
                                 l2_strength=cfg.l2_strength)
    test = np.arange(ds.row_count) >= n_train[member_slot][:, None]
    counts[fitted] = metrics.confusion_counts(y, fits.predict(X), s, where=test)
    label_weights[fitted] = metrics.label_weights(y[:, :n_fit], s[:, :n_fit], w_fit[fitted],
                                                  where=~test[:, :n_fit])
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
    built-ins merged with the ``mitigators`` mapping.  A dataset too small
    for the cross-validation raises ``DataError`` (``check_cv_size``).
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

    firsts = []  # per dataset, the first repeat of each of its jobs
    for ds in datasets:
        check_cv_size(ds, cfg.k_neighbors)
        # a dataset without feature columns has no entries: one job
        per_repeat = len(selected) * N_FOLDS * ds.X.size
        firsts.append(range(0, N_REPEATS, max(1, FIT_STACK_ELEMENTS // max(1, per_repeat))))
    n_jobs = sum(map(len, firsts))

    def jobs():
        """The jobs in order.  A dataset's list is built as its first job
        is drawn and dropped before the next dataset's is built: drawn one
        by one, the jobs keep one list alive at a time."""
        for ds, starts in zip(datasets, firsts):
            plan = make_cv_plan(ds.row_count, cfg.seeds)
            # the list depends only on the rows and k: one per dataset, read
            # by every job of its repeats
            listed = metrics.neighbour_list(ds.X, cfg.k_neighbors)
            for first in starts:
                yield (ds, cfg, first, plan.assignments[first:first + starts.step], selected,
                       listed)
            del listed

    if cfg.jobs > 1 and n_jobs > 1:
        # imported here, so a serial run never loads the process machinery
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method starts every worker up front: no more than jobs
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, n_jobs)) as pool:
            results = list(pool.map(_repeats_job, jobs()))
    else:
        results = list(map(_repeats_job, jobs()))

    # jobs run dataset by dataset, repeat by repeat: each array's job slices
    # join along the slot axis to [model, dataset * repeat * fold, ...],
    # then dataset goes first
    counts, label_weights, consistency = (
        np.concatenate(part, axis=1).reshape(
            len(part[0]), len(datasets), N_REPEATS, N_FOLDS, *part[0].shape[2:]).swapaxes(0, 1)
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

# rows read_results_csv collects in lists before it moves their codes and
# values into arrays, so its memory is the grid's plus one chunk's
READ_CHUNK_ROWS = 2**13


def write_results_csv(samples: MetricSampleMatrix, path) -> None:
    """Long format, one row per grid entry in grid order: by dataset, model
    name, repeat, fold and ``metric_sort_key``; Undefined serialized as
    empty.  Each (dataset, model) prefix and each (repeat, fold, metric_id)
    key is quoted once (``datamodel.csv_line``), and the lines stream to the
    file (``datamodel.write_lines``)."""
    # a trailing empty field keeps the last separator: "0,0,C0,"
    keys = [csv_line((repeat, fold, metric_id, ""))[:-1]
            for repeat, fold in SLOTS for metric_id in samples.metric_ids]

    def lines():
        yield csv_line(RESULTS_HEADER)
        for dataset, by_model in zip(samples.datasets, samples.values):
            for model, block in zip(samples.models, by_model):
                prefix = csv_line((dataset, model, ""))[:-1]
                for key, v in zip(keys, block.T.ravel().tolist()):
                    yield f"{prefix}{key}{format_value(v)}\n"

    write_lines(path, lines())


def _metric_id(metric_id: str) -> str:
    if metric_id not in metrics.METRIC_CATALOG:
        raise ValueError(f"unknown metric id {metric_id!r}")
    return metric_id


def read_results_csv(path) -> MetricSampleMatrix:
    """``results.csv`` back as its grid.  A file that cannot be read, is not
    UTF-8 or is empty raises ``DataError`` (``datamodel.read_csv``); a header,
    row or grid that is not a results grid raises ``ValueError``.

    The rows stream into one code list per key field and one value list:
    each key is coded through a dict (``_KeyCodes``) as it is read, so a
    metric id is checked against the catalogue, and a repeat or fold parsed
    by ``int``, once, at its first line.  Every ``READ_CHUNK_ROWS`` rows the
    lists move into an int32 code array and a float64 value array, so no
    per-entry object outlives its chunk.  A row's checks run in the order
    unpack, metric id, value, finite value, repeat, fold; the first bad line
    is reported, then the grid's checks (``_from_codes``) run."""
    coders = [_KeyCodes(parse) for parse in (str, str, int, int, _metric_id)]
    dataset_codes, model_codes, repeat_codes, fold_codes, metric_codes = coders
    codes = tuple([] for _ in coders)
    dataset_col, model_col, repeat_col, fold_col, metric_col = codes
    values = []
    code_chunks, value_chunks = [], []
    with read_csv(path) as (header, reader):
        if tuple(header) != RESULTS_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(RESULTS_HEADER)}, got {header}"
            )
        rows = filter(None, reader)
        while True:
            for row in itertools.islice(rows, READ_CHUNK_ROWS):
                try:
                    dataset, model, repeat, fold, metric_id, value = row
                    metric_col.append(metric_codes[metric_id])
                    if value == UNDEFINED_FIELD:
                        values.append(math.nan)
                    else:
                        number = float(value)
                        if not math.isfinite(number):
                            raise ValueError(
                                f"value {value!r} is not finite; Undefined is an empty field")
                        values.append(number)
                    repeat_col.append(repeat_codes[repeat])
                    fold_col.append(fold_codes[fold])
                except ValueError as exc:
                    raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
                dataset_col.append(dataset_codes[dataset])
                model_col.append(model_codes[model])
            code_chunks.append(np.array(codes, dtype=np.int32))
            value_chunks.append(np.array(values, dtype=float))
            for column in codes + (values,):
                column.clear()
            # a short chunk is the last
            if value_chunks[-1].size < READ_CHUNK_ROWS:
                break
    # each list of chunks is dropped once joined: one copy of them at a time
    codes = np.concatenate(code_chunks, axis=1)
    del code_chunks
    values = np.concatenate(value_chunks)
    del value_chunks
    try:
        return MetricSampleMatrix._from_codes([c.parsed for c in coders], codes, values)
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
