import csv
import dataclasses
import io
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairsift import harness, metrics, models
from fairsift.datamodel import (
    ConfigError,
    DataError,
    EncodedDataset,
    apply_minmax,
    fit_minmax,
    format_value,
)
from fairsift.harness import (
    BASELINE,
    RESULTS_HEADER,
    REWEIGHING,
    ExperimentConfig,
    MetricSampleMatrix,
    expected_record_count,
    make_cv_plan,
    read_results_csv,
    run_experiment,
    write_results_csv,
)

from conftest import german_style, make_synthetic
from test_metrics import as_given, as_row, classification_oracle, label_weights_loop


def same_grid(a, b):
    """Equal axes and bit-identical values (NaN marks the same entries)."""
    return (
        (a.datasets, a.models, a.metric_ids) == (b.datasets, b.models, b.metric_ids)
        and a.values.tobytes() == b.values.tobytes()
    )


def defined(samples, dataset, model, metric_id):
    row = samples.cell(dataset, model, metric_id)
    return row[np.isfinite(row)]


def full_grid(values, datasets=("d",), models=("baseline",)):
    """A complete grid, its axes sorted as a results grid's are: metric id ->
    value in every fold and cell, except the (repeat, fold) overrides in
    ``values[mid]`` given as a dict; None is Undefined."""
    metric_ids = sorted(values, key=metrics.metric_sort_key)
    cells = [[fill.get(slot, 1.0) if isinstance(fill, dict) else fill
              for slot in harness.SLOTS] for fill in map(values.get, metric_ids)]
    grid = np.array(cells, dtype=float)  # None -> NaN
    shape = (len(datasets), len(models)) + grid.shape
    return MetricSampleMatrix(sorted(datasets), sorted(models), metric_ids,
                              np.broadcast_to(grid, shape))


def rewritten(path, lines):
    """``path`` overwritten with ``lines``, then read as results.csv."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return read_results_csv(path)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces the worker pool by one that runs the jobs in this process;
    returns the list of pool sizes asked for."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    return sizes


def uneven_datasets():
    """83 and 91 rows: folds of 17 or 16 and of 19 or 18 rows, so every
    repeat has folds of two sizes and the datasets differ in size."""
    return [make_synthetic(name, n, 0.3, seed=i)
            for i, (name, n) in enumerate((("zeta", 83), ("alpha", 91)))]


class TestCvPlan:
    def test_fold_sizes_balanced(self):
        plan = make_cv_plan(13)
        for r in range(5):
            sizes = np.bincount(plan.assignments[r], minlength=5)
            assert sizes.max() - sizes.min() <= 1
            assert sizes.sum() == 13

    def test_each_row_in_exactly_one_fold(self):
        plan = make_cv_plan(10)
        for r in range(5):
            assert sorted(np.unique(plan.assignments[r])) == [0, 1, 2, 3, 4]
            union = [np.flatnonzero(plan.assignments[r] == f) for f in range(5)]
            assert sorted(np.concatenate(union).tolist()) == list(range(10))

    def test_ten_rows_fold_size_two(self):
        plan = make_cv_plan(10)
        assert all(
            np.bincount(plan.assignments[r]).tolist() == [2, 2, 2, 2, 2]
            for r in range(5)
        )

    def test_deterministic(self):
        a = make_cv_plan(57, seeds=(9, 8, 7, 6, 5))
        b = make_cv_plan(57, seeds=(9, 8, 7, 6, 5))
        assert np.array_equal(a.assignments, b.assignments)

    def test_seed_changes_assignment(self):
        a = make_cv_plan(57, seeds=(0, 1, 2, 3, 4))
        b = make_cv_plan(57, seeds=(5, 6, 7, 8, 9))
        assert not np.array_equal(a.assignments, b.assignments)

    def test_too_few_rows(self):
        rng = np.random.default_rng(0)
        ds = EncodedDataset("nine", rng.random((9, 2)), np.arange(9) % 2,
                            np.arange(9) // 5, ("a", "b"))
        with pytest.raises(DataError, match="9 usable rows, 5-fold cross-validation "
                                            "needs at least 10"):
            run_experiment([ds])

    def test_k_neighbors_below_the_smallest_training_fold(self):
        """The run checks each dataset by the CLI's rule: 60 rows leave 48
        training rows, too few for k = 50."""
        ds = make_synthetic("sixty", 60, 0.3, seed=1)
        with pytest.raises(DataError, match="'sixty': smallest training fold: "
                                            "k_neighbors must be below the row count 48, got 50"):
            run_experiment([ds], ExperimentConfig(k_neighbors=50))

    def test_wrong_seed_count(self):
        with pytest.raises(ValueError, match="exactly 5 seeds"):
            make_cv_plan(20, seeds=(1, 2, 3))


class TestExperiment:
    def test_record_counts(self, small_experiment):
        # 2 models x (26 classification + 4 dataset) x 25 folds
        assert len(small_experiment) == expected_record_count(1, ExperimentConfig())
        assert small_experiment.values.shape == (1, 2, 30, 25)
        assert sum(m.startswith("C") for m in small_experiment.metric_ids) == 26

    def test_25_samples_per_cell(self, small_experiment):
        for model in (BASELINE, REWEIGHING):
            for mid in ("C0", "C15", "D2"):
                assert len(small_experiment.cell("smallbias", model, mid)) == 25

    def test_rerun_identical(self, small_experiment, tmp_path):
        ds = make_synthetic("smallbias", 300, 0.4, seed=11)
        again = run_experiment([ds], ExperimentConfig())
        assert same_grid(again, small_experiment)

    def test_jobs_do_not_change_records(self):
        ds = make_synthetic("par", 120, 0.3, seed=3)
        seq = run_experiment([ds], ExperimentConfig(jobs=1))
        par = run_experiment([ds], ExperimentConfig(jobs=3))
        assert same_grid(seq, par)

    @pytest.mark.parametrize("budget", [1, 3 * 2 * 5 * 91 * 8, 2**40],
                             ids=["repeat", "three", "dataset"])
    @pytest.mark.parametrize("case", ["uneven", "refused", "global", "jobs"])
    def test_job_grouping_changes_no_bit(self, monkeypatch, in_process_pool, case, budget):
        """However many repeats a job stacks, one (budget 1), three of the
        91-row dataset, or a dataset's five (budget 2**40), the grid has the
        bits of the default plan's: padded folds (``uneven``), folds that
        reweighing refuses, whose warnings also come alike and in the same
        order (``refused``), global bounds, and three workers."""
        datasets = ([make_synthetic("refused", 100, 0.96, seed=3)] if case == "refused"
                    else uneven_datasets())
        cfg = ExperimentConfig(global_normalize=case == "global", jobs=3 if case == "jobs" else 1)
        masks = []
        consistency = metrics.consistency

        def spy(X, y, k, job_masks, bounds, listed):
            masks.append(len(job_masks))
            return consistency(X, y, k, job_masks, bounds, listed)

        monkeypatch.setattr(metrics, "consistency", spy)

        def run():
            masks.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                samples = run_experiment(datasets, cfg)
            return samples.values.tobytes(), [str(w.message) for w in caught]

        default = run()
        assert masks == [25] * len(datasets)  # these small datasets are one job each
        monkeypatch.setattr(harness, "FIT_STACK_ELEMENTS", budget)
        values, caught = run()
        assert values == default[0]
        assert caught == default[1]
        if case == "refused":
            assert sum("cannot reweigh" in message for message in caught) > 1
        # three 91-row repeats of 8 columns fill the middle budget: so do
        # three of 83 rows, and two of 100 rows
        per_job = {1: [5] * 5, 2**40: [25]}.get(
            budget, [10, 10, 5] if case == "refused" else [15, 10])
        assert masks == per_job * len(datasets)
        if case == "jobs":
            assert in_process_pool == [2, 2 if budget == 2**40 else 3]

    def test_job_plan_keeps_the_fit_stack_budget(self, monkeypatch):
        """A job takes as many whole repeats of its dataset as keep 2 models x
        5 folds x the dataset's entries x repeats within
        ``FIT_STACK_ELEMENTS``, and always one: 3,000 German-style rows of 4
        columns (120,000 entries a repeat) make one job per repeat, 1,000
        such rows jobs of three repeats and two, 250 synthetic rows of 8
        columns one job, and so do 40 rows without a feature column."""
        calls = []
        consistency = metrics.consistency

        def spy(X, y, k, masks, bounds, listed):
            calls.append((len(X), len(masks) // 5, X.size))
            return consistency(X, y, k, masks, bounds, listed)

        monkeypatch.setattr(metrics, "consistency", spy)
        rng = np.random.default_rng(0)
        datasets = [german_style(3000, 1), dataclasses.replace(german_style(1000, 2), name="mid"),
                    make_synthetic("small", 250, 0.3, seed=1),
                    EncodedDataset("zero", np.empty((40, 0)), rng.integers(0, 2, 40),
                                   np.arange(40) % 2, ())]
        run_experiment(datasets)
        assert [call[:2] for call in calls] == ([(3000, 1)] * 5 + [(1000, 3), (1000, 2), (250, 5)]
                                                + [(40, 5)])
        for _, repeats, size in calls:
            assert 2 * 5 * size * repeats <= harness.FIT_STACK_ELEMENTS or repeats == 1

    def test_one_classification_call_per_run(self, monkeypatch):
        calls = []
        batch = metrics.compute_classification_metrics

        def spy(counts, *args, **kwargs):
            calls.append(np.array(counts))
            return batch(counts, *args, **kwargs)

        monkeypatch.setattr(metrics, "compute_classification_metrics", spy)
        datasets = [make_synthetic(name, 80, 0.3, seed=i)
                    for i, name in enumerate(("zeta", "alpha"))]
        samples = run_experiment(datasets, ExperimentConfig(models=(REWEIGHING, BASELINE)))
        assert len(calls) == 1
        counts = calls[0]
        assert counts.shape == (2, 2, 5, 5, 2, 2, 2)
        assert (counts.sum(axis=(-3, -2, -1)) == 16).all()  # a fifth of 80 rows
        assert samples.datasets == ("alpha", "zeta")
        assert samples.models == (BASELINE, REWEIGHING)
        for d, m, repeat, fold in np.ndindex(counts.shape[:4]):
            want = as_row(classification_oracle(counts[d, m, repeat, fold]))
            got = samples.values[d, m, :26, repeat * 5 + fold]
            assert got.tobytes() == want.tobytes()

    def test_one_dataset_call_per_run(self, monkeypatch):
        calls = []
        batch = metrics.compute_dataset_metrics

        def spy(label_weights, consistency, *args, **kwargs):
            calls.append((np.array(label_weights), np.array(consistency)))
            return batch(label_weights, consistency, *args, **kwargs)

        monkeypatch.setattr(metrics, "compute_dataset_metrics", spy)
        datasets = [make_synthetic(name, 80, 0.3, seed=i)
                    for i, name in enumerate(("zeta", "alpha"))]
        samples = run_experiment(datasets, ExperimentConfig(models=(REWEIGHING, BASELINE)))
        assert len(calls) == 1
        weights, consistency = calls[0]
        assert weights.shape == (2, 2, 5, 5, 2, 2)
        assert consistency.shape == (2, 1, 5, 5)  # shared by the models
        # unit weights on four fifths of 80 rows; reweighing keeps the mass
        assert (weights[:, 0, ..., 1].sum(axis=-1) == 64).all()
        assert np.allclose(weights[:, 1, ..., 1].sum(axis=-1), 64)
        for d, m, repeat, fold in np.ndindex(weights.shape[:4]):
            want = batch(weights[d, m, repeat, fold], consistency[d, 0, repeat, fold])
            got = samples.values[d, m, 26:, repeat * 5 + fold]
            assert got.tobytes() == want.tobytes()
        # D0 is the consistency of the (repeat, fold) training split it sits at
        for d, ds in enumerate(sorted(datasets, key=lambda ds: ds.name)):
            plan = make_cv_plan(ds.row_count)
            for repeat, fold in np.ndindex(5, 5):
                train = plan.assignments[repeat] != fold
                X = apply_minmax(ds.X[train], *fit_minmax(ds.X[train]))
                assert consistency[d, 0, repeat, fold] == as_given(X, ds.y[train])

    @pytest.mark.parametrize("global_normalize", [False, True])
    def test_one_consistency_call_per_repeat_job(self, monkeypatch, global_normalize):
        """D0 of a job's slots is one call on the raw rows, with the training
        masks of its repeats' folds in slot order, before any fold is scaled;
        each mask's bounds are those of its training rows, or of all rows
        under ``global_normalize``.  Then one ``apply_minmax`` call per job
        scales the raw rows by the same pairs, stacked slot by slot, or by
        the one global pair.  A budget of two repeats makes jobs of repeats
        0-1, 2-3 and 4, whose three calls share the dataset's one neighbour
        list."""
        ds = german_style(90, 6)
        monkeypatch.setattr(harness, "FIT_STACK_ELEMENTS", 2 * 2 * 5 * ds.X.size)
        calls = []
        consistency = metrics.consistency

        def spy(X, y, k, masks, bounds, listed):
            calls.append((X, masks, bounds, len(scaled), listed))
            return consistency(X, y, k, masks, bounds, listed)

        scaled = []
        apply = harness.apply_minmax
        monkeypatch.setattr(metrics, "consistency", spy)
        monkeypatch.setattr(harness, "apply_minmax",
                            lambda *a: scaled.append(a + (len(calls),)) or apply(*a))
        run_experiment([ds], ExperimentConfig(global_normalize=global_normalize))
        plan = make_cv_plan(ds.row_count)
        assert len(calls) == 3 and len(scaled) == 3
        listed = calls[0][4]
        assert all(call[4] is listed for call in calls)
        want = metrics.neighbour_list(ds.X, 5)
        assert [part.tolist() for part in listed] == [part.tolist() for part in want]
        for job, (first, (X, masks, bounds, n_scaled, _)) in enumerate(zip((0, 2, 4), calls)):
            assert X is ds.X and n_scaled == job
            slots = harness.SLOTS[5 * first:5 * first + len(masks)]
            assert len(masks) == (5 if first == 4 else 10)
            assert masks.tolist() == [(plan.assignments[repeat] != fold).tolist()
                                      for repeat, fold in slots]
            rows, stacked_mins, stacked_maxs, n_d0 = scaled[job]
            # the job's one scale call comes after its D0 call
            assert rows is ds.X and n_d0 == job + 1
            n_pairs = 1 if global_normalize else len(masks)
            assert stacked_mins.shape == stacked_maxs.shape == (n_pairs, 1, ds.X.shape[1])
            for slot, (mask, (mins, maxs)) in enumerate(zip(masks, bounds)):
                want = fit_minmax(ds.X if global_normalize else ds.X[mask])
                assert mins.tobytes() == want[0].tobytes() and maxs.tobytes() == want[1].tobytes()
                pair = slot % n_pairs
                assert stacked_mins[pair, 0].tobytes() == mins.tobytes()
                assert stacked_maxs[pair, 0].tobytes() == maxs.tobytes()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_one_neighbour_list_per_integer_dataset(self, monkeypatch, in_process_pool, jobs):
        """Each integer-coded dataset's all-rows list is built once, not once
        per job, whether the jobs run in one process or in a pool;
        float data has none.  The folds' own kernels run on fewer rows."""
        calls = []
        nearest = metrics._nearest

        def spy(A, weights, k):
            calls.append((len(A), k))
            return nearest(A, weights, k)

        monkeypatch.setattr(metrics, "_nearest", spy)
        datasets = [german_style(120, 1), dataclasses.replace(german_style(160, 2), name="other"),
                    make_synthetic("float", 100, 0.2, seed=1)]
        run_experiment(datasets, ExperimentConfig(jobs=jobs))
        assert in_process_pool == ([3] if jobs > 1 else [])
        assert [call for call in calls if call[0] in (100, 120, 160)] == [(120, 20), (160, 20)]

    def test_worker_pool_capped_at_job_count(self, in_process_pool):
        datasets = [make_synthetic(f"pool{i}", 60, 0.2, seed=3 + i) for i in range(3)]
        samples = run_experiment(datasets, ExperimentConfig(jobs=10_000))
        assert in_process_pool == [3]  # one job per dataset: its five repeats fit the budget
        assert same_grid(samples, run_experiment(datasets, ExperimentConfig()))

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_job_slices_land_at_their_fold(self, monkeypatch, in_process_pool, jobs):
        """Each (dataset, model, repeat, fold) holds the tensors of that fold:
        test-row counts per group x label, and baseline training weights per
        group.  Folds of unequal size make a swapped axis show."""
        calls = {}

        def spy_on(name):
            batch = getattr(metrics, name)

            def spy(tensors, *args, **kwargs):
                calls[name] = np.array(tensors)
                return batch(tensors, *args, **kwargs)

            monkeypatch.setattr(metrics, name, spy)

        spy_on("compute_classification_metrics")
        spy_on("compute_dataset_metrics")
        datasets = sorted(uneven_datasets(), key=lambda ds: ds.name)
        run_experiment(datasets, ExperimentConfig(jobs=jobs))
        assert in_process_pool == ([2] if jobs > 1 else [])  # one job per dataset
        counts = calls["compute_classification_metrics"]
        weights = calls["compute_dataset_metrics"]
        assert counts.shape == (2, 2, 5, 5, 2, 2, 2)
        for d, ds in enumerate(datasets):
            plan = make_cv_plan(ds.row_count)
            for repeat, fold in np.ndindex(5, 5):
                test = plan.assignments[repeat] == fold
                cells = np.bincount(2 * ds.s[test] + ds.y[test], minlength=4).reshape(2, 2)
                for m in range(2):
                    assert (counts[d, m, repeat, fold].sum(axis=-1) == cells).all()
                train = ~test
                groups = [np.bincount(ds.s[train & (ds.y == 1)], minlength=2),
                          np.bincount(ds.s[train], minlength=2)]
                assert (weights[d, 0, repeat, fold] == np.transpose(groups)).all()

    def test_models_subset(self):
        ds = make_synthetic("solo", 100, 0.2, seed=5)
        samples = run_experiment([ds], ExperimentConfig(models=("baseline",)))
        assert samples.models == ("baseline",)
        assert len(samples) == 30 * 25

    def test_global_normalize_changes_results(self):
        ds = make_synthetic("norm", 150, 0.3, seed=9)
        per_fold = run_experiment([ds], ExperimentConfig())
        global_ = run_experiment([ds], ExperimentConfig(global_normalize=True))
        assert not same_grid(per_fold, global_)

    def test_reweighed_dataset_metrics_hit_ideal(self, small_experiment):
        d2 = defined(small_experiment, "smallbias", REWEIGHING, "D2")
        d3 = defined(small_experiment, "smallbias", REWEIGHING, "D3")
        assert np.allclose(d2, 0.0, atol=1e-9)
        assert np.allclose(d3, 1.0, atol=1e-9)

    def test_baseline_sees_planted_bias(self, small_experiment):
        d2 = defined(small_experiment, "smallbias", BASELINE, "D2")
        assert np.median(d2) < -0.2  # planted gap 0.4 disfavors unprivileged

    def test_zero_bias_control_centers_parity_at_zero(self):
        ds = make_synthetic("nobias", 300, 0.0, seed=21)
        samples = run_experiment([ds], ExperimentConfig(models=("baseline",)))
        c15 = defined(samples, "nobias", BASELINE, "C15")
        assert abs(np.median(c15)) < 0.1

    def test_scaling_fit_on_training_rows_only(self, monkeypatch):
        """``fit_minmax`` sees each fold's training rows, in slot order, or
        every row once per job (here one job per dataset) under
        ``global_normalize``."""
        seen = []
        fit = harness.fit_minmax

        def spy(X):
            seen.append(np.array(X))
            return fit(X)

        monkeypatch.setattr(harness, "fit_minmax", spy)
        datasets = sorted(uneven_datasets(), key=lambda ds: ds.name)
        for global_normalize in (False, True):
            seen.clear()
            run_experiment(datasets, ExperimentConfig(global_normalize=global_normalize))
            want = [ds.X for ds in datasets] if global_normalize else [
                ds.X[make_cv_plan(ds.row_count).assignments[repeat] != fold]
                for ds in datasets
                for repeat, fold in np.ndindex(5, 5)
            ]
            assert len(seen) == len(want) == (2 if global_normalize else 50)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, want))

    def test_reweighing_impossible_fold_records_undefined(self):
        # one lonely (s=1, y=0) row: whenever it lands in the test fold the
        # training split is missing that cell and reweighing must bail out
        rng = np.random.default_rng(4)
        n = 40
        y = np.ones(n, dtype=np.int64)
        s = np.ones(n, dtype=np.int64)
        y[: n // 2] = 0
        s[: n // 2 + 5] = 0
        y[-1], s[-1] = 0, 1  # the lonely cell member
        X = rng.random((n, 2))
        ds = EncodedDataset(
            name="lonely", X=X, y=y, s=s, feature_names=("a", "b"),
        )
        with pytest.warns(UserWarning, match="cannot reweigh"):
            samples = run_experiment([ds], ExperimentConfig())
        rw_c0 = samples.cell("lonely", REWEIGHING, "C0")
        assert len(rw_c0) == 25
        assert np.isnan(rw_c0).any()  # the bailed folds
        base_c13 = samples.cell("lonely", BASELINE, "C13")
        assert np.isfinite(base_c13).all()
        # C13 is only Undefined on an all-zero count tensor: a failed fold
        # is Undefined in all 30 metrics
        failed = np.isnan(samples.cell("lonely", REWEIGHING, "C13"))
        assert failed.any()
        assert np.isnan(samples.values[0, samples.models.index(REWEIGHING)][:, failed]).all()

    def test_folds_stopped_by_the_iteration_limit_are_recorded(self, monkeypatch):
        """A fold model stopped at ``models.MAX_ITERATIONS`` short of the
        tolerance warns, and its folds' metrics are still recorded: no fold
        is Undefined in all 30 metrics, and C15 is defined in every fold."""
        monkeypatch.setattr(models, "MAX_ITERATIONS", 1)
        ds = make_synthetic("capped", 100, 0.3, seed=2)
        with pytest.warns(UserWarning) as caught:
            samples = run_experiment([ds])
        stopped = [w for w in caught if "stopped after 1 iterations" in str(w.message)]
        assert len(stopped) == 2 * 25
        assert not np.isnan(samples.values).all(axis=2).any()
        for model in (BASELINE, REWEIGHING):
            assert np.isfinite(samples.cell("capped", model, "C15")).all()

    def test_duplicate_names_rejected(self):
        ds = make_synthetic("dup", 60, 0.2, seed=1)
        with pytest.raises(ValueError, match="unique"):
            run_experiment([ds, ds], ExperimentConfig())


class TestConfig:
    def test_unregistered_model_rejected_at_run(self):
        ds = make_synthetic("cfg", 60, 0.2, seed=1)
        with pytest.raises(ValueError, match="no mitigator registered"):
            run_experiment([ds], ExperimentConfig(models=("baseline", "mystery")))

    def test_positive_parameters_enforced(self):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0)
        with pytest.raises(ValueError):
            ExperimentConfig(concentration=-1)
        for name, value in (("k_neighbors", 0), ("l2_strength", -1.0), ("l2_strength", 0.0),
                            ("jobs", 0)):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                ExperimentConfig(**{name: value})

    def test_seed_count_enforced(self):
        with pytest.raises(ValueError, match="exactly 5 seeds"):
            ExperimentConfig(seeds=(1, 2, 3))


class TestMitigatorSlot:
    def test_custom_mitigator_plugs_in(self):
        from fairsift.models import Mitigator

        class Downweight(Mitigator):
            name = "downweight"

            def training_weights(self, y, s):
                return np.where(y == 1, 0.5, 1.0)

        ds = make_synthetic("plug", 100, 0.2, seed=8)
        samples = run_experiment(
            [ds],
            ExperimentConfig(models=("baseline", "downweight")),
            mitigators={"downweight": Downweight()},
        )
        assert samples.models == ("baseline", "downweight")
        assert len(samples.cell("plug", "downweight", "C15")) == 25
        # halving favorable weight shifts the weighted base rates
        base_d2 = defined(samples, "plug", "baseline", "D2")
        down_d2 = defined(samples, "plug", "downweight", "D2")
        assert not np.allclose(base_d2, down_d2)

    def test_one_model_order_in_grid_results_and_report(self, tmp_path):
        """A custom model sorts by name among the built-in ones: the grid,
        the rows of results.csv and report.md's "Models:" line agree."""
        from fairsift import report
        from fairsift.models import Mitigator

        ds = make_synthetic("order", 100, 0.2, seed=8)
        samples = run_experiment([ds], ExperimentConfig(models=("baseline", "adv")),
                                 mitigators={"adv": Mitigator()})
        assert samples.models == ("adv", "baseline")
        path = tmp_path / "results.csv"
        write_results_csv(samples, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[1] for row in rows)) == ["adv", "baseline"]
        again = read_results_csv(path)
        assert same_grid(again, samples)
        report.write_all(report.build_analysis(again), tmp_path / "analysis")
        lines = (tmp_path / "analysis" / "report.md").read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("Models:")] == ["Models: adv, baseline"]

    def test_mitigator_without_name_runs(self):
        class Halve:  # no name attribute and no Mitigator base
            def training_weights(self, y, s):
                return np.full(len(y), 0.5)

        assert not hasattr(Halve(), "name")
        ds = make_synthetic("plain", 100, 0.2, seed=8)
        samples = run_experiment([ds], ExperimentConfig(models=("halve",)),
                                 mitigators={"halve": Halve()})
        assert samples.models == ("halve",)
        assert np.isfinite(samples.cell("plain", "halve", "C15")).all()

    def test_failure_warning_names_the_model(self):
        from fairsift.models import Mitigator, ReweighingError

        class Refuse(Mitigator):
            def training_weights(self, y, s):
                raise ReweighingError("cannot reweigh: refused")

        ds = make_synthetic("refused", 100, 0.2, seed=8)
        with pytest.warns(UserWarning, match="for the refuse model"):
            samples = run_experiment([ds], ExperimentConfig(models=("refuse",)),
                                     mitigators={"refuse": Refuse()})
        assert np.isnan(samples.values).all()

    def test_one_fit_per_trained_model(self, monkeypatch):
        """Every fold model is a member of its job's one stacked
        ``models.train_logistic`` call on its mitigator's weights, looked up
        on the module at call time.  An 80-row dataset's five repeats are
        one job: 50 members, model by model, then slot by slot."""
        calls = []
        fit = models.train_logistic

        def counting(X, y, weights, **settings):
            calls.append((X.shape, weights.copy(), settings))
            return fit(X, y, weights, **settings)

        monkeypatch.setattr(models, "train_logistic", counting)
        datasets = [make_synthetic(f"fit{i}", 80, 0.3, seed=i) for i in range(2)]
        run_experiment(datasets, ExperimentConfig(l2_strength=0.5))
        assert len(calls) == 2
        # fifty members of 64 training rows: 80 rows leave no fold short
        assert all(shape[:2] == (2 * 25, 64) for shape, _, _ in calls)
        assert all(s == {"l2_strength": 0.5} for _, _, s in calls)
        members = [w for _, weights, _ in calls for w in weights]
        assert len(members) == 2 * 25 * 2
        # the baseline's 25 members fit on unit weights, then the reweighed
        # model's on others
        unit = [np.array_equal(w, np.ones(64)) for w in members]
        assert unit == ([True] * 25 + [False] * 25) * 2

    def test_padded_folds_fit_as_unpadded_ones(self, monkeypatch):
        """251 rows: one training fold per repeat is a row short of the
        others and is padded in the stack; the grid is bit-identical to a
        run that fits every member unpadded, by itself, as a stack of one."""
        ds = make_synthetic("odd", 251, 0.3, seed=4)
        stacked = run_experiment([ds])
        fit = models.train_logistic
        padded = []

        def one_by_one(X, y, weights, **settings):
            fits = []
            for member in zip(X, y, weights):
                n = np.flatnonzero(member[2])[-1] + 1
                padded.append(n < len(member[2]))
                fits.append(fit(*(column[None, :n] for column in member), **settings))
            return models.LogisticModel(
                coefficients=np.concatenate([m.coefficients for m in fits]),
                intercept=np.concatenate([m.intercept for m in fits]),
                converged=all(m.converged for m in fits),
                n_iterations=sum(m.n_iterations for m in fits),
            )

        monkeypatch.setattr(models, "train_logistic", one_by_one)
        alone = run_experiment([ds])
        assert sum(padded) == 5 * 2
        assert same_grid(alone, stacked)

    def test_counts_are_each_members_own_test_predictions(self, monkeypatch):
        """Every ``counts[d, m, repeat, fold]`` is the count tensor of that
        model's own fit (a stack of one) on its fold's scaled training rows,
        predicted on the fold's scaled test rows; the fold a mitigator
        refuses stays all zero.  Both datasets have folds of two sizes, so
        stacks are padded."""
        from fairsift.models import Mitigator, ReweighingError

        class HalveFavorable(Mitigator):
            calls = 0

            def training_weights(self, y, s):
                self.calls += 1
                if self.calls == 8:  # the first dataset's repeat 1, fold 2
                    raise ReweighingError("cannot reweigh: refused")
                return np.where(y == 1, 0.5, 1.0)

        seen = []
        classification = metrics.compute_classification_metrics

        def spy(counts, **settings):
            seen.append(counts)
            return classification(counts, **settings)

        monkeypatch.setattr(metrics, "compute_classification_metrics", spy)
        datasets = uneven_datasets()
        with pytest.warns(UserWarning, match="repeat=1 fold=2: cannot reweigh"):
            run_experiment(datasets, ExperimentConfig(models=("baseline", "half")),
                           mitigators={"half": HalveFavorable()})
        (counts,) = seen
        assert counts.shape == (2, 2, 5, 5, 2, 2, 2)
        for d, ds in enumerate(sorted(datasets, key=lambda ds: ds.name)):
            plan = make_cv_plan(ds.row_count)
            for repeat, fold in harness.SLOTS:
                train = plan.assignments[repeat] != fold
                X = apply_minmax(ds.X, *fit_minmax(ds.X[train]))
                y = ds.y[train]
                for m, weights in enumerate((np.ones(len(y)), np.where(y == 1, 0.5, 1.0))):
                    if (d, m, repeat, fold) == (0, 1, 1, 2):
                        assert not counts[d, m, repeat, fold].any()
                        continue
                    fitted = models.train_logistic(X[train][None], y[None], weights[None])
                    want = metrics.confusion_counts(ds.y[~train], fitted.predict(X[~train])[0],
                                                    ds.s[~train])
                    assert (counts[d, m, repeat, fold] == want).all(), (d, m, repeat, fold)


    def test_label_weights_are_one_stacked_call_per_job(self, monkeypatch):
        """Each job makes one ``metrics.label_weights`` call, over its
        fitted stack: every fitted ``label_weights[d, m, repeat, fold]`` has
        the bits of a 1-D call on the fold's training rows and its model's
        weights, and the fold a mitigator refuses stays all zero.  Both
        datasets have folds of two sizes, so ``where`` drops pad rows.  The
        weights are not dyadic, so a sum in another order shows."""
        from fairsift.models import Mitigator, ReweighingError

        def staggered(y):
            return np.sqrt(np.arange(1.0, len(y) + 1)) * np.where(y == 1, 0.5, 1.0)

        class Staggered(Mitigator):
            calls = 0

            def training_weights(self, y, s):
                self.calls += 1
                if self.calls == 8:  # the first dataset's repeat 1, fold 2
                    raise ReweighingError("cannot reweigh: refused")
                return staggered(y)

        members, seen = [], []
        stacked, batch = metrics.label_weights, metrics.compute_dataset_metrics

        def counting(y, s, weights, where=None):
            members.append(len(weights))
            return stacked(y, s, weights, where=where)

        def spy(label_weights, *args, **kwargs):
            seen.append(np.array(label_weights))
            return batch(label_weights, *args, **kwargs)

        monkeypatch.setattr(metrics, "label_weights", counting)
        monkeypatch.setattr(metrics, "compute_dataset_metrics", spy)
        datasets = sorted(uneven_datasets(), key=lambda ds: ds.name)
        with pytest.warns(UserWarning, match="repeat=1 fold=2: cannot reweigh"):
            run_experiment(datasets, ExperimentConfig(models=("baseline", "staggered")),
                           mitigators={"staggered": Staggered()})
        # one call per job, here one per dataset, the refused fold left out
        assert members == [49, 50]
        (weights,) = seen
        assert weights.shape == (2, 2, 5, 5, 2, 2)
        for d, ds in enumerate(datasets):
            plan = make_cv_plan(ds.row_count)
            for repeat, fold in harness.SLOTS:
                train = plan.assignments[repeat] != fold
                y = ds.y[train]
                for m, w in enumerate((np.ones(len(y)), staggered(y))):
                    got = weights[d, m, repeat, fold]
                    if (d, m, repeat, fold) == (0, 1, 1, 2):
                        assert not got.any()
                        continue
                    want = stacked(y, ds.s[train], w)
                    assert got.tobytes() == want.tobytes(), (d, m, repeat, fold)
                    assert want.tobytes() == label_weights_loop(y, ds.s[train], w).tobytes()

    def test_weights_of_the_wrong_shape_rejected(self):
        from fairsift.models import Mitigator

        class Constant(Mitigator):
            def training_weights(self, y, s):
                return 1.0

        ds = make_synthetic("constant", 100, 0.2, seed=8)
        with pytest.raises(ValueError, match=r"^constant: \(\) weights for 80 rows$"):
            run_experiment([ds], ExperimentConfig(models=("constant",)),
                           mitigators={"constant": Constant()})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected_before_any_fit(self, bad):
        """One non-finite weight per fold stops the run at the mitigator
        loop's check, which names the model, repeat and fold, before any fit
        runs or warns: a NaN weight used to give zero models and a warning,
        an infinite one a grid partly NaN."""
        from fairsift.models import Mitigator

        class OneBad(Mitigator):
            def training_weights(self, y, s):
                weights = np.ones(len(y))
                weights[0] = bad
                return weights

        ds = make_synthetic("synth", 100, 0.2, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the baseline's weights of fold 0 pass, then "bad"'s stop the run
            with pytest.raises(ValueError, match="^bad repeat=0 fold=0: weights must be "
                                                 "non-negative, finite and not all zero$"):
                run_experiment([ds], ExperimentConfig(models=("baseline", "bad")),
                               mitigators={"bad": OneBad()})

    @pytest.mark.parametrize("budget", [1, 2**40], ids=["repeat", "dataset"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0], ids=["negative", "all-zero"])
    def test_bad_weights_name_their_repeat_and_fold(self, monkeypatch, bad, budget):
        """A negative weight, or all-zero weights, in one fold stop the run in
        the mitigator loop, naming the model, repeat and fold wherever the
        fold sits in its job: the mitigator is not called again, and the
        fold's job fits nothing (with one repeat per job, the jobs of
        repeats 0 and 1 have fitted)."""
        from fairsift.models import Mitigator

        class Spoil(Mitigator):
            calls = 0

            def training_weights(self, y, s):
                self.calls += 1
                weights = np.ones(len(y))
                if self.calls == 14:  # repeat 2, fold 3
                    weights[:1 if bad else None] = bad
                return weights

        fits = []
        fit = models.train_logistic
        monkeypatch.setattr(models, "train_logistic",
                            lambda *a, **kw: fits.append(len(a[0])) or fit(*a, **kw))
        monkeypatch.setattr(harness, "FIT_STACK_ELEMENTS", budget)
        spoil = Spoil()
        with pytest.raises(ValueError, match="^spoil repeat=2 fold=3: weights must be "
                                             "non-negative, finite and not all zero$"):
            run_experiment([make_synthetic("synth", 100, 0.2, seed=8)],
                           ExperimentConfig(models=("spoil",)), mitigators={"spoil": spoil})
        assert spoil.calls == 14
        assert fits == ([5, 5] if budget == 1 else [])


class TestPersistence:
    def test_roundtrip(self, small_experiment, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(small_experiment, path)
        again = read_results_csv(path)
        assert same_grid(again, small_experiment)

    def test_undefined_serialized_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(full_grid({"C0": {(0, 0): None}, "C1": {(0, 0): 0.125}}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 25
        assert lines[1] == "d,baseline,0,0,C0,"
        assert lines[2] == "d,baseline,0,0,C1,0.125"
        assert lines[3] == "d,baseline,0,1,C0,1.0"

    def test_canonical_ordering(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(full_grid(
            {"D2": 2.0, "C10": 3.0, "C2": None, "C1": 1.0},
            datasets=("e", "d"),
            models=(REWEIGHING, "downweight", BASELINE),
        ), path)
        header, *rows = path.read_text().splitlines()
        mat = rewritten(path, [header] + rows[::-1])
        assert mat.datasets == ("d", "e")
        assert mat.models == (BASELINE, "downweight", REWEIGHING)  # by name
        assert mat.metric_ids == ("C1", "C2", "C10", "D2")
        path = tmp_path / "r.csv"
        write_results_csv(mat, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        keys = [(ds, model, int(r), int(f), mid) for ds, model, r, f, mid, _ in rows]
        assert keys == sorted(
            keys, key=lambda k: (k[0], k[1], k[2], k[3], metrics.metric_sort_key(k[4]))
        )
        assert keys[:5] == [
            ("d", BASELINE, 0, 0, "C1"), ("d", BASELINE, 0, 0, "C2"),
            ("d", BASELINE, 0, 0, "C10"), ("d", BASELINE, 0, 0, "D2"),
            ("d", BASELINE, 0, 1, "C1"),
        ]
        assert [key[1] for key in keys[:300:100]] == list(mat.models)
        assert same_grid(read_results_csv(path), mat)

    @pytest.fixture
    def written(self, tmp_path):
        """The path and lines of a written two-metric results.csv."""
        path = tmp_path / "r.csv"
        write_results_csv(full_grid({"C0": 0.5, "C1": 0.5}), path)
        return path, path.read_text().splitlines()

    def test_missing_entry_rejected(self, written):
        path, lines = written
        lines.remove("d,baseline,1,2,C0,0.5")
        with pytest.raises(ValueError, match="entry d,baseline,1,2,C0 occurs 0 times"):
            rewritten(path, lines)

    def test_duplicate_entry_rejected(self, written):
        path, lines = written
        with pytest.raises(ValueError, match="entry d,baseline,1,3,C0 occurs 2 times"):
            rewritten(path, lines + ["d,baseline,1,3,C0,0.5"])

    @pytest.mark.parametrize("repeat, fold", [(5, 0), (0, 5), (-1, 0), (7, 2)])
    def test_repeat_or_fold_out_of_range_rejected(self, written, repeat, fold):
        path, lines = written
        with pytest.raises(ValueError, match=r"\(repeat, fold\) .* outside 0\.\.4"):
            rewritten(path, lines + [f"d,baseline,{repeat},{fold},C0,0.5"])

    def test_grid_shape_must_match_axes(self):
        MetricSampleMatrix(("d",), ("baseline",), ("C0", "C1"), np.zeros((1, 1, 2, 25)))
        with pytest.raises(ValueError, match="shape"):
            MetricSampleMatrix(("d",), ("baseline",), ("C0", "C1"), np.zeros((1, 1, 2, 24)))

    def test_non_finite_csv_value_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(full_grid({"C0": 0.5}), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("0.5", "inf")
        with pytest.raises(ValueError, match="line 4: value 'inf' is not finite"):
            rewritten(path, lines)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            read_results_csv(path)

    def test_byte_identical_rewrites(self, small_experiment, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(small_experiment, p1)
        write_results_csv(small_experiment, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _oracle_row(row) -> tuple:
    """One results.csv row as an entry, checked field by field."""
    dataset, model, repeat, fold, metric_id, value = row
    if metric_id not in metrics.METRIC_CATALOG:
        raise ValueError(f"unknown metric id {metric_id!r}")
    number = math.nan if value == "" else float(value)
    if value != "" and not math.isfinite(number):
        raise ValueError(f"value {value!r} is not finite; Undefined is an empty field")
    return dataset, model, int(repeat), int(fold), metric_id, number


def _oracle_grid(entries) -> tuple:
    """The axes and grid bytes of entries, one index lookup per entry."""
    columns = tuple(zip(*entries))
    if not columns:
        raise ValueError("no entries")
    datasets, model_names, repeats, folds, metric_ids, values = columns
    axes = (
        tuple(sorted(set(datasets))),
        tuple(sorted(set(model_names))),
        tuple(sorted(set(metric_ids), key=metrics.metric_sort_key)),
        harness.SLOTS,
    )
    shape = tuple(len(axis) for axis in axes)
    index = [{key: i for i, key in enumerate(axis)} for axis in axes]
    labels = (datasets, model_names, metric_ids, zip(repeats, folds))
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
            f"entry {axes[0][d]},{axes[1][m]},{harness.SLOTS[t][0]},{harness.SLOTS[t][1]},"
            f"{axes[2][k]} occurs {counts[i]} times, not once"
        )
    grid = np.empty(counts.size)
    grid[flat] = values
    grid[~np.isfinite(grid)] = np.nan
    return axes[:3] + (grid.tobytes(),)


def oracle_read(path) -> tuple:
    """results.csv read row by row, each row checked and kept as an entry,
    then the grid built from the entries: the reference for the reader."""
    entries = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == RESULTS_HEADER
        for row in filter(None, reader):
            try:
                entries.append(_oracle_row(row))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    try:
        return _oracle_grid(entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def outcome(read, path):
    """The axes and grid bytes ``read`` gives, or its ValueError message."""
    try:
        grid = read(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(grid, tuple):
        return grid
    return grid.datasets, grid.models, grid.metric_ids, grid.values.tobytes()


# a field and its new text: any field, or the repeat or fold
_FIELD_EDITS = st.one_of(
    st.tuples(st.integers(0, 5), st.sampled_from(["C99", "", "nan", "inf", "x"])),
    st.tuples(st.sampled_from([2, 3]), st.sampled_from(["7", "-1", " 3", "03"])),
)
# one edit of the data lines.  An index picks a line modulo their count; the
# indices are small so that edits meet on a line, and up to three fields of
# a line change at once, so a line can fail two checks.
_LINE = st.integers(0, 15)
_EDITS = st.one_of(
    st.tuples(st.just("delete"), _LINE),
    st.tuples(st.just("duplicate"), _LINE, _LINE),
    st.tuples(st.just("shuffle"), st.integers(0, 2**32)),
    st.tuples(st.just("blank"), _LINE),
    st.tuples(st.just("fields"), _LINE, st.lists(_FIELD_EDITS, min_size=1, max_size=3)),
    st.tuples(st.just("width"), _LINE, st.sampled_from([3, 7])),
)


def _edit(lines, edit):
    kind, *args = edit
    if kind == "shuffle":
        random.Random(args[0]).shuffle(lines)
        return
    if kind == "blank":
        lines.insert(args[0] % (len(lines) + 1), "")
        return
    if not lines:
        return
    i = args[0] % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(args[1] % (len(lines) + 1), lines[i])
    elif kind == "fields":
        fields = lines[i].split(",")
        for field, text in args[1]:
            fields[field % len(fields)] = text
        lines[i] = ",".join(fields)
    else:
        fields = (lines[i].split(",") + ["extra"])[:args[1]]
        lines[i] = ",".join(fields)


class TestReaderAgainstOracle:
    """``read_results_csv`` codes each key as it streams; on any edited file
    it gives the grid, or the ValueError message, of the row-by-row oracle."""

    @pytest.fixture(scope="class")
    def base_lines(self):
        grid = full_grid({"C0": {(0, 1): None, (2, 3): -0.0}, "C3": 0.25, "D1": 0.5},
                         datasets=("e", "d"), models=(BASELINE, REWEIGHING))
        buffer = io.StringIO()
        write_results_csv(grid, buffer)
        return buffer.getvalue().splitlines()

    @settings(max_examples=150)
    @given(st.lists(_EDITS, max_size=5))
    @example([])  # the file as written
    @example([("fields", 3, [(5, "x"), (2, "x")])])  # value before repeat
    @example([("fields", 3, [(4, "C99"), (5, "inf")])])  # metric id before value
    @example([("fields", 3, [(3, "7")]), ("fields", 1, [(2, "-1")])])  # first slot
    @example([("fields", 3, [(2, " 3")]), ("fields", 4, [(3, "03")])])  # same slot
    def test_edited_file_reads_as_the_oracle(self, base_lines, tmp_path_factory, edits):
        header, lines = base_lines[0], list(base_lines[1:])
        for edit in edits:
            _edit(lines, edit)
        path = tmp_path_factory.mktemp("edited") / "results.csv"
        path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
        assert outcome(read_results_csv, path) == outcome(oracle_read, path)


class TestQuoting:
    """Keys that need CSV quoting: the writer's lines are ``csv.writer``'s,
    and the reader gives the grid back."""

    DATASETS = tuple(sorted(("a,b", 'say "hi"', "two\nlines")))
    MODELS = ("base,line", BASELINE)

    @pytest.fixture
    def quoted(self):
        values = np.random.default_rng(3).random((3, 2, 2, 25))
        values[0, 1, 0, :4] = np.nan
        return MetricSampleMatrix(self.DATASETS, self.MODELS, ("C0", "D1"), values)

    def test_written_as_csv_writer_rows_and_read_back(self, quoted, tmp_path):
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for d, dataset in enumerate(quoted.datasets):
            for m, model in enumerate(quoted.models):
                for t, (repeat, fold) in enumerate(harness.SLOTS):
                    for k, metric_id in enumerate(quoted.metric_ids):
                        writer.writerow((dataset, model, repeat, fold, metric_id,
                                         format_value(float(quoted.values[d, m, k, t]))))
        path = tmp_path / "results.csv"
        write_results_csv(quoted, path)
        assert path.read_bytes() == want.getvalue().encode("utf-8")
        assert same_grid(read_results_csv(path), quoted)
        assert outcome(read_results_csv, path) == outcome(oracle_read, path)

    def test_error_after_multiline_field_names_reader_line(self, quoted, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(quoted, path)
        text = path.read_text(encoding="utf-8")
        # the last row, whose line number counts every embedded newline
        path.write_text(text.rpartition(",")[0] + ",inf\n", encoding="utf-8")
        line = text.count("\n")
        assert line > len(list(csv.reader(io.StringIO(text))))
        with pytest.raises(ValueError, match=f"line {line}: value 'inf' is not finite"):
            read_results_csv(path)
