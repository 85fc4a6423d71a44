"""Command-line front end.

Subcommands:
  metrics     compute the metric inventory for one CSV (+ optional predictions)
  experiment  run the cross-validation pipeline, write results.csv + manifest
  analyze     turn results.csv into correlation/cluster/sensitivity reports
  demo        synthetic end-to-end smoke run (planted bias vs. zero-bias)
  catalog     print the metric inventory as JSON

Each command builds its ``ExperimentConfig`` or ``AnalysisConfig`` once,
taking every setting from its flag, else from the ``--config`` file, else
from the field default.  A flag's dest is its config key; the dataclasses
convert and check every value, so the CLI only layers the sources.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 partial results.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import metrics, report, synth
from .datamodel import (
    ConfigError,
    DataError,
    DatasetSpec,
    encode_dataset,
    fit_minmax,
    format_value,
    usable_rows,
    write_csv,
    write_json,
    write_text,
)
from .harness import (
    BASELINE,
    N_FOLDS,
    DatasetSource,
    ExperimentConfig,
    run_experiment,
    read_results_csv,
    write_manifest,
    write_results_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4

# every key a run config may hold ("thresholds": {"zero": ...} is
# "thresholds.zero"); a flag's dest is its key
_RUN_CONFIG_KEYS = {
    "datasets", "seeds", "models", "alpha", "k_neighbors", "concentration",
    "l2_strength", "global_normalize", "correlation_scope", "sensitivity_d",
    "movement_epsilon", "thresholds.zero", "thresholds.one",
}


def _parse_models(text: str) -> list[str]:
    return [token.strip() for token in text.split(",")]


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _config(cls, args, file_cfg: dict, **settings):
    """``cls`` with each run-config key taken from its flag, else from the
    run config, else left at its default; ``settings`` are passed as given."""
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        if key not in _RUN_CONFIG_KEYS:
            continue
        flag = getattr(args, key, None)
        if flag is not None:
            settings[f.name] = flag
        elif key in file_cfg:
            settings[f.name] = file_cfg[key]
    return cls(**settings)


def _load_run_config(path) -> dict:
    """The run config at ``path`` with ``thresholds`` flattened to
    ``thresholds.zero`` and ``thresholds.one``; {} for no path."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    thresholds = cfg.pop("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError(f"thresholds must be an object, got {thresholds!r}")
    cfg.update((f"thresholds.{key}", value) for key, value in thresholds.items())
    unknown = sorted(set(cfg) - _RUN_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {unknown}")
    return cfg


def _sources(args, file_cfg: dict) -> list[DatasetSource]:
    entries = file_cfg.get("datasets", [])
    if not isinstance(entries, list):
        raise ConfigError(f"datasets must be a list, got {entries!r}")
    sources = []
    for entry in entries:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) for key in ("data", "spec"))):
            raise ConfigError(f'datasets entry {entry!r} needs "data" and "spec" paths')
        sources.append(DatasetSource(entry["data"], entry["spec"]))
    if args.data or args.spec:
        if not (args.data and args.spec):
            raise ConfigError("--data and --spec must be given together")
        sources.append(DatasetSource(args.data, args.spec))
    if not sources:
        raise ConfigError("no datasets: give --data/--spec or a config with datasets")
    return sources


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_metrics(args) -> int:
    cfg = _config(ExperimentConfig, args, {})
    spec = DatasetSpec.from_json_file(args.spec)
    try:
        ds = encode_dataset(args.data, spec)
    except DataError as exc:
        raise DataError(f"{args.data}: {exc}") from exc
    if cfg.k_neighbors >= ds.row_count:
        raise ConfigError(f"k_neighbors must be below the row count {ds.row_count}, "
                          f"got {cfg.k_neighbors}")

    # D0 of one mask of all rows, min-max scaled by their own bounds
    all_rows = np.ones((1, ds.row_count), dtype=bool)
    ids = metrics.DATASET_IDS
    values = metrics.compute_dataset_metrics(
        metrics.label_weights(ds.y, ds.s, np.ones(ds.row_count)),
        metrics.consistency(ds.X, ds.y, cfg.k_neighbors, all_rows, [fit_minmax(ds.X)])[0],
        concentration=cfg.concentration,
    )
    if args.predictions_column:
        predictions = _read_prediction_column(args.data, args.predictions_column, spec)
        row = metrics.compute_classification_metrics(
            metrics.confusion_counts(ds.y, predictions, ds.s),
            alpha=cfg.alpha, concentration=cfg.concentration,
        )
        ids = metrics.CLASSIFICATION_IDS + ids
        values = np.concatenate([row, values])

    rows = []
    for mid, v in zip(ids, values.tolist()):
        mdef = metrics.METRIC_CATALOG[mid]
        rows.append((mid, mdef.name, format_value(v), format_value(mdef.ideal),
                     metrics.label_fair(v, mdef.ideal)))
    write_csv(sys.stdout if args.out is None else args.out,
              ("metric_id", "name", "value", "ideal", "label"), rows)
    return EXIT_OK


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_prediction_column(data_path, column, spec: DatasetSpec):
    """Binary predictions from a CSV column, for the rows the loader keeps.

    A cell is favorable iff it is one of the spec's favorable values.  When
    none of those is a number, the cells ``1`` and ``1.0`` count as
    favorable too.
    """
    col_index, rows = usable_rows(data_path, spec)
    if column not in col_index:
        raise ConfigError(f"predictions column {column!r} not in CSV header")
    cells = [row[col_index[column]] for row in rows]
    if "" in cells:
        raise DataError(f"empty prediction in column {column!r}")
    favorable = set(spec.favorable_value)
    if not any(_is_number(v) for v in favorable):
        favorable |= {"1", "1.0"}  # 0/1 predictions for a non-numeric label
    return np.array([cell in favorable for cell in cells], dtype=np.int64)


def _experiment(sources, cfg: ExperimentConfig, out_dir):
    """Load and check the sources, run the ones that load and write
    ``results.csv`` and ``manifest.json``; returns (samples, load failures)."""
    os.makedirs(out_dir, exist_ok=True)
    loaded, ok_sources, failures = [], [], []
    for src in sources:
        try:
            ds = src.load()
            if ds.row_count < 2 * N_FOLDS:
                raise DataError(
                    f"dataset {ds.name!r}: {ds.row_count} usable rows, "
                    f"{N_FOLDS}-fold cross-validation needs at least {2 * N_FOLDS}"
                )
            # make_cv_plan's largest test fold has ceil(n / N_FOLDS) rows
            n_train = ds.row_count - -(-ds.row_count // N_FOLDS)
            if cfg.k_neighbors >= n_train:
                raise DataError(
                    f"dataset {ds.name!r}: smallest training fold: k_neighbors must "
                    f"be below the row count {n_train}, got {cfg.k_neighbors}"
                )
            if any(ds.name == other.name for other in loaded):
                raise ConfigError(
                    f"dataset name {ds.name!r} repeats an earlier dataset's"
                )
            loaded.append(ds)
            ok_sources.append(src)
        except (ConfigError, DataError, OSError) as exc:
            failures.append((src.data_path, str(exc)))
            print(f"error: dataset {src.data_path}: {exc}", file=sys.stderr)
    if not loaded:
        raise DataError("every dataset failed to load")

    samples = run_experiment(loaded, cfg)
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(samples, results_path)
    write_manifest(
        os.path.join(out_dir, "manifest.json"),
        cfg,
        ok_sources,
        record_count=len(samples),
        failures=failures,
    )
    print(f"wrote {results_path} ({len(samples)} records)")
    return samples, failures


def cmd_experiment(args) -> int:
    file_cfg = _load_run_config(args.config)
    cfg = _config(ExperimentConfig, args, file_cfg, jobs=args.jobs)
    _, failures = _experiment(_sources(args, file_cfg), cfg, args.out)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_analyze(args) -> int:
    file_cfg = _load_run_config(args.config)
    cfg = _config(report.AnalysisConfig, args, file_cfg)
    try:
        samples = read_results_csv(args.results)
    except OSError as exc:
        raise DataError(f"{args.results}: cannot read results: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    result = report.build_analysis(samples, cfg)
    paths = report.write_all(result, args.out)
    print(f"wrote {paths['report']}")
    return EXIT_OK


def cmd_demo(args) -> int:
    """Planted-bias end-to-end run: biased dataset vs. zero-bias control."""
    cfg = ExperimentConfig(jobs=args.jobs)
    out = args.out
    os.makedirs(out, exist_ok=True)
    runs = (
        ("biased", args.bias_gap),
        ("control", 0.0),
    )
    summary = {}
    for name, gap in runs:
        run_dir = os.path.join(out, name)
        os.makedirs(run_dir, exist_ok=True)
        data_path = os.path.join(run_dir, f"{name}.csv")
        spec_path = os.path.join(run_dir, f"{name}.spec.json")
        synth.write_dataset(
            data_path, spec_path, name,
            n_rows=args.rows, bias_gap=gap, seed=args.seed,
        )
        samples, _ = _experiment([DatasetSource(data_path, spec_path)], cfg, run_dir)
        result = report.build_analysis(samples)
        print(f"wrote {report.write_all(result, run_dir)['report']}")

        c15 = samples.cell(name, BASELINE, "C15")
        unfair_folds = sum(
            1 for v in c15 if metrics.label_fair(v, 0.0) == metrics.UNFAIR
        )
        summary[name] = {
            "run_dir": run_dir,
            "c15_unfair_folds": unfair_folds,
            "c15_total_folds": len(c15),
            "unfair_pct_classification": result.unfair_pct[("classification", name)],
        }

    biased, control = summary["biased"], summary["control"]
    print("demo summary")
    print(
        f"  biased:  C15 unfair in {biased['c15_unfair_folds']}/"
        f"{biased['c15_total_folds']} folds; "
        f"{biased['unfair_pct_classification']:.0f}% of metrics unfair"
    )
    print(
        f"  control: C15 unfair in {control['c15_unfair_folds']}/"
        f"{control['c15_total_folds']} folds; "
        f"{control['unfair_pct_classification']:.0f}% of metrics unfair"
    )
    write_json(os.path.join(out, "demo_summary.json"), summary)
    return EXIT_OK


def cmd_catalog(args) -> int:
    write_text(args.out or sys.stdout, metrics.catalog_json())
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_common_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=_parse_seeds, default=None,
                   help="5 comma-separated repeat seeds (default 0,1,2,3,4)")
    p.add_argument("--models", type=_parse_models, default=None,
                   help="comma list from {baseline,rw} (default both)")
    p.add_argument("--alpha", type=float, default=None,
                   help="entropy-index alpha (default 2)")
    p.add_argument("--k-neighbors", dest="k_neighbors", type=int, default=None,
                   help="neighbors for the consistency metric (default 5)")
    p.add_argument("--concentration", type=float, default=None,
                   help="Dirichlet smoothing for differential fairness (default 1.0)")
    p.add_argument("--l2", dest="l2_strength", type=float, default=None,
                   help="logistic L2 strength (default 1.0)")
    p.add_argument("--global-normalize", action="store_true", default=None,
                   help="min-max normalize once globally instead of per training fold")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsift",
        description="Fairness metrics, redundancy clustering, and sensitivity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="compute metrics for one CSV")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--spec", required=True, help="dataset spec JSON")
    p.add_argument("--predictions-column", default=None,
                   help="CSV column holding predicted labels; adds the "
                        "classification metrics")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k-neighbors", dest="k_neighbors", type=int, default=None)
    p.add_argument("--concentration", type=float, default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("experiment", help="run the cross-validation pipeline")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--data", default=None, help="dataset CSV (with --spec)")
    p.add_argument("--spec", default=None, help="dataset spec JSON (with --data)")
    p.add_argument("--out", required=True, help="output directory")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("analyze", help="analyze a results.csv")
    p.add_argument("--results", required=True, help="results.csv from experiment")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--sensitivity-d", dest="sensitivity_d", type=float, default=None,
                   help="sensitivity multiplier d (default 0.35)")
    p.add_argument("--correlation-scope", dest="correlation_scope",
                   choices=["avg", "pooled"], default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("demo", help="synthetic end-to-end run (biased + control)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rows", type=int, default=4000)
    p.add_argument("--bias-gap", dest="bias_gap", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("catalog", help="print the metric inventory as JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage problems itself; map them onto our codes
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
