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
import os
import sys

import numpy as np

from . import metrics, report, synth
from .datamodel import (
    ConfigError,
    DataError,
    DatasetSpec,
    encode_rows,
    fit_minmax,
    format_value,
    make_dirs,
    read_json,
    usable_rows,
    write_csv,
    write_json,
    write_text,
)
from .harness import (
    BASELINE,
    DatasetSource,
    ExperimentConfig,
    check_cv_size,
    run_experiment,
    read_results_csv,
    write_manifest,
    write_results_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4

# every key a run config may hold: each config field's key but the flag-only
# jobs ("thresholds": {"zero": ...} is "thresholds.zero"), and datasets; a
# flag's dest is its key
_RUN_CONFIG_KEYS = {"datasets"} | {
    f.metadata.get("key", f.name)
    for cls in (ExperimentConfig, report.AnalysisConfig)
    for f in dataclasses.fields(cls)
} - {"jobs"}


def _parse_models(text: str) -> list[str]:
    return [token.strip() for token in text.split(",")]


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _config(cls, args, file_cfg: dict):
    """``cls`` with each field taken from its flag, else from the run config,
    else left at its default."""
    settings = {}
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
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
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: a run config must be a JSON object")
    thresholds = cfg.pop("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError(f"thresholds must be an object, got {thresholds!r}")
    cfg.update((f"thresholds.{key}", value) for key, value in thresholds.items())
    unknown = sorted(set(cfg) - _RUN_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
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
    # one parse of the CSV: the encoding and the predictions take its rows
    col_index, kept = usable_rows(args.data, spec)
    ds = encode_rows(spec, col_index, kept)
    if cfg.k_neighbors >= ds.row_count:
        raise ConfigError(f"k_neighbors must be below the row count {ds.row_count}, "
                          f"got {cfg.k_neighbors}")

    # D0 of one mask of all rows, scaled by their own bounds: no list needed
    all_rows = np.ones((1, ds.row_count), dtype=bool)
    ids = metrics.DATASET_IDS
    values = metrics.compute_dataset_metrics(
        metrics.label_weights(ds.y, ds.s, np.ones(ds.row_count)),
        metrics.consistency(ds.X, ds.y, cfg.k_neighbors, all_rows, [fit_minmax(ds.X)],
                            None)[0],
        concentration=cfg.concentration,
    )
    column = args.predictions_column
    if column:
        if column not in col_index:
            raise ConfigError(f"predictions column {column!r} not in CSV header")
        cells = [row[col_index[column]] for row in kept]
        if "" in cells:
            raise DataError(f"empty prediction in column {column!r}")
        # a cell is favorable iff it is a favorable value, or, when none of
        # those is a number, the 1 or 1.0 of 0/1 predictions
        favorable = set(spec.favorable_value)
        if not any(_is_number(v) for v in favorable):
            favorable |= {"1", "1.0"}
        predictions = np.array([cell in favorable for cell in cells], dtype=np.int64)
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


def _experiment(sources, cfg: ExperimentConfig, out_dir):
    """Load and check the sources, run the ones that load and write
    ``results.csv`` and ``manifest.json``; returns (samples, load failures)."""
    make_dirs(out_dir)
    loaded, ok_sources, failures = [], [], []
    for src in sources:
        try:
            ds = src.load()
            check_cv_size(ds, cfg.k_neighbors)
            if any(ds.name == other.name for other in loaded):
                raise ConfigError(
                    f"dataset name {ds.name!r} repeats an earlier dataset's"
                )
            loaded.append(ds)
            ok_sources.append(src)
        except (ConfigError, DataError) as exc:
            failures.append((src.data_path, str(exc)))
            print(f"error: {exc}", file=sys.stderr)
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
    cfg = _config(ExperimentConfig, args, file_cfg)
    _, failures = _experiment(_sources(args, file_cfg), cfg, args.out)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_analyze(args) -> int:
    file_cfg = _load_run_config(args.config)
    cfg = _config(report.AnalysisConfig, args, file_cfg)
    try:
        samples = read_results_csv(args.results)
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
    make_dirs(out)
    runs = (
        ("biased", args.bias_gap),
        ("control", 0.0),
    )
    summary = {}
    for name, gap in runs:
        run_dir = os.path.join(out, name)
        make_dirs(run_dir)
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
        summary[name] = {
            "run_dir": run_dir,
            "c15_unfair_folds": int((metrics.label_fair(c15, 0.0) == metrics.UNFAIR).sum()),
            "c15_total_folds": len(c15),
            "unfair_pct_classification": result.unfair_pct[("classification", name)],
        }

    print("demo summary")
    for name, run in summary.items():
        print(
            f"  {name + ':':<9}C15 unfair in {run['c15_unfair_folds']}/"
            f"{run['c15_total_folds']} folds; "
            f"{run['unfair_pct_classification']:.0f}% of metrics unfair"
        )
    write_json(os.path.join(out, "demo_summary.json"), summary)
    return EXIT_OK


def cmd_catalog(args) -> int:
    write_text(args.out or sys.stdout, metrics.catalog_json())
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    """The metric settings of ``metrics`` and ``experiment``."""
    p.add_argument("--alpha", type=float, default=None,
                   help="entropy-index alpha (default 2)")
    p.add_argument("--k-neighbors", dest="k_neighbors", type=int, default=None,
                   help="neighbors for the consistency metric (default 5)")
    p.add_argument("--concentration", type=float, default=None,
                   help="Dirichlet smoothing for differential fairness (default 1.0)")


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
    _add_metric_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("experiment", help="run the cross-validation pipeline")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--data", default=None, help="dataset CSV (with --spec)")
    p.add_argument("--spec", default=None, help="dataset spec JSON (with --data)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", type=_parse_seeds, default=None,
                   help="5 comma-separated repeat seeds (default 0,1,2,3,4)")
    p.add_argument("--models", type=_parse_models, default=None,
                   help="comma list from {baseline,rw} (default both)")
    _add_metric_flags(p)
    p.add_argument("--l2", dest="l2_strength", type=float, default=None,
                   help="logistic L2 strength (default 1.0)")
    p.add_argument("--global-normalize", action="store_true", default=None,
                   help="min-max normalize once globally instead of per training fold")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
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


if __name__ == "__main__":
    sys.exit(main())
