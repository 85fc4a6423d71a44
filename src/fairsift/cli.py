"""Command-line front end.

Subcommands:
  metrics     compute the metric inventory for one CSV (+ optional predictions)
  experiment  run the cross-validation pipeline, write results.csv + manifest
  analyze     turn results.csv into correlation/cluster/sensitivity reports
  demo        synthetic end-to-end smoke run (planted bias vs. zero-bias)
  catalog     print the metric inventory as JSON

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 partial results.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import analysis, metrics, report, synth
from .datamodel import (
    ConfigError,
    DataError,
    DatasetSpec,
    apply_minmax,
    encode_dataset,
    fit_minmax,
)
from .harness import (
    BASELINE,
    DEFAULT_SEEDS,
    N_FOLDS,
    REWEIGHING,
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

_MODEL_ALIASES = {"baseline": BASELINE, "rw": REWEIGHING, "reweighing": REWEIGHING}


def _parse_models(text: str) -> tuple[str, ...]:
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in _MODEL_ALIASES:
            raise ConfigError(f"unknown model {token!r}; choose from baseline, rw")
        name = _MODEL_ALIASES[token]
        if name not in out:
            out.append(name)
    if not out:
        raise ConfigError("at least one model required")
    return tuple(out)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"seeds must be integers: {exc}") from exc
    if len(seeds) != 5:
        raise ConfigError(f"exactly 5 seeds required, got {len(seeds)}")
    return seeds


def _experiment_config(args, file_cfg: dict) -> ExperimentConfig:
    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    seeds = pick(args.seeds, "seeds", list(DEFAULT_SEEDS))
    if isinstance(seeds, str):
        seeds = _parse_seeds(seeds)
    models = pick(args.models, "models", "baseline,rw")
    if isinstance(models, str):
        models = _parse_models(models)
    else:
        models = _parse_models(",".join(str(m) for m in models))
    try:
        return ExperimentConfig(
            seeds=tuple(int(s) for s in seeds),
            models=models,
            alpha=float(pick(args.alpha, "alpha", 2.0)),
            k_neighbors=int(pick(args.k_neighbors, "k_neighbors", 5)),
            concentration=float(pick(args.concentration, "concentration", 1.0)),
            l2_strength=float(pick(getattr(args, "l2", None), "l2_strength", 1.0)),
            global_normalize=bool(
                args.global_normalize or file_cfg.get("global_normalize", False)
            ),
            jobs=max(1, int(args.jobs)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _analysis_config(args, file_cfg: dict) -> report.AnalysisConfig:
    scope = args.correlation_scope or file_cfg.get("correlation_scope", "avg")
    scope_map = {
        "avg": analysis.PER_CELL_AVERAGE,
        analysis.PER_CELL_AVERAGE: analysis.PER_CELL_AVERAGE,
        "pooled": analysis.POOLED,
    }
    if scope not in scope_map:
        raise ConfigError(f"correlation scope must be avg or pooled, got {scope!r}")
    d = args.sensitivity_d if args.sensitivity_d is not None else file_cfg.get(
        "sensitivity_d", 0.35
    )
    thresholds = file_cfg.get("thresholds", {})
    try:
        return report.AnalysisConfig(
            correlation_scope=scope_map[scope],
            sensitivity_d=float(d),
            movement_epsilon=float(file_cfg.get("movement_epsilon", 0.001)),
            zero_band=tuple(thresholds.get("zero", metrics.ZERO_FAIR_BAND)),
            one_band=tuple(thresholds.get("one", metrics.ONE_FAIR_BAND)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_run_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _sources(args, file_cfg: dict) -> list[DatasetSource]:
    sources = []
    for entry in file_cfg.get("datasets", []):
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
    try:
        spec = DatasetSpec.from_json_file(args.spec)
    except ConfigError as exc:
        raise ConfigError(f"{args.spec}: {exc}") from exc
    try:
        ds = encode_dataset(args.data, spec)
    except DataError as exc:
        raise DataError(f"{args.data}: {exc}") from exc
    alpha = 2.0 if args.alpha is None else args.alpha
    k = 5 if args.k_neighbors is None else args.k_neighbors
    concentration = 1.0 if args.concentration is None else args.concentration
    try:
        metrics.check_parameters(alpha, k, concentration, n_rows=ds.row_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    X = apply_minmax(ds.X, *fit_minmax(ds.X))
    values = metrics.compute_dataset_metrics(
        ds.y, ds.s, X, ds.weights, k=k, concentration=concentration
    )
    if args.predictions_column:
        predictions = _read_prediction_column(
            args.data, args.predictions_column, spec, ds.row_count
        )
        row = metrics.compute_classification_metrics(
            metrics.confusion_counts(ds.y, predictions, ds.s),
            alpha=alpha, concentration=concentration,
        )
        values.update(
            (mid, None if math.isnan(v) else v)
            for mid, v in zip(metrics.CLASSIFICATION_IDS, row.tolist())
        )

    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("metric_id", "name", "value", "ideal", "label"))
        for mid in sorted(values, key=metrics.metric_sort_key):
            mdef = metrics.METRIC_CATALOG[mid]
            v = values[mid]
            writer.writerow(
                (
                    mid,
                    mdef.name,
                    "" if v is None else repr(float(v)),
                    repr(mdef.ideal),
                    metrics.label_fair(v, mdef.ideal),
                )
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_prediction_column(data_path, column, spec: DatasetSpec, n_rows: int):
    """Binary predictions from a CSV column, for the rows the loader keeps.

    A cell is favorable iff it is one of the spec's favorable values.  When
    none of those is a number, the cells ``1`` and ``1.0`` count as
    favorable too.
    """
    with open(data_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if column not in header:
            raise ConfigError(f"predictions column {column!r} not in CSV header")
        j = header.index(column)
        used = {spec.label_column, spec.protected_column} | {
            c.name for c in spec.feature_columns
        }
        used_idx = [header.index(c) for c in used]
        favorable = set(spec.favorable_value)
        if not any(_is_number(v) for v in favorable):
            favorable |= {"1", "1.0"}  # 0/1 predictions for a non-numeric label
        preds = []
        for row in reader:
            if not row:
                continue
            if len(row) < len(header) or any(row[k] == "" for k in used_idx):
                continue  # mirrors the loader's row rejection
            raw = row[j]
            if raw == "":
                raise DataError(f"empty prediction in column {column!r}")
            preds.append(1 if raw in favorable else 0)
    if len(preds) != n_rows:
        raise DataError(
            f"predictions column has {len(preds)} usable rows, dataset has {n_rows}"
        )
    return np.array(preds, dtype=np.int64)


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
            try:
                metrics.check_parameters(
                    cfg.alpha, cfg.k_neighbors, cfg.concentration, n_rows=n_train
                )
            except ValueError as exc:
                raise DataError(
                    f"dataset {ds.name!r}: smallest training fold: {exc}"
                ) from exc
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
    cfg = _experiment_config(args, file_cfg)
    _, failures = _experiment(_sources(args, file_cfg), cfg, args.out)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_analyze(args) -> int:
    file_cfg = _load_run_config(args.config)
    cfg = _analysis_config(args, file_cfg)
    try:
        samples = read_results_csv(args.results)
    except OSError as exc:
        raise DataError(f"cannot read results: {exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    result = report.build_analysis(samples, cfg)
    paths = report.write_all(result, args.out)
    print(f"wrote {paths['report']}")
    return EXIT_OK


def cmd_demo(args) -> int:
    """Planted-bias end-to-end run: biased dataset vs. zero-bias control."""
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
        samples, _ = _experiment(
            [DatasetSource(data_path, spec_path)],
            ExperimentConfig(jobs=max(1, args.jobs)),
            run_dir,
        )
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
    with open(os.path.join(out, "demo_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def cmd_catalog(args) -> int:
    text = metrics.catalog_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
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
    p.add_argument("--l2", type=float, default=None,
                   help="logistic L2 strength (default 1.0)")
    p.add_argument("--global-normalize", action="store_true",
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
