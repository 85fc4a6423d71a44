"""Assemble experiment samples into the full analysis report.

Classification metrics (26) and dataset metrics (4) are correlated and
clustered separately.  The report covers:

* per-dataset fair/unfair labels and the share of metrics calling each
  dataset unfair (with the median of those shares across datasets);
* the clustering itself: correlation matrices, dendrograms, the chosen cut
  with its stable interval, per-cluster agreement and a suggested
  representative metric;
* fold-to-fold sensitivity (median/IQR per cell, flagged cells, insensitive
  metrics and clusters);
* movement of each metric toward/away from its ideal after reweighing.

All writers emit canonically ordered UTF-8 so repeated runs are byte-equal.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, metrics
from .harness import BASELINE, REWEIGHING, MetricSampleMatrix


@dataclass(frozen=True)
class AnalysisConfig:
    correlation_scope: str = analysis.PER_CELL_AVERAGE
    sensitivity_d: float = 0.35
    movement_epsilon: float = 0.001
    zero_band: tuple[float, float] = metrics.ZERO_FAIR_BAND
    one_band: tuple[float, float] = metrics.ONE_FAIR_BAND

    def to_dict(self) -> dict:
        return {
            "correlation_scope": self.correlation_scope,
            "sensitivity_d": self.sensitivity_d,
            "movement_epsilon": self.movement_epsilon,
            "zero_band": list(self.zero_band),
            "one_band": list(self.one_band),
        }


@dataclass(frozen=True)
class ClusterSummary:
    cluster_id: int
    metric_ids: tuple[str, ...]
    representative: str
    insensitive: bool
    # dataset -> (majority label, agreement percent)
    per_dataset: dict[str, tuple[str, float]]


@dataclass(frozen=True)
class ClusterReport:
    scope: str  # "classification" | "dataset"
    correlation: analysis.CorrelationMatrix
    dendrogram: analysis.Dendrogram
    cut: analysis.CutSelection
    clusters: tuple[ClusterSummary, ...]


@dataclass(frozen=True)
class AnalysisResult:
    label_model: str
    datasets: tuple[str, ...]
    models: tuple[str, ...]
    # (dataset, model, metric) -> median of that cell's defined fold samples
    fold_medians: dict[tuple[str, str, str], float | None]
    labels: dict[tuple[str, str], str]
    classification: ClusterReport
    dataset_metrics: ClusterReport | None
    unfair_pct: dict[tuple[str, str], float]  # (scope, dataset) -> percent
    unfair_values: tuple[float, ...]  # combined, ascending
    unfair_median: float
    sensitivity: analysis.SensitivityReport
    movement: dict[str, analysis.MovementResult]  # dataset -> movement
    movement_models: tuple[str, str] | None
    config: AnalysisConfig


def _representative(cluster, corr: analysis.CorrelationMatrix) -> str:
    """Most central member: highest mean |rho| to the rest, ties to lowest id."""
    members = sorted(cluster, key=metrics.metric_sort_key)
    if len(members) == 1:
        return members[0]
    best, best_score = members[0], -1.0
    for m in members:
        others = [
            abs(corr.get(m, o))
            for o in members
            if o != m and corr.get(m, o) is not None
        ]
        score = float(np.mean(others)) if others else -1.0
        if score > best_score:
            best, best_score = m, score
    return best


def _build_cluster_report(
    scope: str,
    metric_ids,
    samples: MetricSampleMatrix,
    labels: dict,
    sensitivity: analysis.SensitivityReport,
    cfg: AnalysisConfig,
) -> ClusterReport:
    corr = analysis.correlation_matrix(samples, metric_ids, scope=cfg.correlation_scope)
    dismat = analysis.dissimilarity_matrix(corr)
    dendro = analysis.agglomerate(dismat, corr.metric_ids)
    cut = analysis.select_cut(dendro)
    parts = analysis.extract_clusters(dendro, cut.height)

    summaries = []
    for cid, members in enumerate(parts):
        per_dataset = {}
        for ds in samples.datasets:
            cluster_labels = [labels[(ds, m)] for m in members]
            majority = max(
                (metrics.FAIR, metrics.UNFAIR),
                key=lambda lab: cluster_labels.count(lab),
            )
            per_dataset[ds] = (
                majority,
                analysis.agreement_percentage(cluster_labels),
            )
        summaries.append(
            ClusterSummary(
                cluster_id=cid,
                metric_ids=members,
                representative=_representative(members, corr),
                insensitive=sensitivity.cluster_insensitive(members),
                per_dataset=per_dataset,
            )
        )
    return ClusterReport(
        scope=scope,
        correlation=corr,
        dendrogram=dendro,
        cut=cut,
        clusters=tuple(summaries),
    )


def build_analysis(
    samples: MetricSampleMatrix, config: AnalysisConfig | None = None
) -> AnalysisResult:
    cfg = config or AnalysisConfig()
    datasets = samples.datasets
    models = samples.models
    label_model = BASELINE if BASELINE in models else models[0]

    row_of = {mid: k for k, mid in enumerate(samples.metric_ids)}
    classification_ids = tuple(m for m in metrics.CLASSIFICATION_IDS if m in row_of)
    dataset_ids = tuple(m for m in metrics.DATASET_IDS if m in row_of)

    rows = samples.values.reshape(-1, samples.values.shape[-1])
    medians = np.full(len(rows), np.nan)
    for selected, block in analysis.defined_blocks(rows):
        medians[selected] = np.median(block, axis=1)
    medians = medians.reshape(samples.values.shape[:-1]).tolist()
    fold_medians: dict[tuple[str, str, str], float | None] = {}
    for ds, by_model in zip(datasets, medians):
        for model, by_metric in zip(models, by_model):
            for mid in classification_ids + dataset_ids:
                median = by_metric[row_of[mid]]
                fold_medians[(ds, model, mid)] = None if math.isnan(median) else median

    labels: dict[tuple[str, str], str] = {}
    for ds in datasets:
        for mid in classification_ids + dataset_ids:
            labels[(ds, mid)] = metrics.label_fair(
                fold_medians[(ds, label_model, mid)],
                metrics.METRIC_CATALOG[mid].ideal,
                zero_band=cfg.zero_band,
                one_band=cfg.one_band,
            )

    sensitivity = analysis.sensitivity_table(samples, d=cfg.sensitivity_d)

    classification = _build_cluster_report(
        "classification", classification_ids, samples, labels, sensitivity, cfg
    )
    dataset_report = None
    if len(dataset_ids) >= 2:
        dataset_report = _build_cluster_report(
            "dataset", dataset_ids, samples, labels, sensitivity, cfg
        )

    unfair_pct: dict[tuple[str, str], float] = {}
    for ds in datasets:
        unfair_pct[("classification", ds)] = analysis.unfair_percentage(
            [labels[(ds, m)] for m in classification_ids]
        )
        if dataset_ids:
            unfair_pct[("dataset", ds)] = analysis.unfair_percentage(
                [labels[(ds, m)] for m in dataset_ids]
            )
    unfair_values = tuple(sorted(unfair_pct.values()))
    unfair_median = float(np.median(unfair_values))

    movement: dict[str, analysis.MovementResult] = {}
    movement_models = None
    if BASELINE in models and REWEIGHING in models:
        movement_models = (BASELINE, REWEIGHING)
        ideals = {m: metrics.METRIC_CATALOG[m].ideal for m in classification_ids}
        for ds in datasets:
            base = {m: fold_medians[(ds, BASELINE, m)] for m in classification_ids}
            mitigated = {
                m: fold_medians[(ds, REWEIGHING, m)] for m in classification_ids
            }
            movement[ds] = analysis.movement_counts(
                base, mitigated, ideals, epsilon=cfg.movement_epsilon
            )

    return AnalysisResult(
        label_model=label_model,
        datasets=datasets,
        models=models,
        fold_medians=fold_medians,
        labels=labels,
        classification=classification,
        dataset_metrics=dataset_report,
        unfair_pct=unfair_pct,
        unfair_values=unfair_values,
        unfair_median=unfair_median,
        sensitivity=sensitivity,
        movement=movement,
        movement_models=movement_models,
        config=cfg,
    )


# --------------------------------------------------------------------------
# Writers
# --------------------------------------------------------------------------

def _fmt(v: float | None, digits: int = 6) -> str:
    return "" if v is None else f"{v:.{digits}g}"


def write_correlation_csv(corr: analysis.CorrelationMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("metric_id",) + corr.metric_ids)
        for i, mid in enumerate(corr.metric_ids):
            row = [mid]
            for j in range(len(corr.metric_ids)):
                v = corr.values[i, j]
                row.append("" if np.isnan(v) else repr(float(v)))
            writer.writerow(row)


def write_dendrogram_dot(dendro: analysis.Dendrogram, path, title: str) -> None:
    n = len(dendro.leaves)
    lines = [f'graph "{title}" {{', "  rankdir=BT;"]
    for i, leaf in enumerate(dendro.leaves):
        lines.append(f'  n{i} [label="{leaf}", shape=box];')
    for t, merge in enumerate(dendro.merges):
        nid = n + t
        lines.append(f'  n{nid} [label="{merge.height:.4f}", shape=ellipse];')
        lines.append(f"  n{nid} -- n{merge.left};")
        lines.append(f"  n{nid} -- n{merge.right};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def render_dendrogram_text(dendro: analysis.Dendrogram) -> str:
    n = len(dendro.leaves)

    def render(node: int, prefix: str, tail: bool) -> list[str]:
        connector = "`- " if tail else "|- "
        child_prefix = prefix + ("   " if tail else "|  ")
        if node < n:
            return [prefix + connector + dendro.leaves[node]]
        merge = dendro.merges[node - n]
        out = [prefix + connector + f"[{merge.height:.4f}]"]
        out.extend(render(merge.left, child_prefix, tail=False))
        out.extend(render(merge.right, child_prefix, tail=True))
        return out

    if not dendro.merges:
        return "\n".join(dendro.leaves) + "\n"
    merge = dendro.merges[-1]
    lines = [f"[{merge.height:.4f}]"]
    lines.extend(render(merge.left, "", tail=False))
    lines.extend(render(merge.right, "", tail=True))
    return "\n".join(lines) + "\n"


def write_dendrogram_txt(dendro: analysis.Dendrogram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dendrogram_text(dendro))


def _cluster_report_dict(report: ClusterReport) -> dict:
    return {
        "scope": report.scope,
        "cut_height": report.cut.height,
        "stable_interval": [report.cut.gap_low, report.cut.gap_high],
        "correlation_scope": report.correlation.scope,
        "clusters": [
            {
                "cluster_id": c.cluster_id,
                "metrics": list(c.metric_ids),
                "metric_names": [
                    metrics.METRIC_CATALOG[m].name for m in c.metric_ids
                ],
                "families": sorted(
                    {metrics.METRIC_CATALOG[m].family for m in c.metric_ids}
                ),
                "representative": c.representative,
                "insensitive": c.insensitive,
                "per_dataset": {
                    ds: {"majority": majority, "agreement_pct": pct}
                    for ds, (majority, pct) in sorted(c.per_dataset.items())
                },
            }
            for c in report.clusters
        ],
    }


def write_clusters_json(result: AnalysisResult, path) -> None:
    payload = {
        "label_model": result.label_model,
        "classification": _cluster_report_dict(result.classification),
        "dataset": (
            None
            if result.dataset_metrics is None
            else _cluster_report_dict(result.dataset_metrics)
        ),
        "unfair_percentage": {
            f"{scope}:{ds}": pct
            for (scope, ds), pct in sorted(result.unfair_pct.items())
        },
        "unfair_median": result.unfair_median,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sensitivity_csv(report: analysis.SensitivityReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ("dataset", "model", "metric_id", "median", "iqr", "flagged")
        )
        for cell in report.cells:
            writer.writerow(
                (
                    cell.dataset,
                    cell.model,
                    cell.metric_id,
                    "" if cell.median is None else repr(cell.median),
                    "" if cell.iqr is None else repr(cell.iqr),
                    int(cell.flagged),
                )
            )


def write_movement_csv(result: AnalysisResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ("dataset", "metric_id", "baseline_median", "mitigated_median",
             "ideal", "verdict")
        )
        if result.movement_models is None:
            return
        base_model, mit_model = result.movement_models
        for ds in result.datasets:
            move = result.movement[ds]
            for mid in sorted(
                set(move.verdicts) | set(move.excluded), key=metrics.metric_sort_key
            ):
                base = result.fold_medians.get((ds, base_model, mid))
                mitigated = result.fold_medians.get((ds, mit_model, mid))
                writer.writerow(
                    (
                        ds,
                        mid,
                        "" if base is None else repr(base),
                        "" if mitigated is None else repr(mitigated),
                        repr(metrics.METRIC_CATALOG[mid].ideal),
                        move.verdicts.get(mid, "excluded"),
                    )
                )


def render_report_md(result: AnalysisResult) -> str:
    lines: list[str] = []
    add = lines.append
    add("# Fairness metric analysis")
    add("")
    add(f"Datasets: {', '.join(result.datasets)}")
    add(f"Models: {', '.join(result.models)}")
    add(f"Labels taken from the {result.label_model} model's fold medians.")
    add("")

    add("## Disagreement (share of metrics calling each dataset unfair)")
    add("")
    add("| scope | dataset | unfair % |")
    add("| --- | --- | --- |")
    for (scope, ds), pct in sorted(result.unfair_pct.items()):
        add(f"| {scope} | {ds} | {round(pct)}% |")
    add("")
    combined = ", ".join(f"{round(v)}" for v in result.unfair_values)
    add(f"Combined (ascending): {{{combined}}}%; median {round(result.unfair_median)}%.")
    add("")

    for report in (result.classification, result.dataset_metrics):
        if report is None:
            continue
        add(f"## Clusters: {report.scope} metrics")
        add("")
        add(
            f"Cut height {report.cut.height:.4f} "
            f"(clusters stable for any cut in "
            f"[{report.cut.gap_low:.4f}, {report.cut.gap_high:.4f}]); "
            f"{len(report.clusters)} clusters."
        )
        add("")
        add("| cluster | metric | name | " + " | ".join(result.datasets) + " |")
        add("| --- | --- | --- | " + " | ".join("---" for _ in result.datasets) + " |")
        for cluster in report.clusters:
            for mid in cluster.metric_ids:
                cells = " | ".join(
                    result.labels[(ds, mid)] for ds in result.datasets
                )
                add(
                    f"| {cluster.cluster_id} | {mid} | "
                    f"{metrics.METRIC_CATALOG[mid].name} | {cells} |"
                )
            agreement = " | ".join(
                f"{round(cluster.per_dataset[ds][1])}%" for ds in result.datasets
            )
            add(f"| {cluster.cluster_id} | *agreement* |  | {agreement} |")
        add("")
        for cluster in report.clusters:
            verdict = "insensitive" if cluster.insensitive else "sensitive"
            add(
                f"- cluster {cluster.cluster_id} "
                f"({', '.join(cluster.metric_ids)}): representative "
                f"{cluster.representative}, {verdict}"
            )
        add("")

    add("## Sensitivity (median / IQR per fold sample)")
    add("")
    add(
        f"Flag threshold: IQR > d * sigma with d = {result.sensitivity.d} and "
        f"sigma = {result.sensitivity.sigma:.6g} "
        f"(threshold {result.sensitivity.threshold:.6g})."
    )
    add("")
    add("| dataset | model | metric | median | IQR | flagged |")
    add("| --- | --- | --- | --- | --- | --- |")
    for cell in result.sensitivity.cells:
        add(
            f"| {cell.dataset} | {cell.model} | {cell.metric_id} | "
            f"{_fmt(cell.median, 4)} | {_fmt(cell.iqr, 4)} | "
            f"{'yes' if cell.flagged else ''} |"
        )
    add("")
    insensitive = [
        m
        for m in result.classification.correlation.metric_ids
        if result.sensitivity.metric_insensitive(m)
    ]
    if result.dataset_metrics is not None:
        insensitive += [
            m
            for m in result.dataset_metrics.correlation.metric_ids
            if result.sensitivity.metric_insensitive(m)
        ]
    add(
        "Insensitive metrics: "
        + (", ".join(insensitive) if insensitive else "none")
        + "."
    )
    add("")

    if result.movement_models is not None:
        base_model, mit_model = result.movement_models
        add(f"## Movement after mitigation ({base_model} -> {mit_model})")
        add("")
        add("| dataset | UF (toward ideal) | FU (away) | NC | excluded |")
        add("| --- | --- | --- | --- | --- |")
        for ds in result.datasets:
            move = result.movement[ds]
            counts = move.counts
            add(
                f"| {ds} | {counts[analysis.TOWARD_IDEAL]} | "
                f"{counts[analysis.AWAY_FROM_IDEAL]} | {counts[analysis.NO_CHANGE]} | "
                f"{len(move.excluded)} |"
            )
        add("")
    return "\n".join(lines) + "\n"


def write_report_md(result: AnalysisResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report_md(result))


def write_all(result: AnalysisResult, out_dir) -> dict:
    """Write every analysis artifact into ``out_dir``; returns path mapping."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "correlation": os.path.join(out_dir, "correlation.csv"),
        "dendrogram_dot": os.path.join(out_dir, "dendrogram.dot"),
        "dendrogram_txt": os.path.join(out_dir, "dendrogram.txt"),
        "clusters": os.path.join(out_dir, "clusters.json"),
        "sensitivity": os.path.join(out_dir, "sensitivity.csv"),
        "movement": os.path.join(out_dir, "movement.csv"),
        "report": os.path.join(out_dir, "report.md"),
    }
    write_correlation_csv(result.classification.correlation, paths["correlation"])
    write_dendrogram_dot(
        result.classification.dendrogram, paths["dendrogram_dot"],
        "classification metrics",
    )
    write_dendrogram_txt(result.classification.dendrogram, paths["dendrogram_txt"])
    if result.dataset_metrics is not None:
        paths["correlation_dataset"] = os.path.join(out_dir, "correlation_dataset.csv")
        paths["dendrogram_dataset_dot"] = os.path.join(out_dir, "dendrogram_dataset.dot")
        paths["dendrogram_dataset_txt"] = os.path.join(out_dir, "dendrogram_dataset.txt")
        write_correlation_csv(
            result.dataset_metrics.correlation, paths["correlation_dataset"]
        )
        write_dendrogram_dot(
            result.dataset_metrics.dendrogram, paths["dendrogram_dataset_dot"],
            "dataset metrics",
        )
        write_dendrogram_txt(
            result.dataset_metrics.dendrogram, paths["dendrogram_dataset_txt"]
        )
    write_clusters_json(result, paths["clusters"])
    write_sensitivity_csv(result.sensitivity, paths["sensitivity"])
    write_movement_csv(result, paths["movement"])
    write_report_md(result, paths["report"])
    return paths
