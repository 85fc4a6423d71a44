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

The labels (``[dataset, metric]``, one ``label_fair`` call) and the movement
verdicts (``[dataset, classification metric]``) are arrays read off the
sensitivity table's medians, so every artifact prints the same median for a
cell.  Per-cluster majority and agreement and the per-dataset unfair shares
are counts over slices of the label array (``label_shares``).

Renderers return content and write nothing: CSV rows (``correlation_rows``,
``sensitivity_rows``, ``movement_rows``; Undefined stays NaN until
``format_value`` makes it an empty field), ``clusters_payload`` and the
``render_*`` texts.  ``write_all`` hands each to ``datamodel``'s
``write_csv``, ``write_json`` or ``write_text``, the one encoding.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import analysis, metrics
from .datamodel import (ConfigError, DataError, check_fields, format_value, make_dirs,
                        write_csv, write_json, write_text)
from .harness import BASELINE, REWEIGHING, MetricSampleMatrix


# correlation_scope value -> scope; "avg" is the CLI's name for the average
_SCOPES = {"avg": analysis.PER_CELL_AVERAGE, analysis.POOLED: analysis.POOLED,
           analysis.PER_CELL_AVERAGE: analysis.PER_CELL_AVERAGE}


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis settings; ``ConfigError`` names a field of the wrong type or range."""

    correlation_scope: str = analysis.PER_CELL_AVERAGE
    sensitivity_d: float = 0.35
    movement_epsilon: float = 0.001
    zero_band: tuple[float, float] = field(
        default=metrics.ZERO_FAIR_BAND, metadata={"key": "thresholds.zero"})
    one_band: tuple[float, float] = field(
        default=metrics.ONE_FAIR_BAND, metadata={"key": "thresholds.one"})

    def __post_init__(self):
        check_fields(self)
        if self.correlation_scope not in _SCOPES:
            raise ConfigError(f"correlation_scope must be one of {sorted(_SCOPES)}, "
                              f"got {self.correlation_scope!r}")
        object.__setattr__(self, "correlation_scope", _SCOPES[self.correlation_scope])
        if not self.sensitivity_d > 0:
            raise ConfigError(f"sensitivity_d must be positive, got {self.sensitivity_d}")
        if not self.movement_epsilon >= 0:
            raise ConfigError(
                f"movement_epsilon must not be negative, got {self.movement_epsilon}"
            )
        for key, (low, high) in (("thresholds.zero", self.zero_band),
                                 ("thresholds.one", self.one_band)):
            if low > high:
                raise ConfigError(f"{key} must have low <= high, got [{low}, {high}]")


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
    # [dataset, metric] Fair / Unfair of the label model's medians; the metric
    # axis is sensitivity.metric_ids
    labels: np.ndarray
    classification: ClusterReport
    dataset_metrics: ClusterReport | None
    unfair_pct: dict[tuple[str, str], float]  # (scope, dataset) -> percent
    unfair_values: tuple[float, ...]  # combined, ascending
    unfair_median: float
    sensitivity: analysis.SensitivityReport  # median, iqr, flagged per cell
    # [dataset, classification metric] verdicts of movement_models, or None
    movement: np.ndarray | None
    movement_models: tuple[str, str] | None
    config: AnalysisConfig


def _representative(cluster, corr: analysis.CorrelationMatrix) -> str:
    """Most central member: highest mean |rho| to the rest, ties to lowest id.

    Each member's mean is ``np.mean`` of its defined |rho| to the others in
    member order; a member with none scores -1."""
    members = sorted(cluster, key=metrics.metric_sort_key)
    rows = [corr.metric_ids.index(m) for m in members]
    rho = np.abs(corr.values[np.ix_(rows, rows)])
    np.fill_diagonal(rho, np.nan)
    defined = [r[~np.isnan(r)] for r in rho]
    scores = [np.mean(r) if len(r) else -1.0 for r in defined]
    return members[int(np.argmax(scores))]


def _model_medians(sensitivity: analysis.SensitivityReport, model: str, metric_ids):
    """[dataset, metric] medians of one model over ``metric_ids``."""
    cols = [sensitivity.metric_ids.index(m) for m in metric_ids]
    return sensitivity.median[:, sensitivity.models.index(model)][:, cols]


def label_shares(labels: np.ndarray):
    """Per row of a Fair/Unfair label array: the majority label (an even split
    goes to Fair), its share in percent, and the Unfair share in percent."""
    n = labels.shape[-1]
    n_unfair = (labels == metrics.UNFAIR).sum(axis=-1)
    majority = np.where(2 * n_unfair > n, metrics.UNFAIR, metrics.FAIR)
    return majority, 100.0 * np.maximum(n_unfair, n - n_unfair) / n, 100.0 * n_unfair / n


def _metric_labels(labels: np.ndarray, sensitivity, metric_ids) -> np.ndarray:
    """The [dataset, metric] labels of ``metric_ids``."""
    return labels[:, [sensitivity.metric_ids.index(m) for m in metric_ids]]


def _build_cluster_report(
    scope: str,
    metric_ids,
    samples: MetricSampleMatrix,
    labels: np.ndarray,
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
        majority, agreement, _ = label_shares(_metric_labels(labels, sensitivity, members))
        per_dataset = dict(zip(samples.datasets, zip(majority.tolist(), agreement.tolist())))
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

    ids = samples.metric_ids
    classification_ids = tuple(m for m in metrics.CLASSIFICATION_IDS if m in ids)
    dataset_ids = tuple(m for m in metrics.DATASET_IDS if m in ids)
    if len(classification_ids) < 2:
        raise DataError(
            f"the classification scope needs at least 2 metrics to cluster, "
            f"got {len(classification_ids)} ({', '.join(classification_ids) or 'none'})"
        )
    ideals = {m: metrics.METRIC_CATALOG[m].ideal for m in ids}

    sensitivity = analysis.sensitivity_table(samples, d=cfg.sensitivity_d)
    labels = metrics.label_fair(
        _model_medians(sensitivity, label_model, ids), [ideals[m] for m in ids],
        zero_band=cfg.zero_band, one_band=cfg.one_band,
    )

    classification = _build_cluster_report(
        "classification", classification_ids, samples, labels, sensitivity, cfg
    )
    dataset_report = None
    if len(dataset_ids) >= 2:
        dataset_report = _build_cluster_report(
            "dataset", dataset_ids, samples, labels, sensitivity, cfg
        )

    unfair_pct: dict[tuple[str, str], float] = {}
    for scope, scope_ids in (("classification", classification_ids),
                             ("dataset", dataset_ids)):
        if not scope_ids:
            continue
        _, _, shares = label_shares(_metric_labels(labels, sensitivity, scope_ids))
        for ds, share in zip(datasets, shares.tolist()):
            unfair_pct[(scope, ds)] = share
    unfair_values = tuple(sorted(unfair_pct.values()))
    unfair_median = float(np.median(unfair_values))

    movement = movement_models = None
    if BASELINE in models and REWEIGHING in models:
        movement_models = (BASELINE, REWEIGHING)
        base, mitigated = (
            _model_medians(sensitivity, m, classification_ids) for m in movement_models
        )
        movement = analysis.movement_counts(
            base, mitigated, [ideals[m] for m in classification_ids],
            epsilon=cfg.movement_epsilon,
        )

    return AnalysisResult(
        label_model=label_model,
        datasets=datasets,
        models=models,
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
# Renderers and the writer
# --------------------------------------------------------------------------

SENSITIVITY_HEADER = ("dataset", "model", "metric_id", "median", "iqr", "flagged")
MOVEMENT_HEADER = ("dataset", "metric_id", "baseline_median", "mitigated_median",
                   "ideal", "verdict")


def correlation_rows(corr: analysis.CorrelationMatrix):
    return ([mid] + [format_value(v) for v in row]
            for mid, row in zip(corr.metric_ids, corr.values.tolist()))


def render_dendrogram_dot(dendro: analysis.Dendrogram, title: str) -> str:
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
    return "\n".join(lines) + "\n"


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


def clusters_payload(result: AnalysisResult) -> dict:
    """The content of ``clusters.json``."""
    return {
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


def sensitivity_rows(report: analysis.SensitivityReport):
    return ((ds, model, mid, format_value(median), format_value(iqr), int(flagged))
            for ds, model, mid, median, iqr, flagged in report.rows())


def movement_rows(result: AnalysisResult):
    """One row per (dataset, classification metric); none without both
    movement models."""
    if result.movement_models is None:
        return
    ids = result.classification.correlation.metric_ids
    base, mitigated = (
        _model_medians(result.sensitivity, m, ids).tolist()
        for m in result.movement_models
    )
    for ds, base_row, mit_row, verdicts in zip(
        result.datasets, base, mitigated, result.movement.tolist()
    ):
        for mid, b, m, verdict in zip(ids, base_row, mit_row, verdicts):
            yield (ds, mid, format_value(b), format_value(m),
                   format_value(metrics.METRIC_CATALOG[mid].ideal), verdict)


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
                col = result.sensitivity.metric_ids.index(mid)
                cells = " | ".join(result.labels[:, col].tolist())
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
    for ds, model, mid, median, iqr, flagged in result.sensitivity.rows():
        add(
            f"| {ds} | {model} | {mid} | "
            f"{format_value(median, 4)} | {format_value(iqr, 4)} | "
            f"{'yes' if flagged else ''} |"
        )
    add("")
    insensitive = [
        m
        for report in (result.classification, result.dataset_metrics)
        if report is not None
        for m in report.correlation.metric_ids
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
        for ds, verdicts in zip(result.datasets, result.movement.tolist()):
            add(
                f"| {ds} | {verdicts.count(analysis.TOWARD_IDEAL)} | "
                f"{verdicts.count(analysis.AWAY_FROM_IDEAL)} | "
                f"{verdicts.count(analysis.NO_CHANGE)} | "
                f"{verdicts.count(analysis.EXCLUDED)} |"
            )
        add("")
    return "\n".join(lines) + "\n"


def write_all(result: AnalysisResult, out_dir) -> dict:
    """Write every analysis artifact into ``out_dir``; returns path mapping."""
    make_dirs(out_dir)
    # (path key, file name, writer, the writer's arguments after the path)
    artifacts = [
        ("clusters", "clusters.json", write_json, [clusters_payload(result)]),
        ("sensitivity", "sensitivity.csv", write_csv,
         [SENSITIVITY_HEADER, sensitivity_rows(result.sensitivity)]),
        ("movement", "movement.csv", write_csv, [MOVEMENT_HEADER, movement_rows(result)]),
        ("report", "report.md", write_text, [render_report_md(result)]),
    ]
    for report, suffix in ((result.classification, ""),
                           (result.dataset_metrics, "_dataset")):
        if report is None:
            continue
        corr, dendro = report.correlation, report.dendrogram
        artifacts += [
            (f"correlation{suffix}", f"correlation{suffix}.csv", write_csv,
             [("metric_id",) + corr.metric_ids, correlation_rows(corr)]),
            (f"dendrogram{suffix}_dot", f"dendrogram{suffix}.dot", write_text,
             [render_dendrogram_dot(dendro, f"{report.scope} metrics")]),
            (f"dendrogram{suffix}_txt", f"dendrogram{suffix}.txt", write_text,
             [render_dendrogram_text(dendro)]),
        ]
    paths = {}
    for key, name, write, content in artifacts:
        paths[key] = os.path.join(out_dir, name)
        write(paths[key], *content)
    return paths
