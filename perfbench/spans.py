"""Span tracing of fairsift's layers, from outside the package.

``install`` replaces the module (or class) attribute each caller looks up
with a wrapper that records a span: name, parent span, start and end.  Spans
stay in memory; ``layer_metrics`` turns them into per-layer self seconds
(span time minus the time of its child spans) and call counts.  Nothing in
``src/`` is edited, so a renamed or moved function shows up as a missing
attribute at install time or as a layer with no calls (``coverage_errors``).
"""

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = Counter()
        self._stack = []

    def span(self, owner, attr, name, on_result=None):
        """Wrap ``owner.attr`` so that every call records a span ``name``.

        ``on_result(counts, args, result)`` may add counters for the call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr, name):
        """Wrap ``owner.attr`` to count calls only; for small, hot functions."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self seconds, and the number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        seconds, calls = {}, Counter()
        for (name, _, start, end), inner in zip(self.spans, child_time):
            seconds[name] = seconds.get(name, 0.0) + (end - start) - inner
            calls[name] += 1
        return seconds, calls


def _count_pairs(counts, args, result):
    n = len(args[0])
    counts["metrics.consistency_pairs"] += n * n


def _count_records(counts, args, result):
    counts["harness.records"] += len(result)


def _count_newton(counts, args, result):
    counts["models.newton_iterations"] += result.n_iterations
    counts["models.not_converged"] += not result.converged


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of one ``experiment`` + ``analyze`` run."""
    from fairsift import analysis, cli, harness, metrics, models, report

    tracer.span(cli, "cmd_experiment", "cli.experiment")
    tracer.span(cli, "cmd_analyze", "cli.analyze")
    tracer.span(harness, "encode_dataset", "datamodel.encode")
    tracer.span(harness, "fit_minmax", "datamodel.scale")
    tracer.span(harness, "apply_minmax", "datamodel.scale")
    tracer.span(cli, "run_experiment", "harness.run_experiment", _count_records)
    tracer.span(harness, "make_cv_plan", "harness.cv_plan")
    tracer.span(cli, "write_results_csv", "harness.write_results")
    tracer.span(cli, "read_results_csv", "harness.read_results")
    tracer.span(metrics, "consistency", "metrics.consistency", _count_pairs)
    tracer.span(metrics, "compute_classification_metrics", "metrics.classification")
    tracer.span(metrics, "compute_dataset_metrics", "metrics.dataset")
    tracer.span(models, "train_logistic", "models.fit", _count_newton)
    tracer.span(models.ReweighingMitigator, "training_weights", "models.reweigh")
    tracer.span(report, "build_analysis", "report.build_analysis")
    tracer.span(report, "write_all", "report.write")
    tracer.span(analysis, "correlation_matrix", "analysis.correlation")
    tracer.count(analysis, "spearman", "analysis.spearman_calls")
    tracer.span(analysis, "sensitivity_table", "analysis.sensitivity")
    tracer.span(analysis, "agglomerate", "analysis.upgma")
    tracer.span(analysis, "movement_counts", "analysis.movement")


# per-layer metric -> (span name, "s" for self seconds or "calls")
SPAN_METRICS = {
    "metrics.consistency_s": ("metrics.consistency", "s"),
    "metrics.consistency_calls": ("metrics.consistency", "calls"),
    "metrics.classification_s": ("metrics.classification", "s"),
    "metrics.classification_calls": ("metrics.classification", "calls"),
    "metrics.dataset_s": ("metrics.dataset", "s"),
    "models.fit_s": ("models.fit", "s"),
    "models.fit_calls": ("models.fit", "calls"),
    "models.reweigh_s": ("models.reweigh", "s"),
    "harness.self_s": ("harness.run_experiment", "s"),
    "harness.cv_plan_s": ("harness.cv_plan", "s"),
    "harness.write_results_s": ("harness.write_results", "s"),
    "harness.read_results_s": ("harness.read_results", "s"),
    "analysis.correlation_s": ("analysis.correlation", "s"),
    "analysis.sensitivity_s": ("analysis.sensitivity", "s"),
    "analysis.upgma_s": ("analysis.upgma", "s"),
    "analysis.movement_s": ("analysis.movement", "s"),
    "report.self_s": ("report.build_analysis", "s"),
    "report.write_s": ("report.write", "s"),
    "datamodel.encode_s": ("datamodel.encode", "s"),
    "datamodel.scale_s": ("datamodel.scale", "s"),
    "datamodel.scale_calls": ("datamodel.scale", "calls"),
    "cli.experiment_self_s": ("cli.experiment", "s"),
    "cli.analyze_self_s": ("cli.analyze", "s"),
}
COUNTER_METRICS = (
    "metrics.consistency_pairs",
    "models.newton_iterations",
    "models.not_converged",
    "harness.records",
    "analysis.spearman_calls",
)
# counters that stay 0 on a healthy run; every other counter must be positive
MAY_BE_ZERO = {"models.not_converged"}


def layer_metrics(tracer: Tracer) -> dict:
    seconds, calls = tracer.self_times()
    out = {
        metric: seconds.get(span, 0.0) if kind == "s" else calls[span]
        for metric, (span, kind) in SPAN_METRICS.items()
    }
    out.update({name: tracer.counts[name] for name in COUNTER_METRICS})
    return out


def coverage_errors(tracer: Tracer) -> list[str]:
    """Layers that were never entered: a wrapper that intercepts nothing."""
    _, calls = tracer.self_times()
    spans = {span for span, _ in SPAN_METRICS.values()}
    errors = [f"span {s} recorded no call" for s in sorted(spans) if not calls[s]]
    errors += [
        f"counter {c} stayed 0"
        for c in COUNTER_METRICS
        if c not in MAY_BE_ZERO and not tracer.counts[c]
    ]
    return errors
