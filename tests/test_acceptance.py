"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 9 needs the public German Credit data (not redistributed);
prepare it with scripts/prepare_german.py and point FAIRSIFT_GERMAN_CSV at
the converted CSV (spec JSON expected next to it), or place the pair at
data/german.csv + data/german.spec.json.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairsift import analysis, metrics, report
from fairsift.cli import main
from fairsift.harness import read_results_csv
from fairsift.models import loss_and_gradient, reweigh

from test_analysis import spearman_bruteforce, upgma_bruteforce
from test_metrics import classification, entropy, ge_bruteforce, theil_bruteforce


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    start = time.monotonic()
    code = main(["demo", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    return out, elapsed


def test_criterion_1_metric_identities():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(6, 40))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        s[0], s[1] = 0, 1
        out = classification(y_true, y_pred, s)
        if out["C0"] is None:
            assert out["C2"] is None
        else:
            assert abs(out["C2"] + out["C0"]) <= 1e-12
        if out["C16"] is None:
            assert out["C20"] is None
        else:
            assert abs(out["C20"] - 2 * math.sqrt(out["C16"])) <= 1e-12
        c = metrics.confusion_counts(y_true, y_pred, s).tolist()
        if out["C9"] is not None:
            # per group g: TPR = TP / (TP + FN), FPR = FP / (FP + TN)
            tpr = [g[1][1] / (g[1][1] + g[1][0]) for g in c]
            fpr = [g[0][1] / (g[0][1] + g[0][0]) for g in c]
            d_tpr = tpr[0] - tpr[1]
            d_fpr = fpr[0] - fpr[1]
            assert abs(out["C9"] - 0.5 * (d_fpr + d_tpr)) <= 1e-12
            assert out["C10"] >= abs(out["C9"]) - 1e-12
        # parity formulas on true labels coincide with the dataset metrics
        on_labels = classification(y_true, y_true, s)
        ds = metrics.compute_dataset_metrics(y_true, s, rng.random((n, 2)), k=1)
        for clf_id, data_id in (("C15", "D2"), ("C14", "D3")):
            if on_labels[clf_id] is None:
                assert ds[data_id] is None
            else:
                assert abs(on_labels[clf_id] - ds[data_id]) <= 1e-12
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 1000 and elapsed < 5.0
    _report(1, ok, f"identity suite on {checked} instances in {elapsed:.2f}s")
    assert ok


def test_criterion_2_reweighing_exactness():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst_d2, worst_d3 = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(8, 200))
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        y[:4] = [0, 0, 1, 1]
        s[:4] = [0, 1, 0, 1]
        w = reweigh(y, s).per_row(y, s)
        out = metrics.compute_dataset_metrics(y, s, rng.random((n, 2)), w, k=1)
        worst_d2 = max(worst_d2, abs(out["D2"]))
        worst_d3 = max(worst_d3, abs(out["D3"] - 1.0))
    elapsed = time.monotonic() - start
    ok = worst_d2 <= 1e-9 and worst_d3 <= 1e-9 and elapsed < 5.0
    _report(
        2, ok,
        f"weighted D2 within {worst_d2:.2e}, D3-1 within {worst_d3:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    for n in range(3, 7):
        x = list(range(1, n + 1))
        for perm in itertools.permutations(x):
            got = analysis.spearman(x, list(perm))
            expected = spearman_bruteforce(x, list(perm))
            worst = max(worst, abs(got - expected))
    assert worst <= 1e-12

    height_err = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.01, 1.0, size=(6, 6))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        dend = analysis.agglomerate(d, tuple("ABCDEF"))
        for merge, (a, b, height, size) in zip(dend.merges, upgma_bruteforce(d, None)):
            assert (merge.left, merge.right, merge.size) == (a, b, size)
            height_err = max(height_err, abs(merge.height - height))
    ok = worst <= 1e-12 and height_err <= 1e-12
    _report(
        3, ok,
        f"spearman max err {worst:.1e} over all permutations n<=6; "
        f"UPGMA height err {height_err:.1e} over 100 trials",
    )
    assert ok


def test_criterion_4_mirrored_pairs_cocluster(demo_run):
    out, _ = demo_run
    ok = True
    for run in ("biased", "control"):
        samples = read_results_csv(out / run / "results.csv")
        corr = analysis.correlation_matrix(samples, metrics.CLASSIFICATION_IDS)
        dend = analysis.agglomerate(
            analysis.dissimilarity_matrix(corr), corr.metric_ids
        )
        for cut in (5e-324, 1e-12, 0.05, 0.3, 0.7, 1.0):
            parts = analysis.extract_clusters(dend, cut)
            for a, b in (("C0", "C2"), ("C16", "C20")):
                holder = next(p for p in parts if a in p)
                ok = ok and (b in holder)
    _report(4, ok, "C0/C2 and C16/C20 co-cluster at every cut > 0 in both runs")
    assert ok


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, n)
        w = rng.uniform(0.1, 3.0, n)
        theta = rng.normal(scale=0.5, size=p + 1)
        _, analytic = loss_and_gradient(theta, X, y, w, 1.0)
        numeric = np.zeros_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            numeric[i] = (
                loss_and_gradient(up, X, y, w, 1.0)[0]
                - loss_and_gradient(down, X, y, w, 1.0)[0]
            ) / 2e-5
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    ok = worst < 1e-4
    _report(5, ok, f"gradient vs central differences, worst rel err {worst:.2e}")
    assert ok


def test_criterion_6_entropy_family():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        b = rng.choice([0.0, 1.0, 2.0], n)
        if b.sum() == 0:
            b[0] = 1.0
        ge, theil, _ = entropy(b, 2)
        worst = max(worst, abs(ge - ge_bruteforce(b, 2.0)), abs(theil - theil_bruteforce(b)))
        for c in (0.5, 3.0):
            ge_c, theil_c, _ = entropy(c * b, 2)
            worst = max(worst, abs(ge_c - ge), abs(theil_c - theil))
    ge, theil, _ = entropy([2, 0], 2)
    worked = (abs(ge - 0.5), abs(theil - math.log(2)))
    ok = worst <= 1e-12 and max(worked) <= 1e-12
    _report(
        6, ok,
        f"GE/Theil brute-force + scale invariance err {worst:.1e}; "
        f"GE([2,0])=0.5 and Theil([2,0])=ln2 reproduced",
    )
    assert ok


def test_criterion_7_smoothed_edf_worked_example():
    got = metrics.smoothed_edf([5, 2], [10, 10], concentration=1.0)
    ok = abs(got - 0.7885) <= 1e-3
    _report(7, ok, f"smoothed EDF (5/10 vs 2/10, c=1) = {got:.6f} vs 0.7885")
    assert ok


def test_criterion_8_planted_bias_demo(demo_run):
    out, elapsed = demo_run
    summary = json.loads((out / "demo_summary.json").read_text())
    biased, control = summary["biased"], summary["control"]
    biased_unfair = biased["c15_unfair_folds"]
    control_fair = control["c15_total_folds"] - control["c15_unfair_folds"]
    gap = abs(
        biased["unfair_pct_classification"] - control["unfair_pct_classification"]
    )
    ok = (
        elapsed < 60.0
        and biased_unfair >= 24
        and control_fair >= 24
        and gap >= 20.0
    )
    _report(
        8, ok,
        f"demo {elapsed:.1f}s; biased C15 unfair {biased_unfair}/25, control fair "
        f"{control_fair}/25, unfair-percentage gap {gap:.0f} points",
    )
    assert ok


def _german_paths():
    env = os.environ.get("FAIRSIFT_GERMAN_CSV")
    if env:
        csv_path = Path(env)
        return csv_path, csv_path.with_suffix("").with_suffix(".spec.json")
    root = Path(__file__).resolve().parent.parent
    return root / "data" / "german.csv", root / "data" / "german.spec.json"


GERMAN_CSV, GERMAN_SPEC = _german_paths()


@pytest.mark.skipif(
    not (GERMAN_CSV.exists() and GERMAN_SPEC.exists()),
    reason="German Credit data not supplied (see scripts/prepare_german.py)",
)
def test_criterion_9_german_credit(tmp_path):
    start = time.monotonic()
    assert main(["experiment", "--data", str(GERMAN_CSV), "--spec", str(GERMAN_SPEC),
                 "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--results", str(tmp_path / "results.csv"),
                 "--out", str(tmp_path)]) == 0
    elapsed = time.monotonic() - start

    payload = json.loads((tmp_path / "clusters.json").read_text())
    clusters = payload["classification"]["clusters"]
    n_clusters = len(clusters)

    samples = read_results_csv(tmp_path / "results.csv")
    result = report.build_analysis(samples)
    insensitive = {
        mid: result.sensitivity.metric_insensitive(mid)
        for mid in ("C17", "C18", "C21", "C23")
    }
    ok = (
        elapsed < 120.0
        and 4 <= n_clusters <= 10
        and all(insensitive.values())
    )
    _report(
        9, ok,
        f"german pipeline {elapsed:.1f}s, {n_clusters} clusters, "
        f"between-group family insensitive: {insensitive}",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "det.csv"
    spec = tmp_path / "det.spec.json"
    from fairsift import synth

    synth.write_dataset(data, spec, "det", n_rows=200, bias_gap=0.3, seed=17)
    digests = []
    for jobs, sub in ((1, "r1"), (4, "r2")):
        out = tmp_path / sub
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(out), "--jobs", str(jobs)]) == 0
        assert main(["analyze", "--results", str(out / "results.csv"),
                     "--out", str(out)]) == 0
        digests.append(
            tuple(
                (out / name).read_bytes()
                for name in ("results.csv", "clusters.json", "report.md")
            )
        )
    ok = digests[0] == digests[1]
    _report(10, ok, "results.csv, clusters.json, report.md byte-identical across --jobs")
    assert ok
