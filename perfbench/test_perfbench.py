"""Tests of the benchmark itself, on tiny workload sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import filecmp
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"many-small": (2, 60), "ties-3k": (1, 120)}


def tiny(name):
    n_datasets, n_rows = TINY[name]
    return dataclasses.replace(
        workloads.WORKLOADS[name], n_datasets=n_datasets, n_rows=n_rows,
        analyze_blocks=2, analyze_repeats=2,
    )


def _same_data(a, b) -> bool:
    """Same CSV and spec files; config.json differs only by its directory."""
    names = sorted(n for n in os.listdir(a) if n != "config.json")
    return names == sorted(n for n in os.listdir(b) if n != "config.json") and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)
        for n in names
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    w = tiny(name)
    workloads.write_inputs(w, 3, tmp_path / "a")
    workloads.write_inputs(w, 3, tmp_path / "b")
    workloads.write_inputs(w, 4, tmp_path / "c")
    assert _same_data(tmp_path / "a", tmp_path / "b")
    assert not _same_data(tmp_path / "a", tmp_path / "c")


def test_tied_share_counts_exact_ties():
    # 1-D points 0, 1, 2, ..., 9: each inner point has equal neighbours at
    # distance d on both sides, so with k = 1 the 1st and 2nd distances tie
    X = [[float(i)] for i in range(10)]
    assert workloads.tied_share(X, k=1) == pytest.approx(0.8)
    assert workloads.tied_share([[0.0], [1.0], [3.0], [7.0]], k=1) == 0.0


def test_tie_path_share_matches_exact_ties_on_dyadic_distances():
    # on the grid i/8 the |a|^2 + |b|^2 - 2ab distances are exact, so the
    # 7 inner points of 9 take the tie path, as tied_share counts them
    X = [[i / 8] for i in range(9)]
    assert workloads.tie_path_share(X, k=1) == workloads.tied_share(X, k=1) == 7 / 9
    assert workloads.tie_path_share([[0.0], [0.125], [0.375], [0.875]], k=1) == 0.0


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """One untraced and one traced repetition of a tiny many-small run."""
    root = tmp_path_factory.mktemp("pair")
    w = tiny("many-small")
    reps = [
        (traced, str(root / f"rep{traced}"),
         run._spawn(w, 5, str(root / f"rep{traced}"), trace=traced))
        for traced in (False, True)
    ]
    expected = run.expected_records(w)
    return reps, expected


def test_traced_run_gives_identical_artifacts(traced_pair):
    reps, expected = traced_pair
    (_, plain_dir, plain), (_, traced_dir, traced) = reps
    assert run.digests(os.path.join(plain_dir, "out")) == run.digests(
        os.path.join(traced_dir, "out")
    )
    assert run.gate(reps, expected)[0] == 0
    assert traced["coverage_errors"] == []
    layers = traced["layers"]
    assert set(layers) == set(spans.SPAN_METRICS) | set(spans.COUNTER_METRICS)
    assert layers["harness.records"] == expected
    assert "layers" not in plain and plain["exit_codes"] == [0] * 5
    assert len(plain["analyze_s"]) == 2 and len(traced["analyze_s"]) == 1


def test_gate_fails_on_tampered_results(traced_pair, tmp_path):
    reps, expected = traced_pair
    _, rep_dir, _ = reps[1]
    results = os.path.join(rep_dir, "out", "results.csv")
    with open(results, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if ",C2," in line and not line.endswith(",\n"))
    lines[row] = lines[row].rsplit(",", 1)[0] + ",0.123\n"
    with open(results, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    assert run.identity_errors(results)
    assert run.gate(reps, expected)[0] == 1  # differs from the untraced run
    assert run.gate(reps[::-1], expected)[0] == 1  # breaks the identities


def test_coverage_reports_a_wrapper_that_intercepts_nothing():
    tracer = spans.Tracer()
    errors = spans.coverage_errors(tracer)
    assert "span metrics.consistency recorded no call" in errors
    assert "counter models.not_converged stayed 0" not in errors


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "many-small", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
