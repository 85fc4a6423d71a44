import io

import numpy as np
import pytest
from hypothesis import settings

from fairsift.datamodel import DatasetSpec, encode_dataset
from fairsift.harness import ExperimentConfig, run_experiment
from fairsift.synth import generate_rows, spec_dict

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")


def rows_to_csv_text(header, rows) -> str:
    out = [",".join(header)]
    out.extend(",".join(r) for r in rows)
    return "\n".join(out) + "\n"


def make_synthetic(name: str, n_rows: int, bias_gap: float, seed: int):
    header, rows = generate_rows(n_rows, bias_gap, seed)
    return encode_dataset(io.StringIO(rows_to_csv_text(header, rows)),
                          DatasetSpec.from_dict(spec_dict(name)))


def german_style_text(n_rows: int, seed: int) -> tuple[str, dict]:
    """CSV text and spec dict of German-Credit-style rows: integer columns of
    few levels and a label-encoded category, so about half the rows have
    exact ties at the 5th-nearest distance."""
    rng = np.random.default_rng(seed)
    male = rng.random(n_rows) < 0.69
    age = rng.integers(19, 76, n_rows)
    duration = rng.choice((6, 12, 18, 24, 36, 48), n_rows)
    rate = rng.integers(1, 5, n_rows)
    phone = rng.random(n_rows) < 0.4
    z = 0.6 - 0.04 * (duration - 20) + 0.02 * (age - 35) - 0.25 * (rate - 2.5) + 0.6 * male
    good = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-z))
    rows = [
        ["male" if male[i] else "female", "good" if good[i] else "bad", str(age[i]),
         str(duration[i]), str(rate[i]), "yes" if phone[i] else "none"]
        for i in range(n_rows)
    ]
    header = ["sex", "credit", "age", "duration", "rate", "phone"]
    spec = {
        "name": "german_style",
        "label_column": "credit",
        "favorable_value": "good",
        "protected_column": "sex",
        "privileged_value": "male",
        "feature_columns": [{"name": name, "kind": "numeric"} for name in header[2:5]]
        + [{"name": "phone", "kind": "categorical"}],
        "encoding": {"phone": "label_encode"},
    }
    return rows_to_csv_text(header, rows), spec


def german_style(n_rows: int, seed: int):
    text, spec = german_style_text(n_rows, seed)
    return encode_dataset(io.StringIO(text), DatasetSpec.from_dict(spec))


@pytest.fixture(scope="session")
def small_experiment():
    """One biased synthetic dataset pushed through the full harness (fast)."""
    ds = make_synthetic("smallbias", 300, 0.4, seed=11)
    return run_experiment([ds], ExperimentConfig())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)
