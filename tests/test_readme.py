"""README's Python API block runs as written, so an API change cannot leave
it behind."""

import re
import warnings
from pathlib import Path

import numpy as np

from fairsift.metrics import CLASSIFICATION_METRICS

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block() -> str:
    """The code of the ```python block that opens README's Python API section."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)
    assert block, "the Python API section opens with no python block"
    return block.group(1)


def free_names(n=40, p=3, members=4, m=7):
    """Small synthetic arrays for the names the block uses but does not
    define: n rows of p features, stacks of ``members`` rows of n, m test
    rows.  Every (group, label) cell is populated, so reweighing is defined,
    and every mask holds more than 5 rows, D0's k."""
    rng = np.random.default_rng(0)
    y = np.arange(n) % 2
    s = np.arange(n) // 2 % 2
    return {
        "y_true": y, "y": y, "s": s,
        "y_pred": rng.integers(0, 2, n),
        "weights": rng.uniform(0.5, 2.0, n),
        "Y": rng.integers(0, 2, (members, n)),
        "P": rng.integers(0, 2, (members, n)),
        "S": rng.integers(0, 2, (members, n)),
        "W": rng.uniform(0.5, 2.0, (members, n)),
        "keep": rng.random((members, n)) < 0.8,
        "counts": rng.integers(0, 5, (members, 2, 2, 2)),
        "ideals": np.array([metric.ideal for metric in CLASSIFICATION_METRICS]),
        "X_raw": rng.normal(size=(n, p)),
        "masks": np.arange(n) % 5 != np.arange(2)[:, None],
        "X": rng.random((n, p)),
        "Xs": rng.random((members, n, p)),
        "X_test": rng.random((m, p)),
    }


def test_python_api_block_runs_as_written():
    namespace = free_names()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(python_api_block(), "README.md", "exec"), namespace)
    # the shapes the block's comments state
    assert namespace["c"].shape == (2, 2, 2) and namespace["cs"].shape == (4, 2, 2, 2)
    assert namespace["row"].shape == (26,) and namespace["grid"].shape == (4, 26)
    assert namespace["w"].shape == (2, 2) and namespace["ws"].shape == (4, 2, 2)
    assert namespace["d0"].shape == (2,) and namespace["d"].shape == (4,)
    assert namespace["fits"].coefficients.shape == (4, 3)
    assert namespace["fits"].intercept.shape == (4,)
    assert namespace["y_preds"].shape == (4, 7)
    assert namespace["one"].intercept.shape == (1,) and namespace["y_pred"].shape == (7,)
