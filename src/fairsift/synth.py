"""Synthetic binary-classification data with a planted group bias.

The generator controls P(favorable | group) directly through ``bias_gap``:
group A (privileged) gets BASE_RATE + gap/2, group B gets BASE_RATE - gap/2,
with exact counts rather than Bernoulli draws so the planted disparity is not
washed out by sampling noise.

Three numeric features carry label signal, one is pure noise, and one is a
*group proxy* (group membership plus noise).  Under a zero gap the proxy is
uninformative about the label, so a classifier stays fair; with a planted gap
the proxy becomes predictive and the classifier picks up group-dependent
behavior, the way proxy features leak bias in real data.  A categorical
column exercises the one-hot encoding path.
"""

import numpy as np

from .datamodel import ConfigError, write_csv, write_json

GROUP_COLUMN = "group"
LABEL_COLUMN = "outcome"
PRIVILEGED = "A"
UNPRIVILEGED = "B"
FAVORABLE = "yes"
UNFAVORABLE = "no"

BASE_RATE = 0.5  # P(favorable) midway between the groups
_SIGNALS = (1.0, 0.8, 0.6)  # label coefficient per numeric feature
_NOISES = (0.55, 0.65, 0.75)  # noise scale per numeric feature
_PROXY_NOISE = 0.25  # noise on the group-proxy feature


def generate_rows(n_rows: int, bias_gap: float, seed: int) -> tuple[list[str], list[list[str]]]:
    """Header and raw CSV rows for one synthetic dataset."""
    if n_rows < 20:
        raise ConfigError(f"need at least 20 rows, got {n_rows}")
    if seed < 0:
        raise ConfigError(f"seed must not be negative, got {seed}")
    lo = BASE_RATE - bias_gap / 2.0
    hi = BASE_RATE + bias_gap / 2.0
    if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise ConfigError(f"bias_gap {bias_gap} incompatible with base rate {BASE_RATE}")
    rng = np.random.default_rng(seed)

    n_priv = n_rows // 2
    n_unpriv = n_rows - n_priv
    s = np.concatenate([np.ones(n_priv, dtype=int), np.zeros(n_unpriv, dtype=int)])

    y = np.zeros(n_rows, dtype=int)
    for rate, size, offset in ((hi, n_priv, 0), (lo, n_unpriv, n_priv)):
        favorable = int(round(rate * size))
        idx = offset + rng.permutation(size)[:favorable]
        y[idx] = 1

    order = rng.permutation(n_rows)
    s, y = s[order], y[order]

    features = [
        coef * y + rng.normal(0.0, scale, n_rows)
        for coef, scale in zip(_SIGNALS, _NOISES)
    ]
    features.append(s + rng.normal(0.0, _PROXY_NOISE, n_rows))  # group proxy
    features.append(rng.normal(0.0, 1.0, n_rows))  # pure noise column

    # a 3-level categorical carrying weak label signal, to exercise one-hot
    latent = y + rng.normal(0.0, 0.9, n_rows)
    tercile = np.quantile(latent, [1 / 3, 2 / 3])
    tier = np.where(latent < tercile[0], "low", np.where(latent < tercile[1], "mid", "high"))

    header = [GROUP_COLUMN, LABEL_COLUMN, "f1", "f2", "f3", "proxy", "noise", "tier"]
    rows = []
    for i in range(n_rows):
        rows.append(
            [
                PRIVILEGED if s[i] == 1 else UNPRIVILEGED,
                FAVORABLE if y[i] == 1 else UNFAVORABLE,
                f"{features[0][i]:.6f}",
                f"{features[1][i]:.6f}",
                f"{features[2][i]:.6f}",
                f"{features[3][i]:.6f}",
                f"{features[4][i]:.6f}",
                tier[i],
            ]
        )
    return header, rows


def spec_dict(name: str) -> dict:
    return {
        "name": name,
        "label_column": LABEL_COLUMN,
        "favorable_value": FAVORABLE,
        "protected_column": GROUP_COLUMN,
        "privileged_value": PRIVILEGED,
        "feature_columns": [
            {"name": "f1", "kind": "numeric"},
            {"name": "f2", "kind": "numeric"},
            {"name": "f3", "kind": "numeric"},
            {"name": "proxy", "kind": "numeric"},
            {"name": "noise", "kind": "numeric"},
            {"name": "tier", "kind": "categorical"},
        ],
        "encoding": {"tier": "one_hot"},
    }


def write_dataset(
    data_path, spec_path, name: str, n_rows: int, bias_gap: float, seed: int
) -> None:
    write_csv(data_path, *generate_rows(n_rows, bias_gap, seed))
    write_json(spec_path, spec_dict(name))
