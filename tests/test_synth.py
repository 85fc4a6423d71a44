import io

import numpy as np
import pytest

from fairsift.datamodel import DatasetSpec, encode_dataset
from fairsift.synth import generate_rows, spec_dict

from conftest import rows_to_csv_text


def encode(n_rows, gap, seed):
    header, rows = generate_rows(n_rows, gap, seed)
    return encode_dataset(
        io.StringIO(rows_to_csv_text(header, rows)), DatasetSpec.from_dict(spec_dict("s"))
    )


class TestGenerator:
    def test_planted_gap_is_exact(self):
        ds = encode(400, 0.4, seed=1)
        rate_priv = ds.y[ds.s == 1].mean()
        rate_unpriv = ds.y[ds.s == 0].mean()
        assert rate_priv == pytest.approx(0.7, abs=0.005)
        assert rate_unpriv == pytest.approx(0.3, abs=0.005)

    def test_zero_gap_is_balanced(self):
        ds = encode(400, 0.0, seed=1)
        assert ds.y[ds.s == 1].mean() == pytest.approx(ds.y[ds.s == 0].mean(), abs=0.005)

    def test_deterministic(self):
        a = generate_rows(100, 0.3, seed=9)
        b = generate_rows(100, 0.3, seed=9)
        assert a == b

    def test_proxy_tracks_group(self):
        ds = encode(400, 0.0, seed=2)
        proxy = ds.X[:, ds.feature_names.index("proxy")]
        assert proxy[ds.s == 1].mean() > proxy[ds.s == 0].mean() + 0.5

    def test_impossible_gap_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            generate_rows(100, 1.2, seed=0)

    def test_spec_dict_loads(self):
        assert DatasetSpec.from_dict(spec_dict("x")).name == "x"
        assert spec_dict("x")["encoding"] == {"tier": "one_hot"}
