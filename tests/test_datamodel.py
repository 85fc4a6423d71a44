import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairsift.datamodel import (
    ConfigError,
    DataError,
    DatasetSpec,
    apply_minmax,
    check_fields,
    csv_line,
    encode_dataset,
    file_sha256,
    fit_minmax,
    format_value,
    make_dirs,
    write_csv,
    write_json,
    write_text,
)
from fairsift.harness import ExperimentConfig
from fairsift.metrics import confusion_counts


def spec_dict(**overrides):
    base = {
        "name": "toy",
        "label_column": "label",
        "favorable_value": "yes",
        "protected_column": "sex",
        "privileged_value": "Male",
        "feature_columns": [
            {"name": "age", "kind": "numeric"},
            {"name": "city", "kind": "categorical"},
        ],
        "encoding": {"city": "one_hot"},
    }
    base.update(overrides)
    return base


TOY_CSV = """sex,age,city,label
Male,10,paris,yes
Female,20,rome,no
Male,30,paris,yes
Female,20,oslo,no
"""


def toy_spec(**overrides) -> DatasetSpec:
    return DatasetSpec.from_dict(spec_dict(**overrides))


def load_scaled(text, spec):
    """Encode a CSV, then min-max scale every column to [0, 1]."""
    ds = encode_dataset(io.StringIO(text), spec)
    return ds, apply_minmax(ds.X, *fit_minmax(ds.X))


class TestSpec:
    def test_label_protected_must_differ(self):
        with pytest.raises(ConfigError):
            toy_spec(protected_column="label")

    def test_special_columns_not_features(self):
        with pytest.raises(ConfigError):
            toy_spec(feature_columns=[{"name": "sex", "kind": "categorical"}])

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ConfigError):
            toy_spec(encoding={"city": "ordinal"})

    def test_encoding_only_for_categorical(self):
        with pytest.raises(ConfigError):
            toy_spec(encoding={"age": "one_hot"})

    def test_value_lists_accepted(self):
        spec = toy_spec(privileged_value=["Male", "Other"])
        assert spec.privileged_value == ("Male", "Other")


@dataclass(frozen=True)
class Settings:
    flag: bool = False
    count: int = 1
    rate: float = 0.5
    label: str = "a"
    counts: tuple[int, ...] = (1, 2)
    band: tuple[float, float] = field(default=(0.0, 1.0), metadata={"key": "limits.band"})

    def __post_init__(self):
        check_fields(self)


class TestCheckFields:
    @pytest.mark.parametrize("kwargs, expected", [
        ({"flag": True}, ("flag", True)),
        ({"count": 7}, ("count", 7)),
        ({"count": np.int64(7)}, ("count", 7)),
        ({"rate": 2}, ("rate", 2.0)),
        ({"rate": np.float32(0.25)}, ("rate", 0.25)),
        ({"rate": np.int8(3)}, ("rate", 3.0)),
        ({"label": "b"}, ("label", "b")),
        ({"counts": [3, 4, 5]}, ("counts", (3, 4, 5))),
        ({"counts": np.arange(3)}, ("counts", (0, 1, 2))),
        ({"counts": ()}, ("counts", ())),
        ({"band": [-1, 2.5]}, ("band", (-1.0, 2.5))),
        ({"band": np.array([0.1, 0.2])}, ("band", (0.1, 0.2))),
    ])
    def test_accepted_and_converted(self, kwargs, expected):
        name, value = expected
        got = getattr(Settings(**kwargs), name)
        assert got == value
        assert type(got) is type(value)
        if isinstance(value, tuple):
            assert [type(v) for v in got] == [type(v) for v in value]

    @pytest.mark.parametrize("kwargs, message", [
        ({"flag": "false"}, "flag must be true or false, got 'false'"),
        ({"flag": 1}, "flag must be true or false"),
        ({"flag": None}, "flag must be true or false"),
        ({"count": 5.0}, "count must be an integer, got 5.0"),
        ({"count": 1.9}, "count must be an integer"),
        ({"count": True}, "count must be an integer, got True"),
        ({"count": "5"}, "count must be an integer"),
        ({"rate": True}, "rate must be a finite number, got True"),
        ({"rate": float("nan")}, "rate must be a finite number, got nan"),
        ({"rate": float("inf")}, "rate must be a finite number"),
        ({"rate": 10 ** 400}, "rate must be a finite number"),
        ({"rate": "0.5"}, "rate must be a finite number"),
        ({"rate": None}, "rate must be a finite number"),
        ({"label": 5}, "label must be a string, got 5"),
        ({"counts": "12"}, "counts must be a list, got '12'"),
        ({"counts": 5}, "counts must be a list"),
        ({"counts": {1: 2}}, "counts must be a list"),
        ({"counts": [1, 2.5]}, "counts[1] must be an integer, got 2.5"),
        ({"counts": np.array([1.0, 2.0])}, "counts[0] must be an integer"),
        ({"counts": np.array(3)}, "counts must be a list"),
        ({"band": [0.1]}, "limits.band must have 2 items"),
        ({"band": [0, 1, 2]}, "limits.band must have 2 items"),
        ({"band": [0, None]}, "limits.band[1] must be a finite number"),
        ({"band": [[0, 1], [0, 1]]}, "limits.band[0] must be a finite number"),
    ])
    def test_rejected_naming_the_field(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            Settings(**kwargs)
        assert message in str(info.value)

    def test_experiment_config_from_numpy(self):
        cfg = ExperimentConfig(seeds=np.arange(10, 15), k_neighbors=np.int64(4),
                               alpha=np.float64(3), models=np.array(["RW"]))
        assert cfg.seeds == (10, 11, 12, 13, 14)
        assert all(type(s) is int for s in cfg.seeds)
        assert (cfg.k_neighbors, cfg.alpha, cfg.models) == (4, 3.0, ("reweighing",))
        assert type(cfg.k_neighbors) is int and type(cfg.alpha) is float


class TestLoad:
    def test_protected_mapping(self):
        ds = encode_dataset(io.StringIO(TOY_CSV), toy_spec())
        assert ds.s.tolist() == [1, 0, 1, 0]
        assert ds.y.tolist() == [1, 0, 1, 0]

    def test_minmax_normalization(self):
        csv_text = "sex,age,label\nMale,10,yes\nFemale,20,no\nMale,30,yes\n"
        spec = toy_spec(feature_columns=[{"name": "age", "kind": "numeric"}],
                        encoding={})
        _, X = load_scaled(csv_text, spec)
        assert X[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        csv_text = "sex,age,label\nMale,7,yes\nFemale,7,no\n"
        spec = toy_spec(feature_columns=[{"name": "age", "kind": "numeric"}],
                        encoding={})
        _, X = load_scaled(csv_text, spec)
        assert X[:, 0].tolist() == [0.0, 0.0]

    def test_one_hot_full_dummy(self):
        ds = encode_dataset(io.StringIO(TOY_CSV), toy_spec())
        # three cities, none dropped
        assert ds.feature_names == ("age", "city=oslo", "city=paris", "city=rome")
        onehot = ds.X[:, 1:]
        assert np.all(onehot.sum(axis=1) == 1.0)

    def test_label_encode(self):
        ds, X = load_scaled(TOY_CSV, toy_spec(encoding={"city": "label_encode"}))
        assert ds.feature_names == ("age", "city")
        # categories sorted: oslo=0, paris=1, rome=2, then min-max scaled
        assert X[:, 1].tolist() == [0.5, 1.0, 0.5, 0.0]

    def test_multivalued_collapse_to_zero(self):
        csv_text = "sex,age,label\nMale,1,yes\nFemale,2,no\nNonBinary,3,no\n"
        spec = toy_spec(feature_columns=[{"name": "age", "kind": "numeric"}],
                        encoding={})
        ds = encode_dataset(io.StringIO(csv_text), spec)
        assert ds.s.tolist() == [1, 0, 0]

    def test_missing_column_is_config_error(self):
        with pytest.raises(ConfigError, match="missing columns"):
            encode_dataset(io.StringIO("sex,label\nMale,yes\nFemale,no\n"), toy_spec())

    def test_empty_file_is_data_error(self):
        with pytest.raises(DataError):
            encode_dataset(io.StringIO(""), toy_spec())
        with pytest.raises(DataError):
            encode_dataset(io.StringIO("sex,age,city,label\n"), toy_spec())

    def test_single_label_outcome_is_data_error(self):
        csv_text = "sex,age,city,label\nMale,1,a,yes\nFemale,2,b,yes\n"
        with pytest.raises(DataError, match="single outcome"):
            encode_dataset(io.StringIO(csv_text), toy_spec())

    def test_absent_privileged_value_is_data_error(self):
        csv_text = "sex,age,city,label\nFemale,1,a,yes\nFemale,2,b,no\n"
        with pytest.raises(DataError, match="never occur"):
            encode_dataset(io.StringIO(csv_text), toy_spec())

    def test_incomplete_rows_rejected_with_warning(self):
        csv_text = "sex,age,city,label\nMale,1,a,yes\nFemale,,b,no\nFemale,3,c,no\n"
        with pytest.warns(UserWarning, match="rejected 1 incomplete"):
            ds = encode_dataset(io.StringIO(csv_text), toy_spec())
        assert ds.row_count == 2

    def test_non_numeric_value_is_data_error(self):
        csv_text = "sex,age,city,label\nMale,old,a,yes\nFemale,2,b,no\n"
        with pytest.raises(DataError, match="non-numeric"):
            encode_dataset(io.StringIO(csv_text), toy_spec())

    def test_arrays_read_only(self):
        ds = encode_dataset(io.StringIO(TOY_CSV), toy_spec())
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0


class TestNormalization:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_idempotent(self, column):
        X = np.array(column).reshape(-1, 1)
        once = apply_minmax(X, *fit_minmax(X))
        twice = apply_minmax(once, *fit_minmax(once))
        assert np.allclose(once, twice, atol=1e-12)
        assert once.min() >= 0 and once.max() <= 1

    def test_fit_apply_split(self):
        train = np.array([[0.0], [10.0]])
        test = np.array([[5.0], [20.0]])
        mins, maxs = fit_minmax(train)
        out = apply_minmax(test, mins, maxs)
        assert out[:, 0].tolist() == [0.5, 2.0]  # test rows may exceed [0,1]

    def test_constant_column_is_positive_zero(self):
        # a test row below a constant training column's value scales to
        # +0.0, not the -0.0 of multiplying its negative offset by 0
        mins, maxs = fit_minmax(np.array([[3.0, 0.0], [3.0, 4.0]]))
        out = apply_minmax(np.array([[1.0, 2.0], [5.0, -4.0]]), mins, maxs)
        assert out.tobytes() == np.array([[0.0, 0.5], [0.0, -1.0]]).tobytes()
        stacked = apply_minmax(np.array([[1.0, 2.0]]), np.stack([mins] * 2)[:, None],
                               np.stack([maxs] * 2)[:, None])
        assert stacked.tobytes() == np.array([[[0.0, 0.5]]] * 2).tobytes()

    def test_stacked_bounds_scale_as_one_call_per_fold(self):
        """``(fold, 1, p)`` bounds scale all rows once per fold, each fold
        with the bits of its own call, also for a column constant in one
        fold's training rows only; a 1-D row scales as its 2-D row."""
        rng = np.random.default_rng(3)
        X = rng.normal(0, 50, size=(40, 4))
        trains = np.arange(40) % 5 != np.arange(5)[:, None]
        X[trains[2], 1] = 7.25
        bounds = [fit_minmax(X[train]) for train in trains]
        constant = [(maxs - mins)[1] == 0 for mins, maxs in bounds]
        assert constant == [False, False, True, False, False]
        mins, maxs = (np.stack(column)[:, None] for column in zip(*bounds))
        stacked = apply_minmax(X, mins, maxs)
        assert stacked.shape == (5, 40, 4)
        for fold, pair in enumerate(bounds):
            assert stacked[fold].tobytes() == apply_minmax(X, *pair).tobytes()
        assert (stacked[2, :, 1] == 0).all()
        assert (stacked[[0, 1, 3, 4], :, 1] != 0).any(axis=1).all()
        row = apply_minmax(X[5], *bounds[2])
        assert row.shape == (4,) and row.tobytes() == apply_minmax(X[5:6], *bounds[2])[0].tobytes()


class TestGroupedConfusion:
    """The count tensor c[group, label, prediction] of metrics.confusion_counts."""

    def test_cell_assignment(self):
        c = confusion_counts([1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0])
        # [label][prediction] = [[TN, FP], [FN, TP]]
        assert c[1].tolist() == [[0, 1], [0, 1]]
        assert c[0].tolist() == [[1, 0], [1, 0]]

    def test_perfect_prediction_no_errors(self):
        y = [1, 0, 1, 0, 1]
        c = confusion_counts(y, y, [1, 1, 0, 0, 1])
        assert c[:, 0, 1].tolist() == [0, 0]  # FP per group
        assert c[:, 1, 0].tolist() == [0, 0]  # FN per group

    def test_all_zero_predictions(self):
        c = confusion_counts([1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0])
        assert c[:, :, 1].sum() == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion_counts([1, 0], [1, 0, 1], [1, 0])

    def test_single_group_leaves_other_slice_empty(self):
        c = confusion_counts([1, 0], [1, 0], [1, 1])
        assert c[0].sum() == 0 and c[1].sum() == 2

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            confusion_counts([1, 2], [1, 0], [1, 0])

    @given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=2**31))
    def test_cells_sum_to_length(self, n, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, n)
        p = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        c = confusion_counts(y, p, s)
        assert c.sum() == n
        assert c.sum(axis=(1, 2)).tolist() == [(s == 0).sum(), (s == 1).sum()]


class TestEncodingRoundTrip:
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_group_sizes_match_raw_counts(self, n, seed):
        rng = np.random.default_rng(seed)
        sexes = rng.choice(["Male", "Female"], n)
        labels = rng.choice(["yes", "no"], n)
        # ensure both outcomes and both groups appear
        sexes[0], sexes[-1] = "Male", "Female"
        labels[0], labels[-1] = "yes", "no"
        lines = ["sex,age,label"] + [
            f"{s},{i},{l}" for i, (s, l) in enumerate(zip(sexes, labels))
        ]
        spec = toy_spec(feature_columns=[{"name": "age", "kind": "numeric"}],
                        encoding={})
        ds = encode_dataset(io.StringIO("\n".join(lines) + "\n"), spec)
        assert ds.s.sum() == (sexes == "Male").sum()
        assert ds.y.sum() == (labels == "yes").sum()


class TestArtifactWriters:
    def test_format_value(self):
        assert format_value(math.nan) == ""
        assert format_value(0.1 + 0.2) == "0.30000000000000004"
        assert format_value(-0.0) == "-0.0"
        assert format_value(1e-20) == "1e-20"
        assert format_value(2 / 3, 4) == "0.6667"
        assert format_value(math.nan, 4) == ""

    def test_path_and_open_file_get_the_same_bytes(self, tmp_path):
        header, rows = ("a", "b"), [("x,y", "1.5"), ("é", "")]
        write_csv(tmp_path / "t.csv", header, iter(rows))
        buffer = io.StringIO(newline="")
        write_csv(buffer, header, rows)
        assert (tmp_path / "t.csv").read_bytes() == buffer.getvalue().encode("utf-8")
        assert buffer.getvalue() == 'a,b\n"x,y",1.5\né,\n'

    @given(st.lists(st.lists(st.one_of(st.text(), st.integers(), st.floats(), st.none()),
                             max_size=5), max_size=4))
    def test_csv_line_is_the_csv_writers_line(self, rows):
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(rows)
        lines = [csv_line(row) for row in rows]  # each call's string is its own
        assert "".join(lines) == want.getvalue()
        assert all(line.endswith("\n") for line in lines)

    def test_json_and_text(self, tmp_path):
        write_json(tmp_path / "p.json", {"b": [1.0, None], "a": "é"})
        assert (tmp_path / "p.json").read_bytes() == (
            b'{\n  "a": "\\u00e9",\n  "b": [\n    1.0,\n    null\n  ]\n}\n'
        )
        write_text(str(tmp_path / "t.md"), "one\ntwo\n")
        assert (tmp_path / "t.md").read_bytes() == b"one\ntwo\n"

    def test_make_dirs_makes_parents_once(self, tmp_path):
        make_dirs(tmp_path / "a" / "b")
        make_dirs(tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()
        blocker = tmp_path / "file"
        blocker.write_text("")
        message = f"^{re.escape(str(blocker))}: cannot write: File exists$"
        with pytest.raises(DataError, match=message):
            make_dirs(blocker)

    @pytest.mark.parametrize("write", [
        lambda path: write_csv(path, ("a",), [("1",)]),
        lambda path: write_json(path, {}),
        lambda path: write_text(path, ""),
    ], ids=["csv", "json", "text"])
    def test_write_fault_names_the_path(self, tmp_path, write):
        message = f"^{re.escape(str(tmp_path))}: cannot write: Is a directory$"
        with pytest.raises(DataError, match=message):
            write(tmp_path)

    def test_digest_of_a_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv: cannot read: No such file"):
            file_sha256(tmp_path / "nope.csv")
