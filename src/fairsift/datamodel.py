"""Dataset ingestion, encoding and min-max normalization, and the encoding
of every file fairsift reads or writes.

A dataset is a CSV table plus a JSON side-file describing which column is the
binary outcome, which column is the protected attribute, and how to encode the
features.  After encoding, everything downstream works on plain numpy arrays:
features (min-max scaled to [0, 1] from fitted bounds before use), labels in
{0, 1} (1 = favorable) and protected values in {0, 1} (1 = privileged).

Every input goes through ``read_json`` or ``read_csv`` (rows streamed): a
file that cannot be read, is not UTF-8 or not JSON, or is an empty or
malformed CSV raises ``ConfigError`` (JSON) or ``DataError`` (CSV) as
``<path>: <reason>``.
Every artifact streams through one sink, ``write_lines``, into directories
``make_dirs`` creates: UTF-8 with LF line ends.  ``csv_line`` is the one CSV
encoder (``write_csv`` writes its lines); ``write_json`` writes JSON with
indent 2, sorted keys and a trailing newline (``json_text``).  A file or
directory that cannot be written raises ``DataError`` as ``<path>: cannot
write: <reason>``.  ``format_value`` is the one field rule for a
number: ``UNDEFINED_FIELD`` (empty) for NaN, else its ``repr``.  A target is
a path or an open text file, so stdout takes the same bytes as a file.
"""

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import typing
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL_ENCODE = "label_encode"
ONE_HOT = "one_hot"


class ConfigError(ValueError):
    """Bad dataset spec or run configuration (CLI exit code 2)."""


class DataError(Exception):
    """CSV content that cannot be mapped to a usable dataset (CLI exit code 3)."""


# annotation -> (accepted types, what the message asks for); bool is never a number
_FIELD_KINDS = {
    bool: ((bool,), "true or false"),
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a finite number"),
    str: ((str,), "a string"),
}


def check_fields(config) -> None:
    """Check every field of the frozen dataclass ``config`` against its
    annotation and store it converted: a bool must be a bool, an int an
    integer (never a float such as 5.0), a float a finite number, a str a
    string, and a ``tuple[...]`` a non-string sequence of the right length
    whose items are checked the same way.  Numpy integers and arrays pass.
    A bad value raises ``ConfigError`` naming the field, or the field's
    ``metadata["key"]`` when it has one."""
    for f in fields(config):
        name = f.metadata.get("key", f.name)
        object.__setattr__(config, f.name, _checked(name, getattr(config, f.name), f.type))


def _checked(name: str, value, kind):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        if isinstance(value, str) or not isinstance(value, Sequence):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        elif len(value) != len(kinds):
            raise ConfigError(f"{name} must have {len(kinds)} items, got {value!r}")
        return tuple(_checked(f"{name}[{i}]", v, k)
                     for i, (v, k) in enumerate(zip(value, kinds)))
    types, wanted = _FIELD_KINDS[kind]
    if isinstance(value, types) and (kind is bool or not isinstance(value, bool)):
        try:
            converted = kind(value)
        except OverflowError:  # an integer beyond the float range
            converted = math.inf
        if kind is not float or math.isfinite(converted):
            return converted
    raise ConfigError(f"{name} must be {wanted}, got {value!r}")


def _as_values(name: str, raw) -> tuple[str, ...]:
    """Normalize the scalar-or-list spec field ``name`` to a tuple of CSV
    cell strings."""
    if isinstance(raw, (list, tuple)):
        values = tuple(str(v) for v in raw)
    else:
        values = (str(raw),)
    if not values:
        raise ConfigError(f"{name} must not be an empty value list")
    return values


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ConfigError(
                f"feature {self.name!r}: kind must be {NUMERIC!r} or {CATEGORICAL!r}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of how to read one CSV into an EncodedDataset.

    ``favorable_value`` / ``privileged_value`` may each be a single raw cell
    value or a list of them; every listed value maps to 1 and every other raw
    value collapses to 0, so multi-valued raw columns binarize cleanly.
    Comparison is by exact string match against the CSV cell.
    """

    name: str
    label_column: str
    favorable_value: tuple[str, ...]
    protected_column: str
    privileged_value: tuple[str, ...]
    feature_columns: tuple[FeatureColumn, ...]
    encoding: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("favorable_value", "privileged_value"):
            object.__setattr__(self, name, _as_values(name, getattr(self, name)))
        feature_names = [c.name for c in self.feature_columns]
        if len(set(feature_names)) != len(feature_names):
            raise ConfigError(f"dataset {self.name!r}: duplicate feature columns")
        if self.label_column == self.protected_column:
            raise ConfigError(
                f"dataset {self.name!r}: label and protected columns must differ"
            )
        for special in (self.label_column, self.protected_column):
            if special in feature_names:
                raise ConfigError(
                    f"dataset {self.name!r}: column {special!r} may not double as a feature"
                )
        categorical = {c.name for c in self.feature_columns if c.kind == CATEGORICAL}
        for col, how in self.encoding.items():
            if col not in categorical:
                raise ConfigError(
                    f"dataset {self.name!r}: encoding given for non-categorical column {col!r}"
                )
            if how not in (LABEL_ENCODE, ONE_HOT):
                raise ConfigError(
                    f"dataset {self.name!r}: encoding for {col!r} must be "
                    f"{LABEL_ENCODE!r} or {ONE_HOT!r}, got {how!r}"
                )

    def encoding_for(self, column: str) -> str:
        return self.encoding.get(column, ONE_HOT)

    @classmethod
    def from_dict(cls, raw: dict) -> "DatasetSpec":
        if not isinstance(raw, dict):
            raise ConfigError(f"dataset spec must be an object, got {raw!r}")
        try:
            features = raw["feature_columns"]
            if not (isinstance(features, list) and all(isinstance(f, dict) for f in features)):
                raise ConfigError(f"feature_columns must be a list of objects, got {features!r}")
            encoding = raw.get("encoding", {})
            if not isinstance(encoding, dict):
                raise ConfigError(f"encoding must be an object, got {encoding!r}")
            return cls(
                name=str(raw["name"]),
                label_column=str(raw["label_column"]),
                favorable_value=raw["favorable_value"],
                protected_column=str(raw["protected_column"]),
                privileged_value=raw["privileged_value"],
                feature_columns=tuple(
                    FeatureColumn(str(f["name"]), str(f["kind"])) for f in features
                ),
                encoding={str(k): str(v) for k, v in encoding.items()},
            )
        except KeyError as exc:
            raise ConfigError(f"dataset spec missing field {exc.args[0]!r}") from exc

    @classmethod
    def from_json_file(cls, path) -> "DatasetSpec":
        """The spec in a JSON file; every ``ConfigError`` starts with the path."""
        raw = read_json(path)
        try:
            return cls.from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class EncodedDataset:
    """Numeric view of one dataset; arrays are read-only after construction."""

    name: str
    X: np.ndarray
    y: np.ndarray
    s: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        for arr in (self.X, self.y, self.s):
            arr.setflags(write=False)

    @property
    def row_count(self) -> int:
        return self.X.shape[0]


UNDEFINED_FIELD = ""


def format_value(v: float, digits: int | None = None) -> str:
    """A Python float as a field: ``UNDEFINED_FIELD`` for NaN (Undefined),
    else its ``repr``, or ``digits`` significant digits when given."""
    if math.isnan(v):
        return UNDEFINED_FIELD
    return repr(v) if digits is None else f"{v:.{digits}g}"


def _text_file(target, mode: str = "r"):
    """A context manager for a path opened in ``mode`` as UTF-8 text with no
    newline translation, or for an open file, which it leaves open."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(target)


@contextlib.contextmanager
def _writing(target):
    """Turns a fault while writing ``target``, a file or a directory, into
    ``DataError`` as ``<path>: cannot write: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{target}: cannot write: {exc.strerror or exc}") from exc


def make_dirs(path) -> None:
    """The output directory ``path`` and its parents, made where missing."""
    with _writing(path):
        os.makedirs(path, exist_ok=True)


class _Echo:
    """A file for ``csv.writer`` whose ``write`` returns the line it is given."""

    @staticmethod
    def write(line: str) -> str:
        return line


# the one CSV encoder: ``writerow`` returns what ``write`` returned
_CSV_WRITER = csv.writer(_Echo, lineterminator="\n")


def csv_line(row) -> str:
    """``row``'s fields as one CSV line, quoted where needed, LF included."""
    return _CSV_WRITER.writerow(row)


def write_csv(target, header, rows) -> None:
    """``header`` and then each row of the iterable ``rows``, streamed."""
    write_lines(target, map(csv_line, itertools.chain((header,), rows)))


def json_text(payload) -> str:
    """``payload`` as JSON with indent 2, sorted keys and a trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(target, payload) -> None:
    write_text(target, json_text(payload))


def write_text(target, text: str) -> None:
    write_lines(target, (text,))


def write_lines(target, lines) -> None:
    """Each string of the iterable ``lines``, streamed as it is."""
    with _writing(target), _text_file(target, "w") as fh:
        fh.writelines(lines)


@contextlib.contextmanager
def _reading(target, error):
    """``target`` open as UTF-8 text; a file that cannot be read, or whose
    text is not UTF-8, JSON or CSV, raises ``error`` as ``<path>: <reason>``."""
    try:
        with _text_file(target) as fh:
            yield fh
    except OSError as exc:
        raise error(f"{target}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{target}: not valid UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{target}: not valid JSON: {exc}") from exc
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise error(f"{target}: not valid CSV: {exc}") from exc


def read_json(path):
    """The JSON value in the file at ``path``, a run config or a dataset spec,
    so a read fault raises ``ConfigError``."""
    with _reading(path, ConfigError) as fh:
        return json.load(fh)


@contextlib.contextmanager
def read_csv(target):
    """The CSV ``target`` (a path or an open text file) as its header row and
    a ``csv.reader`` that streams the rest; a read fault or an empty file
    raises ``DataError``."""
    with _reading(target, DataError) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{target}: CSV is empty (no header row)")
        yield header, reader


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    return digest.hexdigest()


def usable_rows(csv_source, spec: DatasetSpec) -> tuple[dict[str, int], list[list[str]]]:
    """The CSV's column index by name (a repeated name is its last column)
    and its data rows, less the rows that are short of the header or have an
    empty cell in a column ``spec`` uses; those are rejected with a warning."""
    with read_csv(csv_source) as (header, rows):
        col_index = {name: i for i, name in enumerate(header)}
        used = [spec.label_column, spec.protected_column] + [
            c.name for c in spec.feature_columns
        ]
        missing = [name for name in used if name not in col_index]
        if missing:
            raise ConfigError(
                f"dataset {spec.name!r}: CSV is missing columns {missing} "
                f"(header has {header})"
            )

        used_idx = [col_index[name] for name in used]
        kept, rejected = [], []
        for i, row in enumerate(filter(None, rows)):
            if len(row) < len(header) or any(row[j] == "" for j in used_idx):
                rejected.append(i)
            else:
                kept.append(row)
    if rejected:
        shown = ", ".join(str(i) for i in rejected[:10])
        more = "" if len(rejected) <= 10 else f" (+{len(rejected) - 10} more)"
        warnings.warn(
            f"dataset {spec.name!r}: rejected {len(rejected)} incomplete rows "
            f"at indices {shown}{more}"
        )
    if not kept:
        raise DataError(f"dataset {spec.name!r}: no usable data rows")
    return col_index, kept


def encode_dataset(csv_source, spec: DatasetSpec) -> EncodedDataset:
    """``encode_rows`` of the CSV's ``usable_rows``."""
    return encode_rows(spec, *usable_rows(csv_source, spec))


def encode_rows(spec: DatasetSpec, col_index: dict[str, int],
                kept: list[list[str]]) -> EncodedDataset:
    """Encode ``usable_rows`` without normalizing the result.

    Labels map favorable -> 1, protected maps privileged -> 1, categoricals
    are label- or one-hot-encoded (full dummy set, nothing dropped).
    Feature values stay on their raw scale; ``fit_minmax`` and
    ``apply_minmax`` scale them.
    """
    n = len(kept)
    favorable = set(spec.favorable_value)
    privileged = set(spec.privileged_value)
    y = np.array(
        [1 if row[col_index[spec.label_column]] in favorable else 0 for row in kept],
        dtype=np.int64,
    )
    s = np.array(
        [1 if row[col_index[spec.protected_column]] in privileged else 0 for row in kept],
        dtype=np.int64,
    )
    if y.min() == y.max():
        raise DataError(
            f"dataset {spec.name!r}: label column {spec.label_column!r} maps to a "
            f"single outcome; need both favorable and unfavorable rows"
        )
    if 1 not in s:
        raise DataError(
            f"dataset {spec.name!r}: privileged value(s) {list(spec.privileged_value)} "
            f"never occur in column {spec.protected_column!r}"
        )
    if 0 not in s:
        raise DataError(
            f"dataset {spec.name!r}: every row is privileged; group metrics need "
            f"both groups present"
        )

    columns: list[np.ndarray] = []
    names: list[str] = []
    for feat in spec.feature_columns:
        j = col_index[feat.name]
        raw = [row[j] for row in kept]
        if feat.kind == NUMERIC:
            try:
                col = np.array([float(v) for v in raw], dtype=float)
            except ValueError as exc:
                raise DataError(
                    f"dataset {spec.name!r}: non-numeric value in column {feat.name!r}: {exc}"
                ) from exc
            if not np.all(np.isfinite(col)):
                raise DataError(
                    f"dataset {spec.name!r}: non-finite value in column {feat.name!r}"
                )
            # in Python floats, so an overflowing span is inf with no warning
            if not math.isfinite(float(col.max()) - float(col.min())):
                raise DataError(
                    f"dataset {spec.name!r}: the span of column {feat.name!r} "
                    f"(max - min) overflows; min-max scaling needs a finite span"
                )
            columns.append(col)
            names.append(feat.name)
        else:
            categories = sorted(set(raw))
            if spec.encoding_for(feat.name) == LABEL_ENCODE:
                code = {c: float(k) for k, c in enumerate(categories)}
                columns.append(np.array([code[v] for v in raw], dtype=float))
                names.append(feat.name)
            else:
                for cat in categories:
                    columns.append(
                        np.array([1.0 if v == cat else 0.0 for v in raw], dtype=float)
                    )
                    names.append(f"{feat.name}={cat}")

    X = np.column_stack(columns) if columns else np.zeros((n, 0), dtype=float)
    return EncodedDataset(
        name=spec.name,
        X=X,
        y=y,
        s=s,
        feature_names=tuple(names),
    )


def fit_minmax(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column minima and maxima, for min-max scaling fitted on training rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("expected a non-empty 2-D feature matrix")
    return X.min(axis=0), X.max(axis=0)


def apply_minmax(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Scale columns to [0, 1] by fitted bounds that broadcast against ``X``
    (``(k, 1, p)`` bounds scale rows k ways); constant columns map to 0."""
    X = np.asarray(X, dtype=float)
    span = maxs - mins
    constant = ~(span > 0)
    scaled = (X - mins) / np.where(constant, 1.0, span)
    if constant.any():  # +0.0, also where X is below mins
        np.copyto(scaled, 0.0, where=constant)
    return scaled
