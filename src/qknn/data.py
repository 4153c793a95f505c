"""Dataset loading, normalization, chi-square feature selection, splitting.

One table holds the facts of the three UCI benchmark datasets (iris,
wdbc, banknote): file name, layout, class tokens and rows per class.  One
loader reads them through it and rejects malformed rows, and any label
token the table does not list, with their line number.
Normalization is min-max fitted on a caller-chosen row subset (the
training rows) and applied everywhere else with clamping to [0, 1].
Feature selection ranks features by the chi-square independence
statistic of an equal-width discretization against the class label;
p-values come from the closed-form chi-square tail for integer degrees
of freedom, so the package needs no statistics dependency.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

DEFAULT_BINS = 10
DEFAULT_TOP_K = 4

#: Feature names of the UCI distributions, in column order.
_IRIS_FEATURES = ("sepal_length", "sepal_width", "petal_length", "petal_width")
_BANKNOTE_FEATURES = ("variance", "skewness", "curtosis", "entropy")
_WDBC_BASE = (
    "radius", "texture", "perimeter", "area", "smoothness",
    "compactness", "concavity", "concave_points", "symmetry", "fractal_dimension",
)
_WDBC_FEATURES = tuple(
    f"{stat}_{base}" for stat in ("mean", "se", "worst") for base in _WDBC_BASE
)


@dataclass(frozen=True)
class _Format:
    """One benchmark dataset: its UCI file, layout and fixed shape."""

    file_name: str
    fields: int
    columns: slice  # feature columns
    label: int  # label column
    feature_names: tuple[str, ...]
    classes: tuple[str, ...]  # label tokens, in class order
    bad_label: str  # message for a token not in ``classes``, formatted with it
    field_hint: str  # appended to the field count in the field-count error
    #: Rows per class in the file.  With ``feature_names`` these fix the qnn
    #: register and the training-set size that bounds k before any loading.
    class_rows: tuple[int, ...]


#: Dataset name -> its format; the name is also the loader format.
_FORMATS = {
    "iris": _Format(
        "iris.data", 5, slice(0, 4), 4, _IRIS_FEATURES,
        ("Iris-setosa", "Iris-versicolor", "Iris-virginica"),
        "unknown class {!r} (expected 'Iris-setosa', 'Iris-versicolor' or "
        "'Iris-virginica')", "", (50, 50, 50),
    ),
    "wdbc": _Format(
        "wdbc.data", 32, slice(2, 32), 1, _WDBC_FEATURES, ("B", "M"),
        "unknown diagnosis {!r} (expected 'B' or 'M')", " (id, diagnosis, 30 features)",
        (357, 212),
    ),
    "banknote": _Format(
        "data_banknote_authentication.txt", 5, slice(0, 4), 4, _BANKNOTE_FEATURES,
        ("0", "1"), "class must be 0 or 1, got {!r}", "", (762, 610),
    ),
}


class DataFormatError(ValueError):
    """Raised for malformed dataset files; messages carry the line number."""


@dataclass
class Dataset:
    """A labelled feature matrix with stable feature/class naming."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.feature_names = tuple(self.feature_names)
        self.class_names = tuple(self.class_names)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} rows"
            )
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for "
                f"{self.features.shape[1]} columns"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        n_classes = len(self.class_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= n_classes):
            raise ValueError(
                f"labels must lie in [0, {n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset_rows(self, rows: Sequence[int]) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return Dataset(
            name=self.name,
            features=self.features[rows].copy(),
            labels=self.labels[rows].copy(),
            feature_names=self.feature_names,
            class_names=self.class_names,
        )

    def subset_features(self, columns: Sequence[int]) -> "Dataset":
        columns = list(columns)
        return Dataset(
            name=self.name,
            features=self.features[:, columns].copy(),
            labels=self.labels.copy(),
            feature_names=tuple(self.feature_names[c] for c in columns),
            class_names=self.class_names,
        )


def _parse_float(token: str, line_no: int, path: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: line {line_no}: {token!r} is not a number"
        ) from exc
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: line {line_no}: non-finite value {token!r}")
    return value


def _read_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, stripped tokens) per data row, one row at a time."""
    empty = True
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # UCI files end with a blank line
            empty = False
            yield line_no, [t.strip() for t in row]
    if empty:
        raise DataFormatError(f"{path}: file contains no data rows")


def load_dataset(path: str | Path, fmt: str) -> Dataset:
    """Load a UCI-format file; ``fmt`` is one of wdbc, iris, banknote."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}; expected one of {sorted(_FORMATS)}")
    spec = _FORMATS[fmt]
    path = Path(path)
    name = str(path)
    features, labels = [], []
    for line_no, row in _read_rows(path):
        if len(row) != spec.fields:
            raise DataFormatError(
                f"{path}: line {line_no}: expected {spec.fields} fields"
                f"{spec.field_hint}, got {len(row)}"
            )
        token = row[spec.label]
        if token not in spec.classes:
            raise DataFormatError(
                f"{path}: line {line_no}: " + spec.bad_label.format(token)
            )
        labels.append(spec.classes.index(token))
        features.append([_parse_float(t, line_no, name) for t in row[spec.columns]])
    return Dataset(
        name=fmt,
        features=np.array(features),
        labels=np.array(labels),
        feature_names=spec.feature_names,
        class_names=spec.classes,
    )


def min_max_normalize(
    d: Dataset, fit_rows: Sequence[int]
) -> tuple[Dataset, dict]:
    """Map features to [0, 1] using min/max fitted on ``fit_rows`` only.

    Rows outside the fit set are transformed with the same parameters and
    clamped to [0, 1].  Features constant on the fit rows are dropped with
    a warning.  Returns the normalized dataset and the report's
    ``normalization`` block: the original indices of the kept and dropped
    columns, and the fitted mins and maxs of the kept ones, as plain lists.
    """
    fit_rows = np.asarray(fit_rows, dtype=int)
    if fit_rows.size == 0:
        raise ValueError("cannot fit normalization on an empty row set")
    fit = d.features[fit_rows]
    mins = fit.min(axis=0)
    maxs = fit.max(axis=0)
    kept = np.flatnonzero(maxs > mins)
    dropped = np.flatnonzero(maxs <= mins)
    if dropped.size:
        names = [d.feature_names[i] for i in dropped]
        warnings.warn(
            f"dropping {dropped.size} constant feature(s): {names}", stacklevel=2
        )
    if kept.size == 0:
        raise ValueError("all features are constant on the fit rows")
    scaled = (d.features[:, kept] - mins[kept]) / (maxs[kept] - mins[kept])
    scaled = np.clip(scaled, 0.0, 1.0)
    out = Dataset(
        name=d.name,
        features=scaled,
        labels=d.labels.copy(),
        feature_names=tuple(d.feature_names[i] for i in kept),
        class_names=d.class_names,
    )
    return out, {
        "kept_indices": kept.tolist(),
        "dropped_indices": dropped.tolist(),
        "mins": mins[kept].tolist(),
        "maxs": maxs[kept].tolist(),
    }


# --- chi-square machinery -------------------------------------------------

def chi_square_sf(statistic: float, dof: int) -> float:
    """P(X >= statistic) for a chi-square variable with ``dof`` degrees.

    For integer dof the tail is a finite sum (Abramowitz & Stegun
    26.4.4-5): with h = statistic/2, the sum of exp(-h) h^a / Gamma(a+1)
    over a = dof%2/2, dof%2/2 + 1, ..., dof/2 - 1, plus erfc(sqrt(h)) when
    dof is odd.  Each term is taken in logs so none overflows at large dof.
    """
    if dof < 0:
        raise ValueError(f"degrees of freedom must be non-negative, got {dof}")
    if statistic < 0.0:
        raise ValueError(f"chi-square statistic must be non-negative, got {statistic}")
    if dof == 0 or statistic == 0.0:
        # dof 0 is a point mass at 0: with no free cells, any statistic
        # shows no significance.
        return 1.0
    h = statistic / 2.0
    log_h = math.log(h)
    total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    for i in range(dof // 2):
        a = dof % 2 / 2.0 + i
        total += math.exp(a * log_h - h - math.lgamma(a + 1.0))
    return min(total, 1.0)  # rounding in a tail near 1 can pass it by an ulp


@dataclass(frozen=True)
class SelectionResult:
    """Chi-square ranking of features against the class label.

    ``kept_indices`` is sorted by descending statistic.  ``effective_bins``
    records, per feature, how many discretization bins were actually
    occupied after empty bins were merged away.
    """

    kept_indices: tuple[int, ...]
    chi2_scores: np.ndarray
    p_values: np.ndarray
    effective_bins: tuple[int, ...]
    policy: str

    def summary_lines(self, feature_names: Sequence[str]) -> list[str]:
        kept = set(self.kept_indices)
        order = sorted(
            range(len(self.chi2_scores)), key=lambda i: (-self.chi2_scores[i], i)
        )
        lines = [f"policy: {self.policy}"]
        for rank, i in enumerate(order, start=1):
            mark = "kept" if i in kept else "dropped"
            lines.append(
                f"{rank:2d}. feature {i:2d} ({feature_names[i]}): "
                f"chi2={self.chi2_scores[i]:.4f} p={self.p_values[i]:.3e} "
                f"bins={self.effective_bins[i]} [{mark}]"
            )
        return lines


def parse_selection_policy(policy: str) -> tuple[str, float]:
    """Parse 'topk=K' or 'alpha=F' into (kind, value)."""
    if not isinstance(policy, str):
        raise TypeError(f"policy must be a string, got {policy!r}")
    kind, sep, raw = policy.partition("=")
    kind = kind.strip().lower()
    if sep and kind not in ("topk", "alpha"):
        raise ValueError(f"unknown selection policy kind {kind!r}")
    # Without an "=" the value is empty, so it fails to parse too.
    try:
        value = int(raw) if kind == "topk" else float(raw)
    except ValueError as exc:
        raise ValueError(
            f"policy must look like 'topk=4' or 'alpha=0.05', got {policy!r}"
        ) from exc
    if kind == "topk":
        if value < 1:
            raise ValueError(f"topk must be at least 1, got {value}")
        return "topk", float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {value}")
    return "alpha", value


def _feature_chi2(
    column: np.ndarray, labels: np.ndarray, n_classes: int, bins: int
) -> tuple[float, float, int]:
    """Chi-square statistic, p-value, and occupied bin count for one feature."""
    lo, hi = float(column.min()), float(column.max())
    if hi <= lo:
        return 0.0, 1.0, 1  # constant feature carries no information
    width = (hi - lo) / bins
    idx = np.minimum(((column - lo) / width).astype(int), bins - 1)
    # Empty bins contribute nothing; merging them into a neighbour is the
    # same as removing their all-zero row, but it changes the dof.  So the
    # table has a row per occupied bin only, in bin order, and its size
    # follows the rows, not ``bins``.  sorted(set(...)) rather than
    # np.unique, whose sort adds about 0.4 MB of resident memory on first use.
    row_bins = idx.tolist()
    used = sorted(set(row_bins))
    table_row = dict(zip(used, range(len(used))))
    table = np.zeros((len(used), n_classes), dtype=float)
    np.add.at(table, ([table_row[b] for b in row_bins], labels), 1.0)
    table = table[:, table.sum(axis=0) > 0]
    rows, cols = table.shape
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    statistic = float(((table - expected) ** 2 / expected).sum())
    dof = (rows - 1) * (cols - 1)
    return statistic, chi_square_sf(statistic, dof), rows


def chi_square_select(
    d: Dataset, bins: int = DEFAULT_BINS, policy: str = f"topk={DEFAULT_TOP_K}"
) -> SelectionResult:
    """Score every feature against the label and keep a subset per policy.

    Each feature is discretized into ``bins`` equal-width bins over its
    observed range; the statistic is the usual sum of (O-E)^2/E over the
    bin-by-class contingency table with dof (bins-1)(classes-1), counting
    only occupied bins.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if d.n_instances == 0:
        raise ValueError("cannot select features on an empty dataset")
    kind, value = parse_selection_policy(policy)
    scores = np.zeros(d.n_features)
    p_values = np.ones(d.n_features)
    effective = []
    for f in range(d.n_features):
        scores[f], p_values[f], occupied = _feature_chi2(
            d.features[:, f], d.labels, d.n_classes, bins
        )
        effective.append(occupied)
    order = sorted(range(d.n_features), key=lambda i: (-scores[i], i))
    if kind == "topk":
        kept = tuple(order[: min(int(value), d.n_features)])
    else:
        kept = tuple(i for i in order if p_values[i] < value)
    return SelectionResult(
        kept_indices=kept,
        chi2_scores=scores,
        p_values=p_values,
        effective_bins=tuple(effective),
        policy=policy,
    )


# --- splitting ------------------------------------------------------------

def split_test_count(class_rows: int, test_fraction: float) -> int:
    """Test rows a stratified split takes from a class of ``class_rows``:
    the rounded proportional share, leaving at least one training row."""
    return min(int(round(test_fraction * class_rows)), class_rows - 1)


def stratified_indices(
    labels: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class proportional train/test row indices; deterministic per seed."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    # sorted(set(...)) rather than np.unique, which imports numpy.ma on
    # first use and so adds about a megabyte to every process.
    for cls in sorted(set(labels.tolist())):
        rows = np.flatnonzero(labels == cls)
        if rows.size < 2:
            raise ValueError(
                f"class {cls} has only {rows.size} instance(s); cannot split"
            )
        n_test = split_test_count(rows.size, test_fraction)
        shuffled = rng.permutation(rows)
        test_idx.extend(shuffled[:n_test].tolist())
        train_idx.extend(shuffled[n_test:].tolist())
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))
