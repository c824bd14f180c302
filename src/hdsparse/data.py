"""Dataset containers, column standardization, stratified splitting, CSV I/O.

Everything downstream (screening, solvers, the q-Gaussian model) works on a
plain dense FeatureMatrix + ResponseVector pair.  Nothing fancy: immutable
dataclasses around numpy arrays.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FeatureMatrix",
    "ResponseVector",
    "StandardizationRecord",
    "DataSplit",
    "standardize_columns",
    "inverse_standardize",
    "split_stratified",
    "read_table",
    "write_table",
]


@dataclass(frozen=True)
class FeatureMatrix:
    """n x p design matrix, optionally with column names."""

    values: np.ndarray
    column_names: tuple[str, ...] | None = None
    standardized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("FeatureMatrix requires a 2-d array")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("FeatureMatrix must have n >= 1 and p >= 1")
        if self.column_names is not None and len(self.column_names) != v.shape[1]:
            raise ValueError("column_names length must match p")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ResponseVector:
    """Outcome vector; kind is 'continuous' or 'binary'."""

    values: np.ndarray
    kind: str = "continuous"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if self.kind not in ("continuous", "binary"):
            raise ValueError(f"unknown response kind {self.kind!r}")
        if self.kind == "binary" and not np.all(np.isin(v, (0.0, 1.0))):
            raise ValueError("binary response must contain only 0 and 1")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class StandardizationRecord:
    means: np.ndarray
    sds: np.ndarray          # constant columns carry sd 1 here, see flag below
    constant: np.ndarray     # boolean mask of constant columns


@dataclass(frozen=True)
class DataSplit:
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    strata_bins: int = 0


def standardize_columns(m: FeatureMatrix) -> tuple[FeatureMatrix, StandardizationRecord]:
    """Center and scale every column to mean 0 / sample sd 1 (n-1 denominator).

    Constant columns come out as all zeros (sd flagged 1) with a warning so a
    screening pass can still run over messy inputs.
    """
    x = m.values
    if x.shape[0] < 2:
        raise ValueError("standardization needs n >= 2")
    bad = ~np.isfinite(x)
    if bad.any():
        cols = np.unique(np.nonzero(bad)[1])
        raise ValueError(f"non-finite entries in column(s) {cols.tolist()}")
    means = x.mean(axis=0)
    sds = x.std(axis=0, ddof=1)
    const = sds == 0.0
    if const.any():
        warnings.warn(
            f"constant column(s) {np.nonzero(const)[0].tolist()} set to zero",
            stacklevel=2,
        )
    safe = np.where(const, 1.0, sds)
    out = (x - means) / safe
    out[:, const] = 0.0
    rec = StandardizationRecord(means=means, sds=safe, constant=const)
    return FeatureMatrix(out, m.column_names, standardized=True), rec


def inverse_standardize(m: FeatureMatrix, rec: StandardizationRecord) -> FeatureMatrix:
    """Undo standardize_columns (constant columns return to their mean)."""
    x = m.values * rec.sds + rec.means
    return FeatureMatrix(x, m.column_names, standardized=False)


def _stratum_labels(y: ResponseVector, bins: int) -> np.ndarray:
    if y.kind == "binary":
        return y.values.astype(int)
    # equal-frequency bins on the outcome
    q = np.quantile(y.values, np.linspace(0, 1, bins + 1)[1:-1])
    return np.searchsorted(q, y.values, side="left")


def split_stratified(
    y: ResponseVector,
    fractions: tuple[float, float, float],
    bins: int = 30,
    seed: int = 0,
) -> DataSplit:
    """Stratified train/val/test split on the outcome.

    Continuous outcomes are cut into `bins` equal-frequency bins and each bin is
    split separately, so every subset sees a balanced slice of the outcome
    distribution.  Within each stratum the counts follow the fractions by
    largest remainder, which keeps class proportions within one observation.
    """
    fr = np.asarray(fractions, dtype=float)
    if fr.ndim != 1 or fr.size != 3:
        raise ValueError("fractions must be (train, val, test)")
    if np.any(fr < 0) or fr.sum() > 1 + 1e-12 or fr.sum() <= 0:
        raise ValueError("fractions must be nonnegative and sum to at most 1")
    if y.kind == "continuous" and bins < 2:
        raise ValueError("continuous stratification requires bins >= 2")

    labels = _stratum_labels(y, bins)
    n_splits = int(np.count_nonzero(fr > 0))
    rng = np.random.default_rng(seed)
    parts: list[list[int]] = [[], [], []]
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if idx.size < n_splits:
            raise ValueError(
                f"stratum {lab} has {idx.size} observation(s), fewer than "
                f"{n_splits} requested splits"
            )
        idx = rng.permutation(idx)
        # largest-remainder apportionment of this stratum across the splits
        exact = fr * idx.size
        take = np.floor(exact).astype(int)
        rem = int(round(exact.sum())) - take.sum()
        order = np.argsort(-(exact - take), kind="stable")
        for j in order[:rem]:
            take[j] += 1
        start = 0
        for j in range(3):
            parts[j].extend(idx[start : start + take[j]].tolist())
            start += take[j]
    train, val, test = (np.sort(np.asarray(p, dtype=int)) for p in parts)
    return DataSplit(train, val, test, strata_bins=bins if y.kind == "continuous" else 0)


def read_table(
    path,
    has_header: bool = True,
    outcome: str | int | None = None,
) -> tuple[FeatureMatrix, ResponseVector | None]:
    """Read a numeric CSV; optionally pull out one column as the outcome.

    `outcome` can be a column name (needs a header) or a 0-based index.  An
    outcome holding only 0 and 1 is binary, any other continuous.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    fast = _read_fast(text, has_header)
    if fast is not None:
        names, values = fast
    else:
        names, values = _read_csv(path, text, has_header)
    width = values.shape[1]

    if outcome is None:
        return FeatureMatrix(values, names), None
    if isinstance(outcome, str):
        if names is None or outcome not in names:
            raise ValueError(f"outcome column {outcome!r} not found")
        oj = names.index(outcome)
    else:
        oj = int(outcome)
        if not 0 <= oj < width:
            raise ValueError(f"outcome column index {oj} out of range")
    yv = values[:, oj]
    keep = [j for j in range(width) if j != oj]
    kind = "binary" if np.all(np.isin(yv, (0.0, 1.0))) else "continuous"
    fm = FeatureMatrix(values[:, keep], tuple(names[j] for j in keep) if names else None)
    return fm, ResponseVector(yv, kind)


def _read_fast(text: str, has_header: bool):
    """(names, values) from numpy's C parser, or None wherever the csv path
    could read the body differently: the separators \\x1c-\\x1f (stripped
    from a cell by numpy but not by float()), a skipped blank line, a cell
    numpy rejects (a quote, or a lone CR, which is a row break to
    csv.reader), a non-finite value, or a header and body of different
    widths.  The header is read by csv.reader itself, so quoted names keep
    the fast path."""
    stream = io.StringIO(text, newline="")
    names = None
    if has_header:
        header = next(csv.reader(stream), None)
        if header is None:
            return None
        names = tuple(s.strip() for s in header)
    body = stream.read()
    if any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    # a CR left before each LF is whitespace to numpy and to float()
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or "" in lines or "\r" in lines:    # numpy would skip blank lines
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if (values.shape[0] != len(lines) or (names is not None and values.shape[1] != len(names))
            or not np.isfinite(values).all()):
        return None
    return names, values


def _read_csv(path, text: str, has_header: bool):
    # the reference path, and the one that raises: every message names the
    # file and the bad row or cell
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise ValueError(f"{path}: empty file")
    names: tuple[str, ...] | None = None
    body = rows
    if has_header:
        names = tuple(s.strip() for s in rows[0])
        body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    width = len(body[0])
    if names is not None and len(names) != width:
        raise ValueError(f"{path}: header has {len(names)} fields, rows have {width}")
    return names, _scan_body(path, body, width, 2 if has_header else 1)


def _scan_body(path, body, width: int, first_row: int) -> np.ndarray:
    # row-major scan that raises at the first bad row or cell
    values = np.empty((len(body), width), dtype=float)
    for i, row in enumerate(body):
        rownum = i + first_row
        if len(row) != width:
            raise ValueError(f"{path}: row {rownum} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                v = np.nan
            if not np.isfinite(v):
                raise ValueError(f"{path}: non-numeric cell at row {rownum}, column {j}")
            values[i, j] = v
    return values


def write_table(path, m: FeatureMatrix, y: ResponseVector | None = None) -> None:
    """Write a FeatureMatrix (plus optional outcome column y) as CSV.

    Values are printed with 17 significant digits so read_table round-trips
    exactly.
    """
    values = m.values
    names = list(m.column_names) if m.column_names else [f"x{j}" for j in range(m.p)]
    if y is not None:
        values = np.column_stack([values, y.values])
        names = names + ["y"]
    # one printf-style format per row writes what csv.writer would: numbers
    # never need quoting, and rows end in the excel dialect's CRLF
    row = ",".join(["%.17g"] * values.shape[1]) + csv.excel.lineterminator
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(row % tuple(r) for r in values.tolist())
