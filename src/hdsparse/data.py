"""Dataset containers and CSV I/O.

Everything downstream (screening, solvers, the q-Gaussian model) works on a
plain dense FeatureMatrix + ResponseVector pair.  Nothing fancy: immutable
dataclasses around numpy arrays.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureMatrix",
    "ResponseVector",
    "read_table",
    "write_table",
]


@dataclass(frozen=True)
class FeatureMatrix:
    """n x p design matrix, optionally with column names (read_table always names them)."""

    values: np.ndarray
    column_names: tuple[str, ...] | None = None

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


def read_table(
    path,
    outcome: str | None = None,
) -> tuple[FeatureMatrix, ResponseVector | None]:
    """Read a numeric CSV with a header row; optionally pull out one column as the outcome.

    `outcome` is a column name, unique in the header.  An outcome holding
    only 0 and 1 is binary, any other continuous.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    names, values = _read_fast(text) or _read_csv(path, text)
    width = values.shape[1]

    if outcome is None:
        return FeatureMatrix(values, names), None
    if outcome not in names:
        raise ValueError(f"outcome column {outcome!r} not found")
    if names.count(outcome) > 1:
        raise ValueError(f"outcome column {outcome!r} appears {names.count(outcome)} times")
    oj = names.index(outcome)
    yv = values[:, oj]
    keep = [j for j in range(width) if j != oj]
    kind = "binary" if np.all(np.isin(yv, (0.0, 1.0))) else "continuous"
    fm = FeatureMatrix(values[:, keep], tuple(names[j] for j in keep))
    return fm, ResponseVector(yv, kind)


def _read_fast(text: str):
    """(names, values) from numpy's C parser, or None wherever the csv path
    could read the body differently: the separators \\x1c-\\x1f (stripped
    from a cell by numpy but not by float()), a skipped blank line, a cell
    numpy rejects (a quote, or a lone CR, which is a row break to
    csv.reader), a non-finite value, or a header and body of different
    widths.  The header is read by csv.reader itself, so quoted names keep
    the fast path."""
    stream = io.StringIO(text, newline="")
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
    if (values.shape[0] != len(lines) or values.shape[1] != len(names)
            or not np.isfinite(values).all()):
        return None
    return names, values


def _read_csv(path, text: str):
    # the reference path, and the one that raises: every message names the
    # file and the bad row or cell
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise ValueError(f"{path}: empty file")
    names, body = tuple(s.strip() for s in rows[0]), rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    width = len(body[0])
    if len(names) != width:
        raise ValueError(f"{path}: header has {len(names)} fields, rows have {width}")
    return names, _scan_body(path, body, width)


def _scan_body(path, body, width: int) -> np.ndarray:
    # row-major scan that raises at the first bad row or cell; the header is row 1
    values = np.empty((len(body), width), dtype=float)
    for i, row in enumerate(body):
        rownum = i + 2
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
        if "y" in names:
            raise ValueError("a feature is named 'y', the name of the outcome column")
        values = np.column_stack([values, y.values])
        names = names + ["y"]
    # one printf-style format per row writes what csv.writer would: numbers
    # never need quoting, and rows end in the excel dialect's CRLF
    row = ",".join(["%.17g"] * values.shape[1]) + csv.excel.lineterminator
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(row % tuple(r) for r in values.tolist())
