"""Dataset loading and artifact persistence.

Formats are deliberately plain: dense matrices as headerless CSV with
17-significant-digit reals (value-exact round trips for float64), edge
lists as tab-separated 0-indexed integer pairs, reports as line-delimited
JSON.
"""

from __future__ import annotations

import json
import warnings
from typing import List, Optional

import numpy as np

from .errors import DataError

_FLOAT_FMT = "%.17g"


def load_dense_csv(path) -> np.ndarray:
    """Load a headerless comma-separated real matrix, preserving row order.

    numpy's loadtxt parses the file; where it fails or finds no data, the
    reference scanner :func:`_scan_dense_csv` reads it again, so inputs
    only the scanner accepts (whitespace-only lines, ``1_0``) still load
    and every rejected file gets the scanner's :class:`DataError`.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                dtype=np.float64, encoding="utf-8")
    except ValueError:
        return _scan_dense_csv(path)
    return values if values.size else _scan_dense_csv(path)


def _scan_dense_csv(path) -> np.ndarray:
    """Line-by-line reference parser of :func:`load_dense_csv`: blank and
    whitespace-only lines are skipped and each field goes through ``float``."""
    rows: List[List[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise DataError(
                    f"{path}: line {lineno} has {len(tokens)} fields, expected {width}"
                )
            try:
                rows.append(list(map(float, tokens)))
            except ValueError:
                for col, tok in enumerate(tokens, start=1):   # find the bad token
                    try:
                        float(tok)
                    except ValueError:
                        raise DataError(f"{path}: line {lineno}, column {col}: "
                                        f"cannot parse {tok!r} as a real number") from None
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=np.float64)


def load_edge_list(path, n_nodes: Optional[int] = None) -> np.ndarray:
    """Load a directed edge list ("src<TAB>dst" per line) as a dense binary
    adjacency matrix.

    An optional "# n=<N>" header fixes the node count; otherwise it is
    max index + 1.  Duplicate edges collapse; self-loops are preserved.
    """
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = line[1:].strip()
                if header.startswith("n=") and n_nodes is None:
                    try:
                        n_nodes = int(header[2:])
                        if n_nodes < 0:
                            raise ValueError
                    except ValueError:
                        raise DataError(f"{path}: line {lineno}: bad node-count header {line!r}") from None
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'src<TAB>dst', got {line!r}")
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-integer node index in {line!r}") from None
            if src < 0 or dst < 0:
                raise DataError(f"{path}: line {lineno}: negative node index")
            edges.append((src, dst))
    if n_nodes is None:
        if not edges:
            raise DataError(f"{path}: empty edge list and no node-count header")
        n_nodes = max(max(s, d) for s, d in edges) + 1
    A = np.zeros((n_nodes, n_nodes))
    for lineno, (src, dst) in enumerate(edges):
        if src >= n_nodes or dst >= n_nodes:
            raise DataError(f"{path}: edge ({src}, {dst}) exceeds node count {n_nodes}")
        A[src, dst] = 1.0
    return A


def load_labels(path) -> np.ndarray:
    """Load one integer label per line; an integral real such as ``2.0``
    counts as an integer, a fraction, infinity or NaN does not."""
    labels = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)   # exact at any size, unlike float
            except ValueError:
                try:
                    value = float(line)
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: cannot parse label {line!r}") from None
                value = int(value) if value.is_integer() else None
            if value is None or not -2 ** 63 <= value < 2 ** 63:
                raise DataError(f"{path}: line {lineno}: label {line!r} is not a 64-bit integer")
            labels.append(value)
    if not labels:
        raise DataError(f"{path}: empty labels file")
    return np.asarray(labels, dtype=int)


def format_rows(values) -> List[str]:
    """The CSV rows of a real matrix, without line ends: each value is
    formatted on its own with 17 significant digits, so a row of two
    matrices side by side is their two rows joined by a comma.  A matrix
    with no values has no rows."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return []
    row_fmt = ",".join([_FLOAT_FMT] * values.shape[1])
    return [row_fmt % tuple(row) for row in values.tolist()]


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)


def save_matrix_csv(path, values: np.ndarray) -> None:
    """Write a real matrix as headerless CSV, one line per row."""
    _write_lines(path, format_rows(values))


def save_embeddings(path, *blocks: List[str]) -> None:
    """Write row-aligned :func:`format_rows` blocks side by side as
    headerless CSV, one line per sample: one embedding, or the left and
    right ones for their concatenation.  No rows make an empty file."""
    _write_lines(path, map(",".join, zip(*blocks)))


def save_report(path, rows: List[dict]) -> None:
    """Write a report as line-delimited JSON, one object per line."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row, sort_keys=True))
                f.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write report to {path}: {exc}") from exc


def load_report(path) -> List[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
