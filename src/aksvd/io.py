"""Dataset loading and artifact persistence.

Formats are deliberately plain: dense matrices as headerless CSV with
17-significant-digit reals (value-exact round trips for float64), edge
lists as tab-separated 0-indexed integer pairs, labels as one integer per
line, reports as line-delimited JSON.

numpy's loadtxt parses dense CSV, edge lists and labels, through
:func:`_loadtxt`; a file it fails on, or one that only looks well formed
to it, is read again by that format's line scanner, which is the
reference for every accepted file and explains every rejection.  The
scanners and the other loaders read through one line reader,
:func:`_lines`: UTF-8 text with or without a leading byte-order mark,
blank and whitespace-only lines skipped, lines numbered from 1.  Every
writer writes through one line writer, :func:`_write_lines`: UTF-8
without a byte-order mark, and an unwritable output is a
:class:`DataError` that names the file.
"""

from __future__ import annotations

import json
import warnings
from typing import List, Tuple

import numpy as np

from .errors import DataError

_FLOAT_FMT = "%.17g"


def _lines(path) -> List[Tuple[int, str]]:
    """The 1-based number and stripped text of each non-blank line of a
    UTF-8 text file, with or without a byte-order mark; blank lines count
    in the numbering."""
    with open(path, "r", encoding="utf-8-sig") as f:
        return [(lineno, text) for lineno, line in enumerate(f, start=1)
                if (text := line.strip())]


def _loadtxt(path, **kwargs):
    """numpy's parse of a UTF-8 text file, with or without a byte-order
    mark, as a 2-D array; None where it fails, warns of a deprecated parse
    or finds no data.  Some NumPy releases truncate a real such as ``1.7``
    in an integer field with only a DeprecationWarning, which Python hides
    by default; that warning is a failure here."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, comments=None, ndmin=2, encoding="utf-8-sig", **kwargs)
    except (ValueError, DeprecationWarning):
        return None
    return values if values.size else None


def load_dense_csv(path) -> np.ndarray:
    """Load a headerless comma-separated real matrix, preserving row order.

    numpy's loadtxt parses the file; where it fails or finds no data, the
    reference scanner :func:`_scan_dense_csv` reads it again, so inputs
    only the scanner accepts (whitespace-only lines, ``1_0``) still load
    and every rejected file gets the scanner's :class:`DataError`.
    """
    values = _loadtxt(path, delimiter=",", dtype=np.float64)
    return _scan_dense_csv(path) if values is None else values


def _scan_dense_csv(path) -> np.ndarray:
    """Line-by-line reference parser of :func:`load_dense_csv`: blank and
    whitespace-only lines are skipped and each field goes through ``float``."""
    rows: List[List[float]] = []
    width = None
    for lineno, line in _lines(path):
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


def load_edge_list(path) -> np.ndarray:
    """Load a directed edge list ("src<TAB>dst" per line) as a dense binary
    adjacency matrix.

    An optional "# n=<N>" header fixes the node count; otherwise it is
    max index + 1.  Duplicate edges collapse; self-loops are preserved.

    As for dense CSV, numpy's loadtxt parses the file, after an ``n=``
    header on its first line.  Where it fails (on any other ``#``, too),
    finds no edges, or finds a negative index or one at or past the node
    count, the reference scanner :func:`_scan_edge_list` reads the file
    again: inputs only the scanner accepts (``1_0``, comment lines) still
    load, and every rejected file gets the scanner's :class:`DataError`.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            first = f.readline().strip()
        n_nodes = None
        if first.startswith("#"):   # numpy skips only an "n=" header on line 1
            header = first[1:].strip()
            if not header.startswith("n="):
                raise ValueError
            n_nodes = int(header[2:])   # a negative count fails the bound below
    except ValueError:   # undecodable text, another comment or a bad count
        return _scan_edge_list(path)
    E = _loadtxt(path, delimiter="\t", dtype=np.int64, skiprows=int(n_nodes is not None))
    if E is None or E.shape[1] != 2 or E.min() < 0:
        return _scan_edge_list(path)
    if n_nodes is None:
        n_nodes = int(E.max()) + 1
    elif E.max() >= n_nodes:
        return _scan_edge_list(path)
    A = np.zeros((n_nodes, n_nodes))
    A[E[:, 0], E[:, 1]] = 1.0
    return A


def _scan_edge_list(path) -> np.ndarray:
    """Line-by-line reference parser of :func:`load_edge_list`: ``#`` lines
    are comments, the first ``# n=<N>`` among them the node count, and each
    other line two tab-separated fields that go through ``int``."""
    n_nodes = None
    edges = []
    for lineno, line in _lines(path):
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
    for src, dst in edges:
        if src >= n_nodes or dst >= n_nodes:
            raise DataError(f"{path}: edge ({src}, {dst}) exceeds node count {n_nodes}")
        A[src, dst] = 1.0
    return A


def load_labels(path) -> np.ndarray:
    """Load one integer label per line; an integral real such as ``2.0``
    counts as an integer, a fraction, infinity or NaN does not.

    numpy's loadtxt parses the file as int64; where it fails, finds no
    data or finds more than one field on a line, the reference scanner
    :func:`_scan_labels` reads it again and explains every rejection.
    """
    values = _loadtxt(path, dtype=np.int64)
    return _scan_labels(path) if values is None or values.shape[1] != 1 else values[:, 0]


def _scan_labels(path) -> np.ndarray:
    """Line-by-line reference parser of :func:`load_labels`: each stripped
    line goes through ``int``, or through ``float`` when it is a real."""
    labels = []
    for lineno, line in _lines(path):
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
    """Write each of ``lines`` and a line end to a UTF-8 file; a file that
    cannot be written is a :class:`DataError` naming it."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_matrix_csv(path, values: np.ndarray) -> None:
    """Write a real matrix as headerless CSV, one line per row."""
    _write_lines(path, format_rows(values))


def save_embeddings(path, *blocks: List[str]) -> None:
    """Write row-aligned :func:`format_rows` blocks side by side as
    headerless CSV, one line per sample: one embedding, or the left and
    right ones for their concatenation.  No rows make an empty file."""
    _write_lines(path, map(",".join, zip(*blocks)))


def save_report(path, rows: List[dict]) -> None:
    """Write a report as line-delimited strict JSON, one object per line.
    A value JSON cannot hold, such as an infinity, is a :class:`DataError`
    raised before the file is opened."""
    try:
        lines = [json.dumps(row, sort_keys=True, allow_nan=False) for row in rows]
    except ValueError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    _write_lines(path, lines)


def load_report(path) -> List[dict]:
    """Read a line-delimited JSON report, one object per non-blank line."""
    return [json.loads(line) for _, line in _lines(path)]
