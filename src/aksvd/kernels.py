"""Asymmetric kernel evaluation and Gram matrix assembly.

A kernel here couples two sample sets X (n x d) and Z (m x d) through a
similarity kappa(x, z) that need not be symmetric in its arguments.  The
central object is the n x m Gram matrix with entries

    g_ij = s * kappa(x_i, z_j),    s = 1/sqrt(n*m) when scaled,

which downstream code decomposes by SVD.  Assembly is available both as a
materialized :class:`GramMatrix` and as a :class:`KernelOperator` that
evaluates arbitrary sub-blocks, single entries and new-point kernel
vectors on demand without ever forming the full matrix.  All of these go
through one kernel-value routine, so a lazily fetched entry is
bit-for-bit equal to the materialized one.

Every kernel family needs the inner products <x_i, z_j>, and one routine,
``_fill``, computes them all: blocks, entries and kernel vectors alike.
It is a tile engine: the rows of a block are zero-padded to a multiple of
``_TILE`` and cut into _TILE x d row tiles, the columns are zero-padded to
a multiple of a panel width w and kept as d x w panels, and every pair of
a row tile and a panel is multiplied in one batched gemm.  The call shape
is fixed because a gemm's rounding depends on the shape of the call (its
blocking, micro-kernel and edge handling), not only on the two vectors:
``x @ z.T`` on a sub-block can differ in the last bit from the same entry
of the full product.  With one call shape every entry is computed by the
same sequence of operations wherever it sits.  The batched call writes a
padded scratch of whole tiles and panels, whose corner holds the block: a
copy takes it out into a block's result, and a kernel vector is a view
of it.  Partial tiles and panels take no call of their own.
A one-row block or a new point needs only one row of each product, so its
tiles are 2 x d: the point fills row 0 of a zero-padded tile that
multiplies the other side's panels.  The gemm micro-kernel computes each
entry by the same sequence of operations at either height, and products
commute, so the same panels serve an x-side and a z-side point.  One row
is not used because BLAS libraries hand a one-row product to gemv, which
rounds differently.

The panel width depends on d alone (:func:`_panel_width`): _TILE times
256 // d, clamped to 1..16 tiles, so a panel spans 16 tiles up to d = 16,
holds at most 4096 entries (32 KB) up to d = 256, and is one 16-column
tile from d = 256 up.  At d = 16 a kernel vector over 4000 columns is 16
gemm calls where 16-column tiles take 250, and a side has one layout
that blocks and kernel vectors share.  Only call shapes fixed per d are
ones the per-d self-check below can certify, and both ways out of the
rule failed on OpenBLAS 0.3.31 (Haswell kernels): a panel as wide as its
side's unpadded length gave kernel vectors other bits than the block
product at most lengths tried, for every d from 16 to 2000, and panels
wider than the rule's failed the self-check at large d (from 160 columns
at d = 400, 64 at d = 1000 and 32 at d = 2000).

That still assumes the BLAS treats every position of a panel, and both
call heights, alike, so a self-check runs ``_fill`` itself, once per
process and feature dimension, on sides whose rows are all one vector:
every tile row and panel column, partial last ones among them, must give
the same bits in both roles.  The one layout rule is "panels, or raw
rows when the self-check fails", written once in :attr:`_Side.layout`:
each side record applies it once, when its layout is built, and from raw
rows ``_fill`` computes by a broadcast multiply-and-sum, which is exact
at any shape but much slower.

A block is streamed: its n x m result is allocated once and filled one
chunk of whole row tiles at a time, at most ``_BLOCK_BUDGET`` entries
over the padded columns or one row tile, whichever is more.  One walk,
:func:`_fill_chunks`, cuts every block so, and the self-check replays
that walk rather than a copy of it.  The chunk's batched gemm fills a
padded scratch of one chunk, which is copied into its slice of the
result, and the family formula, the sne normalization and the scaling
then run in place while the chunk is still in cache.  A block, and so
:meth:`_Side.sq_dists`, therefore needs its own 8*n*m bytes plus one
chunk and the panels of its columns, however large it is; the Nystrom fit
holds G[rows, :] and then G[comp_rows, cols], and little else.  Chunk
boundaries do not change a value: every entry still takes the same gemm
call and the same elementwise operations.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError

FAMILIES = ("linear", "rbf", "poly", "sne")

# rows per gemm tile, and the unit of a panel's width
_TILE = 16

# rows of the tile that holds one point of a kernel vector: a one-row
# product goes to gemv in BLAS, which rounds unlike gemm
_VEC_ROWS = 2

# cap on the float64 entries of one chunk (256 KB) of every chunked loop:
# the rows a block is filled and transformed in, the rows of sne
# denominators evaluated at once, the broadcast buffer of the fallback and
# the row ranges of matmat/rmatmat.  A chunk and its rbf/sne temporary
# fit in a core's L2 cache, and memory beyond a block's result stays
# small.  From 2^14 to 2^17 block times showed no consistent difference
# (Xeon, 2 MB L2, 1 BLAS thread), while the Nystrom fit's peak grew above
# 2^15.
_BLOCK_BUDGET = 2 ** 15

# feature dimension d -> result of the tile self-check in this process
_TILE_EXACT: dict = {}

# squared norms up to this bound keep x_sq + z_sq - 2 <x, z>, and every
# partial sum of it, finite
_SQ_MAX = np.finfo(np.float64).max / 4


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    gamma is the bandwidth of the rbf/sne families, entering as
    exp(-||x - z||^2 / gamma^2); degree and offset parameterize the
    polynomial family (x'z + offset)^degree.
    """

    family: str = "linear"
    gamma: Optional[float] = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.family in ("rbf", "sne"):
            if self.gamma is None or not 0 < self.gamma < np.inf:
                raise ValueError(f"{self.family} kernel requires a finite gamma > 0, "
                                 f"got {self.gamma}")
        if self.family == "poly" and (not isinstance(self.degree, numbers.Integral)
                                      or isinstance(self.degree, bool) or self.degree < 1):
            raise ValueError(f"poly kernel requires an integer degree >= 1, got {self.degree!r}")
        if self.family == "poly" and not -np.inf < self.offset < np.inf:
            raise ValueError(f"poly kernel requires a finite offset, got {self.offset}")

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec("linear")

    @staticmethod
    def rbf(gamma: float) -> "KernelSpec":
        return KernelSpec("rbf", gamma=gamma)

    @staticmethod
    def poly(degree: int = 2, offset: float = 1.0) -> "KernelSpec":
        return KernelSpec("poly", degree=degree, offset=offset)

    @staticmethod
    def sne(gamma: float) -> "KernelSpec":
        return KernelSpec("sne", gamma=gamma)


def auto_gamma(X: np.ndarray, k: float = 1.0) -> float:
    """Bandwidth heuristic gamma = k * sqrt(M * var(X)) with M the column count.

    A zero or overflowing variance, or a gamma that is not finite, is one
    ``NumericalError`` with no numpy warning before it."""
    X = as_matrix(X, "X")
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(X.var())
    if var == 0.0:
        raise NumericalError("auto gamma undefined: training data has zero variance")
    gamma = k * float(np.sqrt(X.shape[1] * var))
    if not np.isfinite(gamma):
        raise NumericalError(f"auto gamma undefined: gamma = k * sqrt(M * var(X)) = "
                             f"{gamma} is not finite")
    return gamma


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Validate and convert to a C-contiguous float64 2-D array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(1, -1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite values")
    return out


def as_point(v, d: int, name: str) -> np.ndarray:
    """One new point, a (d,) or (1, d) array, as a (1, d) :func:`as_matrix`;
    any other shape is a ValueError, never flattened into one point."""
    p = as_matrix(v, name)
    if p.shape[0] != 1:
        raise ValueError(f"{name} must be one point, got shape {p.shape}")
    if p.shape[1] != d:
        raise ValueError(f"{name} has dimension {p.shape[1]}, expected {d}")
    return p


def _index_array(idx, size: int, name: str) -> np.ndarray:
    """``idx`` as a 1-D intp array of indices into range(size).

    Negative or out-of-range values, fractions and bools are a ValueError
    that names the range, never wrapped, truncated or read as 0 and 1.  An
    array is checked by its dtype; anything else item by item, since an
    int array would already have turned True into 1.
    """
    if isinstance(idx, np.ndarray):
        a = np.atleast_1d(idx)
        ok = a.dtype.kind in "iu" or a.size == 0
    else:
        a = np.atleast_1d(np.asarray(idx, dtype=object))
        ok = all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in a.flat)
    if not (ok and a.ndim == 1 and (a.size == 0 or (a.min() >= 0 and a.max() < size))):
        raise ValueError(f"{name} indices must be integers in [0, {size})")
    return a.astype(np.intp, copy=False)


def _pair_products(xb: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Inner products <x_i, z_j> for all pairs by broadcast multiply-and-sum.

    The reference routine and the fallback of :func:`_fill`: the
    per-entry reduction order is independent of the block shape, so any
    sub-block agrees bit-for-bit with full assembly, at roughly sixty
    times the cost of gemm.  Chunked over rows so that the (rows x cols
    x d) buffer stays within ``_BLOCK_BUDGET`` elements.
    """
    nb, d = xb.shape
    mb = zb.shape[0]
    out = np.empty((nb, mb))
    step = max(1, _BLOCK_BUDGET // max(1, mb * d))
    for s in range(0, nb, step):
        out[s : s + step] = (xb[s : s + step, None, :] * zb[None, :, :]).sum(axis=2)
    return out


def _chunk_rows(m: int) -> int:
    """Rows of a chunk of at most ``_BLOCK_BUDGET`` entries of an m-column
    block, in whole tiles and at least one tile."""
    return max(_TILE, _BLOCK_BUDGET // max(1, m) // _TILE * _TILE)


def _panel_width(d: int) -> int:
    """Columns of a panel at feature dimension d: _TILE times 256 // d,
    clamped to 1..16 tiles (see the module docstring).

    It depends on d alone, never on how many columns a side has: a gemm's
    rounding follows its call shape, and only shapes fixed per d are ones
    the per-d self-check :func:`_tiles_exact` certifies.
    """
    return _TILE * min(max(256 // d, 1), 16)


def _x_tiles(a: np.ndarray, h: int) -> np.ndarray:
    """Rows of ``a`` zero-padded to a multiple of h, as (tiles, h, d)."""
    n, d = a.shape
    padded = np.zeros((-(-n // h) * h, d))
    padded[:n] = a
    return padded.reshape(-1, h, d)


def _z_tiles(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` zero-padded to a multiple of the panel width w of
    :func:`_panel_width` and transposed to (panels, d, w), the layout of
    the right-hand gemm operand: a plain NN call, about 2.5 times faster
    than multiplying by a transposed view.  Written in one pass, with no
    padded copy in between."""
    n, d = a.shape
    w = _panel_width(d)
    full = n // w * w
    panels = np.zeros((-(-n // w), d, w))
    panels[: full // w] = a[:full].reshape(-1, w, d).transpose(0, 2, 1)
    if full < n:
        panels[-1, :, : n - full] = a[full:].T
    return panels


def _tile_gemm(xt: np.ndarray, zt: np.ndarray, out=None) -> np.ndarray:
    """out[a, b] = xt[a] @ zt[b] for every pair of x tiles and column
    panels, in one batched matmul, into ``out`` when given.

    Each of the p*q gemm calls has the same shape and operand layout,
    whatever the number of tiles or panels and wherever it writes.
    """
    return np.matmul(xt[:, None], zt[None], out=out)


def _fill(x: np.ndarray, side: np.ndarray, m: int, out=None) -> np.ndarray:
    """<x_i, z_j> for the k rows of ``x`` and the m columns that ``side``
    holds in the layout of a :class:`_Side`, the one routine every inner
    product takes: written into ``out`` when given, else returned as a
    k x m array of its own, for panels a view of the gemm's scratch.

    Raw rows (the fallback) go to :func:`_pair_products`.  Panels have the
    width w = ``side.shape[2]``, and the rows are cut into tiles of height
    h: _TILE, or _VEC_ROWS for one row (a kernel vector), whose point then
    fills row 0 of a zero-padded tile.  One :func:`_tile_gemm` multiplies
    every row tile by every panel into a padded scratch, seen as (row
    tiles, h, panels, w), whose k x m corner holds the products.
    """
    if side.ndim == 2:
        pp = _pair_products(x, side)
    else:
        k = len(x)
        h = _VEC_ROWS if k == 1 else _TILE
        xt = _x_tiles(x, h)
        p, q, w = len(xt), len(side), side.shape[2]
        scratch = np.empty((p, h, q, w))
        _tile_gemm(xt, side, out=scratch.transpose(0, 2, 1, 3))
        pp = scratch.reshape(p * h, q * w)[:k, :m]
    if out is None:
        return pp
    out[...] = pp
    return out


def _tiles_exact(d: int) -> bool:
    """Whether :func:`_fill` gives an entry the same bits wherever it sits.

    X and Z each span two full panels of :func:`_panel_width` and a
    partial last one, so both cover every call shape in both roles.  In
    each of three rounds every row of X is one random vector x and every
    row of Z one random z, so every value computed must be the same: each
    entry of the product of X and Z, filled along :func:`_fill_chunks` as
    a block over all of Z is (its last chunk ends in a partial row tile,
    and every chunk in a partial panel), and the kernel-vector path in
    both roles: x in the 2-row tile against Z's panels, and z in it
    against X's.  That covers every tile row and every panel column.  The
    result is cached per feature dimension for the life of the process.
    """
    ok = _TILE_EXACT.get(d)
    if ok is None:
        rng = np.random.default_rng(d)
        w = _panel_width(d)
        ok = True
        for _ in range(3):
            X = np.tile(rng.standard_normal(d), (2 * w + 3, 1))
            Z = np.tile(rng.standard_normal(d), (2 * w + 5, 1))
            z_side = _z_tiles(Z)
            row, col = _fill(X[:1], z_side, len(Z)), _fill(Z[:1], _z_tiles(X), len(X))
            ok &= bool((row == row[0, 0]).all() and (col == row[0, 0]).all())
            for _, pp in _fill_chunks(np.arange(len(X)), X, z_side, len(Z)):
                ok &= bool((pp == row[0, 0]).all())
        _TILE_EXACT[d] = ok
    return _TILE_EXACT[d]


def _fill_chunks(rows, x: np.ndarray, layout: np.ndarray, m: int, out=None):
    """<x_i, z_j> over the ``rows`` of ``x`` and the m columns in
    ``layout``, filled by :func:`_fill` and yielded with its rows one chunk
    of :func:`_chunk_rows` over the padded columns at a time, in a slice of
    ``out`` when given and else an array of its own.  The one walk of a
    block, which the self-check :func:`_tiles_exact` replays."""
    step = _chunk_rows(m if layout.ndim == 2 else layout.shape[0] * layout.shape[2])
    for s in range(0, rows.size, step):
        r = rows[s : s + step]
        yield r, _fill(x[r], layout, m, None if out is None else out[s : s + step])


def _sq_dists(pp: np.ndarray, x_sq: np.ndarray, z_sq: np.ndarray) -> np.ndarray:
    """Overwrite the inner products ``pp`` with the squared distances
    x_sq_i + z_sq_j - 2 pp_ij, clamped at 0 against round-off; return it."""
    pp *= 2.0
    np.subtract(np.add.outer(x_sq, z_sq), pp, out=pp)
    np.maximum(pp, 0.0, out=pp)
    return pp


def _check_denominators(den) -> None:
    if np.any(den <= 0.0) or not np.all(np.isfinite(den)):
        raise NumericalError(
            "sne denominator underflowed to 0: bandwidth gamma too small for the data"
        )


def _norms(rows: np.ndarray) -> np.ndarray:
    """The squared norms of ``rows``, computed here only.  One above
    ``_SQ_MAX``, which could overflow a distance, is a
    :class:`NumericalError`, with no numpy warning.  One BLAS dot decides
    first whether any norm could: the sum of all the squares bounds every
    norm, and a dot that overflows returns inf without the warning an
    elementwise square gives, so rows whose squares sum to at most
    ``_SQ_MAX`` take no ``np.errstate``."""
    if np.vdot(rows, rows) <= _SQ_MAX:
        return (rows * rows).sum(axis=1)
    with np.errstate(over="ignore"):   # an overflow is the error below
        sq = (rows * rows).sum(axis=1)
    if sq.max() > _SQ_MAX:   # rows with no row have a dot of 0
        raise NumericalError("squared row norms are too large for a kernel distance: "
                             f"{sq.max():.3g} > {_SQ_MAX:.3g}")
    return sq


class _Side:
    """One sample set as a kernel argument: its ``rows``, and two values
    built on first use and kept: ``sq``, their squared norms by
    :func:`_norms`, and ``layout``, the column side of :func:`_fill` by the
    one layout rule: the panels of the rows (:func:`_z_tiles`), which blocks
    and kernel vectors share, or the raw rows when the self-check
    :func:`_tiles_exact` fails."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    @functools.cached_property
    def sq(self) -> np.ndarray:
        return _norms(self.rows)

    @functools.cached_property
    def layout(self) -> np.ndarray:
        return _z_tiles(self.rows) if _tiles_exact(self.rows.shape[1]) else self.rows

    def sub(self, idx) -> "_Side":
        """The rows ``idx``, with norms and a layout of their own."""
        return _Side(self.rows[idx])

    def sq_dists(self, x: np.ndarray) -> np.ndarray:
        """||x_i - z_j||^2 from each row of ``x`` to each row here, exact at
        any block shape: filled on this layout along :func:`_fill_chunks`,
        each chunk turned into distances by :func:`_sq_dists` in place."""
        x = _Side(x)
        out = np.empty((x.sq.size, self.sq.size))
        for r, pp in _fill_chunks(np.arange(x.sq.size), x.rows, self.layout, self.sq.size, out):
            _sq_dists(pp, x.sq[r], self.sq)
        return out


class KernelOperator:
    """Entry-on-demand view of the (optionally scaled) Gram matrix.

    Holds X and Z as two :class:`_Side` records, ``_x`` and ``_z``, whose
    rows are ``x_data`` and ``z_data``.  For the sne family it caches the
    per-row softmax denominators sum_{z' in Z} exp(-||x_i - z'||^2/gamma^2)
    the first time a row is touched.  ``eval_count`` tracks how many Gram
    entries have been requested through :meth:`block` / :meth:`entry` (sne
    denominators are internal to the kernel and not counted).
    """

    def __init__(self, x_data, z_data, spec: KernelSpec, scaled: bool = True):
        x, z = as_matrix(x_data, "X"), as_matrix(z_data, "Z")
        if x.shape[1] != z.shape[1]:
            raise ValueError(f"feature dimensions differ: X has {x.shape[1]}, Z has {z.shape[1]} "
                             "(rows and columns of one matrix: use fit_matrix(..., compat=...))")
        self.spec = spec
        self._x, self._z = _Side(x), _Side(z)
        if spec.family in ("rbf", "sne"):   # norms that could overflow fail before any product
            self._x.sq, self._z.sq
        n, m = self.shape
        self.scale = 1.0 / np.sqrt(n * m) if scaled else 1.0
        self._eval_count = 0
        if spec.family == "sne":
            self._sne_den = np.full(n, np.nan)

    x_data = property(lambda self: self._x.rows)
    z_data = property(lambda self: self._z.rows)

    @property
    def shape(self):
        return (len(self._x.rows), len(self._z.rows))

    @property
    def eval_count(self) -> int:
        return self._eval_count

    # -- evaluation ---------------------------------------------------

    def _kernel(self, pp, x: _Side, z: _Side, rows=slice(None)) -> np.ndarray:
        """kappa(x_i, z_j) over the ``rows`` of side ``x`` and every row of
        side ``z``, before sne normalization and scaling.

        The one place the family formulas live.  They overwrite ``pp``, the
        inner products <x_i, z_j>, and return it.  Only rbf and sne read the
        sides' squared norms (:func:`_sq_dists`).  A linear or poly value
        that overflows is a :class:`NumericalError`, for a block and a
        kernel vector alike; its callers run under :meth:`_quiet`, so numpy
        prints no warning first.
        """
        fam = self.spec.family
        if fam in ("rbf", "sne"):
            _sq_dists(pp, x.sq[rows], z.sq)
            pp /= -self.spec.gamma ** 2
            np.exp(pp, out=pp)
            return pp
        if fam == "poly":
            pp += self.spec.offset
            pp **= self.spec.degree
        if not np.isfinite(pp).all():
            formula = "(x'z + offset)^degree" if fam == "poly" else "x'z"
            raise NumericalError(f"{fam} kernel values are not finite: {formula} overflowed")
        return pp

    def _quiet(self):
        """The numpy error state that products and kernel values run in:
        linear and poly ones, whose overflow :meth:`_kernel` raises, with no
        numpy warning; rbf and sne ones in the caller's, as the norm cap of
        :func:`_norms` keeps every one of their products finite."""
        if self.spec.family in ("linear", "poly"):
            return np.errstate(over="ignore", invalid="ignore")
        return contextlib.nullcontext()

    def _kernel_chunks(self, rows, cols=None, out=None):
        """kappa over ``rows`` x ``cols`` (all of Z in order when None, else
        the sub-side Z[cols] with a layout built for this call), before sne
        normalization and scaling, yielded with its rows chunk by chunk along
        :func:`_fill_chunks`, while still in cache."""
        x, z = self._x, self._z if cols is None else self._z.sub(cols)
        for r, pp in _fill_chunks(rows, x.rows, z.layout, len(z.rows), out):
            yield r, self._kernel(pp, x, z, r)

    def block(self, rows, cols) -> np.ndarray:
        """Evaluate the sub-block G[rows][:, cols].

        ``rows`` and ``cols`` are integer indices into range(n) and
        range(m); anything else is a ValueError, raised before the request
        is counted in ``eval_count``.  The result is allocated once and
        filled chunk by chunk, each normalized (sne) and scaled while in
        cache.  For sne, a block whose columns are all of Z in order fills
        any missing softmax denominators from its own values.
        """
        n, m = self.shape
        rows = _index_array(rows, n, "row")
        cols = _index_array(cols, m, "column")
        self._eval_count += rows.size * cols.size
        out = np.empty((rows.size, cols.size))
        every_col = cols.size == m and bool((cols == np.arange(m)).all())
        with self._quiet():
            for r, vals in self._kernel_chunks(rows, None if every_col else cols, out):
                if self.spec.family == "sne":
                    vals /= self._sne_denominators(r, vals if every_col else None)[:, None]
                vals *= self.scale
        return out

    def entry(self, i: int, j: int) -> float:
        return float(self.block([i], [j])[0, 0])

    def materialize(self) -> np.ndarray:
        n, m = self.shape
        return self.block(np.arange(n), np.arange(m))

    def _sne_denominators(self, rows, num=None) -> np.ndarray:
        """Softmax denominators of ``rows``, computed on first touch.

        ``num``, when given, holds the unnormalized sne values of ``rows``
        over all of Z in column order, and the missing denominators are
        summed from it rather than evaluated again.  Otherwise they are
        evaluated in chunks against the layout of ``_z``.
        """
        missing = np.isnan(self._sne_den[rows])
        if missing.any():
            if num is not None:
                den = num[missing].sum(axis=1)
            else:
                den = np.concatenate([vals.sum(axis=1)
                                      for _, vals in self._kernel_chunks(rows[missing])])
            _check_denominators(den)
            self._sne_den[rows[missing]] = den
        return self._sne_den[rows]

    # -- new-point kernel vectors --------------------------------------

    def _point_kernel(self, v, other: _Side, name: str) -> np.ndarray:
        """kappa between one new point and every row of ``other``, the
        training side the point is not on, before sne normalization and
        scaling; ``name`` labels the point in error text."""
        point = _Side(as_point(v, other.rows.shape[1], name))
        if self.spec.family in ("rbf", "sne"):   # set before the product, as in __init__
            point.sq = _norms(point.rows)
        with self._quiet():
            pp = _fill(point.rows, other.layout, len(other.rows))
            # entrywise formulas: either argument order gives the same bits
            return self._kernel(pp, point, other)[0]

    def x_row(self, x_new) -> np.ndarray:
        """kappa(x_new, z_j) over the training Z, in this operator's scaling.

        For sne the softmax denominator is computed for x_new over the
        training Z, matching how training rows are normalized.
        """
        vals = self._point_kernel(x_new, self._z, "x_new")
        if self.spec.family == "sne":
            den = vals.sum()
            _check_denominators(den)
            vals /= den
        vals *= self.scale
        return vals

    def z_col(self, z_new) -> np.ndarray:
        """kappa(x_i, z_new) over the training X, in this operator's scaling.

        For sne the denominators stay those of the training Z set: a new
        z does not alter how existing rows are normalized.
        """
        vals = self._point_kernel(z_new, self._x, "z_new")
        if self.spec.family == "sne":
            vals /= self._sne_denominators(np.arange(self.shape[0]))
        vals *= self.scale
        return vals

    # -- operator algebra (used by iterative solvers) -------------------

    def _row_blocks(self):
        """(rows, G[rows, :]) over row ranges of at most _BLOCK_BUDGET Gram
        entries, in whole tiles: the one walk of matmat and rmatmat."""
        n, m = self.shape
        step, cols = _chunk_rows(m), np.arange(m)
        for s in range(0, n, step):
            rows = np.arange(s, min(s + step, n))
            yield rows, self.block(rows, cols)

    def matmat(self, W: np.ndarray) -> np.ndarray:
        out = np.empty((self.shape[0], W.shape[1]))
        for rows, g in self._row_blocks():
            out[rows] = g @ W
        return out

    def rmatmat(self, W: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[1], W.shape[1]))
        for rows, g in self._row_blocks():
            out += g.T @ W[rows]
        return out


@dataclass(frozen=True)
class GramMatrix:
    """Materialized Gram matrix with centering bookkeeping.

    When centered, the pre-centering statistics, in the units of
    ``values``, are retained for :func:`center_vector` to center new
    kernel vectors of the same scaling: ``row_means[j]`` is the mean of
    column j over rows (length m), ``col_means[i]`` of row i over columns.
    """

    values: np.ndarray
    centered: bool = False
    row_means: Optional[np.ndarray] = field(default=None, repr=False)
    col_means: Optional[np.ndarray] = field(default=None, repr=False)
    grand_mean: Optional[float] = None


def gram(spec: KernelSpec, X, Z, scaled: bool = True) -> GramMatrix:
    """Assemble the full Gram matrix g_ij = s * kappa(x_i, z_j)."""
    op = KernelOperator(X, Z, spec, scaled=scaled)
    return GramMatrix(op.materialize())


def center(g: GramMatrix) -> GramMatrix:
    """Double-center: subtract row and column means, add back the grand mean.

    Equivalent to centering both feature maps around their empirical
    means.  Idempotent: centering an already-centered matrix returns it
    unchanged (statistics from the first pass are what out-of-sample
    projection needs).
    """
    if g.centered:
        return g
    v = g.values
    row_means = v.mean(axis=0)  # length m
    col_means = v.mean(axis=1)  # length n
    grand = float(v.mean())
    centered = v - row_means[None, :] - col_means[:, None] + grand
    return GramMatrix(centered, True, row_means, col_means, grand)


def center_vector(k: np.ndarray, row_means: np.ndarray, grand_mean: float) -> np.ndarray:
    """Center a new kernel vector with training statistics: pass
    ``row_means`` for an x-side vector, ``col_means`` for a z-side one."""
    return k - k.mean() - row_means + grand_mean


def kernel_vector(spec: KernelSpec, x_new, Z) -> np.ndarray:
    """Raw kernel vector [kappa(x_new, z_j)]_j: :meth:`KernelOperator.x_row`
    of an unscaled operator on Z.  To center it, pass it to
    :func:`center_vector` with the statistics of a centered unscaled Gram."""
    x = as_point(x_new, as_matrix(Z, "Z").shape[1], "x_new")
    return KernelOperator(x, Z, spec, scaled=False).x_row(x)
