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

Every kernel family needs the inner products <x_i, z_j>.  They come from
a tile engine: the rows of X and Z are zero-padded to a multiple of
``_TILE`` and every pair of _TILE x d tiles is multiplied in one batched
gemm.  The tile shape is fixed because a gemm's rounding depends on the
shape of the call (its blocking, micro-kernel and edge handling), not
only on the two vectors: ``x @ z.T`` on a sub-block can differ in the last
bit from the same entry of the full product.  With one call shape every
entry is computed by the same sequence of operations wherever it sits.
A kernel vector (one new point, a one-row or a one-column block) needs
only one row of each tile product, so it takes a narrower call: the point
fills row 0 of a zero-padded 2 x d tile that multiplies the other side's
d x _TILE transposed tiles.  The gemm micro-kernel computes each entry
by the same sequence of operations at either height, and products
commute, so the same layout serves an x-side and a z-side vector.  One
row is not used because BLAS libraries hand a one-row product to gemv,
which rounds differently.  That still assumes the BLAS treats every
position of a tile, and both call heights, alike, so a self-check places
a few pairs at different tile positions once per process and feature
dimension; if any result differs, evaluation falls back to a broadcast
multiply-and-sum, which is exact at any shape but much slower.

A block is streamed: its n x m result is allocated once and filled one
chunk of whole row tiles at a time, at most ``_BLOCK_BUDGET`` entries or
one row tile, whichever is more.
The chunk's tile gemms write straight into its slice of the result, and
the family formula, the sne normalization and the scaling then run in
place while the chunk is still in cache.  A block therefore needs its
own 8*n*m bytes plus one chunk and the tiles of its columns, however
large it is; the Nystrom fit holds G[rows, :], G[:, cols] and little
else.  Chunk boundaries do not change a value: every entry still takes
the same gemm call and the same elementwise operations.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError

FAMILIES = ("linear", "rbf", "poly", "sne")

# rows per gemm tile
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
    """Bandwidth heuristic gamma = k * sqrt(M * var(X)) with M the column count."""
    X = as_matrix(X, "X")
    var = float(X.var())
    if var == 0.0:
        raise NumericalError("auto gamma undefined: training data has zero variance")
    return k * float(np.sqrt(X.shape[1] * var))


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Validate and convert to a C-contiguous float64 2-D array."""
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if out.ndim == 1:
        out = out.reshape(1, -1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite values")
    return out


def _pair_products(xb: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Inner products <x_i, z_j> for all pairs by broadcast multiply-and-sum.

    The reference routine and the fallback of :func:`_products`: the
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


def _x_tiles(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` zero-padded to a multiple of _TILE, as (tiles, _TILE, d)."""
    n, d = a.shape
    padded = np.zeros((-(-n // _TILE) * _TILE, d))
    padded[:n] = a
    return padded.reshape(-1, _TILE, d)


def _z_tiles(a: np.ndarray) -> np.ndarray:
    """Padded tiles of ``a`` transposed to (tiles, d, _TILE), the layout of
    the right-hand gemm operand: a plain NN call, about 2.5 times faster
    at this size than multiplying by a transposed view.  Written in one
    pass, with no padded copy in between."""
    n, d = a.shape
    full = n // _TILE * _TILE
    tiles = np.zeros((-(-n // _TILE), d, _TILE))
    tiles[: full // _TILE] = a[:full].reshape(-1, _TILE, d).transpose(0, 2, 1)
    if full < n:
        tiles[-1, :, : n - full] = a[full:].T
    return tiles


def _tile_gemm(xt: np.ndarray, zt: np.ndarray, out=None) -> np.ndarray:
    """out[a, b] = xt[a] @ zt[b] for every pair of x tiles and transposed z
    tiles, in one batched matmul, into ``out`` when given.

    Each of the p*q gemm calls has the same shape and operand layout,
    whatever the number of tiles on either side and wherever it writes.
    """
    return np.matmul(xt[:, None], zt[None], out=out)


def _vector_products(v: np.ndarray, tiles: np.ndarray, count: int) -> np.ndarray:
    """Inner products <v, a_j> of one point with the ``count`` rows a_j
    held in ``tiles``, the :func:`_z_tiles` layout of either side.

    ``v`` fills row 0 of a zero-padded _VEC_ROWS x d tile, and one
    :func:`_tile_gemm` multiplies it by every tile; row 0 of each product
    holds the same bits as the entries of a full tile product.  The
    product has only _VEC_ROWS entries per row of ``tiles``, so it is not
    chunked.
    """
    vt = np.zeros((1, _VEC_ROWS, v.size))
    vt[0, 0] = v
    return _tile_gemm(vt, tiles)[0, :, 0, :].reshape(-1)[:count]


def _fill_tiles(dest: np.ndarray, xt: np.ndarray, zt: np.ndarray) -> None:
    """Write <x_i, z_j> into ``dest`` from the :func:`_x_tiles` ``xt`` of
    its rows and the :func:`_z_tiles` ``zt`` of its columns.

    The gemms of whole tiles write straight into ``dest``, seen as
    (row tiles, _TILE, column tiles, _TILE).  A partial last row or column
    tile goes through a temporary of one tile row or column; its gemm
    calls have the same shape as the others.
    """
    k, m = dest.shape
    p, q = k // _TILE, m // _TILE
    kf, mf = p * _TILE, q * _TILE
    if p and q:
        tiles = dest[:kf, :mf].reshape(p, _TILE, q, _TILE)
        _tile_gemm(xt[:p], zt[:q], out=tiles.transpose(0, 2, 1, 3))
    if mf < m:
        dest[:, mf:] = _tile_gemm(xt, zt[q:])[:, 0].reshape(-1, _TILE)[:k, : m - mf]
    if kf < k:
        edge = _tile_gemm(xt[p:], zt[:q])[0].transpose(1, 0, 2)
        dest[kf:, :mf] = edge.reshape(_TILE, mf)[: k - kf]


def _tile_products(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inner products <x_i, z_j> for all pairs, from tile gemms alone.

    Pads both sides to whole tiles and lets :func:`_fill_tiles` evaluate
    every tile pair into the result.  A one-row or one-column result is a
    kernel vector and goes through :func:`_vector_products`.
    """
    n, m = x.shape[0], z.shape[0]
    if n == 1:
        return _vector_products(x[0], _z_tiles(z), m)[None, :]
    if m == 1:
        return _vector_products(z[0], _z_tiles(x), n)[:, None]
    out = np.empty((n, m))
    _fill_tiles(out, _x_tiles(x), _z_tiles(z))
    return out


def _tiles_exact(d: int) -> bool:
    """Whether :func:`_tile_products` gives an entry the same bits wherever
    it sits.

    Three pairs of random vectors each fill three rows of X and of Z, in
    different tiles and at different positions within a tile, among
    random filler rows.  Every copy of a pair's product must agree across
    the full product and the kernel-vector path in both roles: x in the
    narrow tile against Z's tiles, and z in it against X's.  The
    result is cached per feature dimension for the life of the process.
    """
    ok = _TILE_EXACT.get(d)
    if ok is None:
        rng = np.random.default_rng(d)
        X = rng.standard_normal((2 * _TILE, d))
        Z = rng.standard_normal((3 * _TILE, d))
        half = _TILE // 2
        slots = [([k, 2 * _TILE - 1 - k, half + k], [k, 3 * _TILE - 1 - k, _TILE + half + k])
                 for k in range(3)]
        for xs, zs in slots:
            X[xs] = rng.standard_normal(d)
            Z[zs] = rng.standard_normal(d)
        full = _tile_products(X, Z)
        ok = True
        for xs, zs in slots:
            got = [full[np.ix_(xs, zs)].ravel()]
            got += [_tile_products(X[i : i + 1], Z)[0, zs] for i in xs]
            got += [_tile_products(X, Z[j : j + 1])[xs, 0] for j in zs]
            ok &= np.unique(np.concatenate(got)).size == 1
        _TILE_EXACT[d] = bool(ok)
    return _TILE_EXACT[d]


def _products(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inner products <x_i, z_j> for all pairs, exact at any block shape.

    Uses :func:`_tile_products`, so an entry has the same bits in a full
    Gram matrix, a sub-block, a single entry or a kernel vector, unless
    the self-check :func:`_tiles_exact` fails for this feature dimension;
    then :func:`_pair_products` computes every entry instead, which is
    exact too, only slower.
    """
    if not _tiles_exact(x.shape[1]):
        return _pair_products(x, z)
    return _tile_products(x, z)


def _check_denominators(den) -> None:
    if np.any(den <= 0.0) or not np.all(np.isfinite(den)):
        raise NumericalError(
            "sne denominator underflowed to 0: bandwidth gamma too small for the data"
        )


class KernelOperator:
    """Entry-on-demand view of the (optionally scaled) Gram matrix.

    Caches squared row norms at construction and, for the sne family, the
    per-row softmax denominators sum_{z' in Z} exp(-||x_i - z'||^2/gamma^2)
    the first time a row is touched.  It keeps the gemm tiles of X and Z
    once built, and those of the last column subset it evaluated.
    ``eval_count`` tracks how many Gram entries have been requested through
    :meth:`block` / :meth:`entry` (sne denominators are internal to the
    kernel and not counted).
    """

    def __init__(self, x_data, z_data, spec: KernelSpec, scaled: bool = True):
        self.x_data = as_matrix(x_data, "x_data")
        self.z_data = as_matrix(z_data, "z_data")
        if self.x_data.shape[1] != self.z_data.shape[1]:
            raise ValueError(
                f"feature dimensions differ: X has {self.x_data.shape[1]}, "
                f"Z has {self.z_data.shape[1]} (rows and columns of one matrix: "
                "use fit_matrix(..., compat=...))"
            )
        self.spec = spec
        n, m = self.x_data.shape[0], self.z_data.shape[0]
        self.scale = 1.0 / np.sqrt(n * m) if scaled else 1.0
        self._eval_count = 0
        self._x_sq = self._z_sq = None
        if spec.family in ("rbf", "sne"):
            self._x_sq = (self.x_data * self.x_data).sum(axis=1)
            self._z_sq = (self.z_data * self.z_data).sum(axis=1)
        if spec.family == "sne":
            self._sne_den = np.full(n, np.nan)
        # _z_tiles of the training X and Z (see _training_tiles)
        self._train_tiles = {}
        # the last column subset tiled, and its tiles (see _column_tiles)
        self._cols_tiled = (None, None)

    @property
    def shape(self):
        return (self.x_data.shape[0], self.z_data.shape[0])

    @property
    def eval_count(self) -> int:
        return self._eval_count

    # -- evaluation ---------------------------------------------------

    def _kernel(self, pp, x_sq, z_sq) -> np.ndarray:
        """kappa(x_i, z_j) for all pairs, before sne normalization and scaling.

        The one place the family formulas live.  They overwrite ``pp``, the
        inner products <x_i, z_j>, and return it; ``x_sq``/``z_sq`` are the
        squared row norms (rbf and sne only).
        """
        fam = self.spec.family
        if fam == "poly":
            pp += self.spec.offset
            pp **= self.spec.degree
        elif fam in ("rbf", "sne"):
            pp *= 2.0
            np.subtract(np.add.outer(x_sq, z_sq), pp, out=pp)
            np.maximum(pp, 0.0, out=pp)  # clamp round-off
            pp /= -self.spec.gamma ** 2
            np.exp(pp, out=pp)
        return pp

    def _training_tiles(self, name: str) -> np.ndarray:
        """The :func:`_z_tiles` of the training side that a new point of
        ``name`` meets: Z for "x_new", X for "z_new".  Built once and kept:
        kernel vectors, blocks over all of Z and sne denominators reuse
        them."""
        if name not in self._train_tiles:
            self._train_tiles[name] = _z_tiles(self.z_data if name == "x_new" else self.x_data)
        return self._train_tiles[name]

    def _column_tiles(self, cols) -> np.ndarray:
        """The :func:`_z_tiles` of Z[cols], kept until another column
        subset is tiled: the Nystrom fit asks for the same sampled columns
        once per chunk of complement rows."""
        kept, tiles = self._cols_tiled
        if kept is None or not np.array_equal(kept, cols):
            tiles = _z_tiles(self.z_data[cols])
            self._cols_tiled = (cols.copy(), tiles)
        return tiles

    def _kernel_chunks(self, rows, cols=None, out=None):
        """kappa over ``rows`` x ``cols`` (all of Z in order when None),
        before sne normalization and scaling, one chunk of whole row tiles
        at a time.

        Yields each chunk's rows and values, a slice of ``out`` when given
        and else a new array, while they are still in cache.  A chunk holds
        at most ``_BLOCK_BUDGET`` entries or one row tile (:func:`_chunk_rows`);
        its tile gemms write into it and the family formula runs on it in
        place.  One-row and one-column blocks are kernel vectors and come
        in one chunk; a one-row block meets the same column tiles as any
        other block, Z's cached ones when it spans all of Z.
        """
        z_sq = self._z_sq
        if cols is not None and z_sq is not None:
            z_sq = z_sq[cols]
        n = rows.size
        m = self.z_data.shape[0] if cols is None else cols.size
        zt = z = None
        if m > 1 and _tiles_exact(self.z_data.shape[1]):
            zt = self._training_tiles("x_new") if cols is None else self._column_tiles(cols)
        else:
            z = self.z_data if cols is None else self.z_data[cols]
        step = _chunk_rows(m) if m > 1 else max(1, n)
        for s in range(0, n, step):
            r = rows[s : s + step]
            vals = np.empty((r.size, m)) if out is None else out[s : s + step]
            if zt is None:
                vals[...] = _products(self.x_data[r], z)
            elif n == 1:
                vals[0] = _vector_products(self.x_data[r[0]], zt, m)
            else:
                _fill_tiles(vals, _x_tiles(self.x_data[r]), zt)
            yield r, self._kernel(vals, None if z_sq is None else self._x_sq[r], z_sq)

    def block(self, rows, cols) -> np.ndarray:
        """Evaluate the sub-block G[rows][:, cols].

        The result is allocated once and filled chunk by chunk, each
        normalized (sne) and scaled while in cache.  For sne, a block whose
        columns are all of Z in order fills any missing softmax
        denominators from its own values.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.intp))
        self._eval_count += rows.size * cols.size
        out = np.empty((rows.size, cols.size))
        m = self.z_data.shape[0]
        every_col = cols.size == m and bool((cols == np.arange(m)).all())
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
        evaluated in chunks against Z's cached tiles.
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

    def _point_kernel(self, v, name: str) -> np.ndarray:
        """kappa between one new point and every training row of the other
        side, before sne normalization and scaling: a new x (``name``
        "x_new") against Z, a new z ("z_new") against X.  The tiles of that
        training side are kept for later kernel vectors."""
        v = np.asarray(v, dtype=np.float64).reshape(1, -1)
        if v.shape[1] != self.x_data.shape[1]:
            raise ValueError(f"{name} has dimension {v.shape[1]}, expected {self.x_data.shape[1]}")
        if not np.isfinite(v).all():
            raise ValueError(f"{name} contains non-finite values")
        data, sq = (self.z_data, self._z_sq) if name == "x_new" else (self.x_data, self._x_sq)
        if not _tiles_exact(v.shape[1]):
            pp = _pair_products(v, data)[0]
        else:
            pp = _vector_products(v[0], self._training_tiles(name), data.shape[0])
        v_sq = (v * v).sum(axis=1) if sq is not None else None
        # entrywise formulas: either argument order gives the same bits
        return self._kernel(pp[:, None], sq, v_sq)[:, 0]

    def x_row(self, x_new) -> np.ndarray:
        """kappa(x_new, z_j) over the training Z, in this operator's scaling.

        For sne the softmax denominator is computed for x_new over the
        training Z, matching how training rows are normalized.
        """
        vals = self._point_kernel(x_new, "x_new")
        if self.spec.family == "sne":
            den = vals.sum()
            _check_denominators(den)
            vals /= den
        return vals * self.scale

    def z_col(self, z_new) -> np.ndarray:
        """kappa(x_i, z_new) over the training X, in this operator's scaling.

        For sne the denominators stay those of the training Z set: a new
        z does not alter how existing rows are normalized.
        """
        vals = self._point_kernel(z_new, "z_new")
        if self.spec.family == "sne":
            vals /= self._sne_denominators(np.arange(self.x_data.shape[0]))
        return vals * self.scale

    # -- operator algebra (used by iterative solvers) -------------------

    def _row_chunks(self):
        """Row ranges of at most _BLOCK_BUDGET Gram entries, in whole tiles."""
        n, m = self.shape
        step = _chunk_rows(m)
        return (np.arange(s, min(s + step, n)) for s in range(0, n, step))

    def matmat(self, W: np.ndarray) -> np.ndarray:
        n, m = self.shape
        out = np.empty((n, W.shape[1]))
        cols = np.arange(m)
        for rows in self._row_chunks():
            out[rows] = self.block(rows, cols) @ W
        return out

    def rmatmat(self, W: np.ndarray) -> np.ndarray:
        n, m = self.shape
        out = np.zeros((m, W.shape[1]))
        cols = np.arange(m)
        for rows in self._row_chunks():
            out += self.block(rows, cols).T @ W[rows]
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

    @property
    def shape(self):
        return self.values.shape


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
    x = np.asarray(x_new, dtype=np.float64).reshape(1, -1)
    return KernelOperator(x, Z, spec, scaled=False).x_row(x[0])
