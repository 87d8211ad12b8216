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
That still assumes the BLAS treats every position of a tile alike, so a
self-check places a few pairs at different tile positions once per
process and feature dimension; if any result differs, evaluation falls
back to a broadcast multiply-and-sum, which is exact at any shape but
much slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError

FAMILIES = ("linear", "rbf", "poly", "sne")

# rows per gemm tile: small, so that a one-point kernel vector pads little
_TILE = 16

# cap on float64 elements of one product temporary (~32 MB): the tile-product
# output of the engine, or the broadcast buffer of the fallback
_BLOCK_BUDGET = 2 ** 22

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
            if self.gamma is None or not self.gamma > 0:
                raise ValueError(f"{self.family} kernel requires gamma > 0, got {self.gamma}")
        if self.family == "poly" and self.degree < 1:
            raise ValueError(f"poly kernel requires degree >= 1, got {self.degree}")

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


def _x_tiles(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` zero-padded to a multiple of _TILE, as (tiles, _TILE, d)."""
    n, d = a.shape
    padded = np.zeros((-(-n // _TILE) * _TILE, d))
    padded[:n] = a
    return padded.reshape(-1, _TILE, d)


def _z_tiles(a: np.ndarray) -> np.ndarray:
    """Padded tiles of ``a`` transposed to (tiles, d, _TILE), the layout of
    the right-hand gemm operand: a plain NN call, about 2.5 times faster
    at this size than multiplying by a transposed view."""
    return np.ascontiguousarray(_x_tiles(a).transpose(0, 2, 1))


def _tile_gemm(xt: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """out[a, b] = xt[a] @ zt[b] for every pair of x tiles and transposed z
    tiles, in one batched matmul.

    Each of the p*q gemm calls has the same shape and operand layout,
    whatever the number of tiles on either side.
    """
    return np.matmul(xt[:, None], zt[None])


def _tile_products(x: np.ndarray, z: np.ndarray, xt=None, zt=None) -> np.ndarray:
    """Inner products <x_i, z_j> for all pairs, from tile gemms alone.

    Pads both sides to whole tiles (or takes the padded tiles ``xt``/``zt``
    the caller kept) and evaluates every tile pair with :func:`_tile_gemm`.
    A one-row or one-column result keeps only that row or column of each
    tile product.  Chunked over tiles so that one product stays within
    ``_BLOCK_BUDGET`` elements.
    """
    n, m = x.shape[0], z.shape[0]
    xt = _x_tiles(x) if xt is None else xt
    zt = _z_tiles(z) if zt is None else zt
    p, q = xt.shape[0], zt.shape[0]
    qstep = max(1, min(q, _BLOCK_BUDGET // _TILE ** 2))
    pstep = max(1, _BLOCK_BUDGET // (qstep * _TILE ** 2))
    if n == 1:
        out = np.empty((1, q * _TILE))
        dest = out.reshape(q, _TILE)
    elif m == 1:
        out = np.empty((p * _TILE, 1))
        dest = out.reshape(p, _TILE)
    else:
        out = np.empty((p * _TILE, q * _TILE))
        dest = out.reshape(p, _TILE, q, _TILE)
    for s in range(0, p, pstep):
        for t in range(0, q, qstep):
            g = _tile_gemm(xt[s : s + pstep], zt[t : t + qstep])
            if n == 1:
                dest[t : t + qstep] = g[0, :, 0, :]
            elif m == 1:
                dest[s : s + pstep] = g[:, 0, :, 0]
            else:
                dest[s : s + pstep, :, t : t + qstep] = g.transpose(0, 2, 1, 3)
    return out[:n, :m]


def _tiles_exact(d: int) -> bool:
    """Whether :func:`_tile_products` gives an entry the same bits wherever
    it sits.

    Three pairs of random vectors each fill three rows of X and of Z, in
    different tiles and at different positions within a tile, among
    random filler rows.  Every copy of a pair's product must agree across
    the full product, the one-row path and the one-column path.  The
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


def _products(x: np.ndarray, z: np.ndarray, xt=None, zt=None) -> np.ndarray:
    """Inner products <x_i, z_j> for all pairs, exact at any block shape.

    Uses :func:`_tile_products`, so an entry has the same bits in a full
    Gram matrix, a sub-block, a single entry or a kernel vector, unless
    the self-check :func:`_tiles_exact` fails for this feature dimension;
    then :func:`_pair_products` computes every entry instead, which is
    exact too, only slower.
    """
    if not _tiles_exact(x.shape[1]):
        return _pair_products(x, z)
    return _tile_products(x, z, xt, zt)


def _check_denominators(den) -> None:
    if np.any(den <= 0.0) or not np.all(np.isfinite(den)):
        raise NumericalError(
            "sne denominator underflowed to 0: bandwidth gamma too small for the data"
        )


class KernelOperator:
    """Entry-on-demand view of the (optionally scaled) Gram matrix.

    Caches squared row norms at construction and, for the sne family, the
    per-row softmax denominators sum_{z' in Z} exp(-||x_i - z'||^2/gamma^2)
    the first time a row is touched.  ``eval_count`` tracks how many Gram
    entries have been requested through :meth:`block` / :meth:`entry`
    (sne denominators are internal to the kernel and not counted).
    """

    def __init__(self, x_data, z_data, spec: KernelSpec, scaled: bool = True):
        self.x_data = as_matrix(x_data, "x_data")
        self.z_data = as_matrix(z_data, "z_data")
        if self.x_data.shape[1] != self.z_data.shape[1]:
            raise ValueError(
                f"feature dimensions differ: X has {self.x_data.shape[1]}, "
                f"Z has {self.z_data.shape[1]} (use a compatibility matrix)"
            )
        self.spec = spec
        self.scaled = scaled
        n, m = self.x_data.shape[0], self.z_data.shape[0]
        self.scale = 1.0 / np.sqrt(n * m) if scaled else 1.0
        self._eval_count = 0
        self._x_sq = self._z_sq = None
        if spec.family in ("rbf", "sne"):
            self._x_sq = (self.x_data * self.x_data).sum(axis=1)
            self._z_sq = (self.z_data * self.z_data).sum(axis=1)
        if spec.family == "sne":
            self._sne_den = np.full(n, np.nan)
        # padded tiles of the training sets, built by the first x_row / z_col
        self._train_tiles = {}

    @property
    def shape(self):
        return (self.x_data.shape[0], self.z_data.shape[0])

    @property
    def eval_count(self) -> int:
        return self._eval_count

    # -- evaluation ---------------------------------------------------

    def _kernel(self, x, z, x_sq, z_sq, xt=None, zt=None) -> np.ndarray:
        """kappa(x_i, z_j) for all pairs, before sne normalization and scaling.

        The one place the family formulas live; ``x_sq``/``z_sq`` are the
        squared row norms (rbf and sne only), ``xt``/``zt`` optional padded
        tiles of x or z for :func:`_products`.
        """
        pp = _products(x, z, xt, zt)
        fam = self.spec.family
        if fam == "linear":
            return pp
        if fam == "poly":
            return (pp + self.spec.offset) ** self.spec.degree
        d2 = np.add.outer(x_sq, z_sq)
        pp *= 2.0
        d2 -= pp
        np.maximum(d2, 0.0, out=d2)  # clamp round-off
        d2 /= -self.spec.gamma ** 2
        return np.exp(d2, out=d2)

    def _apply_scale(self, vals: np.ndarray) -> np.ndarray:
        return vals * self.scale if self.scaled else np.ascontiguousarray(vals)

    def block(self, rows, cols) -> np.ndarray:
        """Evaluate the sub-block G[rows][:, cols].

        For sne, a block whose columns are all of Z in order fills any
        missing softmax denominators from its own values.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.intp))
        self._eval_count += rows.size * cols.size
        norms = (None, None) if self._x_sq is None else (self._x_sq[rows], self._z_sq[cols])
        vals = self._kernel(self.x_data[rows], self.z_data[cols], *norms)
        if self.spec.family == "sne":
            m = self.z_data.shape[0]
            every_col = cols.size == m and np.array_equal(cols, np.arange(m))
            vals /= self._sne_denominators(rows, vals if every_col else None)[:, None]
        return self._apply_scale(vals)

    def entry(self, i: int, j: int) -> float:
        return float(self.block([i], [j])[0, 0])

    def materialize(self) -> np.ndarray:
        n, m = self.shape
        return self.block(np.arange(n), np.arange(m))

    def _sne_denominators(self, rows, num=None) -> np.ndarray:
        """Softmax denominators of ``rows``, computed on first touch.

        ``num``, when given, holds the unnormalized sne values of ``rows``
        over all of Z in column order, and the missing denominators are
        summed from it rather than evaluated again.
        """
        missing = np.isnan(self._sne_den[rows])
        if missing.any():
            if num is not None:
                den = num[missing].sum(axis=1)
            else:
                todo = rows[missing]
                den = np.empty(todo.size)
                step = max(1, _BLOCK_BUDGET // self.z_data.shape[0])
                for s in range(0, todo.size, step):
                    r = todo[s : s + step]
                    den[s : s + step] = self._kernel(self.x_data[r], self.z_data,
                                                     self._x_sq[r], self._z_sq).sum(axis=1)
            _check_denominators(den)
            self._sne_den[rows[missing]] = den
        return self._sne_den[rows]

    # -- new-point kernel vectors --------------------------------------

    def _tiles_of(self, side: str):
        """Padded tiles of the training X or Z, kept for later kernel
        vectors; None when the engine has fallen back."""
        data = self.x_data if side == "x" else self.z_data
        if not _tiles_exact(data.shape[1]):
            return None
        if side not in self._train_tiles:
            self._train_tiles[side] = _x_tiles(data) if side == "x" else _z_tiles(data)
        return self._train_tiles[side]

    def _new_point(self, v, name: str):
        v = np.asarray(v, dtype=np.float64).reshape(1, -1)
        if v.shape[1] != self.x_data.shape[1]:
            raise ValueError(f"{name} has dimension {v.shape[1]}, expected {self.x_data.shape[1]}")
        return v, (v * v).sum(axis=1) if self._x_sq is not None else None

    def x_row(self, x_new) -> np.ndarray:
        """kappa(x_new, z_j) over the training Z, in this operator's scaling.

        For sne the softmax denominator is computed for x_new over the
        training Z, matching how training rows are normalized.
        """
        x, x_sq = self._new_point(x_new, "x_new")
        vals = self._kernel(x, self.z_data, x_sq, self._z_sq, zt=self._tiles_of("z"))[0]
        if self.spec.family == "sne":
            den = vals.sum()
            _check_denominators(den)
            vals /= den
        return self._apply_scale(vals)

    def z_col(self, z_new) -> np.ndarray:
        """kappa(x_i, z_new) over the training X, in this operator's scaling.

        For sne the denominators stay those of the training Z set: a new
        z does not alter how existing rows are normalized.
        """
        z, z_sq = self._new_point(z_new, "z_new")
        vals = self._kernel(self.x_data, z, self._x_sq, z_sq, xt=self._tiles_of("x"))[:, 0]
        if self.spec.family == "sne":
            vals /= self._sne_denominators(np.arange(self.x_data.shape[0]))
        return self._apply_scale(vals)

    # -- operator algebra (used by iterative solvers) -------------------

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.matmat(np.asarray(w).reshape(-1, 1))[:, 0]

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return self.rmatmat(np.asarray(w).reshape(-1, 1))[:, 0]

    def _row_chunks(self):
        """Row ranges of at most _BLOCK_BUDGET Gram entries, in whole tiles."""
        n, m = self.shape
        step = max(_TILE, _BLOCK_BUDGET // m // _TILE * _TILE)
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
    """Materialized Gram matrix with scaling/centering bookkeeping.

    When centered, the pre-centering statistics are retained so that
    out-of-sample kernel vectors can be centered consistently:
    ``row_means[j]`` is the mean of column j taken over rows (length m),
    ``col_means[i]`` the mean of row i over columns (length n).
    """

    values: np.ndarray
    scaled: bool
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
    return GramMatrix(op.materialize(), scaled=scaled)


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
    return GramMatrix(centered, g.scaled, True, row_means, col_means, grand)


def center_vector(k: np.ndarray, row_means: np.ndarray, grand_mean: float) -> np.ndarray:
    """Center a new x-side kernel vector with training statistics."""
    return k - k.mean() - row_means + grand_mean


def kernel_vector(spec: KernelSpec, x_new, Z, centering: Optional[GramMatrix] = None) -> np.ndarray:
    """Raw kernel vector [kappa(x_new, z_j)]_j, optionally centered.

    If ``centering`` is a centered GramMatrix its statistics are applied
    (rescaled to raw units when the Gram was assembled scaled).
    """
    op = KernelOperator(np.asarray(x_new, dtype=np.float64).reshape(1, -1), Z, spec, scaled=False)
    k = op.x_row(np.asarray(x_new, dtype=np.float64).reshape(-1))
    if centering is not None:
        if not centering.centered:
            raise ValueError("centering GramMatrix is not centered")
        n, m = centering.shape
        s = 1.0 / np.sqrt(n * m) if centering.scaled else 1.0
        k = center_vector(k, centering.row_means / s, centering.grand_mean / s)
    return k
