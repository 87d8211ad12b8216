"""Low-rank SVD solvers and the subsample-escalation benchmark.

All solvers accept a dense ndarray or an operator (:class:`MatrixOperator`,
:class:`aksvd.kernels.KernelOperator`) and return a :class:`SvdResult`
of fresh C-contiguous arrays, which a caller may keep, with columns
sorted by nonincreasing positive singular value.  An operator exposes
``shape``, ``block(rows, cols)``, ``materialize()`` and the products
``matmat(W)`` = G W and ``rmatmat(W)`` = G' W; solvers use nothing else.

The registry :data:`SOLVERS` names each solver's choice dataclass and
function, and :func:`solve` calls the function its entry names, with the
choice's fields as keywords; a new solver is therefore one choice class
and one ``SOLVERS`` line.

The asymmetric Nystrom method approximates the top singular triplets of an
N x M matrix from an n x m submatrix: it takes the SVD of the submatrix
and extends the singular vectors to all rows/columns through the sampled
column and row blocks, touching only O(N*m + n*M) entries of the matrix.
The symmetric Nystrom method is its special case on a symmetric submatrix.
The asymmetric method extends through :func:`_nystrom_extend`, the
symmetric ones through :func:`_sym_nystrom_extend`; :func:`sym_nystrom_svd`
forms only its sampled Grams B B'.  Every Nystrom method draws its sample
through :func:`_sample_indices`, so a sample larger than the side it is
drawn from is a ValueError, never capped.  A step cap only cuts
:func:`truncated_svd` short, so against a tsvd reference :func:`bench`'s
tsvd trial is the reference run.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalError
from .kernels import _index_array

# relative cutoff below which singular values count as numerically zero
_RANK_RTOL = 1e-12


class MatrixOperator:
    """Wrap a dense matrix behind the lazy-operator interface, counting
    how many entries are read through block access.  A product that is not
    finite, as from an infinite entry, is a :class:`NumericalError`."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("MatrixOperator expects a 2-D array")
        self._eval_count = 0

    @property
    def shape(self):
        return self.values.shape

    @property
    def eval_count(self) -> int:
        return self._eval_count

    def block(self, rows, cols) -> np.ndarray:
        """Entries at rows x cols; indices as for ``KernelOperator.block``,
        checked before the request is counted."""
        n, m = self.shape
        rows = _index_array(rows, n, "row")
        cols = _index_array(cols, m, "column")
        self._eval_count += rows.size * cols.size
        return self.values[np.ix_(rows, cols)]

    def materialize(self) -> np.ndarray:
        return self.values

    def matmat(self, W):
        with np.errstate(over="ignore", invalid="ignore"):   # _finite raises instead
            return _finite(self.values @ W)

    def rmatmat(self, W):
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(self.values.T @ W)


def as_operator(G):
    """Operators (anything with ``block``) pass through; arrays become a
    MatrixOperator."""
    return G if hasattr(G, "block") else MatrixOperator(G)


@dataclass
class SvdResult:
    """Rank-r factors U (N x r), lambdas (r,), V (M x r): what every solver
    returns, the Nystrom ones included.  ``iterations`` is the Krylov
    dimension of truncated SVD and the power count of randomized SVD."""

    u: np.ndarray
    lambdas: np.ndarray
    v: np.ndarray
    converged: bool = True
    iterations: int = 0

    @property
    def achieved_rank(self) -> int:
        return self.lambdas.shape[0]


# ---------------------------------------------------------------------------
# solver choices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    pass


@dataclass(frozen=True)
class Truncated:
    tol: float = 1e-10
    max_iter: Optional[int] = None


@dataclass(frozen=True)
class Randomized:
    oversample: int = 10
    power: int = 2
    seed: int = 0


@dataclass(frozen=True)
class SymNystrom:
    n_sub: int
    seed: int = 0


@dataclass(frozen=True)
class AsymNystrom:
    n_sub: int
    m_sub: int
    seed: int = 0


SolverChoice = Union[Dense, Truncated, Randomized, SymNystrom, AsymNystrom]


class SolverEntry(NamedTuple):
    """A registered solver: its choice dataclass, the name of its function
    (which takes every choice field as a keyword) and the field(s) that
    :func:`bench` escalates until the target accuracy is reached."""

    choice: type
    function: str
    knobs: Tuple[str, ...]


# The one solver registry: the names accepted by ``bench`` and the CLI.
# It holds classes and names only; :func:`solve` turns a choice into a
# call of the function its entry names.
SOLVERS = {
    "dense": SolverEntry(Dense, "dense_svd", ()),
    "tsvd": SolverEntry(Truncated, "truncated_svd", ()),
    "rsvd": SolverEntry(Randomized, "randomized_svd", ("oversample",)),
    "symnys": SolverEntry(SymNystrom, "sym_nystrom_svd", ("n_sub",)),
    "asymnys": SolverEntry(AsymNystrom, "asym_nystrom", ("n_sub", "m_sub")),
}

# bench's default: every solver but the dense reference eta is measured against
DEFAULT_BENCH_SOLVERS = tuple(name for name in SOLVERS if name != "dense")


def make_choice(name: str, **settings) -> SolverChoice:
    """The choice of registered solver ``name``, built from those of
    ``settings`` that are fields of its dataclass (the rest are ignored;
    fields not given keep their defaults)."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}; expected one of {', '.join(SOLVERS)}")
    cls = SOLVERS[name].choice
    return cls(**{f.name: settings[f.name] for f in fields(cls) if f.name in settings})


def _check_rank(r: int, shape) -> None:
    """The rank rule of every solver: an integer (not a bool) with
    1 <= r <= min(N, M)."""
    N, M = shape
    if isinstance(r, bool) or not isinstance(r, numbers.Integral):
        raise ValueError(f"rank must be an integer, got {r!r}")
    if not 1 <= r <= min(N, M):
        raise ValueError(f"rank {r} out of range for a {N}x{M} matrix")


def _finite(M: np.ndarray) -> np.ndarray:
    """``M``, whose entries must be finite before LAPACK decomposes it: an
    SVD can loop forever on an infinite entry.  A non-finite one, as from a
    kernel that overflowed, is a :class:`NumericalError`."""
    if not np.isfinite(M).all():
        raise NumericalError("matrix to decompose holds non-finite entries, "
                             "as from a kernel that overflowed")
    return M


def _positive_rank(s: np.ndarray) -> int:
    """How many of the nonincreasing singular values ``s`` are positive
    beyond round-off; a value that is not finite is a
    :class:`NumericalError`, never a rank of 0."""
    if not np.isfinite(s).all():
        raise NumericalError("singular values are not finite")
    return int(np.sum(s > _RANK_RTOL * s[0]))


def dense_svd(G, r: int) -> SvdResult:
    """Full LAPACK SVD, truncated to rank r: exact to working precision,
    and ``bench``'s reference wherever a truncated SVD cannot certify one."""
    op = as_operator(G)
    _check_rank(r, op.shape)
    u, s, vt = np.linalg.svd(_finite(op.materialize()), full_matrices=False)
    rr = min(r, _positive_rank(s))
    return SvdResult(u[:, :rr].copy(), s[:rr].copy(), vt[:rr].T.copy())


# ---------------------------------------------------------------------------
# truncated SVD (Golub-Kahan bidiagonalization, full reorthogonalization)
# ---------------------------------------------------------------------------

def _append_orthonormal(Q: np.ndarray, j: int, w: np.ndarray, cutoff: float, rng) -> float:
    """Orthogonalize ``w`` against Q[:, :j] and store it, normalized, in Q[:, j].

    Q[:, :j] must not span the whole space.  Classical Gram-Schmidt applied
    twice keeps the basis orthonormal to working precision.  Returns the
    norm of the orthogonalized ``w``; a norm at or below ``cutoff`` is a
    breakdown, where a random direction, orthogonalized the same way, takes
    its place and 0.0 is returned.
    """
    basis = Q[:, :j]
    for restart in (False, True):
        if restart:
            w = rng.standard_normal(Q.shape[0])
        for _ in range(2):
            w -= basis @ (basis.T @ w)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(w))
        if norm == np.inf:   # its squares overflowed: rescale by max|w|
            scale = np.abs(w).max()
            norm = scale * float(np.linalg.norm(w / scale))
        if restart or norm > cutoff:
            Q[:, j] = w / norm
            return 0.0 if restart else norm


def truncated_svd(G, r: int, tol: float = 1e-10, max_iter: Optional[int] = None) -> SvdResult:
    """Iterative top-r SVD via Lanczos bidiagonalization.

    Grows the Krylov subspace, fully reorthogonalized, until one of three
    rules stops it: the top-r Ritz residuals meet
    ||G' u_s - lambda_s v_s|| <= tol*lambda_1; the space spans the smaller
    side, where the factors are exact; or max_iter steps were taken, where
    the best iterate is returned with ``converged=False``.  The residual
    test runs every max(1, r // 4) steps from step r, whatever max_iter, so
    a run capped at b steps is the first b steps of the uncapped run; its
    pass counts only if :func:`_missed_none` finds no value above lambda_r
    missed, as one start vector can miss a copy of a repeated value.  The
    breakdown cutoff is relative to the largest alpha, so the steps do not
    depend on scale.  A NaN or negative ``tol``, which no residual can
    meet, and a ``max_iter`` below 1 are ValueErrors.
    """
    op = as_operator(G)
    N, M = op.shape
    _check_rank(r, op.shape)
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol}")
    if max_iter is not None and not max_iter >= 1:
        raise ValueError(f"max_iter must be None or >= 1, got {max_iter}")
    # iterate on G' when G is wide, so that the right Krylov space lies on
    # the smaller side and can span it entirely (exact at exhaustion)
    fwd, back, wide = op.matmat, op.rmatmat, M > N
    if wide:
        fwd, back, N, M = back, fwd, M, N
    kmax = min(max_iter or M, M)

    rng = np.random.default_rng(0x5EED)  # fixed start; contract carries no seed
    U = np.empty((N, kmax), order="F")
    V = np.empty((M, kmax + 1), order="F")
    alphas = np.zeros(kmax)
    betas = np.zeros(kmax)
    v = rng.standard_normal(M)
    V[:, 0] = v / np.linalg.norm(v)

    def ritz(k):
        P, s, Qt = np.linalg.svd(_finite(np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1)))
        return P, s, Qt, min(r, _positive_rank(s))

    k, converged, norm_est, every = 0, False, 0.0, max(1, r // 4)
    while k < kmax and not converged:
        w = fwd(V[:, k : k + 1])[:, 0]
        if k > 0:
            w -= betas[k - 1] * U[:, k - 1]
        alpha = alphas[k] = _append_orthonormal(U, k, w, _RANK_RTOL * norm_est, rng)
        norm_est = max(norm_est, alpha)
        k += 1
        if k == M:   # V[:, :M] spans the smaller side: G V = U B exactly
            converged = True
            break
        w = back(U[:, k - 1 : k])[:, 0] - alpha * V[:, k - 1]
        beta = betas[k - 1] = _append_orthonormal(V, k, w, _RANK_RTOL * norm_est, rng)
        if k >= r and (k - r) % every == 0:
            P, s, _, rr = ritz(k)
            converged = rr > 0 and bool(np.all(beta * np.abs(P[k - 1, :rr]) <= tol * s[0]))

    P, s, Qt, rr = ritz(k)
    left, right = U[:, :k] @ P[:, :rr], V[:, :k] @ Qt[:rr].T
    if converged and k < M:   # the residual test stopped it, not an exhausted space
        converged = _missed_none(fwd, back, left, s[:rr], right,
                                 (s[r - 1] if rr == r else 0.0) + max(tol, _RANK_RTOL) * s[0])
    if wide:
        left, right = right, left
    return SvdResult(left, s[:rr].copy(), right, converged=converged, iterations=k)


def _missed_none(fwd, back, U, lam, V, bound: float) -> bool:
    """Whether three block power steps on G - U diag(lam) V', from a fixed
    start of their own, find no singular value above ``bound``: the
    a-posteriori check of Halko, Martinsson and Tropp (2011, sec. 4.3)."""
    Q = np.random.default_rng(0xC4EC).standard_normal((V.shape[0], 4))
    for _ in range(3):
        Y = np.linalg.qr(fwd(Q) - U @ (lam[:, None] * (V.T @ Q)))[0]
        Q = np.linalg.qr(back(Y) - V @ (lam[:, None] * (U.T @ Y)))[0]
    return bool(np.linalg.norm(fwd(Q) - U @ (lam[:, None] * (V.T @ Q)), 2) <= bound)


# ---------------------------------------------------------------------------
# randomized SVD (range finder with power iterations)
# ---------------------------------------------------------------------------

def randomized_svd(G, r: int, oversample: int = 10, power: int = 2, seed: int = 0) -> SvdResult:
    """Halko-style randomized SVD; deterministic given the seed."""
    op = as_operator(G)
    N, M = op.shape
    _check_rank(r, op.shape)
    if oversample < 0 or power < 0:
        raise ValueError(f"oversample {oversample} and power {power} must be nonnegative")
    l = r + oversample
    if l > min(N, M):
        raise ValueError(f"rank {r} + oversample {oversample} exceeds min(N, M) = {min(N, M)}")
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((M, l))
    Q, _ = np.linalg.qr(op.matmat(omega))
    for _ in range(power):
        W, _ = np.linalg.qr(op.rmatmat(Q))
        Q, _ = np.linalg.qr(op.matmat(W))
    B = op.rmatmat(Q).T  # l x M
    P, s, Vt = np.linalg.svd(_finite(B), full_matrices=False)
    rr = min(r, _positive_rank(s))
    return SvdResult((Q @ P)[:, :rr].copy(), s[:rr].copy(), Vt[:rr].T.copy(), iterations=power)


# ---------------------------------------------------------------------------
# Nystrom methods
# ---------------------------------------------------------------------------

def _sample_indices(rng, total: int, count: int, given=None) -> np.ndarray:
    """Sorted sample indices into range(total): ``count`` drawn without
    replacement, or the ``given`` ones, which must be distinct integers in
    range (bools and fractions are rejected, not cast)."""
    if given is None:
        if not 1 <= count <= total:
            raise ValueError(f"subsample size {count} out of range [1, {total}]")
        return np.sort(rng.choice(total, size=count, replace=False))
    idx = np.sort(_index_array(given, total, "sample"))
    if idx.size == 0 or np.any(idx[1:] == idx[:-1]):
        raise ValueError(f"sample indices must be nonempty, distinct integers in [0, {total})")
    return idx


def _nystrom_lambdas(s_sub: np.ndarray, r: int) -> np.ndarray:
    """The top r of a sampled submatrix's singular values ``s_sub``, fewer
    than r of them positive being a :class:`NumericalError`."""
    rank = _positive_rank(s_sub)
    if rank < r:
        raise NumericalError(
            f"submatrix has {rank} positive singular values < requested {r}: "
            "increase the subsample (n_sub, m_sub)"
        )
    return s_sub[:r]


def _nystrom_extend(u: np.ndarray, v: np.ndarray, lam: np.ndarray,
                    n: int, m: int) -> SvdResult:
    """The Nystrom step: the extensions of the factors of a sampled n x m
    submatrix, u_s = G[:, cols] v_sub_s / lambda_s (N x r) and
    v_s = G[rows, :]' u_sub_s / lambda_s (M x r), unit-normalized and
    sign-fixed in pairs in place, and lambda~_s = sqrt(N*M/(n*m)) * lambda_s.
    """
    _unit_columns(u, v)
    _sign_fix_pairs(u, v)
    return SvdResult(u, np.sqrt((u.shape[0] * v.shape[0]) / (n * m)) * lam, v)


def _unit_columns(*factors: np.ndarray) -> None:
    """Scale every column of each extended factor to unit norm, in place; a
    column that is not finite is a NumericalError.  No column is zero: an
    extension's sampled rows are the sample's unit singular vectors."""
    norms = [np.linalg.norm(f, axis=0) for f in factors]
    if not all(np.isfinite(nrm).all() for nrm in norms):
        raise NumericalError("extended singular vectors are not finite, "
                             "as from a kernel that overflowed")
    for f, nrm in zip(factors, norms):
        f /= nrm[None, :]


def _sym_nystrom_extend(K: np.ndarray, extend, r: int) -> tuple:
    """The Nystrom step for the sampled n x n block K of a symmetric PSD
    N x N matrix: ``extend(w)``, the N x r product of its sampled columns
    with w = evecs / lambda of K's top r eigenpairs, unit-normalized and
    sign-fixed, and lambda~ = (N/n) * lambda, as :func:`_nystrom_extend`
    scales it.  A K that is not finite is a NumericalError."""
    evals, evecs = np.linalg.eigh(_finite(K))
    lam = _nystrom_lambdas(evals[::-1], r)
    u = extend(evecs[:, ::-1][:, :r] / lam[None, :])
    _unit_columns(u)
    _sign_fix_pairs(u)
    N, n = u.shape[0], K.shape[0]
    return u, np.sqrt((N * N) / (n * n)) * lam


def sym_nystrom_eig(K, n_sub: int, r: int, seed: int = 0, indices=None):
    """Nystrom eigendecomposition of a symmetric PSD N x N operator.

    Samples n_sub rows/columns, eigendecomposes the submatrix and extends:
    lambda_s -> (N/n) * lambda_s^(n),  u_s -> K[:, idx] u_s^(n) / lambda_s^(n),
    with columns unit-normalized and sign-fixed afterwards.  Returns the
    approximate eigenvectors and eigenvalues (U, lambdas).
    """
    op = as_operator(K)
    N, M = op.shape
    if N != M:
        raise ValueError("sym_nystrom_eig requires a square operator")
    _check_rank(r, op.shape)
    idx = _sample_indices(np.random.default_rng(seed), N, n_sub, indices)
    C = op.block(np.arange(N), idx)
    return _sym_nystrom_extend(C[idx], lambda w: C @ w, r)


def _sign_fix_pairs(U: np.ndarray, V: Optional[np.ndarray] = None):
    """Flip each (u_s, v_s) pair, in place, so the largest-|entry| of u_s
    is positive; with no V, flip the columns of U alone.  Among tied
    largest entries the first decides, as argmax keeps the first."""
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])] < 0
    U[:, flip] = -U[:, flip]
    if V is not None:
        V[:, flip] = -V[:, flip]


def asym_nystrom(op, n_sub: int, m_sub: int, r: int, seed: int = 0,
                 row_indices=None, col_indices=None) -> SvdResult:
    """Asymmetric Nystrom approximation of the top-r singular triplets.

    Takes the SVD of a uniformly sampled n_sub x m_sub submatrix (or of the
    given ``row_indices`` x ``col_indices`` one) and extends it through the
    sampled column block (for left vectors) and row block (for right
    vectors), as :func:`_nystrom_extend` sets out.  Only the submatrix plus
    its row and column complements are evaluated, never the full matrix.
    A submatrix with fewer than r positive singular values, as any sample
    smaller than r has, is a :class:`NumericalError`.
    """
    op = as_operator(op)
    N, M = op.shape
    _check_rank(r, op.shape)
    rng = np.random.default_rng(seed)
    rows = _sample_indices(rng, N, n_sub, row_indices)
    cols = _sample_indices(rng, M, m_sub, col_indices)

    G_nM = op.block(rows, np.arange(M))   # G[rows, :], holding G_sub
    G_sub = G_nM[:, cols]
    u_sub, s_sub, vt_sub = np.linalg.svd(_finite(G_sub), full_matrices=False)
    lam = _nystrom_lambdas(s_sub, r)
    v = G_nM.T @ (u_sub[:, :r] / lam[None, :])
    del G_nM   # hold one large block at a time: a lower peak memory

    # G[:, cols] v_sub / lambda from the rows of G_sub and G[comp_rows, cols]
    w = vt_sub[:r].T / lam[None, :]
    comp_rows = np.setdiff1d(np.arange(N), rows, assume_unique=True)
    u = np.empty((N, r))
    u[rows] = G_sub @ w
    u[comp_rows] = op.block(comp_rows, cols) @ w
    return _nystrom_extend(u, v, lam, rows.size, cols.size)


def sym_nystrom_svd(G, n_sub: int, r: int, seed: int = 0) -> SvdResult:
    """SVD baseline from two symmetric Nystrom eigenproblems.

    Applies the extension of sym_nystrom_eig to G G' and G' G separately
    (rows sampled with ``seed``, columns with ``seed + 1``; with B the
    sampled rows, only the n x n Gram B B' and the N x r extension G (B' w)
    are formed, and likewise for the columns), pairs factors by eigenvalue
    order, and sign-aligns each pair by u_s' G v_s >= 0 (the two
    eigenproblems carry no joint sign information); an overflow is a
    NumericalError.
    """
    op = MatrixOperator(as_operator(G).materialize())
    A = op.values
    N, M = A.shape
    _check_rank(r, A.shape)
    rows = _sample_indices(np.random.default_rng(seed), N, n_sub)
    cols = _sample_indices(np.random.default_rng(seed + 1), M, n_sub)
    sides = []
    for side, idx in ((op, rows), (MatrixOperator(A.T), cols)):   # G G', then G' G
        B = side.values[idx]
        with np.errstate(over="ignore", invalid="ignore"):   # _finite raises instead
            K = B @ B.T
        sides.append(_sym_nystrom_extend(K, lambda w: side.matmat(B.T @ w), r))
        del B, K   # hold one side's blocks at a time: a lower peak memory
    (u, lam), (v, _) = sides
    v[:, np.sum(u * op.matmat(v), axis=0) < 0] *= -1.0
    return SvdResult(u, np.sqrt(lam), v)


def solve(G, r: int, choice: SolverChoice) -> SvdResult:
    """Run a solver choice on a matrix or lazy operator.

    The only place a choice becomes a solver call: it calls the function
    its :data:`SOLVERS` entry names, with the choice's fields as keywords,
    and hands the :class:`SvdResult` on unchanged.  The function is looked
    up as a module global at call time, so a wrapper installed on the
    module sees every call, from ``fit`` and ``bench`` alike.
    """
    for entry in SOLVERS.values():
        if entry.choice is type(choice):
            return globals()[entry.function](G, r=r, **asdict(choice))
    raise ValueError(f"unknown solver choice {choice!r}")


# ---------------------------------------------------------------------------
# accuracy metric
# ---------------------------------------------------------------------------

def eta_metric(u_ref: np.ndarray, lambdas_ref: np.ndarray, v_ref: np.ndarray,
               u_approx: np.ndarray, v_approx: np.ndarray) -> float:
    """Singular-value-weighted misalignment of approximated singular vectors.

    eta = (1/r) sum_i w_i (1 - |u_i' u~_i| / ||u~_i||)
        + (1/r) sum_i w_i (1 - |v_i' v~_i| / ||v~_i||),

    with w_i the weights ``lambdas_ref``, the reference singular values;
    passing ``lambdas_ref / lambdas_ref.sum()`` gives normalized weights.
    Zero iff every approximated column is collinear with its reference;
    invariant to independent sign flips.
    """
    r = lambdas_ref.shape[0]
    if u_approx.shape != u_ref.shape or v_approx.shape != v_ref.shape:
        raise ValueError("reference and approximation shapes differ")
    u_norms = np.linalg.norm(u_approx, axis=0)
    v_norms = np.linalg.norm(v_approx, axis=0)
    if np.any(u_norms == 0.0) or np.any(v_norms == 0.0):
        raise NumericalError("approximated singular vector has zero norm")
    # clamp: round-off can push |cos| infinitesimally above 1
    cos_u = np.minimum(np.abs(np.sum(u_ref * u_approx, axis=0)) / u_norms, 1.0)
    cos_v = np.minimum(np.abs(np.sum(v_ref * v_approx, axis=0)) / v_norms, 1.0)
    return float((lambdas_ref * (1.0 - cos_u)).sum() / r + (lambdas_ref * (1.0 - cos_v)).sum() / r)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

@dataclass
class BenchTrial:
    solver: str
    n_sub: Optional[int]
    m_sub: Optional[int]
    oversample: Optional[int]
    eta: float
    seconds: float
    seed: int
    success: bool


@dataclass
class BenchReport:
    trials: List[BenchTrial] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    reference: str = "given"   # what eta was measured against: "tsvd", "dense" or "given"


# machine-precision tolerance of bench's tsvd trial, which runs once, and of a
# tsvd reference, certified by its residual test and missed-value check
_BENCH_TSVD_TOL = 1e-12


def _bench_reference(op, r: int) -> Tuple[SvdResult, str]:
    """bench's reference and its name: a truncated SVD that converges within
    a budget of min(N, M) // 8 > r Krylov steps, a fraction of a dense SVD's
    cost, else dense.  A capped run is a prefix of the uncapped one, so a
    tsvd reference is also the run bench's tsvd trial would take."""
    budget = min(op.shape) // 8
    if budget > r:
        res = truncated_svd(op, r, tol=_BENCH_TSVD_TOL, max_iter=budget)
        if res.converged:
            return res, "tsvd"
    return dense_svd(op.materialize(), r), "dense"


def _check_plan(solvers, epsilon, m_schedule, oversample_schedule, power, seed) -> None:
    """The shape-free rules of a :func:`bench` plan: a ValueError names the first broken."""
    if not epsilon >= 0:
        raise ValueError(f"bench epsilon must be >= 0, got {epsilon}")
    unknown = [name for name in solvers if name not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown bench solver(s) {', '.join(map(repr, unknown))}; "
                         f"expected names from {', '.join(SOLVERS)}")
    repeated = sorted({name for name in solvers if solvers.count(name) > 1})
    if repeated:
        raise ValueError(f"bench solver(s) named more than once: {', '.join(map(repr, repeated))}")
    for what, values, low in (("m_schedule entry", m_schedule, 1),
                              ("oversample_schedule entry", oversample_schedule or (), 0),
                              ("power", (power,), 0), ("seed", (seed,), 0)):
        for v in values:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"bench {what} must be an integer >= {low}, got {v!r}")


def _sample_counts(knobs, counts, shape) -> tuple:
    """The Nystrom ``counts`` among the registry ``knobs``, each capped by what
    it samples: n_sub by N, m_sub by M, a lone n_sub (both sides) by min(N, M)."""
    cap = {"n_sub": shape[0] if "m_sub" in knobs else min(shape), "m_sub": shape[1]}
    return tuple(min(k, cap[f]) for f, k in zip(knobs, counts) if f in cap)


def bench(G, r: int, epsilon: float, solvers: Sequence[str] = DEFAULT_BENCH_SOLVERS,
          m_schedule: Sequence[int] = (), seed: int = 0,
          reference=None, oversample_schedule: Optional[Sequence[int]] = None,
          power: int = 2) -> BenchReport:
    """Escalate each solver's fidelity knob until eta <= epsilon.

    The knobs are the registry's (:data:`SOLVERS`), with k = min(N, M): the
    oversampling count of randomized SVD steps through
    ``oversample_schedule`` in its order (an empty one or None means 5, 10,
    20, ... while r + p <= k, else k - r); the Nystrom subsample counts
    step through ``m_schedule``, each capped by :func:`_sample_counts`,
    deduplicated and ordered by the number of sampled entries (an empty one
    means max(r, k // 8), k // 4, k // 2 and k, those below 1 left out); a
    solver without a knob runs once, so every solver runs a trial.  Trial t
    of a solver uses seed ``seed + 1000 * t``.  Each trial records
    wall-clock seconds and the literal eta against the rank-r reference SVD:
    the ``reference`` supplied, else :func:`_bench_reference`'s, whose name
    the report records; a tsvd reference is also the tsvd trial, with its
    seconds.  A schedule exhausted without reaching epsilon is recorded as
    failure.  A bad plan is a ValueError raised before the reference SVD:
    unregistered or repeated names (the summary keeps one run per name), a
    NaN or negative ``epsilon``, an ``m_schedule`` count that is not an
    integer >= 1, an oversample, ``power`` or ``seed`` that is not an
    integer >= 0, an r that is not an integer in [1, min(N, M)], or
    r + p > min(N, M).
    """
    _check_plan(solvers, epsilon, m_schedule, oversample_schedule, power, seed)
    op = as_operator(G)
    k = min(op.shape)
    _check_rank(r, op.shape)
    if not m_schedule:
        m_schedule = [s for s in (max(r, k // 8), k // 4, k // 2, k) if s >= 1]
    if not oversample_schedule:   # 5, 10, 20, ... while r + p <= k, else k - r
        oversample_schedule = [p for p in (5 * 2 ** i for i in range(k.bit_length()))
                               if r + p <= k] or [k - r]
    for p in oversample_schedule:
        if r + p > k:
            raise ValueError(f"rank {r} + oversample {p} exceeds min(N, M) = {k}")
    report = BenchReport()
    if reference is None:
        t0 = time.perf_counter()
        ref, report.reference = _bench_reference(op, r)
        ref_seconds = time.perf_counter() - t0
        reference = ref.u, ref.lambdas, ref.v
    u_ref, lam_ref, v_ref = reference
    if lam_ref.shape[0] < r:
        raise NumericalError(f"reference rank {lam_ref.shape[0]} < requested {r}")

    for name in solvers:
        knobs = SOLVERS[name].knobs
        if knobs == ("oversample",):
            settings = [(p,) for p in oversample_schedule]
        else:
            settings = sorted({_sample_counts(knobs, (c, c), op.shape) for c in m_schedule},
                              key=math.prod)
        for trial_no, setting in enumerate(settings):
            trial_seed = seed + 1000 * trial_no
            choice = make_choice(name, tol=_BENCH_TSVD_TOL, power=power, seed=trial_seed,
                                 **dict(zip(knobs, setting)))
            t0 = time.perf_counter()
            try:
                if name == "tsvd" and report.reference == "tsvd":
                    res, seconds = ref, ref_seconds
                else:
                    res = solve(op, r, choice)
                    seconds = time.perf_counter() - t0
                eta = (float("inf") if res.achieved_rank < r
                       else eta_metric(u_ref, lam_ref, v_ref, res.u, res.v))
            except NumericalError:
                seconds, eta = time.perf_counter() - t0, float("inf")
            last = BenchTrial(solver=name, n_sub=getattr(choice, "n_sub", None),
                              m_sub=getattr(choice, "m_sub", None),
                              oversample=getattr(choice, "oversample", None), eta=eta,
                              seconds=seconds, seed=trial_seed, success=eta <= epsilon)
            report.trials.append(last)
            if last.success:
                break
        report.summary[name] = {
            "success": last.success,
            "eta": last.eta,
            "seconds": last.seconds if last.success else None,
            "knob": (last.n_sub or last.oversample) if last.success else None,
        }
    rsvd = report.summary.get("rsvd")
    if rsvd and rsvd["success"]:
        for name, s in report.summary.items():
            if s["success"] and s["seconds"]:
                s["speedup_vs_rsvd"] = rsvd["seconds"] / s["seconds"]
    return report
