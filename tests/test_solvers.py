import inspect
import json
import math
import re
import tracemalloc
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import sign_fix_pairs_loop

import aksvd
import aksvd.kernels as kernels_module
import aksvd.solvers as solvers_module
from aksvd.cli import main
from aksvd.errors import NumericalError
from aksvd.kernels import KernelOperator, KernelSpec
from aksvd.ksvd import fit
from aksvd.solvers import (
    DEFAULT_BENCH_SOLVERS,
    SOLVERS,
    MatrixOperator,
    as_operator,
    asym_nystrom,
    bench,
    dense_svd,
    eta_metric,
    make_choice,
    randomized_svd,
    sym_nystrom_eig,
    sym_nystrom_svd,
    truncated_svd,
)


def random_matrix(rng, n, m, decay=None):
    if decay is None:
        return rng.standard_normal((n, m))
    # controlled spectrum: singular values decay geometrically, or s_k = decay(k)
    r = min(n, m)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((m, r)))
    s = decay(np.arange(r)) if callable(decay) else decay ** np.arange(r)
    return (u * s) @ v.T


def eta_vs_dense(A, res, r):
    ref = dense_svd(A, r)
    return eta_metric(ref.u, ref.lambdas, ref.v, res.u, res.v)


# ---------------------------------------------------------------------------
# truncated SVD
# ---------------------------------------------------------------------------

def test_tsvd_diag():
    res = truncated_svd(np.diag([3.0, 2.0, 1.0]), r=2)
    assert np.allclose(res.lambdas, [3.0, 2.0])
    for s in range(2):
        e = np.zeros(3)
        e[s] = 1.0
        assert abs(abs(res.u[:, s]) @ e) == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(res.v[:, s]) @ e) == pytest.approx(1.0, abs=1e-10)


def test_tsvd_matches_dense_oracle():
    rng = np.random.default_rng(0)
    A = random_matrix(rng, 20, 15)
    res = truncated_svd(A, r=5, tol=1e-12)
    assert res.converged
    assert eta_vs_dense(A, res, 5) <= 1e-8


def test_tsvd_orthonormal_and_residual_contract():
    rng = np.random.default_rng(1)
    for shape in ((25, 18), (18, 25)):  # tall and wide
        A = random_matrix(rng, *shape, decay=0.7)
        res = truncated_svd(A, r=6, tol=1e-10)
        assert np.allclose(res.u.T @ res.u, np.eye(6), atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(6), atol=1e-10)
        for s in range(6):
            r1 = np.linalg.norm(A @ res.v[:, s] - res.lambdas[s] * res.u[:, s])
            r2 = np.linalg.norm(A.T @ res.u[:, s] - res.lambdas[s] * res.v[:, s])
            assert max(r1, r2) <= 1e-10 * res.lambdas[0] + 1e-12


def test_tsvd_rank_deficient_reports_achieved_rank():
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 10, 8)[:, :2] @ rng.standard_normal((2, 8))  # rank 2
    res = truncated_svd(A, r=3)
    assert res.achieved_rank == 2
    assert res.lambdas.shape == (2,)


def test_tsvd_nonconvergence_returns_best_iterate():
    rng = np.random.default_rng(3)
    A = random_matrix(rng, 30, 30, decay=0.95)
    res = truncated_svd(A, r=5, tol=1e-14, max_iter=6)
    assert not res.converged
    assert res.u.shape[1] >= 1
    # a budget of no step is refused, not run as one step
    with pytest.raises(ValueError, match="max_iter must be None or >= 1, got 0"):
        truncated_svd(A, r=5, max_iter=0)


@pytest.mark.parametrize("tol", [np.nan, -1e-10])
def test_tsvd_rejects_a_tol_no_residual_can_meet(tol):
    # such a tol would run the Krylov space to exhaustion without a word
    A = np.random.default_rng(5).standard_normal((12, 9))
    with pytest.raises(ValueError, match="tol must be a number >= 0"):
        truncated_svd(A, r=2, tol=tol)


def test_tsvd_on_lazy_operator():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 4))
    Z = rng.standard_normal((20, 4))
    op = KernelOperator(X, Z, KernelSpec.rbf(2.0))
    res = truncated_svd(op, r=4, tol=1e-12)
    assert eta_vs_dense(op.materialize(), res, 4) <= 1e-8


def _edge_matrices():
    rng = np.random.default_rng(7)
    return {
        "zeros5x4": np.zeros((5, 4)),
        "rank1_6x9": np.outer(rng.standard_normal(6), rng.standard_normal(9)),
        "row1x7": rng.standard_normal((1, 7)),
        "col7x1": rng.standard_normal((7, 1)),
        "rank2_8x20": rng.standard_normal((8, 2)) @ rng.standard_normal((2, 20)),
        "rank2_20x8": rng.standard_normal((20, 2)) @ rng.standard_normal((2, 8)),
    }


# (matrix, r, max_iter) -> (achieved_rank, converged, iterations).  The
# expected values were recorded from the implementation that preceded the
# single-loop rewrite (per-vector reorthogonalization, transposed recursion
# for wide inputs); the rewrite must reproduce them.  The cases reach the
# zero matrix, breakdown restarts, exhaustion on either side, one-row and
# one-column inputs, and wide inputs under a step budget.
_TSVD_EDGE_TABLE = {
    ("zeros5x4", 1, None): (0, True, 4),
    ("zeros5x4", 1, 1): (0, False, 1),
    ("zeros5x4", 1, 2): (0, False, 2),
    ("zeros5x4", 3, None): (0, True, 4),
    ("zeros5x4", 3, 1): (0, False, 1),
    ("zeros5x4", 3, 2): (0, False, 2),
    ("rank1_6x9", 1, None): (1, True, 2),
    ("rank1_6x9", 1, 1): (1, False, 1),
    ("rank1_6x9", 1, 2): (1, True, 2),
    ("rank1_6x9", 3, None): (1, True, 3),
    ("rank1_6x9", 3, 1): (1, False, 1),
    ("rank1_6x9", 3, 2): (1, False, 2),
    ("row1x7", 1, None): (1, True, 1),
    ("row1x7", 1, 1): (1, True, 1),
    ("row1x7", 1, 2): (1, True, 1),
    ("col7x1", 1, None): (1, True, 1),
    ("col7x1", 1, 1): (1, True, 1),
    ("col7x1", 1, 2): (1, True, 1),
    ("rank2_8x20", 1, None): (1, True, 3),
    ("rank2_8x20", 1, 1): (1, False, 1),
    ("rank2_8x20", 1, 2): (1, False, 2),
    ("rank2_8x20", 3, None): (2, True, 3),
    ("rank2_8x20", 3, 1): (1, False, 1),
    ("rank2_8x20", 3, 2): (2, False, 2),
    ("rank2_20x8", 1, None): (1, True, 3),
    ("rank2_20x8", 1, 1): (1, False, 1),
    ("rank2_20x8", 1, 2): (1, False, 2),
    ("rank2_20x8", 3, None): (2, True, 3),
    ("rank2_20x8", 3, 1): (1, False, 1),
    ("rank2_20x8", 3, 2): (2, False, 2),
}


@pytest.mark.parametrize("case", sorted(_TSVD_EDGE_TABLE, key=str), ids=str)
def test_tsvd_edge_table(case):
    name, r, max_iter = case
    A = _edge_matrices()[name]
    res = truncated_svd(A, r, max_iter=max_iter)
    assert (res.achieved_rank, res.converged, res.iterations) == _TSVD_EDGE_TABLE[case]
    rr = res.achieved_rank
    assert res.u.shape == (A.shape[0], rr) and res.v.shape == (A.shape[1], rr)
    assert res.lambdas.shape == (rr,)
    if res.converged and rr:
        # converged factors are the exact top triplets of these small inputs
        ref = dense_svd(A, r)
        assert np.allclose(res.lambdas, ref.lambdas, rtol=1e-10, atol=1e-12)
        assert np.allclose(res.u.T @ res.u, np.eye(rr), atol=1e-12)
        assert np.allclose(res.v.T @ res.v, np.eye(rr), atol=1e-12)


@pytest.mark.parametrize("shape", [(9, 6), (6, 9)])
def test_tsvd_exhaustion_ends_after_the_forward_product(shape):
    # a Krylov space that spans the smaller side ends the loop: the last
    # step takes no back product, so one side sees min(N, M) products and
    # the other one fewer (tol 0 keeps the residual test from stopping it)
    A = np.random.default_rng(11).standard_normal(shape)
    calls = {"matmat": 0, "rmatmat": 0}

    class Counting(MatrixOperator):
        def matmat(self, W):
            calls["matmat"] += 1
            return super().matmat(W)

        def rmatmat(self, W):
            calls["rmatmat"] += 1
            return super().rmatmat(W)

    res = truncated_svd(Counting(A), r=2, tol=0.0)
    assert res.converged and res.iterations == 6
    assert np.allclose(res.lambdas, dense_svd(A, 2).lambdas, rtol=1e-12)
    fwd, back = ("matmat", "rmatmat") if shape[0] >= shape[1] else ("rmatmat", "matmat")
    assert (calls[fwd], calls[back]) == (6, 5)


def test_tsvd_finds_a_singular_value_whose_square_overflows():
    # sigma_1 = 1e200 is a finite double, its square is not: the Lanczos
    # norm rescales instead of overflowing, with no numpy warning
    res = truncated_svd(np.array([[1e200, 0.0], [0.0, 1.0]]), 2, tol=1e-12)
    assert res.converged
    assert res.lambdas.shape == (1,)   # 1 is round-off beside 1e200
    assert res.lambdas[0] == pytest.approx(1e200, rel=1e-12)
    assert np.allclose(np.abs(res.u[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(res.v[:, 0]), [1.0, 0.0])


def repeated_top(n, decay, seed=0):
    """U diag(1, 1, 1, decay, decay^2, ...) V' with Haar-random U and V: a
    top singular value repeated three times."""
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return (U * np.concatenate([[1.0, 1.0], decay ** np.arange(n - 2)])) @ V.T


@pytest.mark.parametrize("n, decay", [(48, 0.9), (120, 0.5)])
def test_tsvd_does_not_certify_a_missed_copy_of_a_repeated_value(n, decay):
    # single-vector Lanczos finds two of the three copies of 1 and meets its
    # residual test with lambda = [1, 1, decay]; the missed-value check
    # finds the third copy in G - U diag(lambda) V'
    A = repeated_top(n, decay)
    res = truncated_svd(A, 3, tol=1e-12)
    assert not res.converged or np.allclose(res.lambdas, 1.0)


def test_tsvd_runs_its_ritz_test_every_r_over_4_steps(monkeypatch):
    # each Ritz test is one SVD of the k x k bidiagonal: one at step r, one
    # every 5 steps after it, and one more for the iterate returned
    A = random_matrix(np.random.default_rng(31), 200, 200, decay=0.9)
    real_svd, shapes = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    res = truncated_svd(A, 20, tol=1e-12)
    monkeypatch.undo()
    assert res.converged and res.iterations > 20
    assert len(shapes) <= math.ceil((res.iterations - 20) / 5) + 2
    assert eta_vs_dense(A, res, 20) <= 1e-10


def harmonic(k):
    return 1.0 / (1.0 + k)


@pytest.mark.parametrize("tol", [1e-12, 1e-8])
@pytest.mark.parametrize("seed, decay, N, M, r", [
    (0, 0.9, 120, 80, 9), (1, 0.97, 60, 140, 13), (2, harmonic, 100, 100, 8),
    (3, 0.9, 40, 160, 11), (4, 0.97, 150, 90, 22), (5, harmonic, 70, 130, 17),
    (6, 0.9, 160, 160, 24), (7, 0.97, 90, 50, 10),
])
def test_tsvd_capped_run_is_a_prefix_of_the_uncapped_run(seed, decay, N, M, r, tol):
    # a cap only cuts the run short: a cap at or past the uncapped run's
    # stop gives that run bit for bit, and a cap before it, on the Ritz
    # schedule or off it, stops there unconverged
    A = random_matrix(np.random.default_rng(seed), N, M, decay)
    full = truncated_svd(A, r, tol=tol)
    assert full.converged and full.iterations < min(N, M)
    for cap in range(r, full.iterations + 2):
        res = truncated_svd(A, r, tol=tol, max_iter=cap)
        if cap < full.iterations:
            assert (res.converged, res.iterations) == (False, cap), cap
        else:
            assert (res.converged, res.iterations) == (True, full.iterations), cap
            for a, b in ((res.u, full.u), (res.lambdas, full.lambdas), (res.v, full.v)):
                assert np.array_equal(a, b), cap


def _decaying_100():
    """U diag(0.8^k) V' (100 x 100) with Haar-random U and V."""
    rng = np.random.default_rng(0)
    U, V = (np.linalg.qr(rng.standard_normal((100, 100)))[0] for _ in range(2))
    return (U * 0.8 ** np.arange(100)) @ V.T


@pytest.mark.parametrize("scale", [1e-13, 1e-11])
def test_tsvd_finds_the_top_values_of_a_matrix_of_small_norm(scale):
    # the breakdown cutoff is relative to the running norm estimate: an
    # absolute 1e-12 made every step a breakdown at 1e-13 (rank 0) and cut
    # the Krylov space short at 1e-11 (lambda off by 5e-5, yet converged)
    A = _decaying_100() * scale
    res = truncated_svd(A, 5, tol=1e-12)
    assert res.converged and res.achieved_rank == 5
    assert np.allclose(res.lambdas, dense_svd(A, 5).lambdas, rtol=1e-12, atol=0.0)


def test_tsvd_does_not_depend_on_scale():
    # a power-of-two scale is exact in every product, norm and cutoff
    A = _decaying_100()
    want = truncated_svd(A, 5, tol=1e-12)
    got = truncated_svd(A * 2.0 ** -43, 5, tol=1e-12)
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
    assert np.array_equal(got.lambdas, want.lambdas * 2.0 ** -43)


def test_sym_nystrom_svd_product_that_overflows_is_a_numerical_error():
    # sym_nystrom_svd forms the sampled Grams B B', whose 1e400 overflows
    with pytest.raises(NumericalError, match="non-finite"):
        sym_nystrom_svd(np.array([[1e200, 0.0], [0.0, 1.0]]), 2, 1)


# ---------------------------------------------------------------------------
# randomized SVD
# ---------------------------------------------------------------------------

def test_rsvd_exact_on_low_rank():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
    res = randomized_svd(A, r=4, oversample=5, power=1, seed=9)
    assert eta_vs_dense(A, res, 4) <= 1e-10


def test_rsvd_deterministic():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((15, 12))
    a = randomized_svd(A, r=3, oversample=4, power=2, seed=42)
    b = randomized_svd(A, r=3, oversample=4, power=2, seed=42)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert np.array_equal(a.lambdas, b.lambdas)


def test_rsvd_fast_decay_accuracy():
    rng = np.random.default_rng(7)
    A = random_matrix(rng, 50, 40, decay=0.5)
    res = randomized_svd(A, r=5, oversample=5, power=2, seed=1)
    assert eta_vs_dense(A, res, 5) <= 1e-6


def test_rsvd_oversample_bound():
    with pytest.raises(ValueError):
        randomized_svd(np.eye(5), r=4, oversample=3)


# ---------------------------------------------------------------------------
# symmetric Nystrom
# ---------------------------------------------------------------------------

def test_sym_nystrom_full_sampling_exact():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((12, 12))
    K = B @ B.T
    u_t, lam_t = sym_nystrom_eig(K, n_sub=12, r=4, seed=0)
    evals, evecs = np.linalg.eigh(K)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    assert np.allclose(lam_t, evals[:4], rtol=1e-10)
    cos = np.abs(np.sum(evecs[:, :4] * u_t, axis=0))
    assert np.all(cos >= 1 - 1e-8)


def test_sym_nystrom_rank_one_single_sample():
    # brute force: for K = c 11', any single landmark reconstructs u ~ 1
    K = 3.0 * np.ones((9, 9))
    u_t, lam_t = sym_nystrom_eig(K, n_sub=1, r=1, seed=123)
    want = np.ones(9) / 3.0
    assert np.allclose(np.abs(u_t[:, 0]), want, atol=1e-12)
    assert lam_t[0] == pytest.approx(9 * 3.0)  # (N/1) * K_sub


def test_sym_nystrom_identity_lambda_scaling():
    # K = I: submatrix eigenvalues are 1, so lambda_tilde = N/n
    u_t, lam_t = sym_nystrom_eig(np.eye(10), n_sub=5, r=2, seed=0)
    assert np.allclose(lam_t, 10 / 5)


def test_sym_nystrom_rank_error():
    K = np.zeros((6, 6))
    K[0, 0] = 1.0
    with pytest.raises(NumericalError, match="n_sub"):
        sym_nystrom_eig(K, n_sub=3, r=3, seed=1, indices=[1, 2, 3])


# ---------------------------------------------------------------------------
# asymmetric Nystrom
# ---------------------------------------------------------------------------

def test_asym_full_sampling_reproduces_tsvd():
    rng = np.random.default_rng(9)
    for trial in range(50):
        n, m = rng.integers(6, 16, size=2)
        r = int(min(3, n, m))
        A = rng.standard_normal((int(n), int(m)))
        res = asym_nystrom(MatrixOperator(A), int(n), int(m), r, seed=trial)
        ref = truncated_svd(A, r, tol=1e-12)
        eta = eta_metric(ref.u, ref.lambdas, ref.v, res.u, res.v)
        assert eta <= 1e-8
        assert np.allclose(res.lambdas, ref.lambdas, rtol=1e-9)


# max eta / lambda_1 measured over 3000 Gaussian cases (n, m <= 40, every
# rank up to min(n, m)) was 2.0e-15: a few ulps of 1 - cos per column
_FULL_SAMPLING_ETA_BOUND = 1e-14


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), m=st.integers(1, 40),
       data=st.data())
def test_asym_full_sampling_equals_dense_property(seed, n, m, data):
    r = data.draw(st.integers(1, min(n, m)))
    A = np.random.default_rng(seed).standard_normal((n, m))
    res = asym_nystrom(MatrixOperator(A), n, m, r, seed=seed)
    ref = dense_svd(A, r)
    # the sampled block is all of A and the lambda scale is sqrt(1)
    assert np.array_equal(res.lambdas, ref.lambdas)
    for w in (ref.lambdas, ref.lambdas / ref.lambdas.sum()):   # raw and normalized
        eta = eta_metric(ref.u, w, ref.v, res.u, res.v)
        assert eta <= _FULL_SAMPLING_ETA_BOUND * ref.lambdas[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 30), m=st.integers(2, 30),
       kind=st.sampled_from(["full", "low-1e-150", "low-1e150", "0/1"]), data=st.data())
def test_nystrom_extensions_never_reach_unit_columns_with_a_short_column(seed, n, m, kind,
                                                                         data):
    # an extension's sampled rows are the sample's unit singular vectors, so
    # every column reaching _unit_columns has norm about 1 or more, never 0
    rng = np.random.default_rng(seed)
    if kind == "full":
        A = rng.standard_normal((n, m))
    elif kind == "0/1":
        A = (rng.random((n, m)) < 0.5).astype(float)
    else:
        k = int(rng.integers(1, min(n, m) + 1))
        A = rng.standard_normal((n, k)) @ rng.standard_normal((k, m)) * float(kind[4:])
    r = data.draw(st.integers(1, min(n, m)))
    n_sub, m_sub = data.draw(st.integers(r, n)), data.draw(st.integers(r, m))
    norms = []
    real = solvers_module._unit_columns

    def spy(*factors):
        norms.extend(np.linalg.norm(f, axis=0).min() for f in factors)
        return real(*factors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers_module, "_unit_columns", spy)
        for run in (lambda: asym_nystrom(MatrixOperator(A), n_sub, m_sub, r, seed=seed),
                    lambda: sym_nystrom_eig(A @ A.T, n_sub, r, seed=seed),
                    lambda: sym_nystrom_svd(A, min(n_sub, m_sub), r, seed=seed)):
            try:
                run()
            except NumericalError:   # a sample of rank < r: no extension to check
                pass
    assert all(nrm >= 1 - 1e-6 for nrm in norms if np.isfinite(nrm))


def test_asym_rank_one_from_single_row_and_column():
    rng = np.random.default_rng(10)
    u = rng.uniform(0.5, 2.0, size=8)
    v = rng.uniform(0.5, 2.0, size=6)
    G = np.outer(u, v)
    res = asym_nystrom(MatrixOperator(G), 1, 1, 1, row_indices=[5], col_indices=[2])
    # exact recovery: G[:, j] v_sub / lam is proportional to u
    assert np.allclose(res.u[:, 0], u / np.linalg.norm(u), atol=1e-12)
    assert np.allclose(res.v[:, 0], v / np.linalg.norm(v), atol=1e-12)
    assert res.lambdas[0] == pytest.approx(np.sqrt(48 / 1) * abs(G[5, 2]))


def test_asym_symmetric_special_case_matches_sym_nystrom():
    # same index set on a symmetric PSD matrix: the asymmetric method
    # reduces to the symmetric one (up to column signs), lambdas included
    rng = np.random.default_rng(11)
    B = rng.standard_normal((14, 5))
    K = B @ B.T
    idx = np.sort(rng.choice(14, 7, replace=False))
    res = asym_nystrom(MatrixOperator(K), 7, 7, 3, seed=0,
                       row_indices=idx, col_indices=idx)
    u_sym, lam_sym = sym_nystrom_eig(K, 7, 3, indices=idx)
    cos = np.abs(np.sum(res.u * u_sym, axis=0))
    assert np.all(cos >= 1 - 1e-8)
    assert np.max(np.abs(res.lambdas - lam_sym)) <= 1e-13 * lam_sym[0]


def test_asym_never_evaluates_full_matrix():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((40, 3))
    Z = rng.standard_normal((30, 3))
    op = KernelOperator(X, Z, KernelSpec.rbf(1.5))
    n_sub, m_sub = 10, 8
    asym_nystrom(op, n_sub, m_sub, 3, seed=0)
    bound = n_sub * m_sub + (40 - n_sub) * m_sub + n_sub * (30 - m_sub)
    assert op.eval_count <= bound
    assert op.eval_count < 40 * 30


def test_asym_sne_lazy_equals_materialized_with_exact_entry_count():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((40, 4))
    Z = rng.standard_normal((30, 4))
    op = KernelOperator(X, Z, KernelSpec.sne(2.0))
    G = MatrixOperator(KernelOperator(X, Z, KernelSpec.sne(2.0)).materialize())
    lazy = asym_nystrom(op, 10, 8, 3, seed=5)
    dense = asym_nystrom(G, 10, 8, 3, seed=5)
    for f in ("u", "lambdas", "v"):
        assert np.array_equal(getattr(lazy, f), getattr(dense, f))
    assert op.eval_count == 10 * 30 + 40 * 8 - 10 * 8


def test_asym_tiles_the_sampled_columns_once_per_fit(monkeypatch):
    # one tiling of Z[cols] serves every chunk of complement rows
    rng = np.random.default_rng(16)
    X = rng.standard_normal((300, 5))
    Z = rng.standard_normal((260, 5))
    spec = KernelSpec.rbf(2.0)
    want = asym_nystrom(MatrixOperator(KernelOperator(X, Z, spec).materialize()),
                        20, 24, 4, seed=3)
    monkeypatch.setattr(kernels_module, "_BLOCK_BUDGET", 2 * kernels_module._TILE ** 2)
    tiled = []
    real = kernels_module._z_tiles
    monkeypatch.setattr(kernels_module, "_z_tiles", lambda a: tiled.append(len(a)) or real(a))
    got = asym_nystrom(KernelOperator(X, Z, spec), 20, 24, 4, seed=3)
    assert tiled.count(24) == 1
    for f in ("u", "lambdas", "v"):
        assert np.array_equal(getattr(got, f), getattr(want, f))


def test_asym_evaluates_each_sampled_block_in_one_call(monkeypatch):
    # G[rows, :] and G[comp_rows, cols], each one block call however small
    # the kernels' chunks
    rng = np.random.default_rng(17)
    X = rng.standard_normal((300, 5))
    Z = rng.standard_normal((260, 5))
    rows = np.sort(rng.choice(300, 20, replace=False))
    cols = np.sort(rng.choice(260, 24, replace=False))
    monkeypatch.setattr(kernels_module, "_BLOCK_BUDGET", 2 * kernels_module._TILE ** 2)
    calls = []
    real = KernelOperator.block
    monkeypatch.setattr(KernelOperator, "block",
                        lambda self, r, c: calls.append((r, c)) or real(self, r, c))
    asym_nystrom(KernelOperator(X, Z, KernelSpec.rbf(2.0)), 20, 24, 4,
                 row_indices=rows, col_indices=cols)
    comp_rows = np.setdiff1d(np.arange(300), rows)
    assert len(calls) == 2
    for (r, c), (want_r, want_c) in zip(calls, [(rows, np.arange(260)), (comp_rows, cols)]):
        assert np.array_equal(r, want_r) and np.array_equal(c, want_c)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nystrom_blocks_stream_within_their_memory_bound():
    # nystrom-rbf's shape: the fit needs G[rows, :] and G[:, cols], 8 (nM + Nm)
    # bytes; beyond them it holds the submatrix with its SVD, Z's tiles and
    # one chunk, 2.3 MB with 2^15-entry chunks; full-size temporaries of a
    # block would add about 15 MB
    rng = np.random.default_rng(15)
    N = M = 4000
    d, n = 16, 200
    X = rng.standard_normal((N, d))
    Z = rng.standard_normal((M, d)) + 0.5
    spec = KernelSpec.rbf(float(np.sqrt(2.0 * d)))
    slack = 3.5e6
    # first calls import and cache, which is not the fit's memory
    asym_nystrom(KernelOperator(X[:50], Z[:50], spec), n // 10, n // 10, 8, seed=0)
    peak = _traced_peak(lambda: asym_nystrom(KernelOperator(X, Z, spec), n, n, 8, seed=0))
    assert peak <= 8 * (n * M + N * n) + slack
    op = KernelOperator(X, Z, spec)
    rows = rng.choice(N, n, replace=False)
    peak = _traced_peak(lambda: op.block(rows, np.arange(M)))
    assert peak <= 8 * n * M + slack


@pytest.mark.parametrize("given", [[1, 1, 2], [-1, 2, 3], [1, 2, 30], [],
                                   [0.5, 1.7, 2.2], [True, False, 2]])
def test_nystrom_rejects_bad_sample_indices(given):
    A = np.random.default_rng(15).standard_normal((10, 10))
    K = A @ A.T
    with pytest.raises(ValueError, match="sample indices"):
        asym_nystrom(MatrixOperator(A), 3, 3, 1, row_indices=given)
    with pytest.raises(ValueError, match="sample indices"):
        asym_nystrom(MatrixOperator(A), 3, 3, 1, col_indices=given)
    with pytest.raises(ValueError, match="sample indices"):
        sym_nystrom_eig(K, 3, 1, indices=given)


@pytest.mark.parametrize("count", [0, 11])
def test_nystrom_rejects_a_subsample_count_outside_its_side(count):
    A = np.random.default_rng(15).standard_normal((10, 10))
    with pytest.raises(ValueError, match=f"subsample size {count} out of range"):
        asym_nystrom(MatrixOperator(A), count, 3, 1)
    with pytest.raises(ValueError, match=f"subsample size {count} out of range"):
        asym_nystrom(MatrixOperator(A), 3, count, 1)
    with pytest.raises(ValueError, match=f"subsample size {count} out of range"):
        sym_nystrom_eig(A @ A.T, count, 1)
    with pytest.raises(ValueError, match=f"subsample size {count} out of range"):
        sym_nystrom_svd(A, count, 1)


def test_sym_nystrom_eig_rejects_a_non_square_operator():
    with pytest.raises(ValueError, match="requires a square operator"):
        sym_nystrom_eig(np.ones((4, 3)), 2, 1)


def test_nystrom_accepts_numpy_integer_indices():
    A = np.random.default_rng(15).standard_normal((10, 10))
    want = asym_nystrom(MatrixOperator(A), 3, 3, 2, row_indices=[4, 0, 7], col_indices=[1, 2, 9])
    for dtype in (np.int32, np.int64, np.uint8):
        got = asym_nystrom(MatrixOperator(A), 3, 3, 2, row_indices=np.array([4, 0, 7], dtype),
                           col_indices=np.array([1, 2, 9], dtype))
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


# each solver on a 10 x 8 A (the eigensolver on the 10 x 10 A A'), with
# min(N, M) of its input
_RANK_CHECKED = {
    "dense_svd": (lambda A, r: dense_svd(A, r), 8),
    "truncated_svd": (lambda A, r: truncated_svd(A, r), 8),
    "randomized_svd": (lambda A, r: randomized_svd(A, r, oversample=0), 8),
    "sym_nystrom_svd": (lambda A, r: sym_nystrom_svd(A, 4, r), 8),
    "asym_nystrom": (lambda A, r: asym_nystrom(MatrixOperator(A), 4, 4, r), 8),
    "sym_nystrom_eig": (lambda A, r: sym_nystrom_eig(A @ A.T, 4, r), 10),
}


@pytest.mark.parametrize("bad_rank", [lambda k: 0, lambda k: -1, lambda k: k + 1],
                         ids=["zero", "negative", "min_plus_one"])
@pytest.mark.parametrize("solver", sorted(_RANK_CHECKED))
def test_every_solver_rejects_rank_out_of_range(solver, bad_rank):
    # one rule for all: 1 <= r <= min(N, M)
    call, smaller_side = _RANK_CHECKED[solver]
    r = bad_rank(smaller_side)
    with pytest.raises(ValueError, match=f"rank {r} out of range"):
        call(np.random.default_rng(30).standard_normal((10, 8)), r)


@pytest.mark.parametrize("rank", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("call", [
    *(call for call, _ in _RANK_CHECKED.values()),
    lambda A, r: fit(A, A, KernelSpec.linear(), r),
    lambda A, r: bench(A, r, 0.1),
], ids=[*_RANK_CHECKED, "fit", "bench"])
def test_every_solver_fit_and_bench_reject_a_rank_that_is_not_an_integer(call, rank):
    # a bool rank once fitted rank 1, and a float one failed in numpy's slicing
    A = np.random.default_rng(30).standard_normal((10, 8))
    with pytest.raises(ValueError, match=re.escape(f"rank must be an integer, got {rank!r}")):
        call(A, rank)


def test_a_numpy_integer_rank_is_a_rank():
    A = np.random.default_rng(30).standard_normal((10, 8))
    assert dense_svd(A, np.int64(2)).achieved_rank == 2
    assert truncated_svd(A, np.int32(2)).achieved_rank == 2


@pytest.mark.parametrize("knobs", [{"oversample": -1}, {"power": -3}])
def test_rsvd_rejects_negative_knobs(knobs):
    A = np.random.default_rng(31).standard_normal((10, 10))
    with pytest.raises(ValueError, match="nonnegative"):
        randomized_svd(A, 3, **knobs)


def test_asym_monotone_fidelity_median():
    rng = np.random.default_rng(13)
    G = random_matrix(rng, 60, 50, decay=0.8)
    ref = dense_svd(G, 4)
    medians = []
    for sub in (8, 16, 32):
        etas = []
        for seed in range(20):
            res = asym_nystrom(MatrixOperator(G), sub, sub, 4, seed=seed)
            etas.append(eta_metric(ref.u, ref.lambdas, ref.v, res.u, res.v))
        medians.append(np.median(etas))
    assert medians[0] >= medians[1] >= medians[2]


@pytest.mark.parametrize("method", [
    lambda G: asym_nystrom(G, 2, 2, 3, seed=0),
    lambda G: sym_nystrom_eig(G @ G.T, 2, 3, seed=0),
    lambda G: sym_nystrom_svd(G, 2, 3, seed=0),
], ids=["asym_nystrom", "sym_nystrom_eig", "sym_nystrom_svd"])
def test_nystrom_sample_smaller_than_rank_is_numerical_error(method):
    # every Nystrom method fails the shared extension step's rank check
    G = np.random.default_rng(25).standard_normal((30, 30))
    with pytest.raises(NumericalError, match=r"2 positive singular values < requested 3: "
                                             r"increase the subsample \(n_sub, m_sub\)"):
        method(G)


@pytest.mark.parametrize("choice", [
    lambda seed: make_choice("dense"),
    lambda seed: make_choice("tsvd"),
    lambda seed: make_choice("rsvd", oversample=1, seed=seed),
    lambda seed: make_choice("symnys", n_sub=1, seed=seed),
    lambda seed: make_choice("asymnys", n_sub=1, m_sub=1, seed=seed),
], ids=["dense", "tsvd", "rsvd", "symnys", "asymnys"])
def test_an_overflowing_kernel_is_a_numerical_error(choice):
    # (x'z + 1)^2000 is inf on the diagonal of a 2 x 2 identity, which was
    # once reported as a rank-0 fit
    for seed in range(4):
        with pytest.raises(NumericalError, match="not finite|non-finite"):
            aksvd.fit(np.eye(2), np.eye(2), KernelSpec.poly(2000), 1, solver=choice(seed))


@pytest.mark.parametrize("solve", [
    lambda A: dense_svd(A, 1),
    lambda A: truncated_svd(A, 1),
    lambda A: randomized_svd(A, 1, oversample=1),
    lambda A: asym_nystrom(MatrixOperator(A), 1, 1, 1, row_indices=[0], col_indices=[0]),
    lambda A: asym_nystrom(MatrixOperator(A), 1, 1, 1, row_indices=[1], col_indices=[0]),
], ids=["dense", "tsvd", "rsvd", "asym-sampled", "asym-extended"])
def test_one_infinite_entry_is_a_numerical_error(solve):
    # LAPACK's SVD of this matrix once looped forever; a Nystrom fit fails
    # when the entry is in its sample or in the columns it extends by, and
    # an iterative solver at its first product, with no numpy warning
    A = np.ones((5, 5))
    A[0, 0] = np.inf
    with pytest.raises(NumericalError, match="not finite|non-finite"):
        solve(A)


@pytest.mark.parametrize("s", [[np.inf, 1.0], [1.0, np.nan], [np.nan]])
def test_positive_rank_rejects_non_finite_singular_values(s):
    with pytest.raises(NumericalError, match="singular values are not finite"):
        solvers_module._positive_rank(np.array(s))


@pytest.mark.parametrize("s, rank", [
    ([0.0, 0.0], 0),
    ([-0.0, -0.0], 0),
    ([0.0, -0.0, -1.0], 0),
    ([-1e-300, -1.0], 0),
    ([5e-324], 1),
    ([5e-324, 5e-324, 0.0], 2),   # 1e-12 * 5e-324 rounds to 0
    ([1e-200, 1e-205, 1e-213], 2),
    ([1e200, 1e189, 1e187, 0.0, -1e200], 2),
    ([1.0, 1e-11, 1e-13, -0.0, -1.0], 2),
], ids=["zero", "minus-zero", "zero-then-negative", "negative", "subnormal",
        "subnormal-pair", "tiny-scale", "huge-scale", "mixed"])
def test_positive_rank_counts_values_above_round_off(s, rank):
    # a top value that is zero or negative leaves nothing above 1e-12 of it
    assert solvers_module._positive_rank(np.array(s)) == rank


def test_asym_rank_error_suggests_more_subsamples():
    G = np.zeros((8, 8))
    G[0, 0] = 1.0
    with pytest.raises(NumericalError, match="subsample"):
        asym_nystrom(MatrixOperator(G), 3, 3, 2, seed=0,
                     row_indices=[1, 2, 3], col_indices=[1, 2, 3])


def test_asym_deterministic_given_seed():
    rng = np.random.default_rng(14)
    G = rng.standard_normal((20, 18))
    a = asym_nystrom(MatrixOperator(G), 9, 8, 3, seed=77)
    b = asym_nystrom(MatrixOperator(G), 9, 8, 3, seed=77)
    for f in ("u", "lambdas", "v"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def _sign_fix_inputs():
    rng = np.random.default_rng(18)
    ties = np.array([[0.5, 2.0, 0.0, -1.0],
                     [-2.0, -2.0, 0.0, 1.0],
                     [2.0, 1.0, 0.0, -1.0],
                     [1.0, -2.0, 0.0, 1.0]])
    zeros = np.zeros((6, 3))
    zeros[:, 1] = -0.0
    zeros[:, 2] = rng.standard_normal(6)
    return {"random": rng.standard_normal((40, 7)),
            "ties": ties,
            "integer-ties": rng.integers(-3, 4, size=(9, 12)).astype(float),
            "zero-columns": zeros,
            "one-column": rng.standard_normal((15, 1)),
            "one-negative-column": -np.abs(rng.standard_normal((15, 1)))}


@pytest.mark.parametrize("name", list(_sign_fix_inputs()))
@pytest.mark.parametrize("with_v", [True, False], ids=["pairs", "u-alone"])
def test_sign_fix_pairs_equals_the_column_loop(name, with_v):
    U = _sign_fix_inputs()[name]
    V = np.random.default_rng(19).standard_normal((11, U.shape[1])) if with_v else None
    got_u, got_v = U.copy(), None if V is None else V.copy()
    solvers_module._sign_fix_pairs(got_u, got_v)
    want_u, want_v = U.copy(), None if V is None else V.copy()
    sign_fix_pairs_loop(want_u, want_v)
    # bit for bit, signed zeros included
    assert got_u.tobytes() == want_u.tobytes()
    if with_v:
        assert got_v.tobytes() == want_v.tobytes()


# ---------------------------------------------------------------------------
# eta metric
# ---------------------------------------------------------------------------

def test_eta_zero_for_exact_and_sign_flipped():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((10, 9))
    ref = dense_svd(A, 3)
    # zero up to the round-off of ||u||^2 / ||u||
    assert abs(eta_metric(ref.u, ref.lambdas, ref.v, ref.u, ref.v)) <= 1e-13
    assert abs(eta_metric(ref.u, ref.lambdas, ref.v, -ref.u, ref.v)) <= 1e-13
    flipped = ref.u * np.array([-1.0, 1.0, -1.0])[None, :]
    assert abs(eta_metric(ref.u, ref.lambdas, ref.v, flipped, ref.v)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), m=st.integers(1, 30),
       data=st.data())
def test_eta_invariant_under_sign_flips_property(seed, n, m, data):
    r = data.draw(st.integers(1, min(n, m)))
    rng = np.random.default_rng(seed)
    ref = dense_svd(rng.standard_normal((n, m)), r)
    u, v = rng.standard_normal((n, r)), rng.standard_normal((m, r))
    su, sv = (rng.choice([-1.0, 1.0], size=r) for _ in range(2))
    for w in (ref.lambdas, ref.lambdas / ref.lambdas.sum()):   # raw and normalized
        want = eta_metric(ref.u, w, ref.v, u, v)
        got = eta_metric(ref.u, w, ref.v, u * su, v * sv)
        assert got == want     # bit-identical: a flip negates each product exactly


def test_eta_orthogonal_column_contributes_lambda_over_r():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((12, 10))
    ref = dense_svd(A, 3)
    u_bad = ref.u.copy()
    # replace u_1 by a vector orthogonal to it (another left singular vector)
    full = dense_svd(A, 5)
    u_bad[:, 0] = full.u[:, 4]
    eta = eta_metric(ref.u, ref.lambdas, ref.v, u_bad, ref.v)
    assert eta == pytest.approx(ref.lambdas[0] / 3, rel=1e-9)


def test_eta_scales_with_column_norm_invariance():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((9, 8))
    ref = dense_svd(A, 2)
    scaled = ref.u * np.array([3.0, 0.5])[None, :]
    assert eta_metric(ref.u, ref.lambdas, ref.v, scaled, ref.v) <= 1e-14


def test_eta_rejects_zero_columns():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((6, 6))
    ref = dense_svd(A, 2)
    bad = ref.u.copy()
    bad[:, 0] = 0.0
    with pytest.raises(NumericalError):
        eta_metric(ref.u, ref.lambdas, ref.v, bad, ref.v)


def test_eta_rejects_mismatched_shapes():
    ref = dense_svd(np.random.default_rng(18).standard_normal((6, 6)), 2)
    with pytest.raises(ValueError, match="shapes differ"):
        eta_metric(ref.u, ref.lambdas, ref.v, ref.u[:, :1], ref.v)
    with pytest.raises(ValueError, match="shapes differ"):
        eta_metric(ref.u, ref.lambdas, ref.v, ref.u, ref.v[:5])


def test_eta_normalized_variant():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((10, 10))
    ref = dense_svd(A, 3)
    u_bad = ref.u.copy()
    full = dense_svd(A, 6)
    u_bad[:, 0] = full.u[:, 5]
    eta_hat = eta_metric(ref.u, ref.lambdas / ref.lambdas.sum(), ref.v, u_bad, ref.v)
    assert eta_hat == pytest.approx(ref.lambdas[0] / ref.lambdas.sum() / 3, rel=1e-9)


# ---------------------------------------------------------------------------
# sym-Nystrom-as-SVD baseline and the bench harness
def test_sym_nystrom_svd_asks_products_at_most_r_columns_wide(monkeypatch):
    # it forms the sampled Grams B B' itself and asks G only for the N x r
    # extensions and the sign pairing, never for an N x n block of G G'
    A = random_matrix(np.random.default_rng(33), 400, 300, decay=0.9)
    widths = []
    for method in ("matmat", "rmatmat"):
        real = getattr(MatrixOperator, method)

        def spy(self, W, real=real):
            widths.append(W.shape[1])
            return real(self, W)
        monkeypatch.setattr(MatrixOperator, method, spy)
    res = sym_nystrom_svd(A, n_sub=100, r=5, seed=0)
    monkeypatch.undo()
    assert widths and max(widths) <= 5
    assert res.achieved_rank == 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sym_nystrom_eig_equals_its_formula_bit_for_bit(seed):
    # eigh of the sampled block, extension C w from the sampled columns
    # C = K[:, idx] as the operator serves them, unit columns, sign fix
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((60, 8))
    K = X @ X.T
    u, lam = sym_nystrom_eig(K, 20, 4, seed=seed)
    idx = np.sort(np.random.default_rng(seed).choice(60, size=20, replace=False))
    C = MatrixOperator(K).block(np.arange(60), idx)
    evals, evecs = np.linalg.eigh(C[idx])
    top = evals[::-1][:4]
    want = C @ (evecs[:, ::-1][:, :4] / top[None, :])
    want /= np.linalg.norm(want, axis=0)[None, :]
    want *= np.where(want[np.argmax(np.abs(want), axis=0), np.arange(4)] < 0, -1.0, 1.0)
    assert np.array_equal(u, want)
    assert np.array_equal(lam, np.sqrt((60 * 60) / (20 * 20)) * top)


# ---------------------------------------------------------------------------

def test_sym_nystrom_svd_full_sampling():
    rng = np.random.default_rng(20)
    A = random_matrix(rng, 16, 13, decay=0.6)
    # one count samples both sides: above the smaller side it is refused,
    # not capped, so only a square matrix can be sampled in full
    with pytest.raises(ValueError, match=r"subsample size 16 out of range \[1, 13\]"):
        sym_nystrom_svd(A, n_sub=16, r=3, seed=0)
    A = A[:13]
    res = sym_nystrom_svd(A, n_sub=13, r=3, seed=0)
    assert eta_vs_dense(A, res, 3) <= 1e-8
    # sign pairing: u' G v > 0 makes reconstruction positive
    for s in range(3):
        assert res.u[:, s] @ A @ res.v[:, s] > 0


def test_bench_epsilon_inf_first_knob():
    rng = np.random.default_rng(21)
    G = random_matrix(rng, 30, 30, decay=0.6)
    rep = bench(G, r=3, epsilon=np.inf, solvers=("tsvd", "rsvd", "symnys", "asymnys"),
                m_schedule=(5, 10, 30), seed=0)
    for name, s in rep.summary.items():
        assert s["success"]
    counts = {}
    for t in rep.trials:
        counts[t.solver] = counts.get(t.solver, 0) + 1
    assert all(c == 1 for c in counts.values())


def test_bench_low_rank_succeeds_at_minimal_knob():
    # range-capturing solvers are exact on an exactly rank-r matrix at
    # their smallest knob; Nystrom becomes exact at full sampling
    rng = np.random.default_rng(22)
    G = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 40))
    rep = bench(G, r=4, epsilon=1e-8, solvers=("tsvd", "rsvd", "asymnys"),
                m_schedule=(6, 12, 40), seed=1, oversample_schedule=(5, 10))
    rsvd_first = [t for t in rep.trials if t.solver == "rsvd"][0]
    assert rsvd_first.success and rsvd_first.oversample == 5
    tsvd_first = [t for t in rep.trials if t.solver == "tsvd"][0]
    assert tsvd_first.success
    assert rep.summary["asymnys"]["success"]


def test_bench_failure_recorded_not_thrown():
    rng = np.random.default_rng(23)
    G = random_matrix(rng, 30, 30, decay=0.98)
    rep = bench(G, r=5, epsilon=1e-12, solvers=("asymnys",), m_schedule=(6,), seed=0)
    assert rep.summary["asymnys"]["success"] is False
    assert all(not t.success for t in rep.trials)


@pytest.mark.parametrize("name", ["symnys", "asymnys"])
def test_bench_records_sample_smaller_than_rank_as_failed_trial(name):
    G = np.random.default_rng(26).standard_normal((30, 30))
    rep = bench(G, 3, 0.1, solvers=(name,), m_schedule=(2, 30), seed=0)
    asym = name == "asymnys"
    got = [(t.n_sub, t.m_sub, t.success) for t in rep.trials]
    assert got == [(2, 2 if asym else None, False), (30, 30 if asym else None, True)]
    assert rep.trials[0].eta == np.inf and rep.trials[1].eta <= 1e-12


@pytest.mark.parametrize("name", ["dense", "tsvd", "rsvd"])
def test_bench_records_a_result_below_the_rank_as_failed_trial(name):
    # a rank-2 G gives 2 triplets for r = 3; the reference is a rank-3 one
    rng = np.random.default_rng(27)
    G = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 20))
    ref = dense_svd(rng.standard_normal((20, 20)), 3)
    rep = bench(G, 3, 0.1, solvers=(name,), reference=(ref.u, ref.lambdas, ref.v),
                oversample_schedule=(5,))
    assert [(t.eta, t.success) for t in rep.trials] == [(np.inf, False)]
    assert rep.summary[name]["success"] is False and rep.summary[name]["eta"] == np.inf
    assert rep.reference == "given"


def test_bench_rejects_a_reference_below_the_rank():
    G = np.random.default_rng(28).standard_normal((10, 10))
    ref = dense_svd(G, 2)
    with pytest.raises(NumericalError, match="reference rank 2 < requested 3"):
        bench(G, 3, 0.1, solvers=("tsvd",), reference=(ref.u, ref.lambdas, ref.v))


@pytest.mark.parametrize("order", [("tsvd", "rsvd"), ("rsvd", "tsvd")])
def test_bench_empty_schedule_means_the_default(order):
    # an empty oversample schedule, like an empty m_schedule, takes the
    # default, so every named solver runs at least one trial
    G = np.random.default_rng(24).standard_normal((20, 20))
    empty = bench(G, 2, 0.1, solvers=order, oversample_schedule=())
    default = bench(G, 2, 0.1, solvers=order)

    def trials(rep):   # all but the wall-clock seconds
        return [(t.solver, t.oversample, t.seed, t.eta, t.success) for t in rep.trials]
    assert trials(empty) == trials(default)
    assert {t.solver for t in empty.trials} == set(order)
    assert all(s["eta"] is not None for s in empty.summary.values())


@pytest.mark.parametrize("n", [2, 3])
def test_bench_default_schedule_runs_on_a_small_matrix(n):
    # k // 4 and k // 2 are 0 for k = min(N, M) <= 3: no trial samples 0
    G = np.random.default_rng(29).standard_normal((n, n))
    rep = bench(G, 1, 0.1)
    assert set(rep.summary) == set(DEFAULT_BENCH_SOLVERS)
    assert all(t.n_sub is None or t.n_sub >= 1 for t in rep.trials)
    assert all(t.m_sub is None or t.m_sub >= 1 for t in rep.trials)


def bench_spectrum(seed, n=600):
    """The input of the bench-spectrum benchmark workload: U diag(0.9^k) V'."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U * 0.9 ** np.arange(n)) @ V.T


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_reference_is_a_tsvd_on_a_decaying_spectrum(seed):
    # tsvd certifies itself within its Krylov budget, so no dense SVD runs;
    # bench's tsvd trial is the reference run, so its eta is round-off
    rep = bench(bench_spectrum(seed), 20, 0.1, solvers=("tsvd",), seed=seed)
    assert rep.reference == "tsvd"
    assert rep.summary["tsvd"]["success"] and rep.trials[0].eta <= 1e-14


def _recording_tsvd(monkeypatch):
    """Record every truncated_svd call's result, bench's own included."""
    calls, real = [], solvers_module.truncated_svd

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]
    monkeypatch.setattr(solvers_module, "truncated_svd", spy)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_tsvd_trial_is_the_reference_run(seed, monkeypatch):
    # a capped run is a prefix of the uncapped one, so a tsvd reference is
    # the run the tsvd trial would take: bench records it, with no rerun
    A = bench_spectrum(seed)
    calls = _recording_tsvd(monkeypatch)
    rep = bench(A, 20, 0.1, solvers=("tsvd", "rsvd"), seed=seed)
    monkeypatch.undo()
    assert rep.reference == "tsvd" and len(calls) == 1
    held, alone = calls[0], truncated_svd(A, 20, tol=solvers_module._BENCH_TSVD_TOL)
    for a, b in ((held.u, alone.u), (held.lambdas, alone.lambdas), (held.v, alone.v)):
        assert np.array_equal(a, b)
    trial = rep.trials[0]
    assert trial.solver == "tsvd" and trial.success and trial.seconds > 0
    assert trial.eta == eta_metric(alone.u, alone.lambdas, alone.v, alone.u, alone.v)


def test_bench_tsvd_trial_runs_its_own_tsvd_against_a_dense_reference(monkeypatch):
    # the budgeted tsvd missed a copy of the repeated top value, so the
    # reference is dense and the trial is a tsvd of its own, which fails
    calls = _recording_tsvd(monkeypatch)
    rep = bench(repeated_top(120, 0.5), 3, 0.1, solvers=("tsvd",))
    monkeypatch.undo()
    assert rep.reference == "dense" and len(calls) == 2
    assert [t.success for t in rep.trials] == [False]


@pytest.mark.parametrize("A, r", [
    (np.random.default_rng(32).standard_normal((200, 200)), 10),   # flat: over budget
    (repeated_top(120, 0.5), 3),   # within budget, but the missed-value check fails
], ids=["gaussian", "repeated-top"])
def test_bench_reference_falls_back_to_dense(A, r):
    ref, name = solvers_module._bench_reference(MatrixOperator(A), r)
    assert name == "dense" == bench(A, r, 0.1, solvers=("rsvd",)).reference
    dense = dense_svd(A, r)
    for a, b in ((ref.u, dense.u), (ref.lambdas, dense.lambdas), (ref.v, dense.v)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("epsilon", [np.nan, -1.0])
def test_bench_rejects_an_epsilon_no_trial_can_meet(epsilon):
    G = np.random.default_rng(30).standard_normal((10, 10))
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        bench(G, 2, epsilon)


def test_bench_rejects_a_solver_named_twice():
    # a second run would replace the first in the summary
    G = np.random.default_rng(30).standard_normal((10, 10))
    with pytest.raises(ValueError, match="named more than once: 'tsvd'$"):
        bench(G, 2, 0.1, solvers=("tsvd", "rsvd", "tsvd"))


@pytest.mark.parametrize("plan, message", [
    ({"m_schedule": [0]}, "m_schedule entry must be an integer >= 1, got 0"),
    ({"m_schedule": [5, -3]}, "m_schedule entry must be an integer >= 1, got -3"),
    ({"m_schedule": [2.5]}, "m_schedule entry must be an integer >= 1, got 2.5"),
    ({"m_schedule": [True]}, "m_schedule entry must be an integer >= 1, got True"),
    ({"oversample_schedule": [-2]}, "oversample_schedule entry must be an integer >= 0, got -2"),
    ({"oversample_schedule": [5, 9]}, r"rank 2 \+ oversample 9 exceeds min\(N, M\) = 10"),
    ({"power": -1}, "power must be an integer >= 0, got -1"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"epsilon": np.nan}, "epsilon must be >= 0"),
    ({"solvers": ("tsvd", "lanczos")}, "unknown bench solver"),
], ids=["m-zero", "m-negative", "m-fraction", "m-bool", "p-negative", "p-past-side", "power",
        "seed", "eps-nan", "unknown"])
def test_bench_checks_the_plan_before_the_reference(plan, message, monkeypatch):
    # a bad plan fails before the reference SVD and any trial: no work is
    # spent on a run that cannot finish
    def spy(*args, **kwargs):
        raise AssertionError("reference computed for a bad plan")

    monkeypatch.setattr(solvers_module, "_bench_reference", spy)
    monkeypatch.setattr(solvers_module, "dense_svd", spy)
    G = np.random.default_rng(30).standard_normal((10, 10))
    with pytest.raises(ValueError, match=message):
        bench(G, **{"r": 2, "epsilon": 0.1, **plan})


def test_bench_ldjson_schema(tmp_path, capsys):
    rng = np.random.default_rng(24)
    G = random_matrix(rng, 20, 20, decay=0.5)
    inp, out = tmp_path / "g.csv", tmp_path / "run"
    np.savetxt(inp, G, delimiter=",")
    assert main(["bench", "--input", str(inp), "--rank", "2", "--solvers", "rsvd,asymnys",
                 "--m-schedule", "5,10", "--out", str(out)]) == 0
    capsys.readouterr()
    keys = {"solver", "n_sub", "m_sub", "oversample", "eta", "seconds", "seed", "success"}
    with open(str(out) + ".bench.ldjson") as f:
        lines = [json.loads(line) for line in f]
    assert lines
    for row in lines:
        assert set(row) == keys


# ---------------------------------------------------------------------------
# the solver registry
# ---------------------------------------------------------------------------

def test_registry_knobs_are_fields_of_their_choice():
    assert set(SOLVERS) == {"dense", "tsvd", "rsvd", "symnys", "asymnys"}
    for entry in SOLVERS.values():
        assert set(entry.knobs) <= {f.name for f in fields(entry.choice)}
    assert "dense" not in DEFAULT_BENCH_SOLVERS
    with pytest.raises(ValueError, match="unknown solver"):
        make_choice("svd")
    with pytest.raises(ValueError, match="unknown bench solver"):
        bench(np.eye(4), r=1, epsilon=1.0, solvers=("tsvd", "lanczos"))


def test_registry_functions_take_every_choice_field():
    # solve() calls fn(G, r=r, **fields of the choice): each field, and r,
    # must be a keyword parameter of the module-level function the entry names
    for entry in SOLVERS.values():
        fn = getattr(solvers_module, entry.function)
        assert fn.__module__ == solvers_module.__name__
        params = inspect.signature(fn).parameters
        for name in ["r"] + [f.name for f in fields(entry.choice)]:
            assert params[name].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD, name


def test_solve_rejects_an_unregistered_choice():
    @dataclass(frozen=True)
    class Lanczos:
        tol: float = 1e-8

    for choice in (Lanczos(), "dense", None):
        with pytest.raises(ValueError, match="unknown solver choice"):
            solvers_module.solve(np.eye(3), 1, choice)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_bench_trial_equals_solve_on_its_choice(name, monkeypatch):
    # every trial is one solve() call on the choice its row describes
    rng = np.random.default_rng(25)
    G = random_matrix(rng, 24, 24, decay=0.8)
    calls = []
    real_solve = solvers_module.solve

    def recording_solve(op, r, choice):
        res = real_solve(op, r, choice)
        calls.append((choice, res))
        return res

    monkeypatch.setattr(solvers_module, "solve", recording_solve)
    rep = bench(G, r=3, epsilon=0.0, solvers=(name,), m_schedule=(6, 12), seed=2,
                oversample_schedule=(4, 8), power=1)
    monkeypatch.undo()
    assert len(calls) == len(rep.trials) >= 1
    ref = dense_svd(G, 3)
    for trial, (choice, recorded) in zip(rep.trials, calls):
        rebuilt = make_choice(name, n_sub=trial.n_sub, m_sub=trial.m_sub,
                              oversample=trial.oversample, seed=trial.seed,
                              tol=1e-12, power=1)
        assert rebuilt == choice
        res = real_solve(G, 3, rebuilt)
        for a, b in ((res.u, recorded.u), (res.lambdas, recorded.lambdas), (res.v, recorded.v)):
            assert np.array_equal(a, b)
        assert trial.eta == eta_metric(ref.u, ref.lambdas, ref.v, res.u, res.v)


class _ProtocolOnlyOperator:
    """A dense matrix behind the five members the solvers may use, and no
    other attribute (``__slots__`` leaves no instance dictionary)."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = values

    @property
    def shape(self):
        return self._values.shape

    def block(self, rows, cols):
        return self._values[np.ix_(np.atleast_1d(rows), np.atleast_1d(cols))]

    def materialize(self):
        return self._values

    def matmat(self, W):
        return self._values @ W

    def rmatmat(self, W):
        return self._values.T @ W


@pytest.mark.parametrize("shape", [(30, 24), (24, 30)], ids=str)
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solvers_need_only_the_operator_protocol(name, shape):
    rng = np.random.default_rng(26)
    G = random_matrix(rng, *shape, decay=0.7)
    choice = make_choice(name, n_sub=12, m_sub=12, seed=3)
    want = solvers_module.solve(G, 3, choice)
    got = solvers_module.solve(_ProtocolOnlyOperator(G), 3, choice)
    assert got.achieved_rank == want.achieved_rank == 3
    if name in ("tsvd", "rsvd"):
        assert eta_metric(want.u, want.lambdas, want.v, got.u, got.v) <= 1e-8
        assert np.allclose(got.lambdas, want.lambdas, rtol=1e-10)
    else:
        for a, b in ((got.u, want.u), (got.lambdas, want.lambdas), (got.v, want.v)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(30, 24), (24, 30)], ids=str)
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solvers_return_fresh_c_contiguous_arrays(name, shape):
    # fit keeps these arrays as its model's factors: no view, no strided layout
    rng = np.random.default_rng(27)
    G = random_matrix(rng, *shape, decay=0.7)
    res = solvers_module.solve(G, 3, make_choice(name, n_sub=12, m_sub=12, seed=3))
    for a in (res.u, res.lambdas, res.v):
        assert a.flags.c_contiguous and a.flags.owndata


@pytest.mark.parametrize("values", [np.ones(3), np.ones((2, 2, 2))], ids=["1-D", "3-D"])
def test_matrix_operator_rejects_a_non_matrix(values):
    with pytest.raises(ValueError, match="expects a 2-D array"):
        MatrixOperator(values)


def test_as_operator_wraps_a_nested_list():
    op = as_operator([[1, 2], [3, 4]])
    assert isinstance(op, MatrixOperator)
    assert op.values.dtype == np.float64
    assert np.array_equal(op.materialize(), [[1.0, 2.0], [3.0, 4.0]])
    assert as_operator(op) is op


def test_readme_solver_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(\w+)` \| (.*) \|$", readme, flags=re.M)
    table = {name: (cls, fn, tuple(re.findall(r"`(\w+)`", knobs)))
             for name, cls, fn, knobs in rows}
    assert table == {name: (e.choice.__name__, e.function, e.knobs)
                     for name, e in SOLVERS.items()}
