import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aksvd import kernels
from aksvd.errors import NumericalError
from aksvd.kernels import (
    GramMatrix,
    KernelOperator,
    KernelSpec,
    auto_gamma,
    center,
    as_matrix,
    center_vector,
    gram,
    kernel_vector,
)
from aksvd.solvers import MatrixOperator, truncated_svd


def brute_kernel(spec, x, z, Z_all=None):
    """Independent per-pair oracle, plain Python floats."""
    if spec.family == "linear":
        return float(np.dot(x, z))
    if spec.family == "poly":
        return float((np.dot(x, z) + spec.offset) ** spec.degree)
    d2 = float(np.sum((x - z) ** 2))
    if spec.family == "rbf":
        return float(np.exp(-d2 / spec.gamma ** 2))
    den = sum(np.exp(-float(np.sum((x - zp) ** 2)) / spec.gamma ** 2) for zp in Z_all)
    return float(np.exp(-d2 / spec.gamma ** 2) / den)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        KernelSpec("sne", gamma=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("poly", degree=0)
    with pytest.raises(ValueError):
        KernelSpec("cosine")


@pytest.mark.parametrize("make", [
    lambda: KernelSpec.rbf(np.inf),
    lambda: KernelSpec.sne(float("inf")),
    lambda: KernelSpec.rbf(np.nan),
    lambda: KernelSpec.poly(2.5),
    lambda: KernelSpec.poly(2.0),
    lambda: KernelSpec.poly(True),
    lambda: KernelSpec.poly(np.bool_(True)),
])
def test_spec_rejects_what_it_cannot_evaluate(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan])
def test_poly_spec_rejects_a_non_finite_offset(offset):
    with pytest.raises(ValueError, match="poly kernel requires a finite offset"):
        KernelSpec.poly(2, offset)


def test_spec_accepts_numpy_integer_degree():
    assert KernelSpec.poly(np.int64(3)).degree == 3


def test_gram_linear_identity_scaled():
    G = gram(KernelSpec.linear(), np.eye(2), np.eye(2), scaled=True)
    assert np.allclose(G.values, 0.5 * np.eye(2))
    assert not G.centered


def test_gram_sne_two_points():
    # direct evaluation of the softmax-normalized similarity
    G = gram(KernelSpec.sne(1.0), np.array([[0.0]]), np.array([[0.0], [1.0]]), scaled=False)
    e1 = np.exp(-1.0)
    expected = np.array([[1.0 / (1.0 + e1), e1 / (1.0 + e1)]])
    assert np.allclose(G.values, expected, atol=1e-15)
    assert np.allclose(G.values, [[0.7310585786300049, 0.2689414213699951]])


def test_gram_rbf_asymmetric_index_sets():
    X = np.array([[0.0], [3.0]])
    Z = np.array([[3.0], [0.0]])
    G = gram(KernelSpec.rbf(1.0), X, Z, scaled=False)
    e9 = np.exp(-9.0)
    assert np.allclose(G.values, [[e9, 1.0], [1.0, e9]])
    # entry (0, 0) pairs x_0 with z_0 = x_1, not with x_0: no unit diagonal
    assert G.values[0, 0] != 1.0


def test_gram_matches_brute_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 3))
    Z = rng.standard_normal((5, 3))
    for spec in (KernelSpec.linear(), KernelSpec.rbf(1.3),
                 KernelSpec.poly(2, 1.0), KernelSpec.sne(2.0)):
        G = gram(spec, X, Z, scaled=False)
        for i in range(6):
            for j in range(5):
                want = brute_kernel(spec, X[i], Z[j], Z)
                assert G.values[i, j] == pytest.approx(want, rel=1e-12)


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        gram(KernelSpec.linear(), np.ones((2, 3)), np.ones((2, 4)))


def test_gram_nonfinite_rejected():
    X = np.array([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        gram(KernelSpec.linear(), X, np.ones((1, 2)))


def test_sne_underflow_reports_bandwidth():
    X = np.array([[0.0], [1000.0]])
    Z = np.array([[500.0]])
    with pytest.raises(NumericalError, match="bandwidth"):
        gram(KernelSpec.sne(1e-3), X, Z)


def test_sne_rows_stochastic():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 4))
    Z = rng.standard_normal((25, 4))
    G = gram(KernelSpec.sne(1.5), X, Z, scaled=False)
    assert np.all(np.abs(G.values.sum(axis=1) - 1.0) <= 1e-12)


def test_symmetry_only_when_sets_equal():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 2))
    Z = rng.standard_normal((6, 2))
    for spec in (KernelSpec.linear(), KernelSpec.rbf(1.0), KernelSpec.poly()):
        # one set + symmetric family: the Gram matrix is symmetric
        same = gram(spec, X, X, scaled=False).values
        assert np.allclose(same, same.T)
        # two different sets: no matrix symmetry even with a symmetric kernel
        cross = gram(spec, X, Z, scaled=False).values
        assert not np.allclose(cross, cross.T)
    # sne is asymmetric by construction, even on one set
    sne = gram(KernelSpec.sne(1.0), X, X, scaled=False).values
    assert not np.allclose(sne, sne.T)
    # and swapping the sne argument sets does not transpose the matrix
    ab = gram(KernelSpec.sne(1.0), X, Z, scaled=False).values
    ba = gram(KernelSpec.sne(1.0), Z, X, scaled=False).values
    assert not np.allclose(ab, ba.T)


def test_lazy_dense_agreement_exact():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 7))
    Z = rng.standard_normal((45, 7))
    for spec in (KernelSpec.linear(), KernelSpec.rbf(2.0), KernelSpec.sne(2.0)):
        dense = gram(spec, X, Z, scaled=True).values
        op = KernelOperator(X, Z, spec, scaled=True)
        for _ in range(1000):
            i = int(rng.integers(60))
            j = int(rng.integers(45))
            assert op.entry(i, j) == dense[i, j]


def test_lazy_block_agreement_exact():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 5))
    Z = rng.standard_normal((20, 5))
    spec = KernelSpec.rbf(1.0)
    dense = gram(spec, X, Z).values
    op = KernelOperator(X, Z, spec)
    rows = rng.choice(30, 9, replace=False)
    cols = rng.choice(20, 6, replace=False)
    assert np.array_equal(op.block(rows, cols), dense[np.ix_(rows, cols)])


def test_eval_count():
    op = KernelOperator(np.ones((4, 2)), np.ones((5, 2)), KernelSpec.linear())
    op.block([0, 1], [0, 1, 2])
    op.entry(3, 4)
    assert op.eval_count == 7


_ROWS = r"row indices must be integers in \[0, 5\)"
_COLS = r"column indices must be integers in \[0, 4\)"


def _kernel_op():
    return KernelOperator(np.ones((5, 2)), np.ones((4, 2)), KernelSpec.linear())


def _matrix_op():
    return MatrixOperator(np.arange(20.0).reshape(5, 4))


@pytest.mark.parametrize("make, call, message", [
    (_kernel_op, lambda op: op.entry(-1, 0), _ROWS),
    (_kernel_op, lambda op: op.entry(0, -1), _COLS),
    (_kernel_op, lambda op: op.block([2, -3], [0]), _ROWS),
    (_kernel_op, lambda op: op.entry(5, 0), _ROWS),
    (_kernel_op, lambda op: op.entry(0, 4), _COLS),
    (_kernel_op, lambda op: op.block(np.array([0, 5]), [0]), _ROWS),
    (_kernel_op, lambda op: op.block([1.7], [0]), _ROWS),
    (_kernel_op, lambda op: op.block([0], np.array([1.0])), _COLS),
    (_kernel_op, lambda op: op.entry(1.0, 0), _ROWS),
    (_kernel_op, lambda op: op.entry(True, 0), _ROWS),
    (_kernel_op, lambda op: op.block([True, 2], [0]), _ROWS),
    (_kernel_op, lambda op: op.block([0], np.array([True, False])), _COLS),
    (_matrix_op, lambda op: op.block([-1], [0]), _ROWS),
    (_matrix_op, lambda op: op.block([0], [-1]), _COLS),
    (_matrix_op, lambda op: op.block([5], [0]), _ROWS),
    (_matrix_op, lambda op: op.block([0], np.array([0, 4])), _COLS),
    (_matrix_op, lambda op: op.block([1.7], [0]), _ROWS),
    (_matrix_op, lambda op: op.block(np.array([1.0]), [0]), _ROWS),
    (_matrix_op, lambda op: op.block([True, 2], [0]), _ROWS),
    (_matrix_op, lambda op: op.block([0], np.array([True, False])), _COLS),
], ids=["negative-row", "negative-column", "negative-in-block", "row-past-end",
        "column-past-end", "past-end-array", "fractional", "float-array", "float-entry",
        "bool-entry", "bool-among-ints", "bool-array",
        "matrix-negative-row", "matrix-negative-column", "matrix-row-past-end",
        "matrix-past-end-array", "matrix-fractional", "matrix-float-array",
        "matrix-bool-among-ints", "matrix-bool-array"])
def test_block_and_entry_reject_bad_indices_before_counting(make, call, message):
    # on a 5 x 4 operator, G[4, 0] and row 1 used to come back for -1 and
    # 1.7, and 5 gave a raw IndexError, each counted as evaluated
    op = make()
    with pytest.raises(ValueError, match=message):
        call(op)
    assert op.eval_count == 0


def test_block_takes_indices_of_any_integer_dtype():
    op = KernelOperator(np.arange(10.0).reshape(5, 2), np.ones((4, 2)), KernelSpec.linear())
    want = op.materialize()
    for rows in (np.array([4, 0], dtype=np.int32), np.array([4, 0], dtype=np.uint8), [4, 0]):
        assert np.array_equal(op.block(rows, np.int64(3)), want[[4, 0]][:, [3]])
    assert op.entry(np.int64(4), np.uint16(3)) == want[4, 3]
    assert op.block(np.array([]), [1]).shape == (0, 1)


def test_center_all_ones():
    G = GramMatrix(np.ones((3, 4)))
    C = center(G)
    assert np.allclose(C.values, 0.0, atol=1e-15)
    assert C.centered and C.grand_mean == 1.0


def test_center_diag_hand_value():
    # hand oracle: (I - J/2) diag(1,1) (I - J/2) = [[.5, -.5], [-.5, .5]]
    H = np.eye(2) - np.full((2, 2), 0.5)
    want = H @ np.diag([1.0, 1.0]) @ H
    C = center(GramMatrix(np.diag([1.0, 1.0])))
    assert np.allclose(C.values, want, atol=1e-15)
    assert np.allclose(C.values, [[0.5, -0.5], [-0.5, 0.5]])


def test_center_annihilates_row_and_col_sums():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((7, 9))
    C = center(GramMatrix(V))
    assert np.all(np.abs(C.values.sum(axis=1)) <= 1e-12)
    assert np.all(np.abs(C.values.sum(axis=0)) <= 1e-12)


def test_center_idempotent():
    rng = np.random.default_rng(6)
    G = GramMatrix(rng.standard_normal((5, 6)))
    once = center(G)
    twice = center(once)
    assert np.all(np.abs(twice.values - once.values) <= 1e-12)
    assert twice.grand_mean == once.grand_mean


def test_kernel_vector_matches_gram_row():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 3))
    Z = rng.standard_normal((8, 3))
    spec = KernelSpec.sne(1.7)
    G = gram(spec, X, Z, scaled=False)
    for i in range(6):
        k = kernel_vector(spec, X[i], Z)
        assert np.array_equal(k, G.values[i])
    with pytest.raises(ValueError, match=r"x_new must be one point, got shape \(2, 3\)"):
        kernel_vector(spec, X[:2], Z)
    with pytest.raises(ValueError, match="x_new has dimension 2, expected 3"):
        kernel_vector(spec, X[0, :2], Z)


def test_kernel_vector_centered_constant_gram():
    # all-equal data makes a constant linear Gram; centering kills it
    X = np.ones((4, 2))
    Z = np.ones((3, 2))
    spec = KernelSpec.linear()
    C = center(gram(spec, X, Z, scaled=False))
    k = center_vector(kernel_vector(spec, np.ones(2), Z), C.row_means, C.grand_mean)
    assert np.allclose(k, 0.0, atol=1e-14)


def test_center_vector_in_scaled_units():
    # a centered Gram's statistics are in its own units: the scaled
    # operator's kernel vector centered with scaled statistics is s times
    # the raw one centered with raw statistics, and at a training point
    # both are that row of the centered Gram
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 2))
    Z = rng.standard_normal((7, 2))
    spec = KernelSpec.rbf(1.0)
    C_raw = center(gram(spec, X, Z, scaled=False))
    C_scaled = center(gram(spec, X, Z, scaled=True))
    want = center_vector(kernel_vector(spec, X[2], Z), C_raw.row_means, C_raw.grand_mean)
    assert np.allclose(want, C_raw.values[2], atol=1e-12)
    k = KernelOperator(X, Z, spec, scaled=True).x_row(X[2])
    got = center_vector(k, C_scaled.row_means, C_scaled.grand_mean)
    assert np.allclose(got, want / np.sqrt(5 * 7), atol=1e-12)
    with pytest.raises(TypeError):
        kernel_vector(spec, X[2], Z, centering=C_raw)


def test_kernel_vector_sne_sums_to_one():
    rng = np.random.default_rng(10)
    Z = rng.standard_normal((12, 3))
    for _ in range(25):
        x = rng.standard_normal(3) * 3.0
        k = kernel_vector(KernelSpec.sne(2.0), x, Z)
        assert abs(k.sum() - 1.0) <= 1e-12


def test_sne_out_of_sample_denominator_uses_training_z():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 2))
    Z = rng.standard_normal((5, 2))
    op = KernelOperator(X, Z, KernelSpec.sne(1.0), scaled=False)
    z_new = rng.standard_normal(2)
    got = op.z_col(z_new)
    g2 = 1.0
    for i in range(4):
        num = np.exp(-np.sum((X[i] - z_new) ** 2) / g2)
        den = sum(np.exp(-np.sum((X[i] - zp) ** 2) / g2) for zp in Z)  # training set only
        assert got[i] == pytest.approx(num / den, rel=1e-12)


def test_auto_gamma_heuristic():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((20, 6))
    assert auto_gamma(X) == pytest.approx(np.sqrt(6 * X.var()))
    assert auto_gamma(X, k=0.5) == pytest.approx(0.5 * np.sqrt(6 * X.var()))


def test_auto_gamma_rejects_constant_data():
    with pytest.raises(NumericalError, match="zero variance"):
        auto_gamma(np.full((5, 3), 2.5))


@pytest.mark.parametrize("X, k", [
    ([[1e200, 0.0], [0.0, 1.0]], 1.0),                     # the variance overflows
    ([[1.7e308, 1.7e308, 0, 0], [-1.7e308, -1.7e308, 0, 0]], 1.0),   # the mean is nan
    ([[1e154, 0.0], [0.0, 1.0]], 1e300),                   # finite variance, gamma overflows
], ids=["var-inf", "var-nan", "gamma-inf"])
def test_auto_gamma_that_is_not_finite_is_one_error(X, k):
    # RuntimeWarnings are errors under this suite, so none is emitted first
    with pytest.raises(NumericalError, match="auto gamma undefined: .* is not finite"):
        auto_gamma(np.array(X), k=k)


def test_as_matrix_takes_a_vector_as_one_row():
    out = as_matrix([1, 2, 3], "x")
    assert out.shape == (1, 3) and out.dtype == np.float64 and out.flags.c_contiguous


@pytest.mark.parametrize("a, message", [(np.ones((2, 2, 2)), r"x must be 2-D, got shape \(2, 2, 2\)"),
                                        ([], r"x must be non-empty, got shape \(1, 0\)"),
                                        (np.ones((0, 3)), r"x must be non-empty, got shape \(0, 3\)")],
                         ids=["3-D", "empty-list", "no-rows"])
def test_as_matrix_rejects_what_is_no_matrix(a, message):
    with pytest.raises(ValueError, match=message):
        as_matrix(a, "x")


# -- tile engine ----------------------------------------------------------

ALL_FAMILIES = ("linear", "poly", "rbf", "sne")


def family_spec(family, d):
    # bandwidth ~ the typical distance, so sne denominators stay well above 0
    if family in ("rbf", "sne"):
        return KernelSpec(family, gamma=float(np.sqrt(2.0 * d)))
    if family == "poly":
        return KernelSpec.poly(3, 0.5)
    return KernelSpec.linear()


def assert_lazy_matches_dense(spec, X, Z, rng):
    dense = gram(spec, X, Z, scaled=True).values
    op = KernelOperator(X, Z, spec, scaled=True)
    n, m = dense.shape
    # contiguous sub-blocks at offsets that are not multiples of the tile
    # or of the panel width
    for r0, r1, c0, c1 in ((1, 18, 3, 20), (5, n, 0, 7), (17, 33, 15, m),
                           (n // 3 + 1, n - 2, m // 3 + 3, m - 1), (2, n, 1, m)):
        rows, cols = np.arange(r0, r1), np.arange(c0, c1)
        assert np.array_equal(op.block(rows, cols), dense[r0:r1, c0:c1])
    rows = rng.choice(n, 11, replace=False)
    cols = rng.choice(m, 9, replace=False)
    assert np.array_equal(op.block(rows, cols), dense[np.ix_(rows, cols)])
    for i, j in rng.integers(0, [n, m], size=(40, 2)):
        assert op.entry(int(i), int(j)) == dense[i, j]
    for i in range(0, n, 6):
        assert np.array_equal(op.x_row(X[i]), dense[i])
    for j in range(0, m, 5):
        assert np.array_equal(op.z_col(Z[j]), dense[:, j])
    # one-column blocks take 16-row tiles, not the 2-row tile
    every_row = np.arange(n)
    for j in range(m):
        assert np.array_equal(op.block(every_row, [j]), dense[:, j : j + 1])


@pytest.mark.parametrize("d", [1, 15, 16, 17, 400])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_lazy_exact_every_family_and_dimension(family, d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((37, d))
    Z = rng.standard_normal((29, d))
    assert_lazy_matches_dense(family_spec(family, d), X, Z, rng)


@pytest.mark.parametrize("d", [1, 15, 16, 17, 400])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_lazy_exact_every_family_and_dimension_in_the_fallback(monkeypatch, family, d):
    # the same checks with the self-check failed: every side is raw rows
    # and every inner product comes from the broadcast fallback
    monkeypatch.setattr(kernels, "_tiles_exact", lambda d: False)
    test_lazy_exact_every_family_and_dimension(family, d)


def _panel_inputs(d):
    # X and Z each span two full panels and a partial third
    w = kernels._panel_width(d)
    rng = np.random.default_rng(100 + d)
    return rng.standard_normal((2 * w + 37, d)), rng.standard_normal((2 * w + 29, d)), rng


@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_lazy_exact_across_two_full_panels_and_a_partial_one(family, d):
    X, Z, rng = _panel_inputs(d)
    assert kernels._Side(X).layout.shape == kernels._Side(Z).layout.shape == (3, d, 256)
    assert_lazy_matches_dense(family_spec(family, d), X, Z, rng)


@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_lazy_exact_across_panels_in_the_fallback(monkeypatch, family, d):
    monkeypatch.setattr(kernels, "_tiles_exact", lambda d: False)
    X, Z, rng = _panel_inputs(d)
    assert_lazy_matches_dense(family_spec(family, d), X, Z, rng)


def test_sne_denominators_same_fused_or_partial_first():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((40, 17))
    Z = rng.standard_normal((35, 17))
    spec = family_spec("sne", 17)
    fused = KernelOperator(X, Z, spec)
    want = fused.materialize()
    partial = KernelOperator(X, Z, spec)
    partial.block([3, 20, 39], [0, 34])    # three rows normalized by the partial path
    assert np.array_equal(partial.materialize(), want)
    assert np.array_equal(partial._sne_den, fused._sne_den)
    by_column = KernelOperator(X, Z, spec)
    by_column.z_col(Z[4])                  # every row normalized by the partial path
    assert np.array_equal(by_column._sne_den, fused._sne_den)
    assert np.array_equal(by_column.block(np.arange(40), np.arange(35)), want)


def test_sne_entry_normalizes_its_row_on_cached_z_tiles(monkeypatch):
    # an entry whose row has no denominator yet evaluates that row over all
    # of Z with Z's cached tiles, not with a new tiling of Z
    rng = np.random.default_rng(23)
    X = rng.standard_normal((40, 17))
    Z = rng.standard_normal((35, 17))
    spec = family_spec("sne", 17)
    want = KernelOperator(X, Z, spec).materialize()
    op = KernelOperator(X, Z, spec)
    op.x_row(X[0])                        # tiles Z once and keeps the tiles
    tiled = []
    real = kernels._z_tiles
    monkeypatch.setattr(kernels, "_z_tiles", lambda a: tiled.append(len(a)) or real(a))
    for i, j in ((3, 7), (39, 0), (20, 34)):
        assert op.entry(i, j) == want[i, j]
    assert np.array_equal(op.block([11], np.arange(35)), want[11:12])
    assert max(tiled, default=0) < 35


def test_each_training_side_is_built_once(monkeypatch):
    # Z's side serves sne denominators, new x, blocks over all of Z and
    # materialize, X's side serves new z; a column subset builds its own.
    # The self-check for d = 17 runs first, so the spy sees layouts only,
    # never the check's own probe panels
    rng = np.random.default_rng(24)
    X = rng.standard_normal((40, 17))
    Z = rng.standard_normal((35, 17))
    assert kernels._tiles_exact(17)
    built = []
    real = kernels._z_tiles
    monkeypatch.setattr(kernels, "_z_tiles", lambda a: built.append(len(a)) or real(a))
    op = KernelOperator(X, Z, family_spec("sne", 17))
    for k in range(3):
        op.z_col(Z[k] - 0.5)
        op.x_row(X[k] + 0.5)
    op.block(np.arange(5), np.arange(35))
    op.materialize()
    assert sorted(built) == [35, 40]
    op.block(np.arange(5), [3, 1, 4])
    op.block([7], [0, 2])
    assert sorted(built) == [2, 3, 35, 40]


def test_fallback_equals_broadcast_oracle(monkeypatch):
    rng = np.random.default_rng(22)
    X = rng.standard_normal((37, 6))
    Z = rng.standard_normal((29, 6))
    engine = {f: gram(family_spec(f, 6), X, Z).values for f in ALL_FAMILIES}
    monkeypatch.setattr(kernels, "_tiles_exact", lambda d: False)
    want = kernels._pair_products(X, Z)
    assert np.array_equal(kernels._Side(Z).sq_dists(X), kernels._sq_dists(
        want.copy(), kernels._Side(X).sq, kernels._Side(Z).sq))
    assert np.array_equal(gram(KernelSpec.linear(), X, Z, scaled=False).values, want)
    for family in ALL_FAMILIES:
        spec = family_spec(family, 6)
        assert_lazy_matches_dense(spec, X, Z, rng)
        # the engine and the oracle differ at most in rounding
        assert np.allclose(gram(spec, X, Z).values, engine[family], rtol=1e-12, atol=0)


def test_self_check_rejects_position_dependent_gemm(monkeypatch):
    monkeypatch.setattr(kernels, "_TILE_EXACT", {})
    assert kernels._tiles_exact(5)
    exact_gemm = kernels._tile_gemm

    def skewed(xt, zt, out=None):
        out = exact_gemm(xt, zt, out)
        out[..., -1, :] *= 1.0 + 2.0 ** -50   # last tile row rounds differently
        return out

    def skewed_one_row(xt, zt, out=None):
        out = exact_gemm(xt, zt, out)
        if xt.shape[0] == 1:                  # only the kernel-vector path differs
            out *= 1.0 + 2.0 ** -50
        return out

    monkeypatch.setattr(kernels, "_tile_gemm", skewed)
    assert not kernels._tiles_exact(6)
    monkeypatch.setattr(kernels, "_tile_gemm", skewed_one_row)
    assert not kernels._tiles_exact(7)
    assert kernels._tiles_exact(5)         # cached per dimension

    def skewed_at(r, c):
        def gemm(xt, zt, out=None):
            out = exact_gemm(xt, zt, out)
            if xt.shape[1] > r:               # one tile row and one panel column differ
                out[..., r, c] *= 1.0 + 2.0 ** -50
            return out
        return gemm

    rng = np.random.default_rng(27)
    X, Z = rng.standard_normal((20, 5)), rng.standard_normal((30, 5))
    for r, c in [(4, 0), (0, 5)]:
        monkeypatch.setattr(kernels, "_TILE_EXACT", {})
        monkeypatch.setattr(kernels, "_tile_gemm", skewed_at(r, c))
        assert not kernels._tiles_exact(5)
        # the fallback then gives the entry the same bits either way
        op = KernelOperator(X, Z, KernelSpec.linear(), scaled=False)
        assert op.entry(r, c) == op.materialize()[r, c]


def test_self_check_replays_the_block_walk(monkeypatch):
    # the self-check's block and a real block over the same padded width
    # (d = 100: 32-column panels, 69 columns padded to 96) go through the
    # one walk, _fill_chunks, in the same chunks of rows
    monkeypatch.setattr(kernels, "_BLOCK_BUDGET", 2 * kernels._TILE ** 2)
    monkeypatch.setattr(kernels, "_TILE_EXACT", {})
    walks = []
    real = kernels._fill_chunks

    def spy(rows, x, layout, m, out=None):
        walks.append((layout.shape, []))
        for r, pp in real(rows, x, layout, m, out):
            walks[-1][1].append(r.size)
            yield r, pp

    monkeypatch.setattr(kernels, "_fill_chunks", spy)
    assert kernels._tiles_exact(100)
    want = ((3, 100, 32), [16, 16, 16, 16, 3])
    assert walks == [want] * 3            # one walk per round
    walks.clear()
    rng = np.random.default_rng(28)
    op = KernelOperator(rng.standard_normal((67, 100)), rng.standard_normal((69, 100)),
                        KernelSpec.linear())
    op.materialize()
    assert walks == [want]


def test_self_check_reaches_the_edge_tiles(monkeypatch):
    # a gemm that rounds differently only in the last row tile of a 16-row
    # batched call, or only in its last panel, where the partial tiles and
    # panels sit, is caught too
    exact_gemm = kernels._tile_gemm
    for edge in (np.s_[-1], np.s_[:, -1]):   # out is (row tiles, panels, 16, w)
        def skewed_edge(xt, zt, out=None):
            out = exact_gemm(xt, zt, out)
            if xt.shape[1] == kernels._TILE:
                out[edge] *= 1.0 + 2.0 ** -50
            return out

        monkeypatch.setattr(kernels, "_TILE_EXACT", {})
        monkeypatch.setattr(kernels, "_tile_gemm", skewed_edge)
        assert not kernels._tiles_exact(5)


@pytest.mark.parametrize("d", [1, 16, 17, 255, 256, 2000])
def test_self_check_probes_stay_small(monkeypatch, d):
    # the probes span two full panels and a partial one in both roles
    monkeypatch.setattr(kernels, "_TILE_EXACT", {})
    tracemalloc.start()
    try:
        kernels._tiles_exact(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# The kernel engine's per-d self-check on the BLAS the tests run on: a
# False sends every product of that dimension to the ~60x slower broadcast
# fallback, which stays correct, so no other test would notice.  The list
# holds every perfbench workload's feature dimension: 16 (nystrom-rbf), 20
# (compat-learn) and 400 (graph-sne).
@pytest.mark.parametrize("d", [1, 15, 16, 17, 20, 100, 255, 256, 400, 2000])
def test_tile_self_check_is_exact_on_this_blas(monkeypatch, d):
    monkeypatch.setattr(kernels, "_TILE_EXACT", {})   # no verdict cached or planted before
    assert kernels._tiles_exact(d)


@pytest.mark.parametrize("family", ["rbf", "sne"])
def test_a_norm_that_could_overflow_a_distance_fails_before_any_product(monkeypatch, family):
    # squared norms overflow from entries of about 1.3e154; a training side,
    # a new point or the rows of sq_dists with one is one NumericalError,
    # raised with no numpy warning (pytest turns a RuntimeWarning into an
    # error) and before any inner product is taken
    spec, eye, big = family_spec(family, 2), np.eye(2), np.array([[1e200, 0.0], [0.0, 1.0]])
    op = KernelOperator(eye, eye, spec)
    op.x_row(eye[0])   # the training sides' norms and layouts are built
    op.z_col(eye[0])

    def no_fill(*args, **kwargs):
        raise AssertionError("inner products taken")

    monkeypatch.setattr(kernels, "_fill", no_fill)
    for fails in (lambda: KernelOperator(big, eye, spec), lambda: KernelOperator(eye, big, spec),
                  lambda: op.x_row(big[0]), lambda: op.z_col(big[0]),
                  lambda: kernel_vector(spec, big[0], eye), lambda: kernel_vector(spec, eye[0], big),
                  lambda: kernels._Side(big).sq_dists(eye)):
        with pytest.raises(NumericalError, match="too large for a kernel distance"):
            fails()
    monkeypatch.undo()
    # rows whose squares sum past _SQ_MAX, each row's staying below it, take
    # the guarded path and keep their norms, bit for bit
    rows = np.sqrt(0.6 * kernels._SQ_MAX) * np.eye(2)
    assert np.array_equal(kernels._norms(rows), (rows * rows).sum(axis=1))
    assert KernelOperator(rows, eye, spec).shape == (2, 2)
    if family == "rbf":   # a norm of 1e300 keeps every distance finite: its values are 0
        assert not KernelOperator([[1e150, 0.0]], eye, spec).materialize().any()
        assert not op.x_row([1e150, 0.0]).any()


@pytest.mark.parametrize("family", ["linear", "poly"])
def test_linear_and_poly_compute_no_norm(monkeypatch, family):
    # only distances read squared norms; a block, a column subset and both
    # kernel vectors under linear or poly never compute one
    def no_norms(rows):
        raise AssertionError("squared norms computed")

    monkeypatch.setattr(kernels, "_norms", no_norms)
    rng = np.random.default_rng(31)
    X, Z = rng.standard_normal((20, 5)), rng.standard_normal((17, 5))
    op = KernelOperator(X, Z, family_spec(family, 5))
    assert op.shape == (20, 17)
    op.materialize()
    op.block([0, 3], [2, 5, 16])
    op.x_row(X[0])
    op.z_col(Z[0])
    kernel_vector(family_spec(family, 5), X[1], Z)


def test_an_overflowing_linear_kernel_is_a_numerical_error():
    # inner products of about 1e320 overflow: a block, both kernel vectors
    # and a lazy solver's first product are one NumericalError, with no
    # numpy warning (pytest turns a RuntimeWarning into an error); such a
    # fit was once reported as converged at rank 0
    X = 1e160 * np.random.default_rng(32).standard_normal((6, 3))
    op = KernelOperator(X, X, KernelSpec.linear(), scaled=False)
    for fails in (op.materialize, lambda: op.x_row(X[0]), lambda: op.z_col(X[0]),
                  lambda: truncated_svd(op, 3)):
        with pytest.raises(NumericalError, match="linear kernel values are not finite"):
            fails()


def test_a_narrow_block_stays_within_one_chunk():
    # one column of 4000 rows: chunks count the padded panel's 256 columns,
    # so the padded scratch stays one chunk, not 4000 x 256
    rng = np.random.default_rng(26)
    op = KernelOperator(rng.standard_normal((4000, 16)), rng.standard_normal((10, 16)),
                        family_spec("rbf", 16))
    op.block([0, 1], [3])
    tracemalloc.start()
    try:
        op.block(np.arange(4000), [3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4000 + 8 * kernels._BLOCK_BUDGET * 3


@pytest.mark.parametrize("d, width", [(1, 256), (15, 256), (16, 256), (17, 240), (100, 32),
                                      (255, 16), (256, 16), (400, 16), (2000, 16)])
def test_panel_width_follows_the_feature_dimension_alone(d, width):
    assert kernels._panel_width(d) == width
    rng = np.random.default_rng(d)
    for m in (1, width - 1, width, width + 1, 4000):
        a = rng.standard_normal((m, d))
        panels = kernels._z_tiles(a)
        assert panels.shape == (-(-m // width), d, width)
        rows = panels.transpose(0, 2, 1).reshape(-1, d)
        assert np.array_equal(rows[:m], a) and not rows[m:].any()


def test_budget_chunking_is_exact(monkeypatch):
    rng = np.random.default_rng(23)
    X = rng.standard_normal((70, 9))
    Z = rng.standard_normal((53, 9))
    W = rng.standard_normal((53, 2))
    V = rng.standard_normal((70, 2))
    spec = family_spec("sne", 9)
    dense = gram(spec, X, Z).values
    # one row tile per chunk: blocks, matmat/rmatmat and the sne
    # denominators chunk over rows
    monkeypatch.setattr(kernels, "_BLOCK_BUDGET", 2 * kernels._TILE ** 2)
    assert np.array_equal(kernels._Side(Z).sq_dists(X), kernels._sq_dists(
        gram(KernelSpec.linear(), X, Z, scaled=False).values, kernels._Side(X).sq,
        kernels._Side(Z).sq))
    assert np.array_equal(gram(spec, X, Z).values, dense)
    op = KernelOperator(X, Z, spec)
    assert np.array_equal(op.z_col(Z[0]), dense[:, 0])
    assert np.allclose(op.matmat(W), dense @ W, rtol=1e-12, atol=1e-15)
    assert np.allclose(op.rmatmat(V), dense.T @ V, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_chunk_boundaries_do_not_change_values(monkeypatch, family):
    rng = np.random.default_rng(25)
    X = rng.standard_normal((70, 9))
    Z = rng.standard_normal((53, 9))
    spec = family_spec(family, 9)
    rows = rng.choice(70, 37, replace=False)
    cols = rng.choice(53, 21, replace=False)
    every = np.arange(53)

    def evaluate():
        op = KernelOperator(X, Z, spec)
        # sne denominators filled from a block over every column, or
        # evaluated first for a block over some columns
        fused, partial = KernelOperator(X, Z, spec), KernelOperator(X, Z, spec)
        partial_cols = partial.block(rows, cols)
        return {
            "rows_all": [op.block(rows, every)],
            "all_cols": [KernelOperator(X, Z, spec).block(np.arange(70), cols)],
            "materialize": [op.materialize()],
            "entry": [np.array([op.entry(int(i), int(j)) for i, j in zip(rows, cols)])],
            "x_row": [op.x_row(X[i]) for i in rows[:4]],
            "z_col": [op.z_col(Z[j]) for j in cols[:4]],
            "every_col": [fused.block(rows, every), partial.block(rows, every)],
            "some_cols": [fused.block(rows, cols), partial_cols],
            "empty": [op.block([], cols), op.block(rows, [])],
        }

    want = evaluate()
    # one row tile per chunk: 16-row chunks over all of Z, the last one
    # partial, and a partial last panel
    monkeypatch.setattr(kernels, "_BLOCK_BUDGET", 2 * kernels._TILE ** 2)
    got = evaluate()
    for key, arrays in want.items():
        for a, b in zip(got[key], arrays, strict=True):
            assert a.shape == b.shape and np.array_equal(a, b), key
    for a, b in (want["every_col"], want["some_cols"]):
        assert np.array_equal(a, b)
    assert [a.shape for a in want["empty"]] == [(0, 21), (37, 0)]


def test_kernel_vectors_multiply_a_two_row_tile(monkeypatch):
    rng = np.random.default_rng(24)
    X = rng.standard_normal((37, 6))
    Z = rng.standard_normal((29, 6))
    op = KernelOperator(X, Z, family_spec("rbf", 6))
    dense = op.materialize()
    assert kernels._tiles_exact(6)
    heights = []
    exact_gemm = kernels._tile_gemm

    def spy(xt, zt, out=None):
        heights.append(xt.shape[1])
        return exact_gemm(xt, zt, out)

    monkeypatch.setattr(kernels, "_tile_gemm", spy)
    for call, want in ((lambda: op.x_row(X[3]), dense[3]),
                       (lambda: op.z_col(Z[5]), dense[:, 5]),
                       (lambda: op.entry(3, 5), dense[3, 5])):
        heights.clear()
        assert np.array_equal(call(), want)
        # one narrow call: the point and one zero row, never a 16-row tile
        assert heights == [2]


def test_every_fill_is_one_batched_gemm(monkeypatch):
    # one gemm call per chunk of a block and one per kernel vector, each
    # writing every tile and panel through ``out``: 16-row tiles, or 2-row
    # ones for a one-row block or a new point
    rng = np.random.default_rng(27)
    X = rng.standard_normal((150, 6))
    Z = rng.standard_normal((300, 6))
    op = KernelOperator(X, Z, family_spec("rbf", 6))
    assert kernels._tiles_exact(6)
    rows = np.sort(rng.choice(150, 100, replace=False))   # partial last tile
    cols = np.sort(rng.choice(300, 290, replace=False))   # partial last panel
    calls, chunks = [], []
    exact_gemm, fill_chunks = kernels._tile_gemm, kernels._fill_chunks

    def spy(xt, zt, out=None):
        calls.append((xt.shape[1], out is not None))
        return exact_gemm(xt, zt, out)

    def counted(*args):
        for r, pp in fill_chunks(*args):
            chunks.append(r.size)
            yield r, pp

    monkeypatch.setattr(kernels, "_tile_gemm", spy)
    monkeypatch.setattr(kernels, "_fill_chunks", counted)
    for call, vectors in ((op.materialize, 0), (lambda: op.block(rows, cols), 0),
                          (lambda: op.entry(3, 5), 0), (lambda: op.x_row(X[3]), 1),
                          (lambda: op.z_col(Z[5]), 1)):
        calls.clear()
        chunks.clear()
        call()
        want = [(2 if size == 1 else 16, True) for size in chunks] + [(2, True)] * vectors
        assert calls == want and want
    op.materialize()
    assert chunks == [64, 64, 22]


def test_sq_dists_holds_one_chunk_of_scratch():
    # the distances are filled and formed chunk by chunk, so beyond the
    # 400 x 400 result only one chunk of padded scratch is held (plus
    # numpy's ufunc buffers for the broadcast norms)
    rng = np.random.default_rng(28)
    E, F = rng.standard_normal((400, 16)), rng.standard_normal((400, 16))
    side = kernels._Side(E)
    assert side.layout.ndim == 3
    tracemalloc.start()
    try:
        side.sq_dists(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 400 * 400 + 8 * kernels._BLOCK_BUDGET + 2 ** 17


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), m=st.integers(1, 40),
       d=st.integers(1, 40), family=st.sampled_from(ALL_FAMILIES))
def test_kernel_vectors_equal_materialized_property(seed, n, m, d, family):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Z = rng.standard_normal((m, d))
    op = KernelOperator(X, Z, family_spec(family, d))
    dense = op.materialize()
    assert kernels._tiles_exact(d)
    for i in range(n):
        assert np.array_equal(op.x_row(X[i]), dense[i])
    for j in range(m):
        assert np.array_equal(op.z_col(Z[j]), dense[:, j])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), m=st.integers(1, 40),
       d=st.integers(1, 40), family=st.sampled_from(ALL_FAMILIES))
def test_blocks_and_entries_equal_materialized_property(seed, n, m, d, family):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Z = rng.standard_normal((m, d))
    spec = family_spec(family, d)
    dense = KernelOperator(X, Z, spec).materialize()
    # unsorted, with repeats; fresh operators, so sne rows are first
    # normalized by the partial path
    rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    cols = rng.integers(0, m, size=int(rng.integers(1, 2 * m + 1)))
    assert np.array_equal(KernelOperator(X, Z, spec).block(rows, cols), dense[np.ix_(rows, cols)])
    i, j = int(rng.integers(n)), int(rng.integers(m))
    assert KernelOperator(X, Z, spec).entry(i, j) == dense[i, j]
