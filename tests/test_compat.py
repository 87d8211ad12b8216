import numpy as np
import pytest

from aksvd.compat import (
    LearnableConfig,
    PcaProjection,
    PseudoInverse,
    RandomProjection,
    _c_gradient_analytic,
    _gram_values,
    _head_gradients,
    learn_compat,
    realize_compat,
    strategy_from_name,
)
from aksvd.errors import NumericalError
from aksvd.kernels import KernelOperator, KernelSpec, auto_gamma
from oracles import c_gradient_fd


def test_square_passthrough_all_strategies():
    A = np.eye(3)
    for strat in (PseudoInverse(), PcaProjection(), RandomProjection(seed=1)):
        C = realize_compat(strat, A)
        assert np.array_equal(C, np.eye(3))
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4))
    assert np.array_equal(realize_compat(PcaProjection(), B), np.eye(4))


def test_pca_projection_axis_aligned():
    A = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    C = realize_compat(PcaProjection(), A)
    assert C.shape == (3, 2)
    assert np.allclose(C, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), atol=1e-12)


def test_pca_projection_optimality_vs_random():
    # a1 minimizes ||A - A C C'||_F over orthonormal C
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 9))
    C = realize_compat(PcaProjection(), A)
    best = np.linalg.norm(A - A @ C @ C.T)
    for t in range(20):
        Q, _ = np.linalg.qr(rng.standard_normal((9, 5)))
        assert best <= np.linalg.norm(A - A @ Q @ Q.T) + 1e-12


def test_pseudo_inverse_orthonormal_rows():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    A = Q.T  # 3x7 with orthonormal rows
    C = realize_compat(PseudoInverse(), A)
    assert np.allclose(C, A.T, atol=1e-12)


def test_pseudo_inverse_matches_pinv_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 9))
    C = realize_compat(PseudoInverse(), A)
    # ((A A')^+ A)' equals pinv(A) for full-row-rank A
    assert np.allclose(C, np.linalg.pinv(A), atol=1e-8)
    assert np.allclose(A @ C, np.eye(4), atol=1e-8)


def test_pseudo_inverse_factors_a_a_transpose_once(monkeypatch):
    # one SVD of A A' serves both the singularity check and the
    # pseudo-inverse, whose steps it follows to pinv's own result
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 11))
    svd, calls = np.linalg.svd, []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    def no_pinv(*args, **kwargs):
        raise AssertionError("pinv factors A A' a second time")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", spy)
        m.setattr(np.linalg, "pinv", no_pinv)
        C = realize_compat(PseudoInverse(), A)
    assert len(calls) == 1
    AAt = A @ A.T
    assert np.array_equal(C, (np.linalg.pinv(AAt) @ A).T)


def test_pseudo_inverse_singular_suggests_a1():
    A = np.zeros((3, 5))
    A[0, 0] = 1.0  # A A' has rank 1 < 3
    with pytest.raises(NumericalError, match="a1"):
        realize_compat(PseudoInverse(), A)


def test_random_projection_deterministic():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 8))
    C1 = realize_compat(RandomProjection(seed=99), A)
    C2 = realize_compat(RandomProjection(seed=99), A)
    assert np.array_equal(C1, C2)
    C3 = realize_compat(RandomProjection(seed=100), A)
    assert not np.array_equal(C1, C3)
    assert C1.shape == (8, 3)


def test_mirrored_construction_tall():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 3))  # N > M
    C = realize_compat(PcaProjection(), A)
    assert C.shape == (8, 3)
    # columns are the top left singular vectors of A (right of A')
    u, _, _ = np.linalg.svd(A, full_matrices=False)
    for s in range(3):
        assert abs(C[:, s] @ u[:, s]) >= 1 - 1e-10


@pytest.mark.parametrize("shape", [(4, 6), (6, 4)], ids=["wide", "tall"])
def test_realize_compat_rejects_what_is_no_strategy(shape):
    A = np.random.default_rng(5).standard_normal(shape)
    with pytest.raises(ValueError, match="unknown compat strategy 'a1'"):
        realize_compat("a1", A)


def test_strategy_from_name():
    assert isinstance(strategy_from_name("a0"), PseudoInverse)
    assert isinstance(strategy_from_name("a1"), PcaProjection)
    assert strategy_from_name("a2", seed=7) == RandomProjection(seed=7)
    for bad in ("a3", "a4"):  # a3 needs targets: learn_compat
        with pytest.raises(ValueError):
            strategy_from_name(bad)
    with pytest.raises(TypeError):
        strategy_from_name("a1", config=LearnableConfig())


# ---------------------------------------------------------------------------
# learnable C
# ---------------------------------------------------------------------------

def test_learn_compat_zero_steps_keeps_a1():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    cfg = LearnableConfig(rank_r=2, steps=0, learning_rate=1e-2, seed=0)
    res = learn_compat(A, y, KernelSpec.rbf(3.0), cfg)
    assert np.array_equal(res.c, realize_compat(PcaProjection(), A))


def test_learn_compat_linear_regression_reaches_zero():
    # targets an exact linear function of the projected features: the
    # closed-form least-squares solution has zero loss, and gradient
    # descent on the head should approach it
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 4))
    cfg = LearnableConfig(rank_r=2, steps=200, learning_rate=0.5,
                          seed=0, task="regression", outer_iters=1)
    C0 = realize_compat(PcaProjection(), A)
    spec = KernelSpec.linear()
    G0 = _gram_values(A, C0, spec)
    _, _, vt = np.linalg.svd(G0, full_matrices=False)
    F = G0 @ vt[:2].T
    y = F @ np.array([1.5, -2.0]) + 0.3
    # oracle: exact linear fit exists
    coef, *_ = np.linalg.lstsq(np.column_stack([F, np.ones(12)]), y, rcond=None)
    assert np.linalg.norm(np.column_stack([F, np.ones(12)]) @ coef - y) <= 1e-10
    res = learn_compat(A, y, spec, cfg)
    rmse = np.sqrt(res.losses[-1])
    assert rmse <= 1e-3


def test_learn_compat_loss_nonincreasing():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    cfg = LearnableConfig(rank_r=3, steps=10, learning_rate=1e-2,
                          seed=1, outer_iters=8)
    res = learn_compat(A, y, KernelSpec.rbf(3.0), cfg)
    diffs = np.diff(res.losses)
    assert np.all(diffs <= 1e-6)


def test_learn_compat_classification():
    rng = np.random.default_rng(9)
    A = np.vstack([rng.standard_normal((8, 3)) + 4.0,
                   rng.standard_normal((8, 3)) - 4.0])
    y = np.array([0] * 8 + [1] * 8)
    cfg = LearnableConfig(rank_r=2, steps=30, learning_rate=0.1, seed=0,
                          task="classification", outer_iters=5)
    res = learn_compat(A, y, KernelSpec.rbf(8.0), cfg)
    G = _gram_values(A, res.c, KernelSpec.rbf(8.0))
    _, _, vt = np.linalg.svd(G, full_matrices=False)
    pred = res.head.predict(G @ vt[:2].T)
    assert np.mean(pred == y) >= 0.9


@pytest.mark.parametrize("targets, rank_r, message", [
    (np.zeros(7), 2, "targets length 7 does not match 8 rows of A"),
    (np.zeros(8), 4, r"rank_r 4 exceeds min\(N, M\) = 3"),
], ids=["targets-length", "rank-above-min"])
def test_learn_compat_rejects_a_mismatched_problem(targets, rank_r, message):
    A = np.random.default_rng(9).standard_normal((8, 3))
    cfg = LearnableConfig(rank_r=rank_r, steps=2, task="regression", outer_iters=1)
    with pytest.raises(ValueError, match=message):
        learn_compat(A, targets, KernelSpec.rbf(3.0), cfg)


def test_learn_compat_diverging_learning_rate_is_a_numerical_error():
    # C overflows inside the first outer iteration under both kernels
    rng = np.random.default_rng(8)
    A = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    cfg = LearnableConfig(rank_r=2, steps=20, learning_rate=1.0, outer_iters=3)
    for spec in (KernelSpec.linear(), KernelSpec.poly()):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="training loss diverged; decrease the "
                                                     "learning rate"):
                learn_compat(A, y, spec, cfg)


def test_learn_compat_non_finite_loss_is_a_numerical_error():
    # C stays finite through every step, but the head's loss overflows
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    cfg = LearnableConfig(rank_r=2, steps=3, learning_rate=10, outer_iters=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="training loss diverged"):
            learn_compat(A, y, KernelSpec.poly(3, 1.0), cfg)


@pytest.mark.parametrize("learning_rate", [10.0, 1e6])
def test_learn_compat_rolls_back_a_first_iteration_worse_than_the_untrained_head(
        learning_rate):
    # the first outer iteration overshoots far above the zero head's loss
    rng = np.random.default_rng(8)
    A = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    cfg = LearnableConfig(rank_r=2, steps=20, learning_rate=learning_rate, outer_iters=3)
    with np.errstate(over="ignore", invalid="ignore"):
        res = learn_compat(A, y, KernelSpec.rbf(3.0), cfg)
    assert np.array_equal(res.c, realize_compat(PcaProjection(), A))
    assert not res.head.weights.any() and not res.head.bias.any()
    assert res.losses == [float(np.mean(y ** 2))]


def test_learn_compat_rejects_nan_class_labels():
    A = np.random.default_rng(9).standard_normal((8, 3))
    cfg = LearnableConfig(rank_r=2, steps=2, task="classification", outer_iters=1)
    with pytest.raises(ValueError, match="class labels contain NaN"):
        learn_compat(A, [0, 1, 0, 1, np.nan, 1, 0, np.nan], KernelSpec.rbf(8.0), cfg)


_FAMILIES = [KernelSpec.linear(), KernelSpec.poly(3, 0.5), KernelSpec.rbf(2.5),
             KernelSpec.sne(2.5)]


@pytest.mark.parametrize("shape", [(5, 7), (7, 4), (6, 6)], ids=["wide", "tall", "square"])
@pytest.mark.parametrize("spec", _FAMILIES, ids=lambda s: s.family)
def test_fd_matches_analytic_gradient(spec, shape):
    # wide projects the x side, tall and square the z side
    rng = np.random.default_rng(10)
    A = rng.standard_normal(shape)
    y = rng.standard_normal(shape[0])
    C = realize_compat(PcaProjection(), A)
    C = C + 0.05 * rng.standard_normal(C.shape)
    Y = y.reshape(-1, 1)
    G = _gram_values(A, C, spec)
    _, _, vt = np.linalg.svd(G, full_matrices=False)
    V = vt[:2].T
    W = 0.1 * rng.standard_normal((2, 1))
    b = np.array([0.05])
    _, _, dG = _head_gradients(G, V, Y, W, b)
    g_ana = _c_gradient_analytic(A, C, spec, dG, G)
    g_fd = c_gradient_fd(A, C, spec, V, Y, W, b, h=1e-5)
    rel = np.linalg.norm(g_fd - g_ana) / np.linalg.norm(g_ana)
    assert rel <= 1e-4


def test_learn_compat_one_gram_build_per_step(monkeypatch):
    # one build for the initial C and one per gradient step
    calls = []
    orig = KernelOperator.materialize

    def counting(self):
        calls.append(self.shape)
        return orig(self)

    monkeypatch.setattr(KernelOperator, "materialize", counting)
    rng = np.random.default_rng(13)
    A = rng.standard_normal((30, 20))
    y = rng.standard_normal(30)
    cfg = LearnableConfig(rank_r=4, steps=2, learning_rate=2e-2, seed=0, outer_iters=2)
    learn_compat(A, y, KernelSpec.sne(auto_gamma(A)), cfg)
    assert 1 <= len(calls) <= 8, len(calls)


def test_learn_compat_rolls_back_an_iteration_that_raises_the_loss():
    # a step this large overshoots on the second outer iteration: that
    # iteration is undone, so the result is the one-iteration result
    rng = np.random.default_rng(0)
    A = rng.random((12, 8))
    y = rng.standard_normal(12)
    cfg = LearnableConfig(rank_r=2, steps=1, learning_rate=2.0, outer_iters=4)
    res = learn_compat(A, y, KernelSpec.linear(), cfg)
    once = learn_compat(A, y, KernelSpec.linear(),
                        LearnableConfig(rank_r=2, steps=1, learning_rate=2.0, outer_iters=1))
    assert len(res.losses) == 1 and res.losses == once.losses
    assert np.array_equal(res.c, once.c)
    assert np.array_equal(res.head.weights, once.head.weights)
    assert np.array_equal(res.head.bias, once.head.bias)


def test_learn_compat_no_outer_iterations_scores_the_untrained_head():
    rng = np.random.default_rng(0)
    A = rng.random((12, 8))
    y = rng.standard_normal(12)
    cfg = LearnableConfig(rank_r=2, steps=5, learning_rate=1e-2, outer_iters=0)
    res = learn_compat(A, y, KernelSpec.linear(), cfg)
    assert np.array_equal(res.c, realize_compat(PcaProjection(), A))
    assert not res.head.weights.any() and not res.head.bias.any()
    # a zero head predicts 0, so the loss is the mean squared target
    assert res.losses == [pytest.approx(np.mean(y ** 2), rel=1e-12)]


def test_learn_compat_deterministic():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    cfg = LearnableConfig(rank_r=2, steps=5, learning_rate=1e-2, seed=3,
                          outer_iters=3)
    r1 = learn_compat(A, y, KernelSpec.rbf(3.0), cfg)
    r2 = learn_compat(A, y, KernelSpec.rbf(3.0), cfg)
    assert np.array_equal(r1.c, r2.c)
    assert r1.losses == r2.losses


def test_learnable_config_validation():
    with pytest.raises(ValueError):
        LearnableConfig(task="ranking")
    with pytest.raises(ValueError):
        LearnableConfig(rank_r=0)


@pytest.mark.parametrize("bad", [{"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                                 {"learning_rate": -0.01}, {"learning_rate": 0.0},
                                 {"outer_iters": -2}])
def test_learnable_config_rejects_bad_step_settings(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        LearnableConfig(**bad)
