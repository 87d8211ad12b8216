import warnings

import numpy as np
import pytest

from aksvd import solvers
from aksvd.ksvd import embeddings, fit, fit_matrix, project_x, project_z, residuals
from aksvd.compat import PcaProjection
from aksvd.errors import NumericalError
from aksvd.kernels import KernelOperator, KernelSpec, center, gram
from aksvd.solvers import AsymNystrom, Dense, Randomized, Truncated, dense_svd, eta_metric


def test_fit_identity_linear():
    X = np.eye(2)
    m = fit(X, X, KernelSpec.linear(), rank=2)
    assert np.allclose(m.lambdas, [0.5, 0.5])
    # tied singular values: compare the spanned subspace, not the vectors
    P = m.b_phi @ m.b_phi.T
    assert np.allclose(P, np.eye(2), atol=1e-10)
    assert np.allclose(m.b_phi.T @ m.b_phi, np.eye(2), atol=1e-12)


def test_fit_matches_dense_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 4))
    Z = rng.standard_normal((5, 4))
    m = fit(X, Z, KernelSpec.rbf(1.5), rank=3)
    G = gram(KernelSpec.rbf(1.5), X, Z).values
    ref = dense_svd(G, 3)
    assert np.allclose(m.lambdas, ref.lambdas, atol=1e-8)
    for s in range(3):
        assert abs(m.b_phi[:, s] @ ref.u[:, s]) >= 1 - 1e-8
        assert abs(m.b_psi[:, s] @ ref.v[:, s]) >= 1 - 1e-8


def test_fit_full_rank_reconstructs_gram():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 3))
    Z = rng.standard_normal((9, 3))
    m = fit(X, Z, KernelSpec.linear(), rank=3)  # linear gram has rank <= 3
    G = gram(KernelSpec.linear(), X, Z).values
    recon = m.b_phi @ np.diag(m.lambdas) @ m.b_psi.T
    assert np.linalg.norm(G - recon) <= 1e-8 * np.linalg.norm(G)


def test_fit_model_invariants_random_instances():
    rng = np.random.default_rng(2)
    specs = [KernelSpec.linear(), KernelSpec.rbf(2.0), KernelSpec.sne(2.0)]
    for trial in range(100):
        n = int(rng.integers(4, 31))
        m_ = int(rng.integers(4, 31))
        d = int(rng.integers(2, 6))
        r = int(min(3, n, m_))
        X = rng.standard_normal((n, d))
        Z = rng.standard_normal((m_, d))
        spec = specs[trial % 3]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # centered linear grams may lose rank
            model = fit(X, Z, spec, rank=r, do_center=bool(trial % 2))
        rr = model.achieved_rank
        assert np.allclose(model.b_phi.T @ model.b_phi, np.eye(rr), atol=1e-8)
        assert np.allclose(model.b_psi.T @ model.b_psi, np.eye(rr), atol=1e-8)
        assert np.all(model.lambdas > 0)
        assert np.all(np.diff(model.lambdas) <= 1e-12)
        G = model.gram.values
        lam1 = model.lambdas[0]
        assert np.linalg.norm(G @ model.b_psi - model.b_phi * model.lambdas) <= 1e-6 * lam1
        assert np.linalg.norm(G.T @ model.b_phi - model.b_psi * model.lambdas) <= 1e-6 * lam1


def test_fit_rank_deficient_truncates_with_warning():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 2))
    Z = rng.standard_normal((6, 2))
    with pytest.warns(RuntimeWarning, match="positive singular"):
        m = fit(X, Z, KernelSpec.linear(), rank=4)  # linear rank <= 2
    assert m.achieved_rank == 2


def test_fit_warns_when_solver_did_not_converge():
    A = np.random.default_rng(12).standard_normal((60, 60)) * 0.99 ** np.arange(60)
    with pytest.warns(RuntimeWarning, match="did not converge in 5 iterations"):
        m = fit_matrix(A, KernelSpec.linear(), 4, solver=Truncated(tol=1e-14, max_iter=5))
    assert m.lambdas.shape == (4,)


def test_fit_warns_when_tsvd_missed_a_copy_of_a_repeated_value():
    # G = U diag(1, 1, 1, 0.9, ...) V' / 48: tsvd meets its residual test with
    # two of the three copies of the top value, which its missed-value check refuses
    rng = np.random.default_rng(0)
    U, V = (np.linalg.qr(rng.standard_normal((48, 48)))[0] for _ in range(2))
    s = np.concatenate([[1.0, 1.0], 0.9 ** np.arange(46)])
    with pytest.warns(RuntimeWarning, match="did not converge"):
        fit(U * s, V, KernelSpec.linear(), 3, solver=Truncated(tol=1e-12))


def test_centered_nystrom_fit_warns_that_it_materializes_the_gram():
    rng = np.random.default_rng(13)
    X, Z = rng.standard_normal((60, 3)), rng.standard_normal((50, 3))
    with pytest.warns(RuntimeWarning, match=r"centering evaluates all 60\*50 = 3000"):
        m = fit(X, Z, KernelSpec.rbf(2.0), 3, do_center=True, solver=AsymNystrom(20, 20))
    assert m.centered


def test_uncentered_nystrom_fit_does_not_warn():
    rng = np.random.default_rng(13)
    X, Z = rng.standard_normal((60, 3)), rng.standard_normal((50, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = fit(X, Z, KernelSpec.rbf(2.0), 3, solver=AsymNystrom(20, 20))
    assert m.gram is None


def test_fit_rejects_bad_rank():
    with pytest.raises(ValueError):
        fit(np.eye(3), np.eye(3), KernelSpec.linear(), rank=4)


def test_residuals_exact_fit():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((9, 3))
    Z = rng.standard_normal((7, 3))
    m = fit(X, Z, KernelSpec.rbf(1.0), rank=3)
    r1, r2 = residuals(m)
    lam1 = m.lambdas[0]
    assert r1 <= 1e-8 * lam1 ** 2
    assert r2 <= 1e-8 * lam1 ** 2


def test_residuals_detect_wrong_factors():
    rng = np.random.default_rng(5)
    for trial in range(10):
        X = rng.standard_normal((10, 3))
        Z = rng.standard_normal((8, 3))
        m = fit(X, Z, KernelSpec.rbf(1.5), rank=3)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        m.b_psi = Q
        r1, _ = residuals(m)
        assert r1 > 1e-2 * m.lambdas[0] ** 2


def test_residuals_rank_one_zero():
    u = np.array([[1.0], [2.0], [3.0]])
    v = np.array([[2.0], [1.0]])
    G = u @ v.T
    # feed the rank-1 matrix through a linear-kernel factorization of itself
    m = fit(u, v, KernelSpec.linear(), rank=1)
    r1, r2 = residuals(m)
    assert r1 <= 1e-10 and r2 <= 1e-10


def test_project_x_training_identity():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 3))
    Z = rng.standard_normal((6, 3))
    for do_center in (False, True):
        m = fit(X, Z, KernelSpec.rbf(2.0), rank=3, do_center=do_center)
        n = X.shape[0]
        for i in range(8):
            got = project_x(m, X[i])
            want = np.sqrt(n) * m.lambdas * m.b_phi[i]
            assert np.allclose(got, want, atol=1e-8)


def test_project_z_training_identity():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((7, 2))
    Z = rng.standard_normal((9, 2))
    for do_center in (False, True):
        m = fit(X, Z, KernelSpec.sne(2.0), rank=2, do_center=do_center)
        for j in range(9):
            got = project_z(m, Z[j])
            want = np.sqrt(9) * m.lambdas * m.b_psi[j]
            assert np.allclose(got, want, atol=1e-8)


def test_project_constant_gram_centered_is_zero():
    # constant kernel matrix: centering annihilates every projection
    X = np.ones((5, 2))
    Z = np.ones((4, 2))
    m = fit(X, Z, KernelSpec.linear(), rank=1, do_center=False)
    mc_gram = center(gram(KernelSpec.linear(), X, Z))
    assert np.allclose(mc_gram.values, 0.0)


def test_project_rank_one_line():
    # points on a line through the origin: projections recover the
    # coordinate along the line (closed-form rank-1 SVD)
    t = np.array([1.0, 2.0, -1.5, 0.5])
    w = np.array([0.6, 0.8])
    X = np.outer(t, w)
    m = fit(X, X, KernelSpec.linear(), rank=1)
    projs = np.array([project_x(m, x)[0] for x in X])
    ratio = projs / t
    assert np.allclose(ratio, ratio[0], atol=1e-10)


def test_project_x_symmetric_case_agrees_with_project_z():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 3))
    m = fit(X, X, KernelSpec.rbf(1.5), rank=2)
    for point in X[:3]:
        px = project_x(m, point)
        pz = project_z(m, point)
        assert np.allclose(np.abs(px), np.abs(pz), atol=1e-8)


def test_project_dimension_mismatch():
    m = fit(np.eye(3), np.eye(3), KernelSpec.linear(), rank=2)
    with pytest.raises(ValueError):
        project_x(m, np.ones(5))
    # one point is a (d,) or a (1, d) array; no other shape of d entries is
    # flattened into one
    m = fit(np.eye(4), np.eye(4), KernelSpec.linear(), rank=2)
    for project, name in ((project_x, "x_new"), (project_z, "z_new")):
        assert np.array_equal(project(m, np.ones((1, 4))), project(m, np.ones(4)))
        for shape in ((2, 2), (4, 1), (1, 1, 4)):
            with pytest.raises(ValueError, match=f"{name} must be"):
                project(m, np.ones(shape))


@pytest.mark.parametrize("project", [project_x, project_z])
def test_an_overflowing_poly_point_is_a_numerical_error(project):
    # (x'z + 1)^3 at a point of norm 1e120 overflows
    m = fit(np.eye(2), np.eye(2), KernelSpec.poly(3), rank=1)
    with pytest.raises(NumericalError, match="poly kernel values are not finite"):
        project(m, np.array([1e120, 0.0]))


@pytest.mark.parametrize("project", [project_x, project_z])
@pytest.mark.parametrize("family", ["linear", "rbf", "sne"])
def test_a_huge_point_scores_or_fails_with_no_warning(project, family):
    # the squared norm of [1e200, 0] overflows: linear reads no norm and
    # scores the point, rbf and sne refuse it; neither warns (pytest turns
    # a RuntimeWarning into an error)
    spec = KernelSpec(family, gamma=None if family == "linear" else 1.0)
    m = fit(np.eye(2), np.eye(2), spec, rank=1)
    if family == "linear":
        assert np.isfinite(project(m, np.array([1e200, 0.0]))).all()
        return
    with pytest.raises(NumericalError, match="too large for a kernel distance"):
        project(m, np.array([1e200, 0.0]))
    with pytest.raises(NumericalError, match="too large for a kernel distance"):
        fit(np.array([[1e200, 0.0], [0.0, 1.0]]), np.eye(2), spec, rank=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.poly(), KernelSpec.rbf(2.0),
                                  KernelSpec.sne(2.0)], ids=lambda s: s.family)
@pytest.mark.parametrize("project, name", [(project_x, "x_new"), (project_z, "z_new")])
def test_project_rejects_non_finite_point(spec, bad, project, name, monkeypatch):
    rng = np.random.default_rng(10)
    m = fit(rng.standard_normal((6, 3)), rng.standard_normal((5, 3)), spec, rank=2)
    point = np.array([0.5, bad, -0.5])

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel evaluated for a non-finite point")

    monkeypatch.setattr(type(m.operator), "_kernel", no_kernel)
    with pytest.raises(ValueError, match=f"{name} contains non-finite values"):
        project(m, point)


@pytest.mark.parametrize("do_center", [False, True], ids=["raw", "centered"])
@pytest.mark.parametrize("name", sorted(solvers.SOLVERS))
def test_fit_keeps_the_solvers_factors_sign_fixed(name, do_center):
    # the model's factors are solve()'s on the Gram (the operator for a lazy
    # fit), sign-fixed in pairs, bit for bit
    rng = np.random.default_rng(31)
    X, Z = rng.standard_normal((30, 5)), rng.standard_normal((28, 5))
    spec = KernelSpec.rbf(2.0)
    choice = solvers.make_choice(name, n_sub=12, m_sub=12, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # asymnys centering
        m = fit(X, Z, spec, 3, do_center=do_center, solver=choice)
    g = center(gram(spec, X, Z)) if do_center else gram(spec, X, Z)
    lazy = name == "asymnys" and not do_center
    res = solvers.solve(KernelOperator(X, Z, spec) if lazy else g.values, 3, choice)
    solvers._sign_fix_pairs(res.u, res.v)
    for got, want in ((m.b_phi, res.u), (m.b_psi, res.v), (m.lambdas, res.lambdas)):
        assert np.array_equal(got, want)
    assert (m.gram is None) == lazy


@pytest.mark.parametrize("name", ["X", "Z"])
def test_fit_names_the_non_finite_side(name):
    rng = np.random.default_rng(32)
    data = {"X": rng.standard_normal((6, 3)), "Z": rng.standard_normal((5, 3))}
    data[name][2, 1] = np.nan
    with pytest.raises(ValueError, match=f"{name} contains non-finite values"):
        fit(data["X"], data["Z"], KernelSpec.linear(), rank=2)


def test_embeddings_sides():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((6, 6))
    m = fit_matrix(A, KernelSpec.linear(), rank=2)
    left = embeddings(m, "left")
    right = embeddings(m, "right")
    conc = embeddings(m, "concat")
    assert left.shape == (6, 2)
    assert right.shape == (6, 2)
    assert conc.shape == (6, 4)
    assert np.array_equal(conc[:, :2], left)
    assert np.array_equal(conc[:, 2:], right)
    G = m.gram.values
    ref = dense_svd(G, 2)
    for s in range(2):
        assert abs(left[:, s] @ ref.u[:, s]) >= 1 - 1e-8


def test_embeddings_rejects_an_unknown_side():
    m = fit_matrix(np.random.default_rng(9).standard_normal((6, 6)), KernelSpec.linear(), rank=2)
    with pytest.raises(ValueError, match="side must be one of"):
        embeddings(m, "middle")


def test_embeddings_concat_requires_square():
    rng = np.random.default_rng(10)
    m = fit(rng.standard_normal((5, 2)), rng.standard_normal((7, 2)),
            KernelSpec.linear(), rank=2)
    with pytest.raises(ValueError):
        embeddings(m, "concat")


def test_solver_independence():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((12, 4))
    Z = rng.standard_normal((10, 4))
    spec = KernelSpec.rbf(2.0)
    G = gram(spec, X, Z).values
    ref = dense_svd(G, 3)
    for solver in (Dense(), Truncated(tol=1e-10),
                   Randomized(oversample=7, power=2, seed=0),
                   AsymNystrom(n_sub=12, m_sub=10, seed=0)):
        m = fit(X, Z, spec, rank=3, solver=solver)
        eta = eta_metric(ref.u, ref.lambdas, ref.v, m.b_phi, m.b_psi)
        assert eta <= 1e-6, f"{solver} eta={eta}"


def test_fit_lazy_asym_nystrom_skips_materialization():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 3))
    Z = rng.standard_normal((25, 3))
    m = fit(X, Z, KernelSpec.rbf(1.0), rank=2, solver=AsymNystrom(10, 8, seed=0))
    assert m.gram is None
    assert m.operator.eval_count < 30 * 25


def test_scaling_covariance_linear_kernel():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((7, 3))
    Z = rng.standard_normal((6, 3))
    m1 = fit(X, Z, KernelSpec.linear(), rank=2)
    c = 3.0
    m2 = fit(c * X, c * Z, KernelSpec.linear(), rank=2)
    assert np.allclose(m2.lambdas, c ** 2 * m1.lambdas, rtol=1e-10)
    for s in range(2):
        assert abs(m1.b_phi[:, s] @ m2.b_phi[:, s]) >= 1 - 1e-10


def test_compat_required_for_mismatched_dims():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((8, 5))
    with pytest.raises(ValueError, match="compat"):
        fit(A, np.ascontiguousarray(A.T), KernelSpec.rbf(1.0), rank=2)


def test_fit_matrix_rectangular_with_compat():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((9, 5))  # N > M: z side projected
    m = fit_matrix(A, KernelSpec.rbf(2.0), rank=2, compat=PcaProjection())
    assert m.compat is not None and m.compat_side == "z"
    assert m.compat.shape == (9, 5)
    assert m.operator.x_data.shape == (9, 5)
    assert m.operator.z_data.shape == (5, 5)
    assert m.b_phi.shape == (9, 2)
    assert m.b_psi.shape == (5, 2)
    # projection of a transformed new z works through the stored compat
    z_new_original = rng.standard_normal(9)
    p = project_z(m, z_new_original)
    assert p.shape == (2,)


def test_fit_matrix_wide_with_compat():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((4, 7))  # M > N: x side projected
    m = fit_matrix(A, KernelSpec.rbf(2.0), rank=2, compat=PcaProjection())
    assert m.compat_side == "x"
    assert m.compat.shape == (7, 4)
    assert m.operator.x_data.shape == (4, 4)
    assert m.operator.z_data.shape == (7, 4)


def test_compat_side_points_must_be_pre_projection():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((9, 5))  # tall: z side projected by a 9 x 5 C
    m = fit_matrix(A, KernelSpec.rbf(2.0), rank=2, compat=PcaProjection())
    z = rng.standard_normal(9)
    assert np.array_equal(project_z(m, z), project_z(m, z.reshape(1, -1)))
    with pytest.raises(ValueError, match="z_new has dimension 5, expected 9"):
        project_z(m, z @ m.compat)   # already projected
    with pytest.raises(ValueError, match=r"z_new must be one point, got shape \(3, 3\)"):
        project_z(m, z.reshape(3, 3))
    with pytest.raises(ValueError, match="x_new has dimension 9, expected 5"):
        project_x(m, z)              # x side is not projected


def test_compat_is_fit_matrix_only():
    A = np.random.default_rng(19).standard_normal((6, 4))
    with pytest.raises(TypeError):
        fit(A, A, KernelSpec.linear(), rank=2, compat=PcaProjection())
    square = fit_matrix(A[:4], KernelSpec.linear(), rank=2, compat=PcaProjection())
    assert square.compat is None and square.compat_side is None


def test_sign_convention_deterministic():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((8, 3))
    Z = rng.standard_normal((6, 3))
    m1 = fit(X, Z, KernelSpec.rbf(1.0), rank=3)
    m2 = fit(X, Z, KernelSpec.rbf(1.0), rank=3)
    assert np.array_equal(m1.b_phi, m2.b_phi)
    for s in range(3):
        i = np.argmax(np.abs(m1.b_phi[:, s]))
        assert m1.b_phi[i, s] > 0
