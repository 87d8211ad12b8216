"""Kernel SVD through the coupled covariances route.

Fitting solves, in coefficient space, the coupled system

    G' G B_psi = G' B_phi Lambda,
    G G' B_phi = G B_psi Lambda,

whose solution is the top-r left/right singular vectors of the scaled
asymmetric Gram matrix G.  The fitted coefficients parameterize direction
sets in feature space implicitly; new points are handled through kernel
vectors against the training samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solvers
from .compat import CompatStrategy, compat_sets
from .kernels import GramMatrix, KernelOperator, KernelSpec, center, center_vector

SIDES = ("left", "right", "concat")


@dataclass
class KsvdModel:
    """Fitted kernel-SVD factors plus the training operator that projections
    of new points evaluate kernel vectors with: its ``spec`` is the kernel,
    its ``x_data`` and ``z_data`` the post-compat sample sets."""

    b_phi: np.ndarray            # n x r left coefficients, orthonormal columns
    b_psi: np.ndarray            # m x r right coefficients
    lambdas: np.ndarray          # positive, nonincreasing
    operator: KernelOperator
    gram: Optional[GramMatrix]   # None when fitted through a lazy solver
    compat: Optional[np.ndarray] = None
    compat_side: Optional[str] = None   # which side was projected: "x" or "z"
    requested_rank: int = 0

    @property
    def achieved_rank(self) -> int:
        return self.lambdas.shape[0]

    @property
    def centered(self) -> bool:
        return self.gram is not None and self.gram.centered

    @property
    def rank_deficient(self) -> bool:
        return self.achieved_rank < self.requested_rank


def fit(X, Z, kernel: KernelSpec, rank: int, do_center: bool = False,
        solver: Optional[solvers.SolverChoice] = None) -> KsvdModel:
    """Fit the rank-r kernel SVD of the scaled Gram matrix of (X, Z).

    X and Z need one feature dimension (:func:`fit_matrix` fits the rows
    and columns of a rectangular matrix).  When fewer than ``rank``
    positive singular values exist the model is truncated to the
    achievable rank and a RuntimeWarning is issued; so is one when the
    solver reports that it did not converge.  With an AsymNystrom solver
    and no centering the Gram matrix is never materialized; centering
    materializes it, with a RuntimeWarning.  The model keeps the solver's
    arrays, sign-fixed in place, not copies of them.
    """
    op = KernelOperator(X, Z, kernel, scaled=True)
    solvers._check_rank(rank, op.shape)   # before the Gram is built
    if solver is None:
        solver = solvers.Dense()
    lazy = isinstance(solver, solvers.AsymNystrom)
    if lazy and do_center:
        N, M = op.shape
        warnings.warn(
            f"centering evaluates all {N}*{M} = {N * M} Gram entries, so the Nystrom "
            "sample does not bound the cost", RuntimeWarning)
    g = None if lazy and not do_center else GramMatrix(op.materialize())
    if do_center:
        g = center(g)

    res = solvers.solve(op if g is None else g.values, rank, solver)
    if res.achieved_rank < rank:
        warnings.warn(
            f"requested rank {rank} but only {res.achieved_rank} positive singular "
            "values exist; model truncated", RuntimeWarning)
    if not res.converged:
        warnings.warn(
            f"solver did not converge in {res.iterations} iterations; the factors "
            "are its best iterate", RuntimeWarning)
    solvers._sign_fix_pairs(res.u, res.v)
    return KsvdModel(b_phi=res.u, b_psi=res.v, lambdas=res.lambdas, operator=op,
                     gram=g, requested_rank=rank)


def fit_matrix(A, kernel: KernelSpec, rank: int,
               compat: Optional[CompatStrategy] = None, do_center: bool = False,
               solver: Optional[solvers.SolverChoice] = None) -> KsvdModel:
    """Fit on a single data matrix: X = rows of A, Z = columns of A.

    A rectangular A needs ``compat``, an a0-a2 strategy whose matrix C
    projects the higher-dimensional side (Z of a tall A, X of a wide one);
    the model keeps C and that side for new points.  Square A takes no C.
    The a3 strategy needs targets: :func:`aksvd.compat.learn_compat`.
    """
    X, Z, C, side = compat_sets(compat, A)
    model = fit(X, Z, kernel, rank, do_center=do_center, solver=solver)
    model.compat, model.compat_side = C, side
    return model


def residuals(model: KsvdModel):
    """Frobenius residuals of the coupled system the factors must solve:
    r1 = ||G'G B_psi - G'B_phi L||_F, r2 = ||GG'B_phi - G B_psi L||_F."""
    G = model.operator.materialize() if model.gram is None else model.gram.values
    lam = model.lambdas
    g_psi = G @ model.b_psi      # each product is formed once and used twice
    gt_phi = G.T @ model.b_phi
    r1 = np.linalg.norm(G.T @ g_psi - gt_phi * lam[None, :])
    r2 = np.linalg.norm(G @ gt_phi - g_psi * lam[None, :])
    return float(r1), float(r2)


def _maybe_transform(v, model, side):
    """A new point on the projected side, as a point of A's row or column
    space, multiplied by the stored C; any other point as it is."""
    if model.compat is None or model.compat_side != side:
        return v
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != model.compat.shape[0]:
        raise ValueError(f"{side}_new has dimension {v.shape[0]}, "
                         f"expected {model.compat.shape[0]}")
    return v @ model.compat


def project_x(model: KsvdModel, x_new) -> np.ndarray:
    """Feature scores of a new x against the psi-side directions.

    Returns sqrt(n) * B_psi' g where g is the (scaled, centered like
    training) kernel vector of x_new; at a training point x_i this equals
    sqrt(n) * lambda_l * b_phi[i, l] coordinate-wise for an exact solver,
    but not for a Nystrom model, whose factors are not singular vectors.
    """
    x = _maybe_transform(x_new, model, "x")
    k = model.operator.x_row(x)
    if model.centered:
        k = center_vector(k, model.gram.row_means, model.gram.grand_mean)
    return np.sqrt(model.operator.shape[0]) * (model.b_psi.T @ k)


def project_z(model: KsvdModel, z_new) -> np.ndarray:
    """Mirror of project_x: sqrt(m) * B_phi' g with g the kernel vector
    of z_new against the training X (with the same training-point identity)."""
    z = _maybe_transform(z_new, model, "z")
    k = model.operator.z_col(z)
    if model.centered:
        k = center_vector(k, model.gram.col_means, model.gram.grand_mean)
    return np.sqrt(model.operator.shape[1]) * (model.b_phi.T @ k)


def embeddings(model: KsvdModel, side: str = "left") -> np.ndarray:
    """Training embeddings as a new array, one row per sample: B_phi (rows
    of X), B_psi (rows of Z), or their row-aligned concatenation (equally
    many x- and z-samples only)."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if side == "left":
        return model.b_phi.copy()
    if side == "right":
        return model.b_psi.copy()
    if model.b_phi.shape[0] != model.b_psi.shape[0]:
        raise ValueError(
            "concatenated embeddings require equally many x- and z-samples "
            f"(got {model.b_phi.shape[0]} and {model.b_psi.shape[0]})"
        )
    return np.hstack([model.b_phi, model.b_psi])
