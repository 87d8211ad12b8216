"""Feature extraction on a generic (non-square) dataset, comparing the
fixed compatibility projections with the task-trained one.

A rectangular sample matrix pairs row-samples with column-samples of a
different dimension; the compatibility matrix C reconciles them.  a0-a2
are task-agnostic and perform comparably; a3 trains C end-to-end against
the regression loss, refreshing the singular-vector basis once per outer
iteration and holding it fixed during the gradient steps.
"""

import numpy as np

from aksvd import KernelSpec, fit_matrix, learn_compat
from aksvd.compat import (
    LearnableConfig,
    PcaProjection,
    PseudoInverse,
    RandomProjection,
    _gram_values,
)
from aksvd.downstream import linear_head

rng = np.random.default_rng(21)
N, M = 60, 10

# low intrinsic dimension: 3 latent factors mixed into 10 columns
base = rng.standard_normal((N, 3))
A = base @ rng.standard_normal((3, M)) + 0.1 * rng.standard_normal((N, M))
y = np.tanh(base[:, 0]) + 0.5 * base[:, 1] ** 2 + 0.02 * rng.standard_normal(N)
print(f"{N} samples, {M} columns, target std {y.std():.3f}")

spec = KernelSpec.rbf(10.0)

print("\nfixed projections, features = top-4 right-singular scores of the Gram:")
for name, strat in (("a0 pseudo-inverse", PseudoInverse()),
                    ("a1 pca projection", PcaProjection()),
                    ("a2 random projection", RandomProjection(seed=4))):
    model = fit_matrix(A, spec, rank=4, compat=strat)
    feats = model.gram.values @ model.b_psi
    head = linear_head(feats, y, "regression", lr=0.05, steps=5000, seed=0)
    print(f"  {name:22s} test rmse = {head.metric:.4f}")

cfg = LearnableConfig(rank_r=4, steps=40, learning_rate=2e-2, seed=0,
                      task="regression", outer_iters=12)
res = learn_compat(A, y, spec, cfg)
trace = ", ".join(f"{v:.4f}" for v in res.losses)
print(f"\na3 learnable projection, end-of-iteration training losses:\n  [{trace}]")
G = _gram_values(A, res.c, spec)
_, _, vt = np.linalg.svd(G, full_matrices=False)
head = linear_head(G @ vt[:4].T, y, "regression", lr=0.05, steps=5000, seed=0)
print(f"  a3 learnable          test rmse = {head.metric:.4f}")
print("\n(the fixed alternatives land close together, and the learned C "
      "matches them while optimizing the task loss directly)")
