"""Fit the kernel SVD of an asymmetric similarity and inspect embeddings.

Walks through the core pipeline on a toy directed graph: assemble the
scaled Gram matrix between source roles (rows) and target roles
(columns), decompose it, check the coupled-system residuals, and project
a held-out node.
"""

import numpy as np

from aksvd import KernelSpec, auto_gamma, embeddings, fit_matrix, project_x, residuals

rng = np.random.default_rng(0)

# a directed ring with a few chords: rows describe outgoing edges,
# columns describe incoming ones, so A is genuinely asymmetric
N = 12
A = np.zeros((N, N))
for i in range(N):
    A[i, (i + 1) % N] = 1.0
A[0, 5] = A[3, 9] = A[7, 2] = 1.0

print("adjacency is asymmetric:", not np.allclose(A, A.T))

spec = KernelSpec.sne(auto_gamma(A))
model = fit_matrix(A, spec, rank=4)

print("\nsingular values of the scaled Gram matrix:")
print(np.round(model.lambdas, 4))

r1, r2 = residuals(model)
print(f"coupled-system residuals: {r1:.2e}, {r2:.2e} (should be ~0)")

left = embeddings(model, "left")        # source-role embedding per node
right = embeddings(model, "right")      # target-role embedding per node
both = embeddings(model, "concat")
print(f"\nleft {left.shape}, right {right.shape}, concatenated {both.shape}")

# out-of-sample: projecting a training row reproduces its left factor
# scaled by sqrt(N) * lambda
i = 3
proj = project_x(model, A[i])
print("\nprojection of node 3's outgoing profile:", np.round(proj, 4))
print("sqrt(N) * lambda * b_phi[3]:            ", np.round(np.sqrt(N) * model.lambdas * model.b_phi[i], 4))

# a perturbed version of the same profile lands nearby
noisy = A[i] + 0.05 * rng.standard_normal(N)
print("projection of a perturbed profile:      ", np.round(project_x(model, noisy), 4))
