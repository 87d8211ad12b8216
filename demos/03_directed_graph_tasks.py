"""Node classification and graph reconstruction on a synthetic digraph.

Two planted communities with dense intra-community edges; embeddings come
from the kernel SVD of the adjacency, classification uses a one-vs-rest
LSSVM on the concatenated source/target embeddings, and reconstruction
rewires each node to its nearest targets in embedding space.
"""

import numpy as np

from aksvd import KernelSpec, auto_gamma, embeddings, fit_matrix
from aksvd.downstream import f1_scores, graph_reconstruct, lssvm_fit, recon_error

rng = np.random.default_rng(3)
half = 15
N = 2 * half
labels = np.array([0] * half + [1] * half)

A = np.zeros((N, N))
for i in range(N):
    for j in range(N):
        if i == j:
            continue
        p = 0.35 if labels[i] == labels[j] else 0.04
        if rng.random() < p:
            A[i, j] = 1.0

spec = KernelSpec.sne(auto_gamma(A))
model = fit_matrix(A, spec, rank=4)
feats = embeddings(model, "concat")

clf = lssvm_fit(feats, labels, gamma_reg=1.0)
micro, macro = f1_scores(clf.predict(feats), labels)
print(f"node classification (rank 4): micro-F1 = {micro:.3f}, macro-F1 = {macro:.3f}")

# reconstruction error shrinks as the embedding rank grows
out_deg = A.sum(axis=1).astype(int)
print(f"\ngraph reconstruction ({A.sum():.0f} true edges), "
      "nearest targets by source embedding:")
for rank in (2, 4, 8, 16):
    m = fit_matrix(A, spec, rank=rank)
    A_hat = graph_reconstruct(m.b_phi * m.lambdas, m.b_psi, out_deg)
    l1, l2 = recon_error(A, A_hat)
    print(f"  rank {rank:2d}: l1 = {l1:4.0f}, l2 = {l2:6.2f}")

# reference point: the adjacency's own truncated SVD reconstructs itself
# very well at desk scale; the kernel route pays off on the labeled task
u, s, vt = np.linalg.svd(A)
A_hat_lin = graph_reconstruct(u[:, :16] * s[:16], vt[:16].T, out_deg)
print(f"  plain SVD, rank 16: l1 = {recon_error(A, A_hat_lin)[0]:4.0f}")
