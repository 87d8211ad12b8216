"""Approximate the top singular triplets of a large kernel matrix from a
small subsample and compare solvers on speed and accuracy.

Builds a 1500x1500 matrix with geometrically decaying spectrum, then runs
the escalation benchmark: each solver raises its fidelity knob until the
weighted singular-vector error eta drops below the tolerance.
"""

import numpy as np

from aksvd import asym_nystrom, bench, dense_svd, eta_metric
from aksvd.solvers import MatrixOperator

rng = np.random.default_rng(7)
N, r = 1500, 10
u, _ = np.linalg.qr(rng.standard_normal((N, N)))
v, _ = np.linalg.qr(rng.standard_normal((N, N)))
s = 0.6 ** np.arange(N)
G = (u * s) @ v.T

# single Nystrom run: 100 of 1500 rows and columns
op = MatrixOperator(G)
res = asym_nystrom(op, n_sub=100, m_sub=100, r=r, seed=0)   # an SvdResult, like every solver's
eta = eta_metric(u[:, :r], s[:r], v[:, :r], res.u, res.v)
touched = op.eval_count / G.size
print(f"subsampled 100/1500 rows+cols: eta = {eta:.2e}, "
      f"touched {touched:.1%} of the matrix entries")
print("top-5 approx singular values:", np.round(res.lambdas[:5], 4))
print("top-5 exact singular values :", np.round(s[:5], 4))

# full escalation benchmark against the other solvers
print("\nescalation benchmark to eta <= 1e-2:")
report = bench(G, r, epsilon=1e-2, solvers=("tsvd", "rsvd", "symnys", "asymnys"),
               m_schedule=(50, 100, 200, 400, 800), seed=0,
               reference=(u[:, :r], s[:r], v[:, :r]))
for trial in report.trials:
    knob = trial.n_sub or trial.oversample or "-"
    print(f"  {trial.solver:8s} knob={knob!s:5s} eta={trial.eta:9.2e} "
          f"time={trial.seconds:7.4f}s success={trial.success}")
print("\nsummary (speedup is vs randomized SVD):")
for name, row in report.summary.items():
    speed = row.get("speedup_vs_rsvd")
    extra = f" speedup={speed:.2f}x" if speed else ""
    print(f"  {name:8s} success={row['success']} knob={row['knob']}{extra}")
