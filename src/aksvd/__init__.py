"""Asymmetric kernel SVD via coupled covariances, with an asymmetric
Nystrom solver and downstream evaluation tools."""

from .ksvd import KsvdModel, embeddings, fit, fit_matrix, project_x, project_z, residuals
from .compat import (
    CompatStrategy,
    LearnableConfig,
    PcaProjection,
    PseudoInverse,
    RandomProjection,
    learn_compat,
    realize_compat,
    strategy_from_name,
)
from .errors import DataError, NumericalError
from .kernels import (
    GramMatrix,
    KernelOperator,
    KernelSpec,
    auto_gamma,
    center,
    gram,
    kernel_vector,
)
from .solvers import (
    AsymNystrom,
    BenchReport,
    Dense,
    Randomized,
    SvdResult,
    SymNystrom,
    Truncated,
    asym_nystrom,
    bench,
    dense_svd,
    eta_metric,
    randomized_svd,
    sym_nystrom_eig,
    truncated_svd,
)

__version__ = "0.1.0"

__all__ = [
    "AsymNystrom", "BenchReport", "CompatStrategy", "DataError", "Dense",
    "GramMatrix", "KernelOperator", "KernelSpec", "KsvdModel",
    "LearnableConfig", "NumericalError", "PcaProjection", "PseudoInverse",
    "RandomProjection", "Randomized", "SvdResult", "SymNystrom", "Truncated",
    "asym_nystrom", "auto_gamma", "bench", "center", "dense_svd", "embeddings",
    "eta_metric", "fit", "fit_matrix", "gram", "kernel_vector", "learn_compat",
    "project_x", "project_z", "randomized_svd", "realize_compat", "residuals",
    "strategy_from_name", "sym_nystrom_eig", "truncated_svd",
]
