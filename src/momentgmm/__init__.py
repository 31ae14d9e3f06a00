"""Spherical Gaussian mixture learning via symmetric moment-tensor
decomposition, plus an EM-initializer benchmark harness."""

from .errors import InputError, NumericalError
from .gmm import (
    EmResult,
    GmmParams,
    e_step,
    em_fit,
    em_fits,
    init_emem,
    init_kmeans,
    init_moments,
    init_random,
    m_step,
    pooled_variance,
    sample,
)
from .hankel import hankel
from .metrics import ari, bic, error_rate, nu_spherical
from .moments import MomentSet, RecoveredParams, empirical_moments, exact_moments, recover_parameters
from .symtensor import (
    SymmetricTensor, WaringDecomposition, apolar, apolar_norm, evaluate, evaluation_matrix,
    pow_linear, reconstruct,
)
from .waring import decompose, refine, relative_residual

__all__ = [
    "EmResult",
    "GmmParams",
    "InputError",
    "MomentSet",
    "NumericalError",
    "RecoveredParams",
    "SymmetricTensor",
    "WaringDecomposition",
    "apolar",
    "apolar_norm",
    "ari",
    "bic",
    "decompose",
    "e_step",
    "em_fit",
    "em_fits",
    "empirical_moments",
    "error_rate",
    "evaluate",
    "evaluation_matrix",
    "exact_moments",
    "hankel",
    "init_emem",
    "init_kmeans",
    "init_moments",
    "init_random",
    "m_step",
    "nu_spherical",
    "pooled_variance",
    "pow_linear",
    "reconstruct",
    "recover_parameters",
    "refine",
    "relative_residual",
    "sample",
]
