"""Margin-based alpha-divergence losses with a safeguarded-Newton alpha-softargmax solver."""

from .backend import BACKEND
from .core import (
    AlphaParams,
    PosteriorDistribution,
    SolverError,
    alpha_softargmax,
    alpha_softmax,
    divergence,
    f_conj_prime,
    f_prime,
    f_value,
    root_find_tau,
)

__version__ = "0.1.0"
