"""Entry points of the alpha-softargmax solve; the solver is alphamargin._fallback.

Both raise SolverError, naming the row, when a row's solve fails or its
posterior does not sum to 1 within 1e-8.
"""

from ._fallback import posterior, posterior_batch

# Recorded by the benchmark and printed by `alphamargin --backend-info`.
BACKEND = "python"

__all__ = ["BACKEND", "posterior", "posterior_batch"]
