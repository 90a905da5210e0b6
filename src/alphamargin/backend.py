"""Backend selection: compiled extension when available, numpy fallback otherwise."""

import numpy as np

from . import _fallback
from .errors import SolverError

try:
    from . import _kernels as _compiled

    HAVE_COMPILED = True
except ImportError:  # extension not built
    _compiled = None
    HAVE_COMPILED = False

_active = _compiled if HAVE_COMPILED else _fallback
BACKEND = "compiled" if HAVE_COMPILED else "python"

solve_tau = _active.solve_tau


def _lost_mass(where, total):
    return SolverError(
        f"posterior{where} sums to {float(total)!r}, not 1: the solve lost its mass "
        "(reference measure out of the solver's range)"
    )


def posterior(theta, q, alpha, tol, max_iters):
    """Dense alpha-softargmax of one logit vector. Returns (p, tau).

    Raises SolverError when p sums to 0 or to a non-finite value.
    """
    p, tau = _active.posterior(theta, q, alpha, tol, max_iters)
    total = p.sum()
    if not 0.0 < total < np.inf:
        raise _lost_mass("", total)
    return p, tau


def posterior_batch(theta, q, alpha, tol, max_iters):
    """Row-wise alpha-softargmax of (B, k) inputs. Returns (P, taus).

    Raises SolverError when a row of P sums to 0 or to a non-finite value.
    """
    P, taus = _active.posterior_batch(theta, q, alpha, tol, max_iters)
    totals = P.sum(axis=1)
    bad = np.flatnonzero(~((totals > 0.0) & (totals < np.inf)))
    if len(bad):
        raise _lost_mass(f" row {bad[0]}", totals[bad[0]])
    return P, taus


def get_backend(name):
    """Return the backend module by name ('compiled' or 'python')."""
    if name == "python":
        return _fallback
    if name == "compiled":
        if not HAVE_COMPILED:
            raise RuntimeError("compiled backend is not available")
        return _compiled
    raise ValueError(f"unknown backend {name!r}")
