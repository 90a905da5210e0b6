"""Alpha-divergence kernel: generator functions, divergence values, the tau
root-finder and the alpha-softargmax / alpha-softmax pair.

Conventions: alpha-softmax is the value of the regularized maximization
max_p <p, theta> - D_f(p : q) over the simplex, and alpha-softargmax is its
gradient, the (possibly sparse) posterior probability map. All arithmetic is
double precision; an entry of the posterior is zero iff the clip in the
closed form evaluates to exactly zero.
"""

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import SolverError

__all__ = [
    "AlphaParams",
    "PosteriorDistribution",
    "SolverError",
    "f_value",
    "f_prime",
    "f_conj_prime",
    "divergence",
    "root_find_tau",
    "alpha_softargmax",
    "alpha_softmax",
]


@dataclass(frozen=True)
class AlphaParams:
    """Divergence index alpha (> 1) and solver tolerances.

    The tau solve stops once its bracket is at most bisect_tol wide (the name
    is kept so that existing configs load); max_iters bounds its sweeps.
    """

    alpha: float
    bisect_tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha <= 1.0:
            raise ValueError(f"alpha must be finite and > 1, got {self.alpha}")
        if not self.bisect_tol > 0.0:
            raise ValueError(f"bisect_tol must be > 0, got {self.bisect_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class PosteriorDistribution:
    """Sparse probability vector: the nonzero entries of an alpha-softargmax."""

    indices: np.ndarray
    probs: np.ndarray
    k: int = field(default=0)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        pr = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "probs", pr)
        if idx.shape != pr.shape or idx.ndim != 1:
            raise ValueError("indices and probs must be 1-D arrays of equal length")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("support indices must be unique")
        if len(idx) and (idx.min() < 0 or idx.max() >= self.k):
            raise ValueError("support index out of range")
        if np.any(pr <= 0.0):
            raise ValueError("support probabilities must be strictly positive")
        if abs(pr.sum() - 1.0) > backend.SUM_TOL:
            raise ValueError(f"probabilities sum to {pr.sum()!r}, expected 1")

    @classmethod
    def from_dense(cls, p):
        p = np.asarray(p, dtype=np.float64)
        nz = np.flatnonzero(p)
        return cls(indices=nz, probs=p[nz], k=p.shape[0])

    def to_dense(self):
        out = np.zeros(self.k)
        out[self.indices] = self.probs
        return out

    @property
    def nnz(self):
        return len(self.indices)

    def prob(self, j):
        """Probability of class j (0.0 when j is off-support)."""
        hit = np.flatnonzero(self.indices == j)
        return float(self.probs[hit[0]]) if len(hit) else 0.0


def _checked_labels(ys, B, k):
    """ys as (B,) class indices, each an integer (not a bool) in [0, k)."""
    ys = np.asarray(ys)
    if ys.shape != (B,):
        raise ValueError(
            f"expected one class index per row ({B} rows), got labels of shape {ys.shape}"
        )
    if ys.size and ys.dtype.kind not in "iuO":  # an object array holds ints past int64
        raise IndexError(f"class indices must be integers, got {ys[0].item()!r}")
    with contextlib.suppress(TypeError):  # an object label no int compares with, such as None
        out = np.flatnonzero((ys < 0) | (ys >= k))
        if out.size:
            raise IndexError(f"class index {ys[out[0]]} out of range for k={k}")
    if ys.dtype == object:  # only let through to name an int past int64 in the range message
        raise IndexError(f"class indices must be integers, got labels of dtype {ys.dtype}")
    return ys


def _checked_measure(q, shape):
    """q as float64 weights of the given shape, each finite and > 0."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != shape:
        raise ValueError(f"dimension mismatch: weights of shape {q.shape} for logits {shape}")
    if not np.all(np.isfinite(q)) or np.any(q <= 0.0):
        raise ValueError("reference measure weights must be finite and > 0")
    return q


def _checked_rows(theta, ys=None, q=None):
    """The one check of (B, k) logit rows and, if given, their labels ys and measure q."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)  # C order: bits independent of layout
    if theta.ndim != 2 or theta.shape[1] < 2:
        raise ValueError("logits must be (B, k) rows with k >= 2")
    if ys is not None:
        ys = _checked_labels(ys, *theta.shape)
    if not np.all(np.isfinite(theta)):
        raise ValueError("logits must be finite")
    return theta, ys, None if q is None else _checked_measure(q, theta.shape)


def _logit_row(theta):
    """The shape test of a single-row call's logits: theta, 1-D with k >= 2, as B = 1 rows."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] < 2:
        raise ValueError("logits must be a 1-D vector with k >= 2")
    return theta[None]


def _measure_vector(q):
    """The shape test of a single-row call's reference measure: q as a 1-D vector."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("reference measure must be a 1-D vector")
    return q


def _f_prime(u, a):
    """f'(u) unchecked. backend.f_prime_inv's expm1 form where |(a-1) log u| < 1;
    beyond, it would amplify the rounding of log u by (a-1)|log u|, and the
    direct power loses at most a factor e/(e-1) to the subtraction."""
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf gives f'(0) = -1/(a-1)
        log_u = np.log(u)
        near = np.abs((a - 1.0) * log_u) < 1.0
        return np.where(near, backend.f_prime_inv(-log_u, a), (u ** (a - 1.0) - 1.0) / (a - 1.0))


def f_value(u, params):
    """Generator f(u) = ((u**a - 1) - a*(u - 1))/(a*(a - 1)), u >= 0, as (u*f'(u) - (u - 1))/a."""
    a = params.alpha
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0):
        raise ValueError("f is only defined for u >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # u*f'(u) overflows; at u = inf, inf - inf
        val = np.where(u == np.inf, np.inf, (u * _f_prime(u, a) - (u - 1.0)) / a)
    return float(val) if val.ndim == 0 else val


def f_prime(u, params):
    """f'(u) = (u**(a-1) - 1)/(a-1), strictly increasing."""
    a = params.alpha
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or (a < 2.0 and np.any(u == 0.0)):
        raise ValueError("f' requires u > 0 (u = 0 is allowed only for alpha >= 2)")
    val = _f_prime(u, a)
    return float(val) if val.ndim == 0 else val


def f_conj_prime(v, params):
    """Conjugate's derivative [1 + (a-1)*v]_+ ** (1/(a-1)); the power is positive
    for every a > 1, so v = inf gives inf and v = -inf gives 0."""
    am1 = params.alpha - 1.0
    with np.errstate(over="ignore"):
        out = np.maximum(1.0 + am1 * np.asarray(v, dtype=np.float64), 0.0) ** (1.0 / am1)
    return float(out) if out.ndim == 0 else out


def divergence(p, q, params):
    """D_f(p : q) = sum_j q_j * f(p_j / q_j); nonnegative on the simplex."""
    if isinstance(p, PosteriorDistribution):
        p = p.to_dense()
    p = np.asarray(p, dtype=np.float64)
    q = _checked_measure(_measure_vector(q), p.shape)
    return float(np.sum(q * f_value(p / q, params)))


def _solve_row(theta, q, params, ys=None):
    """Checked one-row solve behind every single-vector call: (theta, q, p, tau)."""
    (theta,), _, (q,) = _checked_rows(_logit_row(theta), ys, _measure_vector(q)[None])
    p, tau = backend.posterior(theta, q, params.alpha, params.bisect_tol, params.max_iters)
    return theta, q, p, tau


def root_find_tau(theta, q, params):
    """Normalizing shift tau* solving sum_j q_j * f_conj_prime(theta_j - tau) = 1.

    Safeguarded Newton inside the bracket [theta_t - f'(1/q_t),
    theta_t - f'(1/sum(q))] for t = argmax theta. Raises SolverError if the
    bracket is not finite, the posterior at tau does not sum to 1, or
    max_iters sweeps end before the solve converges.
    """
    return float(_solve_row(theta, q, params)[3])


def alpha_softargmax(theta, q, params):
    """Sparse posterior p_j = q_j * [1 + (a-1)*(theta_j - tau*)]_+ ** (1/(a-1))."""
    return PosteriorDistribution.from_dense(_solve_row(theta, q, params)[2])


def alpha_softmax(theta, q, params):
    """Value of the regularized maximization: <p*, theta> - D_f(p* : q).

    Read off the solve in its dual form, the minimum over tau of
    tau + sum_j q_j f*(theta_j - tau) with f*(v) = ([1 + (a-1)*v]_+ ** (a/(a-1)) - 1)/a,
    which at p = q * z**(1/(a-1)) is tau + ((a-1) <p, theta - tau> + sum(p) - sum(q))/a.
    It is stationary in tau, so the solve's error in tau enters only at second
    order, and it needs no power over the k classes.
    """
    theta, q, p, tau = _solve_row(theta, q, params)
    a = params.alpha
    return float(tau + ((a - 1.0) * (p @ (theta - tau)) + p.sum() - q.sum()) / a)
