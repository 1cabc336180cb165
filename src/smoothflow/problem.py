"""Composite objectives: a smooth part plus a smoothed non-smooth part.

``CompositeProblem`` bundles an L-smooth, sigma-strongly-convex f with a
``SmoothApprox`` surrogate for h and exposes the smoothed objective
``F(x, mu) = f(x) + h_tilde(x, mu)`` together with its gradient and the
per-mu smoothness constant ``L + alpha/mu``.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._linalg import symmetric_eigenvalues
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnsupportedOperationError,
)

# Gram eigenvalues below this fraction of the largest are treated as zero;
# rank-deficient least squares then reports sigma = 0.
_RANK_FLOOR = 1e-10


class GradEvalCounter:
    """Counts smoothed-gradient evaluations for one run context.

    Each run owns its counter (no global state); the count is the
    practical cost axis the experiment outputs are plotted against.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def increment(self):
        self.count += 1


@dataclass(frozen=True)
class SmoothPart:
    """Differentiable objective term with curvature metadata."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    sigma: float
    lipschitz: float
    input_dim: int

    def __post_init__(self):
        if self.sigma < 0.0 or self.lipschitz < 0.0:
            raise InvalidParameterError("sigma and lipschitz must be >= 0")
        if self.sigma > self.lipschitz:
            raise InvalidParameterError(
                f"sigma ({self.sigma}) cannot exceed lipschitz ({self.lipschitz})"
            )


def quadratic_least_squares(a, b):
    """Least-squares objective ||A x - b||^2 (no 1/2 factor).

    The missing 1/2 means the gradient is ``2 A^T (A x - b)`` and the
    curvature constants carry a factor 2: ``L = 2 lambda_max(A^T A)``,
    ``sigma = 2 lambda_min(A^T A)`` (floored to 0 for numerically
    rank-deficient Gram matrices).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size == 0:
        raise DimensionMismatchError("matrix must be non-empty")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"b has length {b.shape[0]}, expected {a.shape[0]} rows"
        )
    eigs = symmetric_eigenvalues(a.T @ a)
    lam_max = float(max(eigs[-1], 0.0))
    lam_min = float(max(eigs[0], 0.0))
    if lam_min < _RANK_FLOOR * lam_max:
        lam_min = 0.0

    def value(x, _a=a, _b=b):
        r = _a @ x - _b
        return float(r @ r)

    def grad(x, _a=a, _b=b):
        return 2.0 * (_a.T @ (_a @ x - _b))

    return SmoothPart(
        value=value,
        grad=grad,
        sigma=2.0 * lam_min,
        lipschitz=2.0 * lam_max,
        input_dim=a.shape[1],
    )


@dataclass(frozen=True)
class CompositeProblem:
    """F = f + h with a smooth surrogate for h and an optional known optimum.

    ``h`` may be None for purely smooth problems (the surrogate terms
    then drop out and ``alpha = beta = 0``).
    """

    f: SmoothPart
    h: Optional[object] = None
    optimum: Optional[np.ndarray] = None
    optimal_value: Optional[float] = None
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self):
        if self.h is not None and self.h.input_dim != self.f.input_dim:
            raise DimensionMismatchError(
                f"f has dimension {self.f.input_dim}, h has {self.h.input_dim}"
            )
        if self.optimum is not None:
            opt = np.asarray(self.optimum, dtype=float).reshape(-1)
            if opt.shape[0] != self.f.input_dim:
                raise DimensionMismatchError("optimum has the wrong dimension")
            object.__setattr__(self, "optimum", opt)
            f_star = self.true_value(opt)
            if self.optimal_value is None:
                object.__setattr__(self, "optimal_value", f_star)
            elif abs(self.optimal_value - f_star) > 1e-9:
                raise InvalidParameterError(
                    f"optimal_value {self.optimal_value} disagrees with "
                    f"F(optimum) = {f_star}"
                )
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", self._describe())

    def _describe(self):
        parts = [
            f"dim={self.input_dim}",
            f"L={self.f.lipschitz:.6g}",
            f"sigma={self.f.sigma:.6g}",
            f"alpha={self.alpha:.6g}",
            f"beta={self.beta:.6g}",
        ]
        return ";".join(parts)

    @property
    def input_dim(self):
        return self.f.input_dim

    @property
    def alpha(self):
        return self.h.params.alpha if self.h is not None else 0.0

    @property
    def beta(self):
        return self.h.params.beta if self.h is not None else 0.0

    def at(self, x):
        """Partial evaluation at ``x``: ``(mu -> F(x, mu), F(x))``.

        ``f(x)`` and the residuals inside ``h`` are evaluated once, so
        the exact value and the smoothed value at any number of ``mu``
        cost a single pass over ``x``.
        """
        x = np.asarray(x, dtype=float)
        fx = self.f.value(x)
        if self.h is None:
            h_at, exact = None, float(fx)
        else:
            h_at, h_exact = self.h.at(x)
            exact = float(fx + h_exact)

        def smoothed(mu):
            if not (mu > 0.0):
                raise InvalidParameterError(f"mu must be > 0, got {mu}")
            if h_at is None:
                return float(fx)
            return float(fx + h_at(mu))

        return smoothed, exact

    def true_value(self, x):
        """F(x) with the exact (non-smoothed) h."""
        return self.at(x)[1]

    def require_optimum(self):
        if self.optimum is None:
            raise UnsupportedOperationError("this operation needs a known optimum")
        return self.optimum


def smoothed_value(problem, x, mu):
    """F(x, mu) = f(x) + h_tilde(x, mu)."""
    return problem.at(x)[0](mu)


def smoothed_grad(problem, x, mu, counter=None):
    """Gradient of the smoothed objective in x.

    Passing a ``GradEvalCounter`` charges the evaluation to a run
    context; bookkeeping-only evaluations pass None.
    """
    if not (mu > 0.0):
        raise InvalidParameterError(f"mu must be > 0, got {mu}")
    x = np.asarray(x, dtype=float)
    g = problem.f.grad(x)
    if problem.h is not None:
        g = g + problem.h.grad_x(x, mu)
    if counter is not None:
        counter.increment()
    return g


def lipschitz_at(problem, mu):
    """Smoothness constant of F(., mu): L + alpha/mu."""
    if not (mu > 0.0):
        raise InvalidParameterError(f"mu must be > 0, got {mu}")
    return problem.f.lipschitz + problem.alpha / mu


def finite_difference_grad(fn, x, step=3e-7):
    """Central-difference gradient of a scalar function, for validation."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g
