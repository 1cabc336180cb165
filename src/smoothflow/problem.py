"""Composite objectives: a smooth part plus a smoothed non-smooth part.

``CompositeProblem`` bundles an L-smooth, sigma-strongly-convex f with a
``SmoothApprox`` surrogate for h and exposes the smoothed objective
``F(x, mu) = f(x) + h_tilde(x, mu)`` together with its gradient and the
per-mu smoothness constant ``L + alpha/mu``.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._linalg import gram_error, symmetric_eigenvalues
from .approx import _check_mu, _Kernel, _Residual, _sum_of_squares
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnsupportedOperationError,
)
from .schedule import _check_nonnegative, _smoothness

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
        _check_nonnegative(sigma=self.sigma, lipschitz=self.lipschitz)
        if self.sigma > self.lipschitz:
            raise InvalidParameterError(
                f"sigma ({self.sigma}) cannot exceed lipschitz ({self.lipschitz})"
            )


class _LeastSquares(SmoothPart):
    """A ``quadratic_least_squares`` part, which keeps its ``a`` and ``b`` for stacking.

    A part rebuilt through the constructor carries neither, so a problem
    does not stack it (see ``_Stacked.of``).
    """

    a = b = None


def quadratic_least_squares(a, b):
    """Least-squares objective ||A x - b||^2 (no 1/2 factor).

    The missing 1/2 means the gradient is ``2 A^T (A x - b)`` and the
    curvature constants carry a factor 2: ``L = 2 lambda_max(A^T A)``,
    ``sigma = 2 lambda_min(A^T A)`` (floored to 0 for numerically
    rank-deficient Gram matrices). Both are certified: ``L`` is at least
    and ``sigma`` at most the exact value.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size == 0:
        raise DimensionMismatchError("matrix must be non-empty")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"b has length {b.shape[0]}, expected {a.shape[0]} rows"
        )
    # Certified: the enclosure of the computed Gram's spectrum, widened
    # by the rounding of forming the Gram.
    lo, hi = symmetric_eigenvalues(a.T @ a)
    err = gram_error(a)
    lam_max = math.nextafter(hi + err, math.inf)
    lam_min = max(math.nextafter(lo - err, -math.inf), 0.0)
    if lam_min < _RANK_FLOOR * lam_max:
        lam_min = 0.0

    part = _LeastSquares(
        value=lambda x: float(_sum_of_squares(a @ x - b)),
        grad=lambda x: 2.0 * (a.T @ (a @ x - b)),
        sigma=2.0 * lam_min,
        lipschitz=2.0 * lam_max,
        input_dim=a.shape[1],
    )
    part.a, part.b = a, b
    return part


def _aligned_rows(*blocks):
    """``np.vstack(blocks)`` of float matrices, its data on a 64-byte boundary.

    numpy aligns a buffer to 16 bytes only. At (n_x, n_A, n_C) =
    (100, 200, 500) the per-step products read the stacked matrix 10 to
    15% slower off a 32-byte boundary, with the same bits.
    """
    rows = sum(block.shape[0] for block in blocks)
    size = rows * blocks[0].shape[1]
    buf = np.empty(size + 8)
    start = -buf.ctypes.data % 64 // 8
    return np.concatenate(blocks, out=buf[start : start + size].reshape(rows, -1))


class _Stacked(NamedTuple):
    """A least-squares f and a built-in h (or none) as one affine map.

    The first ``n_a`` rows of ``m`` and ``e`` are f's ``A`` and ``b``,
    the rest h's ``C`` and ``d``; ``mt`` is ``m.T``. ``kernel`` is h's
    kernel over its rows (``approx._Kernel``), and None when there is
    no h.
    """

    m: np.ndarray
    mt: np.ndarray
    e: np.ndarray
    n_a: int
    kernel: Optional[_Kernel]

    @classmethod
    def of(cls, f, h):
        """The stacked map of ``f`` and ``h``, or None unless both are built-in parts."""
        if not isinstance(f, _LeastSquares) or f.a is None:
            return None
        a, b = f.a, f.b
        if h is None:
            m = _aligned_rows(a)
            return cls(m, m.T, b, a.shape[0], None)
        if type(h) is not _Residual:
            return None
        n = h.input_dim
        c, d = (np.eye(n), np.zeros(n)) if h._c is None else (h._c, h._d)
        m = _aligned_rows(a, c)
        return cls(m, m.T, np.concatenate((b, d)), a.shape[0], h._kernel)

    def smoothed(self, r, mu):
        """F(x, mu) at residual rows ``r``: one row with a scalar mu, or rows with a mu column."""
        f = _sum_of_squares(r[..., : self.n_a])
        if self.kernel is None:
            return f
        return f + self.kernel.smoothed(r[..., self.n_a :], mu)

    def exact(self, r):
        """F(x) at residual rows ``r``."""
        f = _sum_of_squares(r[..., : self.n_a])
        if self.kernel is None:
            return f
        return f + self.kernel.exact(r[..., self.n_a :])


@dataclass(frozen=True)
class CompositeProblem:
    """F = f + h with a smooth surrogate for h and an optional known optimum.

    ``h`` may be None for purely smooth problems (the surrogate terms
    then drop out and ``alpha = beta = 0``). When f is a
    ``quadratic_least_squares`` part and h a built-in surrogate (or None),
    their matrices and offsets are stacked once, here, into
    ``M = [A; C]`` and ``e = [b; d]``, and every point forms the one
    residual ``M x - e`` (see ``CompositePoint``).
    """

    f: SmoothPart
    h: Optional[object] = None
    optimum: Optional[np.ndarray] = None
    optimal_value: Optional[float] = None
    _stacked: Optional[_Stacked] = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.h is not None and self.h.input_dim != self.f.input_dim:
            raise DimensionMismatchError(
                f"f has dimension {self.f.input_dim}, h has {self.h.input_dim}"
            )
        object.__setattr__(self, "_stacked", _Stacked.of(self.f, self.h))
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

    @property
    def input_dim(self):
        return self.f.input_dim

    @property
    def alpha(self):
        return self.h.params.alpha if self.h is not None else 0.0

    @property
    def beta(self):
        return self.h.params.beta if self.h is not None else 0.0

    def point(self, x):
        """One evaluation of F at ``x``; see ``CompositePoint``."""
        return CompositePoint(self, x)

    def true_value(self, x):
        """F(x) with the exact (non-smoothed) h."""
        return self.point(x).exact()

    def require_optimum(self):
        if self.optimum is None:
            raise UnsupportedOperationError("this operation needs a known optimum")
        return self.optimum


class CompositePoint:
    """F at one x: the gradient, F(x, mu) and F(x).

    A run builds one point and moves it from iterate to iterate:
    ``move(x)`` returns the point itself on every problem. On a stacked
    problem (a least-squares f and a built-in h, or no h) the point owns
    the residual ``r = M x - e`` and the gradient's weights ``w``, each
    allocated once, with views on their f and h rows, and ``move(x)``
    re-forms ``r`` in place. The gradient is one product
    ``M^T w``, with ``w = [2 r_A; coeff(r_C, mu)]``; its last bits
    depend on how BLAS blocks the rows of ``M``, so they may differ from
    ``f.grad + h.grad_x``, which sum two products. The values sum the
    rows of ``r`` with the kernels a run's monitors (``solver._Chunk``)
    run on a chunk of rows. Any other problem (a user ``SmoothPart`` or
    ``SmoothApprox`` subclass, or ``affine_sum``) asks f's ``value`` and
    ``grad`` and h's ``value``, ``grad_x`` and ``underlying_value`` at
    ``x`` for every value, and ``move`` only re-points ``x``.

    Everything else is computed on request, so a point read only for its
    gradient costs no more than the gradient. The shape of ``x`` is
    checked on every move, and ``mu`` on every read.
    """

    __slots__ = ("x", "_problem", "_shape", "_stacked", "_r", "_w", "_r_a", "_r_c", "_w_a", "_w_c")

    def __init__(self, problem, x):
        self._problem = problem
        self._shape = (problem.input_dim,)
        stacked = self._stacked = problem._stacked
        if stacked is not None:
            r = self._r = np.empty(stacked.e.shape)
            w = self._w = np.empty_like(r)
            n_a = stacked.n_a
            self._r_a, self._r_c = r[:n_a], r[n_a:]
            self._w_a, self._w_c = w[:n_a], w[n_a:]
        self.move(x)

    def move(self, x):
        """This point, moved to ``x``: on a stacked problem its residual is re-formed in place.

        Every point is formed here, a new point's first position too. A
        gradient returned before the move stays the caller's own array;
        values read after it are at ``x``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise DimensionMismatchError(f"expected input of shape {self._shape}, got {x.shape}")
        stacked = self._stacked
        if stacked is not None:
            # ndarray.dot with a positional out runs the BLAS gemv of np.matmul,
            # bit for bit, without np.dot's dispatch layer or matmul's set-up.
            r = self._r
            stacked.m.dot(x, r)
            np.subtract(r, stacked.e, r)
        self.x = x
        return self

    def grad(self, mu):
        """grad_x F(x, mu)."""
        _check_mu(mu)
        stacked = self._stacked
        if stacked is not None:
            r_a = self._r_a
            np.add(r_a, r_a, self._w_a)  # 2 r_A, exactly
            if stacked.kernel is not None:
                stacked.kernel.coeff(self._r_c, mu, self._w_c)
            return stacked.mt.dot(self._w)
        f, h = self._problem.f, self._problem.h
        if h is None:
            return f.grad(self.x)
        return f.grad(self.x) + h.grad_x(self.x, mu)

    def smoothed(self, mu):
        """F(x, mu) = f(x) + h_tilde(x, mu)."""
        _check_mu(mu)
        if self._stacked is not None:
            return float(self._stacked.smoothed(self._r, mu))
        f, h = self._problem.f, self._problem.h
        if h is None:
            return float(f.value(self.x))
        return float(f.value(self.x) + h.value(self.x, mu))

    def exact(self):
        """F(x) with the exact h."""
        if self._stacked is not None:
            return float(self._stacked.exact(self._r))
        f, h = self._problem.f, self._problem.h
        if h is None:
            return float(f.value(self.x))
        return float(f.value(self.x) + h.underlying_value(self.x))


def smoothed_value(problem, x, mu):
    """F(x, mu) = f(x) + h_tilde(x, mu)."""
    return problem.point(x).smoothed(mu)


def smoothed_grad(problem, x, mu, counter=None):
    """Gradient of the smoothed objective in x.

    ``x`` is an array or a ``CompositePoint`` of ``problem``; a caller
    that also reads values at ``x`` passes the point, so the gradient
    and the values share one pass. Passing a ``GradEvalCounter``
    charges the evaluation to a run context; bookkeeping-only
    evaluations pass None.
    """
    point = x if isinstance(x, CompositePoint) else problem.point(x)
    g = point.grad(mu)
    if counter is not None:
        counter.increment()
    return g


def lipschitz_at(problem, mu):
    """Smoothness constant of F(., mu): L + alpha/mu."""
    _check_mu(mu)
    return _smoothness(problem.f.lipschitz, problem.alpha, mu)

