"""Composite objectives: a smooth part plus a smoothed non-smooth part.

``CompositeProblem`` bundles an L-smooth, sigma-strongly-convex f with a
``SmoothApprox`` surrogate for h and exposes the smoothed objective
``F(x, mu) = f(x) + h_tilde(x, mu)`` together with its gradient and the
per-mu smoothness constant ``L + alpha/mu``.
"""

import functools
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


class _PartPoint:
    """f at one x through its ``value`` and ``grad`` callables."""

    __slots__ = ("_part", "_x")

    def __init__(self, part, x):
        self._part = part
        self._x = x

    def value(self):
        return self._part.value(self._x)

    def grad(self):
        return self._part.grad(self._x)


@dataclass(frozen=True)
class SmoothPart:
    """Differentiable objective term with curvature metadata.

    ``point(x)`` returns an object whose ``value()`` and ``grad()`` give
    f(x) and grad f(x); a part whose two share work at x (a residual)
    passes its own, which must agree with ``value`` and ``grad``. The
    default calls the two callables.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    sigma: float
    lipschitz: float
    input_dim: int
    point: Optional[Callable[[np.ndarray], object]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.sigma < 0.0 or self.lipschitz < 0.0:
            raise InvalidParameterError("sigma and lipschitz must be >= 0")
        if self.sigma > self.lipschitz:
            raise InvalidParameterError(
                f"sigma ({self.sigma}) cannot exceed lipschitz ({self.lipschitz})"
            )
        if self.point is None:
            object.__setattr__(self, "point", functools.partial(_PartPoint, self))


class _LeastSquaresPoint:
    """||A x - b||^2 at one x: the residual A x - b is formed once."""

    __slots__ = ("_a", "_r")

    def __init__(self, a, b, x):
        self._a = a
        self._r = a @ x - b

    def value(self):
        return float(_sum_of_squares(self._r))

    def grad(self):
        return 2.0 * (self._a.T @ self._r)


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

    point = functools.partial(_LeastSquaresPoint, a, b)
    return SmoothPart(
        value=lambda x: point(x).value(),
        grad=lambda x: point(x).grad(),
        sigma=2.0 * lam_min,
        lipschitz=2.0 * lam_max,
        input_dim=a.shape[1],
        point=point,
    )


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
        point = f.point
        if not (isinstance(point, functools.partial) and point.func is _LeastSquaresPoint):
            return None
        a, b = point.args
        if h is None:
            return cls(a, a.T, b, a.shape[0], None)
        if type(h) is not _Residual:
            return None
        n = h.input_dim
        c, d = (np.eye(n), np.zeros(n)) if h._c is None else (h._c, h._d)
        m = np.vstack((a, c))
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
    fingerprint: str = field(default="", compare=False)
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
    """F at one x: the gradient, F(x, mu) and F(x) from one pass over x.

    On a stacked problem (a least-squares f and a built-in h, or no h)
    the point owns the residual ``r = M x - e`` and the gradient's
    weights ``w``, each allocated once, with views on their f and h
    rows. ``move(x)`` re-forms ``r`` in place, so a run builds one point
    and moves it from iterate to iterate. The gradient is one product
    ``M^T w``, with ``w = [2 r_A; coeff(r_C, mu)]``; its last bits
    depend on how BLAS blocks the rows of ``M``, so they may differ from
    ``f.grad + h.grad_x``, which sum two products. The values sum the
    rows of ``r`` with the kernels ``_ValueChunk`` runs on a chunk of
    points. Any other problem (a user ``SmoothPart`` or ``SmoothApprox``
    subclass, or ``affine_sum``) reads its parts' own points: the residuals
    inside them are formed when the point is built, and ``move`` builds
    a fresh point.

    Everything else is computed on request, so a point read only for its
    gradient costs no more than the gradient. The shape of ``x`` is
    checked on every formation, here or by ``h``'s point, and ``mu`` here
    on every read.
    """

    __slots__ = (
        "x", "_problem", "_stacked", "_r", "_w", "_r_a", "_r_c", "_w_a", "_w_c", "_f", "_h", "_fx"
    )

    def __init__(self, problem, x):
        self._problem = problem
        stacked = self._stacked = problem._stacked
        if stacked is not None:
            r = self._r = np.empty(stacked.e.shape)
            w = self._w = np.empty_like(r)
            n_a = stacked.n_a
            self._r_a, self._r_c = r[:n_a], r[n_a:]
            self._w_a, self._w_c = w[:n_a], w[n_a:]
            self.move(x)
            return
        x = np.asarray(x, dtype=float)
        if problem.h is None and x.shape != (problem.input_dim,):
            raise DimensionMismatchError(
                f"expected input of shape ({problem.input_dim},), got {x.shape}"
            )
        self._h = None if problem.h is None else problem.h.point(x)
        self._f = problem.f.point(x)
        self._fx = None
        self.x = x

    def move(self, x):
        """The point at ``x``: this one, its residual re-formed in place, on a stacked problem.

        Every stacked residual is formed here, a new point's first too.
        A gradient returned before the move stays the caller's own
        array; values read after it are at ``x``. Any other problem gets
        a fresh point, since a ``_ValueChunk`` keeps those.
        """
        stacked = self._stacked
        if stacked is None:
            return CompositePoint(self._problem, x)
        x = np.asarray(x, dtype=float)
        if x.shape != stacked.m.shape[1:]:
            raise DimensionMismatchError(
                f"expected input of shape {stacked.m.shape[1:]}, got {x.shape}"
            )
        # np.dot with a positional out runs the BLAS gemv of np.matmul,
        # bit for bit, with less call overhead.
        r = self._r
        np.dot(stacked.m, x, r)
        np.subtract(r, stacked.e, r)
        self.x = x
        return self

    def _f_value(self):
        if self._fx is None:
            self._fx = self._f.value()
        return self._fx

    def grad(self, mu):
        """grad_x F(x, mu)."""
        _check_mu(mu)
        stacked = self._stacked
        if stacked is not None:
            r_a = self._r_a
            np.add(r_a, r_a, self._w_a)  # 2 r_A, exactly
            if stacked.kernel is not None:
                stacked.kernel.coeff(self._r_c, mu, self._w_c)
            return np.dot(stacked.mt, self._w)
        if self._h is None:
            return self._f.grad()
        return self._f.grad() + self._h.grad(mu)

    def smoothed(self, mu):
        """F(x, mu) = f(x) + h_tilde(x, mu)."""
        _check_mu(mu)
        if self._stacked is not None:
            return float(self._stacked.smoothed(self._r, mu))
        if self._h is None:
            return float(self._f_value())
        return float(self._f_value() + self._h.value(mu))

    def exact(self):
        """F(x) with the exact h."""
        if self._stacked is not None:
            return float(self._stacked.exact(self._r))
        if self._h is None:
            return float(self._f_value())
        return float(self._f_value() + self._h.exact())


class _ValueChunk:
    """F(x, mu) and F(x) at up to ``cap`` points of one problem, read together.

    On a stacked problem ``add`` copies the point's residual row into a
    buffer allocated once and keeps nothing else of it, so the point may
    move on, and ``values`` makes one pass over the rows. Each sum is one
    ``np.add.reduce`` over a row, the kernel the points' own ``smoothed``
    and ``exact`` run on their one row, so every value equals the
    single-point one bit for bit. Otherwise the points are kept and read
    one at a time.
    """

    __slots__ = ("_stacked", "_rows", "_points", "_n")

    def __init__(self, point, cap):
        self._stacked = point._stacked
        self._rows = None if self._stacked is None else np.empty((cap, point._r.size))
        self._points = []
        self._n = 0

    @staticmethod
    def row_floats(point):
        """Floats in the residual row that ``add`` copies from ``point`` (0 when it keeps it)."""
        return 0 if point._stacked is None else point._r.size

    def add(self, point):
        if self._rows is None:
            self._points.append(point)
        else:
            self._rows[self._n] = point._r
        self._n += 1

    def mu_free_value(self):
        """F(x, mu) of the first added point as a float when it is F(x) at every mu, else None.

        That holds on a stacked problem whose h rows are exactly 0 at the
        point, as at x* of every generated problem: every built-in kernel
        reads exactly 0 on a zero residual, for example hypot(0, mu) - mu
        or 0 * 0 / (2 mu), at every finite mu > 0, so F(x, mu) = f(x) + 0
        = F(x) bit for bit.
        """
        if self._rows is None:
            return None
        row = self._rows[0]
        if row[self._stacked.n_a :].any():
            return None
        return float(self._stacked.exact(row))

    def values(self, mu):
        """F(x, mu) and F(x) at the added points, as arrays.

        ``mu`` is an array with one entry per point; a single added point
        is read at every entry (F(x*, mu) along a run).
        """
        if self._rows is None:
            points = self._points * len(mu) if self._n == 1 else self._points
            return (
                np.array([p.smoothed(m) for p, m in zip(points, mu.tolist())]),
                np.array([p.exact() for p in self._points]),
            )
        for bad in mu[~(mu > 0.0)][:1]:
            _check_mu(float(bad))
        rows = self._rows[: self._n]
        smoothed = self._stacked.smoothed(rows, mu[:, None])
        return np.broadcast_to(smoothed, mu.shape), self._stacked.exact(rows)

    def clear(self):
        self._points = []
        self._n = 0


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
    return problem.f.lipschitz + problem.alpha / mu

