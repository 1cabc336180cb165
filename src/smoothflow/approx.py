"""Smooth approximations of non-differentiable convex functions.

Each approximation carries certified parameters ``(alpha, beta)``:
``value(x, mu)`` is (alpha/mu)-smooth in ``x``, sandwiches the exact
function as ``value <= h <= value + beta*mu``, and its partial
derivative in ``mu`` stays inside ``[-beta, 0]``. Those three
inequalities are what every convergence bound downstream consumes, and
``certify`` checks them numerically on random samples.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._linalg import spectral_norm, upper
from .errors import DimensionMismatchError, InvalidDimensionError, InvalidParameterError
from .rng import Xoshiro256pp


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothness scale ``alpha`` and approximation-gap scale ``beta``."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidParameterError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise InvalidParameterError(f"beta must be finite and > 0, got {self.beta}")


def _check_mu(mu):
    """``mu`` as a float, once it is checked to be > 0 (NaN is not)."""
    if not (mu > 0.0):
        raise InvalidParameterError(f"mu must be > 0, got {mu}")
    return float(mu)


class SmoothApprox:
    """Interface for a mu-parametrized smooth surrogate of a convex h.

    Subclasses implement ``underlying_value``, ``value``, ``grad_x`` and
    ``grad_mu`` and set ``params`` and ``input_dim``. Instances are
    immutable after construction and safe to share between threads.
    """

    params: SmoothingParams
    input_dim: int

    def underlying_value(self, x):
        raise NotImplementedError

    def value(self, x, mu):
        raise NotImplementedError

    def grad_x(self, x, mu):
        raise NotImplementedError

    def grad_mu(self, x, mu):
        raise NotImplementedError

    def branch_distance(self, x, mu):
        """Distance from ``x`` to the nearest non-smooth formula branch.

        Everywhere-smooth formulas return +inf; piecewise ones override
        this so certification can exclude near-boundary samples from
        finite-difference checks.
        """
        return math.inf

    def _check_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise DimensionMismatchError(
                f"expected input of shape ({self.input_dim},), got {x.shape}"
            )
        return x


def _norm(x):
    """||x|| as np.linalg.norm forms it, one dot product and one square root."""
    return math.sqrt(x @ x)


def _sum_of_squares(r):
    """||r||^2 per row of ``r``: a least-squares value, and the l2 norm squared."""
    return np.add.reduce(r * r, axis=-1)


class _Kernel(NamedTuple):
    """A built-in surrogate as five functions over the last axis of residual rows.

    ``r`` is one row or a chunk of rows, ``mu`` a scalar or a column (one
    entry per row, or one row read at every mu). ``smoothed``, ``exact``,
    ``grad_mu`` and ``gap`` give one value per row: the surrogate, the
    exact function, its mu-derivative, and the distance to the nearest
    non-smooth branch (+inf if none). ``coeff(r, mu, out=None)`` is the
    derivative in each entry of ``r``, so the gradient is ``C^T coeff``.
    Each sum over a row is one ``np.add.reduce`` over the last axis, so
    a row of a chunk reads the same bits as that row alone.
    """

    smoothed: Callable
    exact: Callable
    coeff: Callable
    grad_mu: Callable
    gap: Callable


def _smooth_everywhere(r, mu):
    return np.full(np.shape(r)[:-1], math.inf)


def _sqrt_coeff(r, mu, out=None):
    coeff = np.hypot(r, mu, out=out)
    return np.divide(r, coeff, out=coeff)


def _huber_coeff(r, mu, out=None):
    # clip(r/mu, -1, 1) is bit for bit where(|r| <= mu, r/mu, sign(r)):
    # division rounds monotonically and gives exactly +-1 at |r| = mu,
    # so r/mu lies beyond +-1 exactly where |r| > mu, and +-0, +-inf and
    # NaN map alike. The clip is formed as min(max(r/mu, -1), 1), two
    # ufuncs: ndarray.clip gives the same bits (both keep +-0 and
    # propagate NaN) but enters numpy's Python wrapper on every call.
    coeff = np.divide(r, mu, out=out)
    return np.minimum(np.maximum(coeff, -1.0, out=coeff), 1.0, out=coeff)


def _huber_smoothed(r, mu):
    a = np.abs(r)
    return np.add.reduce(np.where(a <= mu, a * a / (2.0 * mu), a - 0.5 * mu), axis=-1)


def _huber_grad_mu(r, mu):
    a = np.abs(r)
    return np.add.reduce(np.where(a <= mu, -a * a / (2.0 * mu * mu), -0.5), axis=-1)


# ||r||_1 with each |r_i| smoothed: sum sqrt(r_i^2 + mu^2) - mu, or the
# Huber form, quadratic for |r_i| <= mu and linear beyond.
_L1_SQRT = _Kernel(
    smoothed=lambda r, mu: np.add.reduce(np.hypot(r, mu) - mu, axis=-1),
    exact=lambda r: np.add.reduce(np.abs(r), axis=-1),
    coeff=_sqrt_coeff,
    grad_mu=lambda r, mu: np.add.reduce(mu / np.hypot(r, mu) - 1.0, axis=-1),
    gap=_smooth_everywhere,
)
_L1_HUBER = _Kernel(
    smoothed=_huber_smoothed,
    exact=_L1_SQRT.exact,
    coeff=_huber_coeff,
    grad_mu=_huber_grad_mu,
    gap=lambda r, mu: np.minimum.reduce(np.abs(np.abs(r) - mu), axis=-1),
)


def _l2(l1, denominator):
    """The l2 surrogate that is ``l1``'s 1-d surrogate at ||r||: its values
    are ``l1``'s on the one-entry row ||r||, and its coefficient, the 1-d
    derivative times r / ||r||, is ``r / denominator(||r||, mu)``.
    """

    def norm(r):
        return np.sqrt(_sum_of_squares(r))[..., None]

    def coeff(r, mu, out=None):
        return np.divide(r, denominator(norm(r), mu), out=out)

    return _Kernel(
        smoothed=lambda r, mu: l1.smoothed(norm(r), mu),
        exact=lambda r: norm(r)[..., 0],
        coeff=coeff,
        grad_mu=lambda r, mu: l1.grad_mu(norm(r), mu),
        gap=lambda r, mu: l1.gap(norm(r), mu),
    )


_L2_SQRT = _l2(_L1_SQRT, np.hypot)
_L2_HUBER = _l2(_L1_HUBER, np.maximum)


def _softmax_parts(r, mu):
    """Each row's maximum m, the weights exp((r - m)/mu) and their sum, as columns."""
    m = np.maximum.reduce(r, axis=-1, keepdims=True)
    w = np.exp((r - m) / mu)
    return m, w, np.add.reduce(w, axis=-1, keepdims=True)


def _lse_smoothed(r, mu):
    # log n and log(sum w) come from the same log, so a row of equal
    # entries (sum w = n exactly) reads its entry exactly, and 0 reads 0.
    m, _, total = _softmax_parts(r, mu)
    return (m + mu * (np.log(total) - np.log(r.shape[-1])))[..., 0]


def _lse_coeff(r, mu, out=None):
    _, w, total = _softmax_parts(r, mu)
    return np.divide(w, total, out=out)


def _lse_grad_mu(r, mu):
    # The softmax entropy minus log n, in [-log n, 0] by construction.
    p = _lse_coeff(r, mu)
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    return -np.add.reduce(p * log_p, axis=-1) - np.log(r.shape[-1])


# mu log(sum exp(r_i/mu)) - mu log n, with the largest entry subtracted
# inside the exponentials, so the formula stays finite for mu far below
# the spread of r.
_LSE_MAX = _Kernel(
    smoothed=_lse_smoothed,
    exact=lambda r: np.maximum.reduce(r, axis=-1),
    coeff=_lse_coeff,
    grad_mu=_lse_grad_mu,
    gap=_smooth_everywhere,
)


class _Residual(SmoothApprox):
    """``kernel`` on the residual ``r = C x - d``.

    The vector surrogates take C = I and d = 0, held as ``c = d = None``,
    so ``r`` is ``x`` itself and no n x n matrix is stored or multiplied.
    A least-squares problem stacks ``C`` and ``d`` (the identity and 0 for
    None) under its ``A`` and ``b`` and runs the kernel on its one
    residual (``problem._Stacked``).
    """

    def __init__(self, dim, c, d, kernel, params):
        self.input_dim = dim
        self._c = c
        self._d = d
        self._kernel = kernel
        self.params = params

    def _residual(self, xs):
        """C x - d at one point, or at each row of a stack of points."""
        return xs if self._c is None else xs @ self._c.T - self._d

    def _at(self, x):
        """C x - d at one ``x``, whose shape is checked."""
        return self._residual(self._check_input(x))

    def underlying_value(self, x):
        return float(self._kernel.exact(self._at(x)))

    def value(self, x, mu):
        return float(self._kernel.smoothed(self._at(x), _check_mu(mu)))

    def grad_x(self, x, mu):
        coeff = self._kernel.coeff(self._at(x), _check_mu(mu))
        return coeff if self._c is None else self._c.T @ coeff

    def grad_mu(self, x, mu):
        return float(self._kernel.grad_mu(self._at(x), _check_mu(mu)))

    def branch_distance(self, x, mu):
        return float(self._kernel.gap(self._at(x), mu))


def _check_dim(dim):
    if int(dim) < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    return int(dim)


def _vector(dim, kernel, beta):
    """``kernel`` on x itself (C = I, d = 0), parameters (1, beta)."""
    return _Residual(dim, None, None, kernel, SmoothingParams(1.0, beta))


def sqrt_l2_approx(dim):
    """Square-root smooth surrogate of the l2 norm, sqrt(||x||^2 + mu^2) - mu, parameters (1, 1)."""
    return _vector(_check_dim(dim), _L2_SQRT, 1.0)


def huber_l2_approx(dim):
    """Huber smooth surrogate of the l2 norm, parameters (1, 1/2).

    ||x||^2 / (2 mu) for ||x|| <= mu, else ||x|| - mu/2. The branches
    agree in value and gradient at ||x|| = mu; the mu-derivative jumps
    there, and the quadratic branch is the one evaluated at equality.
    """
    return _vector(_check_dim(dim), _L2_HUBER, 0.5)


def log_sum_exp_max_approx(dim):
    """Log-sum-exp surrogate of the coordinate maximum, parameters (1, log n).

    mu log(sum exp(x_i/mu)) - mu log n, whose mu-derivative is the
    softmax entropy minus log n. For n = 1 the surrogate is exact (gap
    0, mu-derivative 0) and log 1 = 0 is no admissible beta, so any
    positive beta certifies it; it takes 1.
    """
    dim = _check_dim(dim)
    return _vector(dim, _LSE_MAX, math.log(float(dim)) if dim > 1 else 1.0)


@dataclass(frozen=True)
class AffineTerm:
    """One summand ``weight * inner(matrix @ x + offset, mu)``."""

    weight: float
    matrix: np.ndarray
    offset: np.ndarray
    inner: SmoothApprox

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "offset", np.atleast_1d(np.asarray(self.offset, dtype=float)))


class _AffineSum(SmoothApprox):
    """Weighted sum of smooth approximations composed with affine maps."""

    def __init__(self, terms):
        if not terms:
            raise InvalidParameterError("affine_sum needs at least one term")
        dim = terms[0].matrix.shape[1]
        alpha = 0.0
        beta = 0.0
        for i, term in enumerate(terms):
            if term.weight <= 0.0:
                raise InvalidParameterError(
                    f"term {i}: weight must be > 0 (zero weights would zero out beta)"
                )
            rows, cols = term.matrix.shape
            if cols != dim:
                raise DimensionMismatchError(
                    f"term {i}: matrix has {cols} columns, expected {dim}"
                )
            if rows != term.inner.input_dim:
                raise DimensionMismatchError(
                    f"term {i}: matrix has {rows} rows but inner approximation "
                    f"expects {term.inner.input_dim}"
                )
            if term.offset.shape != (rows,):
                raise DimensionMismatchError(
                    f"term {i}: offset has shape {term.offset.shape}, expected ({rows},)"
                )
            norm = spectral_norm(term.matrix)
            alpha += term.weight * term.inner.params.alpha * norm * norm
            beta += term.weight * term.inner.params.beta
        self.input_dim = dim
        self.terms = tuple(terms)
        # Rounded up: each product takes three roundings, the running sum one per term.
        self.params = SmoothingParams(upper(alpha, len(terms) + 3), beta)

    def underlying_value(self, x):
        x = self._check_input(x)
        return sum(
            t.weight * t.inner.underlying_value(t.matrix @ x + t.offset) for t in self.terms
        )

    def value(self, x, mu):
        x = self._check_input(x)
        mu = _check_mu(mu)
        return sum(t.weight * t.inner.value(t.matrix @ x + t.offset, mu) for t in self.terms)

    def grad_x(self, x, mu):
        x = self._check_input(x)
        mu = _check_mu(mu)
        g = np.zeros(self.input_dim)
        for t in self.terms:
            g += t.weight * (t.matrix.T @ t.inner.grad_x(t.matrix @ x + t.offset, mu))
        return g

    def grad_mu(self, x, mu):
        x = self._check_input(x)
        mu = _check_mu(mu)
        return sum(t.weight * t.inner.grad_mu(t.matrix @ x + t.offset, mu) for t in self.terms)

    def branch_distance(self, x, mu):
        x = self._check_input(x)
        return min(
            t.inner.branch_distance(t.matrix @ x + t.offset, mu) for t in self.terms
        )


def affine_sum(terms):
    """Combine affine-composed approximations into one.

    The result's parameters follow the composition rule
    ``alpha = sum w_i * alpha_i * ||A_i||_2^2`` and
    ``beta = sum w_i * beta_i``, with certified upper bounds on the
    spectral norms, so ``alpha`` is an upper bound as well.
    """
    return _AffineSum(list(terms))


# The one-dimensional surrogate of |r| behind each name ``l1_residual`` takes,
# and the kernel that sums it over the rows of C x - d.
L1_SMOOTHERS = {"sqrt_l2": sqrt_l2_approx, "huber_l2": huber_l2_approx}
_L1_KERNELS = {"sqrt_l2": _L1_SQRT, "huber_l2": _L1_HUBER}


def l1_residual(c, d, smoothing):
    """``||C x - d||_1`` with every residual smoothed by the named surrogate.

    ``smoothing`` is ``"sqrt_l2"`` or ``"huber_l2"``, the 1-d surrogate
    of each |c_i x - d_i|. By the composition rule the parameters are
    ``alpha = alpha_1 ||C||_F^2``, rounded up, and ``beta = n_C beta_1``.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if smoothing not in L1_SMOOTHERS:
        raise InvalidParameterError(
            f"unknown smoothing {smoothing!r}; choose from {sorted(L1_SMOOTHERS)}"
        )
    if c.ndim != 2 or c.size == 0:
        raise DimensionMismatchError(f"C must be a non-empty 2-D array, got shape {c.shape}")
    if d.shape != (c.shape[0],):
        raise DimensionMismatchError(f"d has shape {d.shape}, expected ({c.shape[0]},)")
    # alpha_1 (1 for both) times ||C||_F^2, one dot product of c.size terms
    # rounded up; SmoothingParams rejects a norm past the double range.
    with np.errstate(over="ignore"):
        square = float(c.ravel() @ c.ravel())
    inner = L1_SMOOTHERS[smoothing](1).params
    params = SmoothingParams(upper(square, c.size) * inner.alpha, len(d) * inner.beta)
    return _Residual(c.shape[1], c, d, _L1_KERNELS[smoothing], params)


@dataclass
class CertificationReport:
    """Worst-case violations observed while sampling one approximation.

    ``passed`` is true iff every recorded violation is within the
    documented tolerances (1e-6 relative for gradient checks, 1e-9
    absolute slack for the inequalities).
    """

    sample_count: int
    rng_seed: int
    checked_fd_samples: int
    excluded_fd_samples: int
    sandwich_low: float = 0.0
    sandwich_high: float = 0.0
    grad_mu_low: float = 0.0
    grad_mu_high: float = 0.0
    grad_x_fd_rel: float = 0.0
    grad_mu_fd_rel: float = 0.0
    smoothness_excess: float = 0.0
    convexity_gap: float = 0.0
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self):
        tol = self.tolerances
        return (
            self.sandwich_low <= tol["inequality_abs"]
            and self.sandwich_high <= tol["inequality_abs"]
            and self.grad_mu_low <= tol["inequality_abs"]
            and self.grad_mu_high <= tol["inequality_abs"]
            and self.grad_x_fd_rel <= tol["gradient_rel"]
            and self.grad_mu_fd_rel <= tol["gradient_rel"]
            and self.smoothness_excess <= tol["inequality_abs"]
            and self.convexity_gap <= tol["inequality_abs"]
        )


def _fd_grad(values, x):
    """Central-difference gradient of a scalar function, for validation.

    ``values`` maps a stack of points, one per row, to their values. It
    is called once, on the 2n points x + h_j e_j and then x - h_j e_j.
    """
    x = np.asarray(x, dtype=float)
    h = 3e-7 * (1.0 + np.abs(x))
    steps = np.diag(h)
    v = values(np.concatenate((x + steps, x - steps)))
    return (v[: x.size] - v[x.size :]) / (2.0 * h)


def _values_at(approx, mu):
    """``approx.value`` at each row of a stack: one kernel call for a built-in residual."""
    if type(approx) is _Residual:
        return lambda xs: approx._kernel.smoothed(approx._residual(xs), mu)
    return lambda xs: np.array([approx.value(x, mu) for x in xs])


def certify(
    approx,
    sample_count,
    rng_seed,
    mu_range=(1e-3, 10.0),
    x_scale=1.0,
    exclusion_radius=1e-3,
):
    """Numerically validate an approximation's certified properties.

    Draws ``sample_count`` pairs (x, mu) with x standard normal (scaled)
    and mu log-uniform over ``mu_range``, then records worst-case
    violations of:

    * the sandwich ``value <= underlying <= value + beta*mu``;
    * the mu-derivative range ``-beta <= grad_mu <= 0``;
    * agreement of ``grad_x``/``grad_mu`` with central finite
      differences (relative, skipping samples within
      ``exclusion_radius`` of a non-smooth formula branch);
    * (alpha/mu)-smoothness of ``grad_x`` on sample pairs;
    * midpoint convexity of ``value(., mu)``.

    Violating samples never raise; they only lower ``report.passed``.
    """
    if sample_count < 1:
        raise InvalidParameterError("sample_count must be >= 1")
    rng = Xoshiro256pp(rng_seed)
    alpha = approx.params.alpha
    beta = approx.params.beta
    dim = approx.input_dim
    log_lo, log_hi = math.log(mu_range[0]), math.log(mu_range[1])

    tol = {"gradient_rel": 1e-6, "inequality_abs": 1e-9}
    report = CertificationReport(
        sample_count=sample_count,
        rng_seed=rng_seed,
        checked_fd_samples=0,
        excluded_fd_samples=0,
        tolerances=tol,
    )

    for _ in range(sample_count):
        x, y = rng.normals((2, dim)) * x_scale
        mu = math.exp(log_lo + (log_hi - log_lo) * rng.uniform())

        val = approx.value(x, mu)
        exact = approx.underlying_value(x)
        report.sandwich_low = max(report.sandwich_low, val - exact)
        report.sandwich_high = max(report.sandwich_high, exact - (val + beta * mu))

        gmu = approx.grad_mu(x, mu)
        report.grad_mu_low = max(report.grad_mu_low, -beta - gmu)
        report.grad_mu_high = max(report.grad_mu_high, gmu)

        gx = approx.grad_x(x, mu)
        gy = approx.grad_x(y, mu)
        lhs = _norm(gx - gy)
        rhs = (alpha / mu) * (1.0 + 1e-9) * _norm(x - y)
        report.smoothness_excess = max(report.smoothness_excess, lhs - rhs)

        mid = approx.value(0.5 * (x + y), mu)
        report.convexity_gap = max(
            report.convexity_gap, mid - 0.5 * (approx.value(x, mu) + approx.value(y, mu))
        )

        if approx.branch_distance(x, mu) < exclusion_radius:
            report.excluded_fd_samples += 1
            continue
        report.checked_fd_samples += 1

        fd_x = _fd_grad(_values_at(approx, mu), x)
        denom = 1.0 + _norm(fd_x)
        report.grad_x_fd_rel = max(
            report.grad_x_fd_rel, _norm(gx - fd_x) / denom
        )

        h = 1e-5 * mu
        fd_mu = (approx.value(x, mu + h) - approx.value(x, mu - h)) / (2.0 * h)
        report.grad_mu_fd_rel = max(
            report.grad_mu_fd_rel, abs(gmu - fd_mu) / (1.0 + abs(fd_mu))
        )

    return report
