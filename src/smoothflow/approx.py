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

    def point(self, x):
        """The approximation at one ``x``.

        The result has ``value(mu)``, ``grad(mu)`` and ``exact()``, equal
        to ``value(x, mu)``, ``grad_x(x, mu)`` and ``underlying_value(x)``.
        Subclasses override this to evaluate what depends only on ``x``
        once, so the gradient and the values at any number of ``mu``
        cost a single pass over ``x``. The shape of ``x`` is checked
        here.
        """
        return _ApproxPoint(self, self._check_input(x))

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

    @staticmethod
    def _check_mu(mu):
        if not (mu > 0.0):
            raise InvalidParameterError(f"mu must be > 0, got {mu}")
        return float(mu)


class _ApproxPoint:
    """A ``SmoothApprox`` at one x through its ``value``/``grad_x`` methods."""

    __slots__ = ("_approx", "_x")

    def __init__(self, approx, x):
        self._approx = approx
        self._x = x

    def value(self, mu):
        return self._approx.value(self._x, mu)

    def grad(self, mu):
        return self._approx.grad_x(self._x, mu)

    def exact(self):
        return self._approx.underlying_value(self._x)


def _norm(x):
    """||x|| as np.linalg.norm forms it, one dot product and one square root."""
    return math.sqrt(x @ x)


def _check_dim(dim):
    if int(dim) < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    return int(dim)


class _SqrtL2(SmoothApprox):
    """sqrt(||x||^2 + mu^2) - mu, a surrogate for the l2 norm."""

    def __init__(self, dim):
        self.input_dim = _check_dim(dim)
        self.params = SmoothingParams(1.0, 1.0)

    def underlying_value(self, x):
        return _norm(self._check_input(x))

    def value(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        return math.hypot(_norm(x), mu) - mu

    def grad_x(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        return x / math.hypot(_norm(x), mu)

    def grad_mu(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        return mu / math.hypot(_norm(x), mu) - 1.0


class _HuberL2(SmoothApprox):
    """Huber surrogate for the l2 norm: quadratic core, linear tails.

    The two branches agree in value and x-gradient at ||x|| = mu; the
    mu-derivative jumps there, and the quadratic branch is the one
    evaluated at equality.
    """

    def __init__(self, dim):
        self.input_dim = _check_dim(dim)
        self.params = SmoothingParams(1.0, 0.5)

    def underlying_value(self, x):
        return _norm(self._check_input(x))

    def value(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        r = _norm(x)
        if r <= mu:
            return r * r / (2.0 * mu)
        return r - 0.5 * mu

    def grad_x(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        r = _norm(x)
        if r <= mu:
            return x / mu
        return x / r

    def grad_mu(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        r = _norm(x)
        if r <= mu:
            return -r * r / (2.0 * mu * mu)
        return -0.5

    def branch_distance(self, x, mu):
        r = _norm(self._check_input(x))
        return abs(r - float(mu))


class _LogSumExpMax(SmoothApprox):
    """mu * log(sum exp(x_i/mu)) - mu*log(n), a surrogate for max(x).

    The largest entry is subtracted inside the exponentials, so the
    formula stays finite for mu far below the spread of x. The
    mu-derivative equals softmax entropy minus log(n), which keeps it in
    [-log n, 0] by construction.
    """

    def __init__(self, dim):
        self.input_dim = _check_dim(dim)
        self._log_n = math.log(float(self.input_dim))
        # log(1) = 0 is not an admissible beta; for dim 1 the surrogate is
        # exact (gap 0, grad_mu 0), so any positive beta certifies.
        beta = self._log_n if self.input_dim > 1 else 1.0
        self.params = SmoothingParams(1.0, beta)

    def underlying_value(self, x):
        return float(np.max(self._check_input(x)))

    def _weights(self, x, mu):
        m = float(np.max(x))
        w = np.exp((x - m) / mu)
        return m, w, float(np.sum(w))

    def value(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        m, _, total = self._weights(x, mu)
        return m + mu * (math.log(total) - self._log_n)

    def grad_x(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        _, w, total = self._weights(x, mu)
        return w / total

    def grad_mu(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        _, w, total = self._weights(x, mu)
        p = w / total
        nz = p > 0.0
        entropy = -float(np.sum(p[nz] * np.log(p[nz])))
        return entropy - self._log_n


def sqrt_l2_approx(dim):
    """Square-root smooth surrogate of the l2 norm, parameters (1, 1)."""
    return _SqrtL2(dim)


def huber_l2_approx(dim):
    """Huber smooth surrogate of the l2 norm, parameters (1, 1/2)."""
    return _HuberL2(dim)


def log_sum_exp_max_approx(dim):
    """Log-sum-exp surrogate of the coordinate maximum, parameters (1, log n)."""
    return _LogSumExpMax(dim)


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
        mu = self._check_mu(mu)
        return sum(t.weight * t.inner.value(t.matrix @ x + t.offset, mu) for t in self.terms)

    def grad_x(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
        g = np.zeros(self.input_dim)
        for t in self.terms:
            g += t.weight * (t.matrix.T @ t.inner.grad_x(t.matrix @ x + t.offset, mu))
        return g

    def grad_mu(self, x, mu):
        x = self._check_input(x)
        mu = self._check_mu(mu)
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


# The one-dimensional surrogate of |r| behind each name ``l1_residual`` takes.
L1_SMOOTHERS = {"sqrt_l2": _SqrtL2, "huber_l2": _HuberL2}


class _L1Residual(SmoothApprox):
    """||C x - d||_1, each |c_i x - d_i| smoothed by one 1-d l2 surrogate."""

    def __init__(self, c, d, smoothing):
        if smoothing not in L1_SMOOTHERS:
            raise InvalidParameterError(
                f"unknown smoothing {smoothing!r}; choose from {sorted(L1_SMOOTHERS)}"
            )
        if c.ndim != 2 or c.size == 0:
            raise DimensionMismatchError(f"C must be a non-empty 2-D array, got shape {c.shape}")
        if d.shape != (c.shape[0],):
            raise DimensionMismatchError(f"d has shape {d.shape}, expected ({c.shape[0]},)")
        self.input_dim = c.shape[1]
        self._c = c
        self._d = d
        self._huber = smoothing == "huber_l2"
        # alpha_1 (1 for both) times ||C||_F^2, one dot product of c.size terms
        # rounded up; SmoothingParams rejects a norm past the double range.
        with np.errstate(over="ignore"):
            square = float(c.ravel() @ c.ravel())
        inner = L1_SMOOTHERS[smoothing](1).params
        self.params = SmoothingParams(upper(square, c.size) * inner.alpha, len(d) * inner.beta)

    def point(self, x):
        return _L1Point(self, self._check_input(x))

    def underlying_value(self, x):
        return self.point(x).exact()

    def value(self, x, mu):
        return self.point(x).value(mu)

    def grad_x(self, x, mu):
        return self.point(x).grad(mu)

    def grad_mu(self, x, mu):
        return self.point(x).grad_mu(mu)

    def branch_distance(self, x, mu):
        if not self._huber:
            return math.inf
        return float(np.min(np.abs(np.abs(self.point(x)._r) - mu)))


def _l1_smoothed(huber, r, mu):
    """The surrogate of ||r||_1 at mu: the per-row surrogates of |r|, summed.

    ``r`` holds one residual row with ``mu`` a scalar, or a chunk of
    rows with ``mu`` a column (or one row read at every mu); each sum is
    one ``np.add.reduce`` over the last axis, so a row of a chunk reads
    the same bits as that row alone.
    """
    if huber:
        a = np.abs(r)
        per = np.where(a <= mu, a * a / (2.0 * mu), a - 0.5 * mu)
    else:
        per = np.hypot(r, mu) - mu
    return np.add.reduce(per, axis=-1)


def _l1_exact(r):
    """||r||_1 per row of ``r``, the reduction of ``_l1_smoothed``."""
    return np.add.reduce(np.abs(r), axis=-1)


def _l1_coefficient(huber, r, mu, out=None):
    """The derivative of each row's surrogate of |r| at mu, written to ``out`` if given.

    For Huber it is clip(r/mu, -1, 1), bit for bit where(|r| <= mu,
    r/mu, sign(r)): division rounds monotonically and gives exactly +-1
    at |r| = mu, so r/mu lies beyond +-1 exactly where |r| > mu, and
    +-0, +-inf and NaN map alike. For the sqrt smoother it is
    r / hypot(r, mu).
    """
    if huber:
        coeff = np.divide(r, mu, out=out)
        return coeff.clip(-1.0, 1.0, out=coeff)
    coeff = np.hypot(r, mu, out=out)
    return np.divide(r, coeff, out=coeff)


class _L1Point:
    """``l1_residual`` at one x: r = C x - d is formed once.

    The values and gradients at every mu are read from ``_r``
    through the kernels the stacked ``CompositePoint`` uses.
    """

    __slots__ = ("_mat", "_huber", "_r")

    def __init__(self, term, x):
        self._mat = term._c
        self._huber = term._huber
        self._r = self._mat @ x - term._d

    def value(self, mu):
        mu = SmoothApprox._check_mu(mu)
        return float(_l1_smoothed(self._huber, self._r, mu))

    def grad(self, mu):
        mu = SmoothApprox._check_mu(mu)
        return self._mat.T @ _l1_coefficient(self._huber, self._r, mu)

    def grad_mu(self, mu):
        mu = SmoothApprox._check_mu(mu)
        r = self._r
        if self._huber:
            a = np.abs(r)
            per = np.where(a <= mu, -a * a / (2.0 * mu * mu), -0.5)
        else:
            per = mu / np.hypot(r, mu) - 1.0
        return float(np.add.reduce(per, axis=-1))

    def exact(self):
        return float(_l1_exact(self._r))


def l1_residual(c, d, smoothing):
    """``||C x - d||_1`` with every residual smoothed by the named surrogate.

    ``smoothing`` is ``"sqrt_l2"`` or ``"huber_l2"``, the 1-d surrogate
    of each |c_i x - d_i|. By the composition rule the parameters are
    ``alpha = alpha_1 ||C||_F^2``, rounded up, and ``beta = n_C beta_1``.
    """
    return _L1Residual(np.asarray(c, dtype=float), np.asarray(d, dtype=float), smoothing)


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


def _fd_grad(fn, x):
    """Central-difference gradient of a scalar function, for validation."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    e = np.zeros_like(x)  # one perturbation buffer, zero outside coordinate j
    for j in range(x.size):
        h = 3e-7 * (1.0 + abs(x[j]))
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
        e[j] = 0.0
    return g


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

        fd_x = _fd_grad(lambda y: approx.value(y, mu), x)
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
