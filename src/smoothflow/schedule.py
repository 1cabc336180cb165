"""Smoothing-parameter schedules and the stepsize/time recursion.

A schedule produces the non-increasing sequence mu_k; the stepsize is
always ``s_k = 1/(L + alpha/mu_k)``, which makes the discrete method a
forward Euler discretization of the continuous flow with timestep s_k.
``ScheduleState`` carries everything the analytical bounds need: the
discretized time t_k, the strong-convexity weight eta_k and the running
sums of s, eta*s and eta*mu*s.

Three continuous-time designs ship with the package: linear (which
reproduces exponential decay in k and exhausts at a finite time),
exponential in t, and reciprocal-power in t. The latter two stay
positive forever, so their discretized time grows without bound and the
method converges.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._linalg import _U, chord_weights, upper
from .errors import InvalidParameterError, ScheduleExhaustedError

# Below this the smoothing parameter is numerically dead and the flow is
# treated as ill-posed rather than silently clamped.
MU_FLOOR = 1e-300

_LOG2 = math.log(2.0)


def logaddexp(x, y):
    """log(exp(x) + exp(y)) of two Python floats, bit for bit ``np.logaddexp``.

    The branches and the libm calls are those of numpy's
    ``npy_logaddexp``; calling the ufunc on scalars costs several times
    more, and the schedule recursion makes two calls per step.
    """
    if x == y:
        # Equal infinities land here too, so no inf - inf is formed.
        return x + _LOG2
    tmp = x - y
    if tmp > 0.0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0.0:
        return y + math.log1p(math.exp(tmp))
    return tmp  # a NaN argument


def _exp_or_inf(log_value):
    """exp(log_value), or inf once the value is past the double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _expm1_or_inf(x):
    """expm1(x), or inf once the value is past the double range."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def step_size(lipschitz, alpha, mu):
    """Stepsize 1/(L + alpha/mu); always in (0, mu/alpha]."""
    if not (mu > 0.0):
        raise InvalidParameterError(f"mu must be > 0, got {mu}")
    denom = lipschitz + alpha / mu
    if not (denom > 0.0):
        raise InvalidParameterError("L + alpha/mu must be positive")
    return 1.0 / denom


@dataclass(frozen=True)
class PowerDecay:
    """mu_k = mu0 * (k+1)**(-gamma).

    The discretized time diverges for gamma <= 1 (value convergence is
    guaranteed there); gamma > 1 is admitted for timeline analysis even
    though the reachable time is then finite.
    """

    mu0: float
    gamma: float
    t0: float = 0.0

    def __post_init__(self):
        if not (self.mu0 > 0.0):
            raise InvalidParameterError("mu0 must be > 0")
        if not (self.gamma > 0.0):
            raise InvalidParameterError("gamma must be > 0")

    def mu_at(self, k, t):
        return self.mu0 * float(k + 1) ** (-self.gamma)

    def describe(self):
        return f"power(mu0={self.mu0:g},gamma={self.gamma:g})"


@dataclass(frozen=True)
class ExpDecay:
    """mu_k = mu0 * lam**k; the discretized time saturates at a finite value."""

    mu0: float
    lam: float
    t0: float = 0.0

    def __post_init__(self):
        if not (self.mu0 > 0.0):
            raise InvalidParameterError("mu0 must be > 0")
        if not (0.0 < self.lam < 1.0):
            raise InvalidParameterError("lam must be in (0, 1)")

    def mu_at(self, k, t):
        return self.mu0 * self.lam**k

    def describe(self):
        return f"exp(mu0={self.mu0:g},lambda={self.lam:g})"


@dataclass(frozen=True)
class ContinuousDriven:
    """mu_k read off a continuous design: mu_k = mu(t_k).

    The time recursion t_{k+1} = t_k + 1/(L + alpha/mu(t_k)) makes the
    discrete iteration an exact forward Euler integration of the flow
    under this design.
    """

    mu_of_t: Callable[[float], float]
    t0: float = 0.0

    def mu_at(self, k, t):
        return float(self.mu_of_t(t))

    def describe(self):
        name = getattr(self.mu_of_t, "describe", None)
        inner = name() if callable(name) else getattr(self.mu_of_t, "__name__", "custom")
        return f"continuous({inner},t0={self.t0:g})"


class LinearMu:
    """mu(t) = mu0 - rate*(t - t0); hits zero at t0 + mu0/rate.

    With L = 0 and alpha = 1 the induced sequence is exactly
    mu_k = mu0 * (1 - rate)**k.
    """

    def __init__(self, mu0, rate, t0=0.0):
        if not (mu0 > 0.0 and rate > 0.0):
            raise InvalidParameterError("mu0 and rate must be > 0")
        self.mu0 = mu0
        self.rate = rate
        self.t0 = t0

    def __call__(self, t):
        return self.mu0 - self.rate * (t - self.t0)

    def _upper_mu(self, t, mu):
        """An upper bound on the exact mu(t), given the computed ``mu = self(t)``.

        The product rate (t - t0) errs by at most 2.01 u of itself, the
        subtraction by u of ``mu``.
        """
        return upper(mu + 2.02 * _U * self.rate * abs(t - self.t0), 3)

    def weighted_integral(self, sigma, t0, t):
        """Closed form of int_{t0}^{t} exp(sigma*(tau-t0)) * mu(tau) dtau, rounded up.

        mu is its own chord, so with x = sigma (t - t0) the integral is
        (t - t0) (mu(t0) q(-x) + mu(t) g(-x)) in the terms of
        ``chord_weights``; inf past the double range. x carries the
        rounding of t - t0 and of the product, 2.01 u of itself.

        From x = 703 on, 1 and x are far below an ulp of e^x, so
        q(-x) = w and g(-x) = (x - 1) w with w = e^x/x^2. The integral
        (t - t0) w (mu(t0) + (x - 1) mu(t)) is then one exp of a sum of
        logs, so it reads inf only when it leaves the double range, not
        when g, q or a product with mu alone does.
        """
        delta = t - t0
        x = sigma * delta
        mu_a = self._upper_mu(t0, self(t0))
        mu_b = self._upper_mu(t, self(t))
        if x > 703.0:
            # The exponent errs by at most u (4.06 x + 3 |log scale| + 4.01):
            # 2.02 u x carried from x, 4 u log x < 0.04 u x from log x,
            # u x and u (x + |log scale|) from the two sums, 4.01 u from
            # the scale's four roundings and 2 u |log scale| from its log.
            # exp adds 2 u.
            log_scale = math.log(delta * (mu_a + (x - 1.0) * mu_b))
            try:
                value = math.exp(x - 2.0 * math.log(x) + log_scale)
            except OverflowError:
                return math.inf
            return upper(value, 4.1 * x + 3.0 * abs(log_scale) + 8)
        g, q = chord_weights(-x)
        return upper(delta * (mu_a * q + mu_b * g), 4 + 2.02 * (x + 2.0))

    def describe(self):
        return f"linear(mu0={self.mu0:g},rate={self.rate:g})"


class ExponentialMu:
    """mu(t) = mu0 * exp(-gamma*(t - t0)); positive for all t."""

    def __init__(self, mu0, gamma, t0=0.0):
        if not (mu0 > 0.0 and gamma > 0.0):
            raise InvalidParameterError("mu0 and gamma must be > 0")
        self.mu0 = mu0
        self.gamma = gamma
        self.t0 = t0

    def __call__(self, t):
        return self.mu0 * math.exp(-self.gamma * (t - self.t0))

    def _upper_mu(self, t, mu):
        """An upper bound on the exact mu(t), given the computed ``mu = self(t)``.

        The exponent gamma (t - t0) errs by 2.01 u of itself, which moves
        mu by 2.01 u gamma |t - t0| of itself; exp and the product add
        1 ulp and u.
        """
        return upper(mu, 2.02 * self.gamma * abs(t - self.t0) + 4)

    def weighted_integral(self, sigma, t0, t):
        """Closed form of int_{t0}^{t} exp(sigma*(tau-t0)) * mu(tau) dtau.

        inf once the value is past the double range.
        """
        delta = t - t0
        rate = self.gamma - sigma
        mu_start = self(t0)  # exactly mu0 when t0 is the design's own origin
        if rate == 0.0:
            return mu_start * delta
        return mu_start * -_expm1_or_inf(-rate * delta) / rate

    def describe(self):
        return f"exponential(mu0={self.mu0:g},gamma={self.gamma:g})"


class ReciprocalMu:
    """mu(t) = mu0 * (1 + (t - t0))**(-p); positive for all t >= t0."""

    def __init__(self, mu0, power, t0=0.0):
        if not (mu0 > 0.0 and power > 0.0):
            raise InvalidParameterError("mu0 and power must be > 0")
        self.mu0 = mu0
        self.power = power
        self.t0 = t0

    def __call__(self, t):
        return self.mu0 * (1.0 + (t - self.t0)) ** (-self.power)

    def _upper_mu(self, t, mu):
        """An upper bound on the exact mu(t), given the computed ``mu = self(t)``.

        The base 1 + (t - t0) errs by u (1 + |t - t0|/base) of itself,
        which the power multiplies by p; pow and the product add 1 ulp
        and u.
        """
        delta = t - self.t0
        base = 1.0 + delta
        return upper(mu, 2.02 * self.power * (1.0 + abs(delta) / base) + 4)

    def describe(self):
        return f"reciprocal(mu0={self.mu0:g},p={self.power:g})"


class ConstantMu:
    """mu(t) = mu0. Not a convergent solver design (mu never vanishes);
    used by the continuous bound's closed form and in tests."""

    def __init__(self, mu0):
        if not (mu0 > 0.0):
            raise InvalidParameterError("mu0 must be > 0")
        self.mu0 = mu0

    def __call__(self, t):
        return self.mu0

    def _upper_mu(self, t, mu):
        """mu itself: the constant is exact."""
        return mu

    def weighted_integral(self, sigma, t0, t):
        """Closed form of int_{t0}^{t} exp(sigma*(tau-t0)) * mu0 dtau.

        inf once the value is past the double range.
        """
        delta = t - t0
        if sigma == 0.0:
            return self.mu0 * delta
        return self.mu0 * _expm1_or_inf(sigma * delta) / sigma

    def describe(self):
        return f"constant(mu0={self.mu0:g})"


class ScheduleState(NamedTuple):
    """Per-step snapshot of the schedule recursion.

    ``eta`` and the eta-weighted sums are kept both linearly and in log
    space; the linear values are exact while they fit in a double and
    the log values take over transparently once eta grows past that
    (eta grows like exp(sigma * t_k)). ``sum_eta_s`` and
    ``sum_eta_mu_s`` read inf once the sums themselves leave the double
    range; the log values stay exact. An immutable named tuple:
    ``_replace`` makes a modified copy.
    """

    k: int
    t: float
    mu: float
    s: float
    sum_s: float
    eta_lin: float
    sum_eta_s_lin: float
    sum_eta_mu_s_lin: float
    log_eta: float
    log_sum_eta_s: float
    log_sum_eta_mu_s: float

    @property
    def eta(self):
        return self.eta_lin

    @property
    def sum_eta_s(self):
        if math.isfinite(self.sum_eta_s_lin):
            return self.sum_eta_s_lin
        return _exp_or_inf(self.log_sum_eta_s)

    @property
    def sum_eta_mu_s(self):
        if math.isfinite(self.sum_eta_mu_s_lin):
            return self.sum_eta_mu_s_lin
        return _exp_or_inf(self.log_sum_eta_mu_s)


def initial_state(sched, lipschitz, alpha):
    """State at k = 0: empty sums, eta = 1, t at the schedule's origin."""
    t0 = sched.t0
    mu0 = sched.mu_at(0, t0)
    if not (mu0 > MU_FLOOR):
        raise ScheduleExhaustedError(f"initial smoothing parameter {mu0} is not positive")
    return ScheduleState(
        0, t0, mu0, step_size(lipschitz, alpha, mu0), 0.0, 1.0, 0.0, 0.0, 0.0, -math.inf, -math.inf
    )


def advance(sched, state, sigma, lipschitz, alpha):
    """One step of the schedule recursion: k -> k+1.

    Extends the running sums with the k-th terms, updates
    eta_{k+1} = eta_k / (1 - sigma * s_k), advances the timeline and
    queries the schedule for mu_{k+1}. Raises ``ScheduleExhaustedError``
    when the schedule's smoothing parameter is no longer positive.
    """
    s_k = state.s
    mu_k = state.mu
    shrink = 1.0 - sigma * s_k
    if not (shrink > 0.0):
        raise InvalidParameterError(
            f"1 - sigma*s must stay positive, got {shrink} (sigma={sigma})"
        )
    log_eta_next = state.log_eta - math.log1p(-sigma * s_k)
    eta_next = state.eta_lin / shrink
    log_s = math.log(s_k)
    k_next = state.k + 1
    t_next = state.t + s_k
    mu_next = sched.mu_at(k_next, t_next)
    if not (mu_next > MU_FLOOR):
        raise ScheduleExhaustedError(
            f"smoothing parameter exhausted at k={k_next}, t={t_next!r} (mu={mu_next!r})"
        )
    return ScheduleState(
        k_next,
        t_next,
        float(mu_next),
        step_size(lipschitz, alpha, mu_next),
        state.sum_s + s_k,
        eta_next,
        state.sum_eta_s_lin + eta_next * s_k,
        state.sum_eta_mu_s_lin + eta_next * mu_k * s_k,
        log_eta_next,
        logaddexp(state.log_sum_eta_s, log_eta_next + log_s),
        logaddexp(state.log_sum_eta_mu_s, log_eta_next + log_s + math.log(mu_k)),
    )


def eta_lower_bound(state, sigma):
    """exp(sigma * sum of stepsizes), a lower bound on eta_k."""
    return math.exp(sigma * state.sum_s)


@dataclass
class SumDivergenceReport:
    """Partial sums of s and eta*s over a horizon, with growth verdicts."""

    horizon: int
    sum_s_series: np.ndarray
    sum_eta_s_series: np.ndarray
    sum_s_verdict: str
    sum_eta_s_verdict: str

    @property
    def consistent(self):
        return self.sum_s_verdict == self.sum_eta_s_verdict


def _growth_verdict(series):
    # Saturating sums have a vanishing relative tail over the back half.
    half = len(series) // 2
    tail = series[-1] - series[half]
    if tail <= max(1e-9, 1e-3 * series[-1]):
        return "saturating"
    return "diverging"


def sum_divergence_equivalent(sched, sigma, lipschitz, alpha, horizon):
    """Empirical check that sum(s) and sum(eta*s) grow or saturate together.

    Runs the recursion for ``horizon`` steps (stopping early on schedule
    exhaustion) and classifies each partial-sum series by its relative
    tail growth.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    state = initial_state(sched, lipschitz, alpha)
    sum_s = np.zeros(horizon + 1)
    sum_eta_s = np.zeros(horizon + 1)
    steps = horizon
    for k in range(1, horizon + 1):
        try:
            state = advance(sched, state, sigma, lipschitz, alpha)
        except ScheduleExhaustedError:
            steps = k - 1
            sum_s = sum_s[: steps + 1]
            sum_eta_s = sum_eta_s[: steps + 1]
            break
        sum_s[k] = state.sum_s
        sum_eta_s[k] = state.sum_eta_s_lin
    return SumDivergenceReport(
        horizon=steps,
        sum_s_series=sum_s,
        sum_eta_s_series=sum_eta_s,
        sum_s_verdict=_growth_verdict(sum_s),
        sum_eta_s_verdict=_growth_verdict(sum_eta_s),
    )
