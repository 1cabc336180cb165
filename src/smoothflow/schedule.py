"""Smoothing-parameter schedules and the stepsize/time recursion.

A schedule produces the non-increasing sequence mu_k; the stepsize is
always ``s_k = 1/(L + alpha/mu_k)``, which makes the discrete method a
forward Euler discretization of the continuous flow with timestep s_k.
``ScheduleState`` carries everything the analytical bounds need: the
discretized time t_k, the running sum of s and, divided by the
strong-convexity weight eta_k, the weight itself and the running sums
of eta*s and eta*mu*s. The weight grows like exp(sigma * t_k); the
scaled values stay finite.

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


def _check_params(t0=0.0, **positive):
    """Refuse, by name, a ``positive`` parameter not finite and > 0, or a non-finite ``t0``."""
    for name, value in positive.items():
        if not 0.0 < value < math.inf:
            raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")
    if not math.isfinite(t0):
        raise InvalidParameterError(f"t0 must be finite, got {t0}")


def _check_lambda(lam):
    """Refuse an exponential decay rate outside (0, 1), naming it ``lambda`` as the config does."""
    if not (0.0 < lam < 1.0):
        raise InvalidParameterError(f"lambda must be in (0, 1), got {lam}")


def _check_nonnegative(**values):
    """Refuse, by name, a value not finite and >= 0."""
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise InvalidParameterError(f"{name} must be finite and >= 0, got {value}")


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


def _smoothness(lipschitz, alpha, mu):
    """L + alpha/mu: the smoothness constant of F(., mu), the reciprocal of the stepsize."""
    return lipschitz + alpha / mu


def step_size(lipschitz, alpha, mu):
    """Stepsize 1/(L + alpha/mu); always in (0, mu/alpha]."""
    if not (mu > 0.0):
        raise InvalidParameterError(f"mu must be > 0, got {mu}")
    denom = _smoothness(lipschitz, alpha, mu)
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
        _check_params(self.t0, mu0=self.mu0, gamma=self.gamma)

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
        _check_params(self.t0, mu0=self.mu0)
        _check_lambda(self.lam)

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

    def __post_init__(self):
        _check_params(self.t0)

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
        _check_params(t0, mu0=mu0, rate=rate)
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
        _check_params(t0, mu0=mu0, gamma=gamma)
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
        _check_params(t0, mu0=mu0, p=power)
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
        _check_params(mu0=mu0)
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

    The strong-convexity weight eta_k = prod 1/(1 - sigma s_kappa) and
    the eta-weighted sums are carried divided by eta_k:
    ``scaled_sum_eta_s`` N_k = (sum eta_{kappa+1} s_kappa)/eta_k,
    ``scaled_sum_eta_mu_s`` M_k = (sum eta_{kappa+1} mu_kappa
    s_kappa)/eta_k and ``inv_eta`` D_k = 1/eta_k. Each stays finite,
    however far eta grows (like exp(sigma * t_k)); D_k may underflow
    to 0. The properties ``eta``, ``sum_eta_s`` and ``sum_eta_mu_s``
    undo the scaling and read inf once the value is past the double
    range. At sigma = 0 the scaled sums are the plain sums.

    ``eta`` never decreases. ``sum_eta_s`` and ``sum_eta_mu_s`` are
    quotients of two rounded recursions, so where a step adds less than
    their rounding (a saturating schedule) they may fall. While D_k is
    a normal double the fall per step is at most 5 u of the value
    (u = 2**-53): N_k shrink + s_k loses at most 2 u, D_k shrink gains
    at most u, and the two quotients round by u each.

    An immutable named tuple: ``_replace`` makes a modified copy. The
    recursion builds each state with ``tuple.__new__``, the same tuple
    the generated ``__new__`` makes, at half its cost.
    """

    k: int
    t: float
    mu: float
    s: float
    sum_s: float
    scaled_sum_eta_s: float
    scaled_sum_eta_mu_s: float
    inv_eta: float

    @property
    def eta(self):
        return float(_times_eta(1.0, self.inv_eta))

    @property
    def sum_eta_s(self):
        return float(_times_eta(self.scaled_sum_eta_s, self.inv_eta))

    @property
    def sum_eta_mu_s(self):
        return float(_times_eta(self.scaled_sum_eta_mu_s, self.inv_eta))


def _times_eta(scaled, inv_eta):
    """A scaled value times eta_k: ``scaled / inv_eta``, inf where D_k = ``inv_eta`` is 0.

    The operands are floats or arrays, one entry per state; an entry
    of an array reads the same bits as that state's property.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(inv_eta > 0.0, np.divide(scaled, inv_eta), math.inf)


def initial_state(sched, lipschitz, alpha):
    """State at k = 0: empty sums, eta = 1, t at the schedule's origin."""
    t0 = sched.t0
    mu0 = sched.mu_at(0, t0)
    if not (mu0 > MU_FLOOR):
        raise ScheduleExhaustedError(f"initial smoothing parameter {mu0} is not positive")
    return tuple.__new__(
        ScheduleState, (0, t0, mu0, step_size(lipschitz, alpha, mu0), 0.0, 0.0, 0.0, 1.0)
    )


def advance(sched, state, sigma, lipschitz, alpha):
    """One step of the schedule recursion: k -> k+1.

    Extends the running sums with the k-th terms: with
    shrink = 1 - sigma * s_k = eta_k / eta_{k+1}, the scaled sums become
    N_{k+1} = N_k shrink + s_k, M_{k+1} = M_k shrink + mu_k s_k and
    D_{k+1} = D_k shrink (see ``ScheduleState``). Then advances the
    timeline and queries the schedule for mu_{k+1}. Raises
    ``ScheduleExhaustedError`` when the schedule's smoothing parameter
    is no longer positive.
    """
    s_k = state.s
    mu_k = state.mu
    shrink = 1.0 - sigma * s_k
    if not (shrink > 0.0):
        raise InvalidParameterError(
            f"1 - sigma*s must stay positive, got {shrink} (sigma={sigma})"
        )
    k_next = state.k + 1
    t_next = state.t + s_k
    mu_next = sched.mu_at(k_next, t_next)
    if not (mu_next > MU_FLOOR):
        raise ScheduleExhaustedError(
            f"smoothing parameter exhausted at k={k_next}, t={t_next!r} (mu={mu_next!r})"
        )
    return tuple.__new__(
        ScheduleState,
        (
            k_next,
            t_next,
            float(mu_next),
            step_size(lipschitz, alpha, mu_next),
            state.sum_s + s_k,
            state.scaled_sum_eta_s * shrink + s_k,
            state.scaled_sum_eta_mu_s * shrink + mu_k * s_k,
            state.inv_eta * shrink,
        ),
    )


def _states(sched, sigma, lipschitz, alpha, k_max, state=None):
    """The recursion's ``k_max`` states after ``state`` (by default the initial state).

    Each is formed only when it is asked for; stops where the schedule exhausts.
    """
    if state is None:
        state = initial_state(sched, lipschitz, alpha)
    for _ in range(k_max):
        try:
            state = advance(sched, state, sigma, lipschitz, alpha)
        except ScheduleExhaustedError:
            return
        yield state


def eta_lower_bound(state, sigma):
    """exp(sigma * sum of stepsizes), a lower bound on eta_k; inf past the double range."""
    return _exp_or_inf(sigma * state.sum_s)


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
    sum_s, sum_eta_s = [0.0], [0.0]
    for state in _states(sched, sigma, lipschitz, alpha, horizon):
        sum_s.append(state.sum_s)
        sum_eta_s.append(state.sum_eta_s)
    sum_s, sum_eta_s = np.array(sum_s), np.array(sum_eta_s)
    return SumDivergenceReport(
        horizon=len(sum_s) - 1,
        sum_s_series=sum_s,
        sum_eta_s_series=sum_eta_s,
        sum_s_verdict=_growth_verdict(sum_s),
        sum_eta_s_verdict=_growth_verdict(sum_eta_s),
    )
