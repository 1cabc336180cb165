"""Timeline-discretization bounds and empirical convergence-rate fits.

The stepsize recursion t_{k+1} = t_k + 1/(L + alpha/mu_k) has no closed
form, but for exponential and power-decay smoothing sequences the
discretized time, the step index and the smoothing parameter sandwich
each other in closed form. These bounds are what connect discrete-step
rates to continuous-time rates.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ._linalg import kahan_cumsum
from .errors import InvalidParameterError, InvalidSeriesError
from .schedule import _check_nonnegative, _check_params, _smoothness, _states
from .solver import _gap_bound


class TimelineBounds(NamedTuple):
    """Closed-form sandwich values at one step index, an immutable named tuple.

    ``t_lower``/``t_upper`` bracket t_k - t_0; ``mu_lower``/``mu_upper``
    bracket mu(t_k) given the actual elapsed time; ``k_lower``/``k_upper``
    bracket k itself (None where the source result states no such line).
    """

    k: int
    t_lower: float
    t_upper: float
    mu_lower: float
    mu_upper: float
    k_lower: Optional[float] = None
    k_upper: Optional[float] = None


def _check_constants(lipschitz, alpha, mu0):
    """Refuse a ``lipschitz`` not finite and >= 0, or an ``alpha`` or ``mu0`` not finite and > 0.

    The message names the parameter; the check precedes any arithmetic on them.
    """
    _check_nonnegative(lipschitz=lipschitz)
    _check_params(alpha=alpha, mu0=mu0)


def _check_k_max(k_max):
    """Refuse a series length ``k_max`` below 1."""
    if k_max < 1:
        raise InvalidParameterError(f"k_max must be >= 1, got {k_max}")


def _check_lambda(lam):
    """Refuse an exponential decay rate ``lam`` outside (0, 1)."""
    if not (0.0 < lam < 1.0):
        raise InvalidParameterError(f"lambda must be in (0, 1), got {lam}")


def _time_recursion(lipschitz, alpha, mu):
    """Elapsed times t_k - t_0, k = 0..len(mu), of the stepsizes along ``mu``.

    Computed by compensated summation so the sandwich checks' 1e-12
    absolute slack is meaningful. The stepsize is evaluated as
    mu/(L*mu + alpha), which degrades gracefully to 0 once mu
    underflows (the timeline then saturates, as it should).
    """
    steps = mu / (lipschitz * mu + alpha)
    return np.concatenate(([0.0], kahan_cumsum(steps)))


def exponential_time_recursion(lipschitz, alpha, mu0, lam, k_max):
    """Exact elapsed times ``t_delta[k] = t_k - t_0``, k = 0..k_max, for mu_k = mu0 * lam**k."""
    return _time_recursion(lipschitz, alpha, mu0 * lam ** np.arange(k_max, dtype=float))


def power_time_recursion(lipschitz, alpha, mu0, gamma, k_max):
    """Exact elapsed times for mu_k = mu0 * (k+1)**(-gamma)."""
    return _time_recursion(lipschitz, alpha, mu0 * np.arange(1.0, k_max + 1.0) ** (-gamma))


def timeline_bounds_exponential(lipschitz, alpha, mu0, lam, k, t_delta=None):
    """Sandwich bounds for the exponentially decaying sequence.

    ``t_delta`` is the elapsed time t_k - t_0 at which the mu lines are
    evaluated; by default the exact recursion value is used.
    """
    _check_lambda(lam)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    _check_constants(lipschitz, alpha, mu0)
    c_full = _smoothness(lipschitz, alpha, mu0)
    c_tail = alpha / mu0
    geo = (1.0 - lam**k) / (1.0 - lam)
    if t_delta is None:
        t_delta = float(exponential_time_recursion(lipschitz, alpha, mu0, lam, k)[k])
    return TimelineBounds(
        k=k,
        t_lower=geo / c_full,
        t_upper=geo / c_tail,
        mu_lower=mu0 - (mu0 * lipschitz + alpha) * (1.0 - lam) * t_delta,
        mu_upper=mu0 - alpha * (1.0 - lam) * t_delta,
    )


def timeline_bounds_power(lipschitz, alpha, mu0, gamma, k, t_delta=None):
    """Sandwich bounds for mu_k = mu0 * (k+1)**(-gamma), gamma > 0.

    Covers all three regimes: gamma < 1 (unbounded time), gamma = 1
    (logarithmic time) and gamma > 1 (finite reachable time); the
    gamma != 1 formulas are one algebraic family.
    """
    _check_params(gamma=gamma)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    _check_constants(lipschitz, alpha, mu0)
    c_full = _smoothness(lipschitz, alpha, mu0)
    c_tail = alpha / mu0
    if t_delta is None:
        t_delta = float(power_time_recursion(lipschitz, alpha, mu0, gamma, k)[k])
    kf = float(k)
    if gamma == 1.0:
        t_lower = math.log(kf + 1.0) / c_full
        t_upper = (1.0 + math.log(kf)) / c_tail
        k_lower = math.exp(c_tail * t_delta - 1.0)
        k_upper = math.exp(c_full * t_delta) - 1.0
        mu_lower = mu0 * math.exp(-c_full * t_delta)
        mu_upper = mu0 / (math.exp(c_tail * t_delta - 1.0) + 1.0)
    else:
        one_m = 1.0 - gamma
        t_lower = ((kf + 1.0) ** one_m - 1.0) / (c_full * one_m)
        t_upper = (kf**one_m - gamma) / (c_tail * one_m)
        k_lower = (c_tail * one_m * t_delta + gamma) ** (1.0 / one_m)
        base_full = c_full * one_m * t_delta + 1.0
        if gamma > 1.0 and base_full <= 0.0:
            # Past t = 1/(c_full*(gamma-1)) the inversions of the (loose)
            # lower time bound stop constraining; the sandwich degrades
            # to the trivial k <= inf, mu >= 0 there.
            k_upper = math.inf
            mu_lower = 0.0
        else:
            k_upper = base_full ** (1.0 / one_m) - 1.0
            mu_lower = mu0 * base_full ** (-gamma / one_m)
        mu_upper = mu0 * ((c_tail * one_m * t_delta + gamma) ** (1.0 / one_m) + 1.0) ** (
            -gamma
        )
    return TimelineBounds(
        k=k,
        t_lower=t_lower,
        t_upper=t_upper,
        mu_lower=mu_lower,
        mu_upper=mu_upper,
        k_lower=k_lower,
        k_upper=k_upper,
    )


def timeline_table(kind, lipschitz, alpha, mu0, param, k_max):
    """Bounds-vs-recursion table for k = 1..k_max.

    ``kind`` is "exponential" (param = lambda) or "power" (param =
    gamma). Returns a dict of equal-length arrays with keys
    k, t_actual, t_lower, t_upper, mu_actual, mu_lower, mu_upper.
    """
    _check_constants(lipschitz, alpha, mu0)
    _check_k_max(k_max)
    if kind == "exponential":
        _check_lambda(param)
        t_delta = exponential_time_recursion(lipschitz, alpha, mu0, param, k_max)
        bounds_at = lambda k: timeline_bounds_exponential(  # noqa: E731
            lipschitz, alpha, mu0, param, k, t_delta=float(t_delta[k])
        )
        mu_actual = mu0 * param ** np.arange(1, k_max + 1, dtype=float)
    elif kind == "power":
        _check_params(gamma=param)
        t_delta = power_time_recursion(lipschitz, alpha, mu0, param, k_max)
        bounds_at = lambda k: timeline_bounds_power(  # noqa: E731
            lipschitz, alpha, mu0, param, k, t_delta=float(t_delta[k])
        )
        mu_actual = mu0 * np.arange(2, k_max + 2, dtype=float) ** (-param)
    else:
        raise InvalidParameterError(f"unknown schedule kind {kind!r}")
    ks = np.arange(1, k_max + 1)
    rows = [bounds_at(int(k)) for k in ks]
    return {
        "k": ks,
        "t_actual": t_delta[1:],
        "t_lower": np.array([b.t_lower for b in rows]),
        "t_upper": np.array([b.t_upper for b in rows]),
        "mu_actual": mu_actual,
        "mu_lower": np.array([b.mu_lower for b in rows]),
        "mu_upper": np.array([b.mu_upper for b in rows]),
    }


def discrete_bound_series(sched, sigma, lipschitz, alpha, beta, x0_dist_sq, k_max):
    """The analytical optimality-gap bound along a schedule, k = 1..k_max.

    The bound depends only on the schedule recursion (not on iterates),
    so rate statements about it can be checked without running the
    method. Truncates at schedule exhaustion. The recursion keeps only
    the three scaled sums of each state, and the bounds are formed in
    one array expression through ``bound_discrete``'s kernel, as
    ``run_sgm`` forms them per chunk, so each equals
    ``bound_discrete`` at its state bit for bit.
    """
    _check_k_max(k_max)
    ks, inv_eta, scaled_mu_s, scaled_s = [], [], [], []
    for state in _states(sched, sigma, lipschitz, alpha, k_max):
        ks.append(state.k)
        inv_eta.append(state.inv_eta)
        scaled_mu_s.append(state.scaled_sum_eta_mu_s)
        scaled_s.append(state.scaled_sum_eta_s)
    # As in float arithmetic, an overflow to inf is silent.
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = _gap_bound(
            x0_dist_sq, beta, np.array(inv_eta), np.array(scaled_mu_s), np.array(scaled_s)
        )
    return np.array(ks), bounds


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of a decay model to a positive series.

    ``exponent`` is the fitted slope in the model's transformed
    coordinates; ``residual`` is the RMS residual in those coordinates
    and ``normalized_residual`` divides it by the RMS spread of the
    transformed values, making fits of different models comparable.
    """

    model: str
    exponent: float
    log_factor: bool
    residual: float
    normalized_residual: float
    window: Tuple[int, int]
    intercept: float


def fit_rate(series, model, window):
    """Fit a decay-rate model to (k, value) pairs inside a k-window.

    Models: "power" regresses log v on log k; "power_log" regresses
    log v - log log k on log k (a power law with a log k factor);
    "inv_log" regresses v on 1/log k. Every model needs k > 1 inside
    the window, where log k > 0.
    """
    ks = np.array([float(k) for k, _ in series])
    vs = np.array([float(v) for _, v in series])
    k_min, k_max = window
    mask = (ks >= k_min) & (ks <= k_max)
    ks = ks[mask]
    vs = vs[mask]
    if ks.size < 10:
        raise InvalidSeriesError(f"window {window} contains {ks.size} points, need >= 10")
    if not np.all((vs > 0.0) & (vs < math.inf)):
        raise InvalidSeriesError("series values inside the window must be positive and finite")
    if np.any(ks <= 1.0):
        raise InvalidSeriesError(f"model {model!r} needs k > 1 inside the window")
    if model == "power":
        xs = np.log(ks)
        ys = np.log(vs)
    elif model == "power_log":
        xs = np.log(ks)
        ys = np.log(vs) - np.log(np.log(ks))
    elif model == "inv_log":
        xs = 1.0 / np.log(ks)
        ys = vs
    else:
        raise InvalidParameterError(f"unknown model {model!r}")
    x_mean = xs.mean()
    y_mean = ys.mean()
    slope = float(np.sum((xs - x_mean) * (ys - y_mean)) / np.sum((xs - x_mean) ** 2))
    intercept = float(y_mean - slope * x_mean)
    resid = ys - (slope * xs + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    spread = float(np.sqrt(np.mean((ys - y_mean) ** 2)))
    return RateFit(
        model=model,
        exponent=slope,
        log_factor=(model == "power_log"),
        residual=rms,
        normalized_residual=rms / spread if spread > 0.0 else math.inf,
        window=(k_min, k_max),
        intercept=intercept,
    )
