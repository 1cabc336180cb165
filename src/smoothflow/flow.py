"""The continuous-time system: x' = -grad F(x, mu(t)).

Two integrators are provided. Forward Euler with the schedule-driven
timestep is, by construction, the same recursion as the discrete solver
(``integrate_euler`` simply delegates, so the iterate sequences are
bitwise identical). The adaptive integrator is a Dormand-Prince 4(5)
embedded pair with FSAL, implemented here so that runs are reproducible
without an external solver.
"""

import math
from typing import NamedTuple

import numpy as np

from ._linalg import adaptive_simpson, chord_weights, lower, upper
from .errors import (
    IllPosedIntervalError,
    InvalidParameterError,
    NumericalDivergenceError,
    StiffnessError,
    UndefinedBoundError,
)
from .problem import GradEvalCounter, smoothed_grad
from .schedule import (
    ConstantMu,
    ContinuousDriven,
    ExponentialMu,
    LinearMu,
    ReciprocalMu,
    _exp_or_inf,
    _expm1_or_inf,
)
from .solver import _Chunk, _lyapunov_at, _records, _start, run_sgm

# Dormand-Prince 4(5): classic 7-stage tableau with the first-same-as-last
# property. The last row of a is b5 without its zero weight, so the
# propagated 5th-order solution is the last stage's point.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# b5 - b4: local error weights of the embedded 4th-order solution.
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_INITIAL_STEP_FRACTION = 1e-2
_MIN_STEP_FRACTION = 1e-14

# Convex designs: the chord over any step lies above mu. Exact types only,
# since a subclass may override mu.
_CONVEX_DESIGNS = (ConstantMu, LinearMu, ExponentialMu, ReciprocalMu)


class FlowSample(NamedTuple):
    """State of the flow at one accepted step endpoint, an immutable named tuple.

    ``x`` is the run's own state array, which the run never mutates.
    ``lyapunov_v`` and ``bound_ct`` are NaN when the problem's optimum
    is unknown; ``bound_ct`` is also NaN at the initial time where the
    bound is undefined. ``lyapunov_v`` reads inf once its weight
    exp(sigma (t - t0)) leaves the double range; ``bound_ct`` stays
    finite. ``f_true`` and ``lyapunov_v`` are Python floats equal to
    ``CompositeProblem.true_value`` and ``lyapunov_continuous`` at the
    sample's state bit for bit.
    """

    t: float
    x: np.ndarray
    mu: float
    f_true: float
    lyapunov_v: float
    bound_ct: float
    grad_evals: int


def integrate_euler(problem, design, x0, max_steps, **kwargs):
    """Forward Euler integration of the flow under a continuous design.

    Delegates to the discrete solver with ``mu_k = mu(t_k)``; the
    returned trajectory is bitwise identical to ``run_sgm`` on the same
    design, which is the whole point of the discretization.
    """
    if not isinstance(design, ContinuousDriven):
        design = ContinuousDriven(mu_of_t=design, t0=getattr(design, "t0", 0.0))
    return run_sgm(problem, design, x0, max_steps, **kwargs)


def _sigma_integral(sigma, delta):
    """I_sigma = (exp(sigma delta) - 1)/sigma, or delta at sigma 0; inf past the double range."""
    if sigma == 0.0:
        return delta
    return _expm1_or_inf(sigma * delta) / sigma


def lyapunov_continuous(problem, x, t, t0, sigma, beta, mu_of_t):
    """Continuous-time Lyapunov certificate.

    V(t) = exp(sigma (t-t0))/2 * ||x - x*||^2
           + I_sigma(t) * (F(x, mu(t)) + beta mu(t) - F(x*, mu(t))),
    with I_sigma(t) = (exp(sigma (t-t0)) - 1)/sigma, or t - t0 at sigma 0.
    """
    problem.require_optimum()
    if t < t0:
        raise InvalidParameterError("t must be >= t0")
    mu = float(mu_of_t(t))
    delta = t - t0
    return _lyapunov_at(
        problem, x, _exp_or_inf(sigma * delta), _sigma_integral(sigma, delta), beta, mu
    )


def weighted_mu_integral(mu_of_t, sigma, t0, t):
    """int_{t0}^{t} exp(sigma (tau - t0)) mu(tau) dtau.

    Uses the design's closed form when it has one (constant, linear and
    exponential designs do); otherwise an adaptive Simpson estimate.
    Past the double range it returns inf, never raises: a closed form
    reads inf once it overflows, and a callable once the weight
    exp(sigma (t - t0)) does, without running the quadrature.
    """
    closed = getattr(mu_of_t, "weighted_integral", None)
    if callable(closed):
        try:
            return float(closed(sigma, t0, t))
        except OverflowError:
            return math.inf
    if math.isinf(_exp_or_inf(sigma * (t - t0))):
        return math.inf
    return adaptive_simpson(
        lambda tau: math.exp(sigma * (tau - t0)) * float(mu_of_t(tau)), t0, t
    )


def _chord_step(scaled, sigma, h, mu_a, mu_b):
    """J(b) from J(a), b = a + h, with mu replaced by its chord on [a, b].

    J(t) = int_{t0}^{t} exp(-sigma (t - tau)) mu(tau) dtau, so
    J(b) = e^{-sigma h} J(a) + h (mu_a g + mu_b q) (``chord_weights``),
    the trapezoid at sigma 0. With ``mu_a``, ``mu_b`` at or above mu and
    mu convex the result is an upper bound, rounded outward; h and
    sigma h each carry one rounding.
    """
    x = sigma * h
    decay = 1.0 if x == 0.0 else upper(math.exp(-x), 2.02 * x + 3)
    g, q = chord_weights(x)
    return upper(decay * scaled + h * (mu_a * g + mu_b * q), 10)


def _bound_ratio(x0_dist_sq, beta, sigma, delta, scaled):
    """The continuous gap bound from J(t), rounded up; finite at any t.

    (x0_dist_sq/2 e^{-sigma delta} + beta J) / ((1 - e^{-sigma delta})/sigma):
    the bound's numerator and I_sigma both scaled by e^{-sigma delta},
    with the denominator rounded down.
    """
    x = sigma * delta
    if x == 0.0:
        decay, weight = 1.0, delta
    else:
        decay = upper(math.exp(-x), 2.02 * x + 3)
        weight = lower(-math.expm1(-x) / sigma, 6)
    return upper((0.5 * x0_dist_sq * decay + beta * scaled) / weight, 4)


def _unscaled_bound(x0_dist_sq, beta, sigma, mu_of_t, t0, t):
    """(x0_dist_sq/2 + beta * int exp(sigma tau') mu) / I_sigma(t); inf past the double range."""
    integral = _sigma_integral(sigma, t - t0)
    if math.isinf(integral):
        return math.inf
    return (0.5 * x0_dist_sq + beta * weighted_mu_integral(mu_of_t, sigma, t0, t)) / integral


def bound_continuous(x0_dist_sq, beta, sigma, mu_of_t, t0, t):
    """Continuous-time optimality-gap bound at time t > t0.

    (x0_dist_sq/2 + beta * int exp(sigma tau') mu) / I_sigma(t), from
    ``weighted_mu_integral``. Once that overflows, the numerator and
    I_sigma are scaled by exp(-sigma (t - t0)) and the scaled integral
    is an adaptive Simpson estimate.
    """
    if not (t > t0):
        raise UndefinedBoundError("the continuous bound is defined for t > t0")
    bound = _unscaled_bound(x0_dist_sq, beta, sigma, mu_of_t, t0, t)
    if math.isfinite(bound):
        return bound
    scaled = adaptive_simpson(
        lambda tau: math.exp(sigma * (tau - t)) * float(mu_of_t(tau)), t0, t
    )
    return _bound_ratio(x0_dist_sq, beta, sigma, t - t0, scaled)


def integrate_rk45(
    problem,
    mu_of_t,
    x0,
    t0,
    t_end,
    rtol,
    atol,
    counter=None,
    max_attempts=10_000_000,
):
    """Adaptive Dormand-Prince 4(5) integration of the smoothing flow.

    Error per step is controlled against ``atol + rtol * |x|`` (RMS over
    components); accepted steps shrink or grow by
    ``0.9 * (1/err)**(1/5)`` clamped to [0.2, 5]. The final step is
    clipped to land exactly on ``t_end``. Every right-hand-side
    evaluation is charged to ``counter``; with FSAL that is one
    evaluation up front plus six per attempted step. The accepted state
    is the last stage's point, so its sample reads F(x, mu) and F(x)
    from the residuals that stage formed. Those values and the Lyapunov
    value are evaluated a chunk of samples at a time, as in ``run_sgm``;
    the bound, with its chord recursion, is advanced per sample.

    The stage matrix holds ``+grad F``, so a stage state is
    ``x - h * a_i.dot(K)``: the negation the right-hand side would carry
    is exact, and the error estimate is only squared. Finiteness of the
    stage gradients is tested once per attempt, after its six stages: a
    failing attempt's remaining stages are still evaluated and charged
    (from non-finite states, with numpy's overflow and invalid-value
    warnings silenced for the run), and the error names the first
    non-finite stage's time.

    Returns the list of ``FlowSample`` at t0 and every accepted step.
    ``bound_ct`` costs O(1) per sample for the four built-in designs:
    the constant, linear and exponential ones use the closed form of the
    weighted integral while the bound fits in a double; past that, and
    always for ``ReciprocalMu``, it is the chord integral accumulated
    over the accepted steps with every rounding outward, a certified
    upper bound. Other designs get ``bound_continuous``, an adaptive
    Simpson estimate.

    Raises ``InvalidParameterError`` if ``t0``, ``t_end``, ``rtol`` or
    ``atol`` is not finite or out of range, ``DimensionMismatchError``
    if ``x0`` does not have the problem's dimension,
    ``IllPosedIntervalError`` if mu(t) <= 0 anywhere it is evaluated,
    ``NumericalDivergenceError`` if a right-hand-side evaluation is not
    finite, and ``StiffnessError`` on step-size underflow.
    """
    for name, value in (("t0", t0), ("t_end", t_end), ("rtol", rtol), ("atol", atol)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")
    if not (t_end > t0):
        raise InvalidParameterError("t_end must be > t0")
    if not (rtol > 0.0 and atol > 0.0):
        raise InvalidParameterError("rtol and atol must be > 0")
    if counter is None:
        counter = GradEvalCounter()
    x, x0_dist_sq = _start(problem, x0)
    n = x.shape[0]
    sigma = problem.f.sigma
    beta = problem.beta
    opt = problem.optimum

    def grad_at(t, point):
        mu = float(mu_of_t(t))
        if not (mu > 0.0):
            raise IllPosedIntervalError(f"mu(t) = {mu} at t = {t}")
        # Looked up in this module on every call, so a wrapper bound to
        # flow.smoothed_grad sees each charged evaluation.
        return smoothed_grad(problem, point, mu, counter)

    # Along the built-in designs the bound comes from J(t) (``_chord_step``),
    # advanced once per sample; a closed form is used while it is finite.
    chord = type(mu_of_t) in _CONVEX_DESIGNS
    closed = callable(getattr(mu_of_t, "weighted_integral", None))
    t_last, mu_last, scaled = t0, math.nan, 0.0

    def bound_at(t, mu):
        nonlocal t_last, mu_last, scaled
        if not chord:
            return bound_continuous(x0_dist_sq, beta, sigma, mu_of_t, t0, t) if t > t0 else math.nan
        mu_hi = mu_of_t._upper_mu(t, mu)
        bnd = math.nan
        if t > t0:
            scaled = _chord_step(scaled, sigma, t - t_last, mu_last, mu_hi)
            bnd = _unscaled_bound(x0_dist_sq, beta, sigma, mu_of_t, t0, t) if closed else math.inf
            if not math.isfinite(bnd):
                bnd = _bound_ratio(x0_dist_sq, beta, sigma, t - t0, scaled)
        t_last, mu_last = t, mu_hi
        return bnd

    def columns(pending):
        xs, t, mu, weight, integral, bnd, evals = zip(*pending)

        def build(f_tilde, f_true, lyap):
            return _records(FlowSample, t, xs, mu, f_true, lyap, bnd, evals)

        return np.array(mu), np.array(weight), np.array(integral), build

    def sample_at(t, point):
        mu = float(mu_of_t(t))
        bnd = math.nan if opt is None else bound_at(t, mu)
        delta = t - t0
        weight, integral = _exp_or_inf(sigma * delta), _sigma_integral(sigma, delta)
        chunk.add(point, t, mu, weight, integral, bnd, counter.count)

    accepted = 0
    span = t_end - t0
    h = _INITIAL_STEP_FRACTION * span
    min_step = _MIN_STEP_FRACTION * span
    t = t0
    k_mat = np.empty((7, n))  # +grad F at the stages; row 0 is FSAL's carry
    # (c_i, a_i, the rows a_i weighs), built once: views into k_mat.
    stages = [(_DP_C[i], _DP_A[i], k_mat[:i], i) for i in range(1, 7)]
    abs_x = np.abs(x)
    # A non-finite stage (or a start far from x*) overflows quietly and is
    # reported below, as NumericalDivergenceError, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # One point per run, moved to each stage: the stage gradient and, once
        # the state is accepted, its sample read the same residuals.
        point = problem.point(x)
        chunk = _Chunk(problem, point, columns)
        sample_at(t0, point)
        k_mat[0] = grad_at(t, point)
        for _ in range(max_attempts):
            remaining = t_end - t
            h_try = min(h, remaining)
            if h_try < min_step:
                raise StiffnessError(f"step size underflow at t = {t} (h = {h_try})")
            for c, a, k_prev, i in stages:
                point = point.move(x - h_try * a.dot(k_prev))
                k_mat[i] = grad_at(t + c * h_try, point)
            # Without this test a NaN stage only shrinks h until it underflows.
            if not np.logical_and.reduce(np.isfinite(k_mat), axis=None):
                i = int(np.isfinite(k_mat).all(axis=1).argmin())
                raise NumericalDivergenceError(
                    accepted, f"non-finite right-hand side at t = {t + _DP_C[i] * h_try}"
                )
            # The last stage's point is the 5th-order solution; q is the
            # scaled error estimate up to sign.
            abs_new = np.abs(point.x)
            q = h_try * _DP_ERR.dot(k_mat)
            q /= atol + rtol * np.maximum(abs_x, abs_new)
            err = math.sqrt(np.add.reduce(q * q) / n)
            if err <= 1.0:
                # Land exactly on t_end when the step was clipped to it.
                t = t_end if h_try == remaining else t + h_try
                x = point.x
                abs_x = abs_new
                k_mat[0] = k_mat[6]  # FSAL: last stage is the next first stage
                accepted += 1
                sample_at(t, point)
                if t >= t_end:
                    chunk.flush()
                    return chunk.records
            factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** (-0.2)
            h = h_try * min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
    raise StiffnessError(f"no convergence within {max_attempts} attempted steps")
