"""The discrete-time system: smoothing gradient descent with monitors.

``run_sgm`` iterates ``x <- x - s_k * grad F(x, mu_k)`` with the
schedule-driven stepsize ``s_k = 1/(L + alpha/mu_k)`` and records, per
retained step, the smoothed and true objective values, the Lyapunov
certificate and the analytical optimality-gap bound.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NumericalDivergenceError,
    ScheduleExhaustedError,
    UndefinedBoundError,
)
from .problem import GradEvalCounter, _ValueChunk, smoothed_grad, smoothed_value
from .schedule import advance, initial_state

STATUS_BUDGET = "budget-exhausted"
STATUS_SCHEDULE = "schedule-exhausted"
STATUS_TOLERANCE = "tolerance-met"


class IterationRecord(NamedTuple):
    """One retained iterate, an immutable named tuple.

    ``x`` is the run's own iterate array, which the run never mutates.
    ``grad_evals`` is the number of gradient evaluations spent to reach
    this iterate (so the initial record carries 0). ``grad_norm`` at the
    final record comes from an uncharged diagnostic evaluation.
    ``bound`` is defined for k >= 1 and NaN otherwise; ``lyapunov`` and
    ``bound`` are NaN when the problem's optimum is unknown. Every value
    field is a Python ``float``; ``f_tilde``, ``f_true`` and ``lyapunov``
    equal ``smoothed_value``, ``CompositeProblem.true_value`` and
    ``lyapunov_discrete`` at the record's state bit for bit.
    """

    k: int
    t: float
    s: float
    mu: float
    x: np.ndarray
    f_tilde: float
    f_true: float
    grad_norm: float
    lyapunov: float
    bound: float
    grad_evals: int


@dataclass(frozen=True)
class Trajectory:
    records: List[IterationRecord]
    problem_fingerprint: str
    schedule: str
    status: str

    def column(self, name):
        """Per-record values of one field as an array."""
        return np.array([getattr(r, name) for r in self.records])

    @property
    def final(self):
        return self.records[-1]


def _lyapunov(x, opt, weight, integral, f_tilde, beta, mu, f_tilde_opt):
    """weight/2 * ||x - x*||^2 + integral * (F(x, mu) + beta*mu - F(x*, mu)).

    The one formula behind the discrete and the continuous certificate;
    callers pass the smoothed values they already hold. ``x`` is one
    point or a chunk of them, one per row, and the other operands are
    scalars or one entry per row; a row of a chunk reads the same bits
    as that point alone. A zero distance or gap contributes 0 even once
    its weight has overflowed to inf.
    """
    # As in float arithmetic, an overflow or a masked-out inf * 0 is silent.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x - opt
        dist_sq = np.add.reduce(diff * diff, axis=-1)
        gap = f_tilde + beta * mu - f_tilde_opt
        dist_term = np.where(dist_sq != 0.0, 0.5 * weight * dist_sq, 0.0)
        return dist_term + np.where(gap != 0.0, integral * gap, 0.0)


def lyapunov_discrete(problem, state, x):
    """Lyapunov certificate at (state.k, x).

    V = eta_k/2 * ||x - x*||^2
        + (sum eta_{kappa+1} s_kappa) * (F(x, mu_k) + beta*mu_k - F(x*, mu_k)).
    """
    opt = problem.require_optimum()
    x = np.asarray(x, dtype=float)
    return float(
        _lyapunov(
            x,
            opt,
            state.eta,
            state.sum_eta_s,
            smoothed_value(problem, x, state.mu),
            problem.beta,
            state.mu,
            smoothed_value(problem, opt, state.mu),
        )
    )


# Recorded values are evaluated a chunk at a time: a chunk is flushed once
# the x and residual rows it stacks reach this many floats (128 KB), so the
# monitors' memory does not grow with the number of records. Chunks four
# times larger were no faster and left a larger peak RSS.
_CHUNK_FLOATS = 1 << 14


class _Chunk:
    """Recorded points of one run, evaluated a bounded chunk at a time.

    ``add(point, mu, weight, integral, *fields)`` stacks one recorded
    point's x and residual rows into buffers allocated once per run and
    queues ``(point.x, mu, weight, integral, *fields)``; the weight and
    integral are the certificate's (unused when the optimum is unknown).
    ``flush`` reads F(x, mu) and F(x) of the stacked points in one pass
    (``_ValueChunk``), F(x*, mu) in one more, x*'s rows broadcast
    against the chunk's mu, and the Lyapunov values in one ``_lyapunov``
    call; it then appends ``build(entry, f_tilde, f_true, lyapunov)`` to
    ``records`` for each queued entry in order. Each value equals its
    single-point function's bit for bit. A run flushes once more at its
    end.
    """

    __slots__ = (
        "records", "_build", "_beta", "_opt", "_opt_values", "_values", "_x", "_pending", "_cap"
    )

    def __init__(self, problem, first_point, build):
        self.records = []
        self._build = build
        self._beta = problem.beta
        self._opt = problem.optimum
        if self._opt is not None:
            opt = problem.point(self._opt)
            self._opt_values = _ValueChunk(opt, 1)
            self._opt_values.add(opt)
        n = first_point.x.size
        self._cap = max(1, _CHUNK_FLOATS // (n + _ValueChunk.row_floats(first_point)))
        self._values = _ValueChunk(first_point, self._cap)
        self._x = np.empty((self._cap, n))
        self._pending = []

    def add(self, point, *entry):
        pending = self._pending
        self._x[len(pending)] = point.x
        self._values.add(point)
        pending.append((point.x,) + entry)
        if len(pending) == self._cap:
            self.flush()

    def flush(self):
        pending = self._pending
        if not pending:
            return
        _, mu, weight, integral, *_ = zip(*pending)
        mu = np.array(mu)
        f_tilde, f_true = self._values.values(mu)
        if self._opt is None:
            lyap = [math.nan] * len(pending)
        else:
            lyap = _lyapunov(
                self._x[: len(pending)],
                self._opt,
                np.array(weight),
                np.array(integral),
                f_tilde,
                self._beta,
                mu,
                self._opt_values.values(mu)[0],
            ).tolist()
        build = self._build
        self.records.extend(
            build(*row) for row in zip(pending, f_tilde.tolist(), f_true.tolist(), lyap)
        )
        self._values.clear()
        self._pending = []


def bound_discrete(state, x0_dist_sq, beta):
    """Optimality-gap bound at step k >= 1.

    (x0_dist_sq/2 + beta * sum eta_{kappa+1} mu_kappa s_kappa)
        / (sum eta_{kappa+1} s_kappa),
    evaluated with numerator and denominator divided by eta_k, from the
    state's scaled sums, so every term stays finite. Once eta_k passes
    2**1022, D_k = 1/eta_k is subnormal and the x0 term keeps fewer
    than 53 bits; it reads 0 once D_k underflows. With beta = 0 the
    bound is that term alone, so it is coarse there and may read 0
    while the exact bound, (x0_dist_sq/2)/(N_k eta_k), is still above
    the double range's bottom.
    """
    if state.k < 1:
        raise UndefinedBoundError("the discrete bound is defined for k >= 1")
    return (
        0.5 * x0_dist_sq * state.inv_eta + beta * state.scaled_sum_eta_mu_s
    ) / state.scaled_sum_eta_s


def closed_form_bound_nonstrongly(lipschitz, alpha, beta, mu0, gamma, x0_dist_sq, k):
    """Closed-form optimality-gap bound for sigma = 0, mu_k = mu0*(k+1)**(-gamma).

    Branches: gamma in (0,1) with gamma != 1/2 decays like k**(-gamma)
    or k**(gamma-1); gamma = 1/2 like log(k)/sqrt(k); gamma = 1 like
    1/log(k). Upper-bounds the running discrete bound by construction.
    """
    if not (0.0 < gamma <= 1.0):
        raise InvalidParameterError(f"gamma must be in (0, 1], got {gamma}")
    if k < 1:
        raise UndefinedBoundError("the closed-form bound is defined for k >= 1")
    k = float(k)
    c = lipschitz + alpha / mu0
    half_dist = 0.5 * x0_dist_sq
    mu_term = beta * mu0 * mu0 / alpha
    if gamma == 0.5:
        numerator = half_dist + mu_term * (1.0 + math.log(k))
        denominator = 2.0 / c * (math.sqrt(k + 1.0) - 1.0)
    elif gamma == 1.0:
        numerator = half_dist + mu_term * (2.0 - 1.0 / k)
        denominator = math.log(k + 1.0) / c
    else:
        numerator = half_dist + mu_term * (k ** (1.0 - 2.0 * gamma) - 2.0 * gamma) / (
            1.0 - 2.0 * gamma
        )
        denominator = ((k + 1.0) ** (1.0 - gamma) - 1.0) / (c * (1.0 - gamma))
    return numerator / denominator


def run_sgm(
    problem,
    sched,
    x0,
    max_steps,
    grad_eval_budget=None,
    grad_tol=None,
    record_stride=1,
    step_scale=1.0,
    counter=None,
):
    """Run the smoothing gradient method.

    Parameters
    ----------
    problem : CompositeProblem
    sched : schedule variant (PowerDecay, ExpDecay or ContinuousDriven)
    x0 : initial iterate
    max_steps : iteration budget (>= 1)
    grad_eval_budget : optional cap on charged gradient evaluations
    grad_tol : optional stop threshold on the smoothed gradient norm
    record_stride : keep every stride-th record (first and last always);
        an integer >= 1
    step_scale : experimental stepsize factor in (0, 1]; the analytical
        bounds are only guaranteed at 1.0
    counter : optional externally owned ``GradEvalCounter``

    Returns a ``Trajectory``; schedule exhaustion ends the run with
    status ``schedule-exhausted`` rather than raising.

    The monitors of the recorded iterates (F(x, mu), F(x), F(x*, mu)
    and the Lyapunov value) are evaluated a chunk of records at a time,
    once the chunk's x and residual rows reach ``_CHUNK_FLOATS`` and at
    the end of the run, from the residuals each iterate formed for its
    gradient; each sum is one ``np.add.reduce`` over a row, the kernel
    of the single-point functions. The bound, the divergence check and
    the gradient-tolerance test stay per step.
    """
    if max_steps < 1:
        raise InvalidParameterError("max_steps must be >= 1")
    if not (0.0 < step_scale <= 1.0):
        raise InvalidParameterError("step_scale must be in (0, 1]")
    if record_stride < 1:
        raise InvalidParameterError(f"record_stride must be >= 1, got {record_stride}")
    x = np.array(x0, dtype=float).reshape(-1)
    if x.shape[0] != problem.input_dim:
        raise DimensionMismatchError(
            f"x0 has dimension {x.shape[0]}, problem expects {problem.input_dim}"
        )
    sigma = problem.f.sigma
    lipschitz = problem.f.lipschitz
    alpha = problem.alpha
    beta = problem.beta
    if counter is None:
        counter = GradEvalCounter()
    opt = problem.optimum

    def record(entry, f_tilde, f_true, lyap):
        x, mu, _, _, k, st, grad_norm, evals = entry
        bnd = bound_discrete(st, x0_dist_sq, beta) if opt is not None and k >= 1 else math.nan
        return IterationRecord(k, st.t, st.s, mu, x, f_tilde, f_true, grad_norm, lyap, bnd, evals)

    state = initial_state(sched, lipschitz, alpha)
    status = STATUS_BUDGET
    # A diverging run (or a start far from x*) overflows quietly and is
    # caught by the finiteness test below, as NumericalDivergenceError,
    # not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if opt is not None:
            diff0 = x - opt
            x0_dist_sq = float(diff0 @ diff0)
        # One point per run, moved to each iterate: the charged gradient and,
        # on a recorded step, the monitors read the same residuals.
        point = problem.point(x)
        chunk = _Chunk(problem, point, record)
        while True:
            k = state.k
            stopping = k >= max_steps or (
                grad_eval_budget is not None and counter.count >= grad_eval_budget
            )
            next_state = None
            if not stopping:
                # Peek the schedule first: on exhaustion the run ends at the
                # current iterate and the gradient below is diagnostic only.
                try:
                    next_state = advance(sched, state, sigma, lipschitz, alpha)
                except ScheduleExhaustedError:
                    stopping = True
                    status = STATUS_SCHEDULE
            charged = not stopping
            g = smoothed_grad(problem, point, state.mu, counter if charged else None)
            # The Euclidean norm as np.linalg.norm forms it, without its overhead.
            grad_norm = math.sqrt(g @ g)
            if not (np.isfinite(x).all() and math.isfinite(grad_norm)):
                raise NumericalDivergenceError(k)
            if not stopping and grad_tol is not None and grad_norm <= grad_tol:
                stopping = True
                status = STATUS_TOLERANCE
            if stopping or k % record_stride == 0:
                # Evaluations spent reaching this iterate; a just-charged
                # evaluation belongs to the step ahead, not to this record.
                evals = counter.count - (1 if charged else 0)
                chunk.add(point, state.mu, state.eta, state.sum_eta_s, k, state, grad_norm, evals)
            if stopping:
                break
            x = x - step_scale * state.s * g
            state = next_state
            point = point.move(x)
        chunk.flush()
    return Trajectory(
        records=chunk.records,
        problem_fingerprint=problem.fingerprint,
        schedule=sched.describe(),
        status=status,
    )
