"""The discrete-time system: smoothing gradient descent with monitors.

``run_sgm`` iterates ``x <- x - s_k * grad F(x, mu_k)`` with the
schedule-driven stepsize ``s_k = 1/(L + alpha/mu_k)`` and records, per
retained step, the smoothed and true objective values, the Lyapunov
certificate and the analytical optimality-gap bound.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, NamedTuple

import numpy as np

from .approx import _check_mu
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NumericalDivergenceError,
    UndefinedBoundError,
)
from .problem import GradEvalCounter, smoothed_grad, smoothed_value
from .schedule import _smoothness, _states, _times_eta, initial_state

STATUS_BUDGET = "budget-exhausted"
STATUS_SCHEDULE = "schedule-exhausted"


class IterationRecord(NamedTuple):
    """One retained iterate, an immutable named tuple.

    ``x`` is the run's own iterate array, which the run never mutates.
    ``grad_evals`` is the number of gradient evaluations spent to reach
    this iterate (so the initial record carries 0). ``grad_norm`` at the
    final record comes from an uncharged diagnostic evaluation.
    ``bound`` is defined for k >= 1 and NaN otherwise; ``lyapunov`` and
    ``bound`` are NaN when the problem's optimum is unknown. Every value
    field is a Python ``float``; ``f_tilde``, ``f_true``, ``lyapunov``
    and ``bound`` equal ``smoothed_value``,
    ``CompositeProblem.true_value``, ``lyapunov_discrete`` and
    ``bound_discrete`` at the record's state bit for bit.
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


def _lyapunov_at(problem, x, weight, integral, beta, mu):
    """``_lyapunov`` at one ``x`` as a float; the problem's optimum must be known.

    F(x, mu) and F(x*, mu) are read through ``smoothed_value``.
    """
    x = np.asarray(x, dtype=float)
    opt = problem.optimum
    f_tilde, f_tilde_opt = smoothed_value(problem, x, mu), smoothed_value(problem, opt, mu)
    return float(_lyapunov(x, opt, weight, integral, f_tilde, beta, mu, f_tilde_opt))


def lyapunov_discrete(problem, state, x):
    """Lyapunov certificate at (state.k, x).

    V = eta_k/2 * ||x - x*||^2
        + (sum eta_{kappa+1} s_kappa) * (F(x, mu_k) + beta*mu_k - F(x*, mu_k)).
    """
    problem.require_optimum()
    return _lyapunov_at(problem, x, state.eta, state.sum_eta_s, problem.beta, state.mu)


# Recorded values are evaluated a chunk at a time: a chunk is flushed once
# its records' x and residual rows reach this many floats (128 KB), so the
# monitors' memory does not grow with the number of records. Chunks four
# times larger were no faster and left a larger peak RSS.
_CHUNK_FLOATS = 1 << 14


class _Chunk:
    """Recorded points of one run, evaluated a bounded chunk at a time.

    ``add(point, *entry)`` queues ``(point.x, *entry)``; the run never
    mutates that x. On a stacked problem it copies the point's residual
    row into a buffer allocated once per run, so the point may move on
    (any other problem's points are kept). ``flush`` hands them to
    ``columns``, which returns the chunk's mu, the certificate's weight
    and integral (unused when the optimum is unknown), each an array
    with one entry per record, and ``build(f_tilde, f_true, lyapunov)``,
    which makes the chunk's records in order from lists of those values.
    ``flush`` reads F(x, mu) and F(x) in one pass over the rows
    (``_Stacked.smoothed`` and ``exact``, whose sums are one
    ``np.add.reduce`` per row, as for a point alone) and the Lyapunov
    values in one ``_lyapunov`` call on the stacked x rows, so each
    value equals its single-point function's bit for bit. F(x*, mu) is
    one float per run when x*'s h rows are exactly 0, as at x* of every
    generated problem: every built-in kernel reads exactly 0 on a zero
    residual (for example hypot(0, mu) - mu) at every finite mu > 0, so
    F(x*, mu) = F(x*). Otherwise each flush reads x*'s row against the
    chunk's mu column. A run flushes once more at its end.
    """

    __slots__ = (
        "records", "_columns", "_stacked", "_beta", "_opt", "_opt_point", "_opt_value", "_rows",
        "_points", "_pending", "_cap",
    )

    def __init__(self, problem, first_point, columns):
        self.records = []
        self._columns = columns
        stacked = self._stacked = problem._stacked
        self._beta = problem.beta
        self._opt = problem.optimum
        if self._opt is not None:
            opt = self._opt_point = problem.point(self._opt)
            self._opt_value = None
            if stacked is not None and not opt._r[stacked.n_a :].any():
                self._opt_value = float(stacked.exact(opt._r))
        n = first_point.x.size
        row = 0 if stacked is None else first_point._r.size
        self._cap = max(1, _CHUNK_FLOATS // (n + row))
        self._rows = None if stacked is None else np.empty((self._cap, row))
        self._points = []
        self._pending = []

    def add(self, point, *entry):
        pending = self._pending
        i = len(pending)
        if self._rows is None:
            self._points.append(point)
        else:
            self._rows[i] = point._r
        pending.append((point.x, *entry))
        if i + 1 == self._cap:
            self.flush()

    def flush(self):
        pending = self._pending
        if not pending:
            return
        n = len(pending)
        mu, weight, integral, build = self._columns(pending)
        stacked = self._stacked
        if stacked is None:
            points = self._points
            f_tilde = np.array([p.smoothed(m) for p, m in zip(points, mu.tolist())])
            f_true = np.array([p.exact() for p in points])
        else:
            for bad in mu[~(mu > 0.0)][:1]:
                _check_mu(float(bad))
            rows = self._rows[:n]
            f_tilde = stacked.smoothed(rows, mu[:, None])
            f_true = stacked.exact(rows)
        if self._opt is None:
            lyap = [math.nan] * n
        else:
            f_tilde_opt = self._opt_value
            if f_tilde_opt is None:
                opt = self._opt_point
                if stacked is None:
                    f_tilde_opt = np.array([opt.smoothed(m) for m in mu.tolist()])
                else:
                    f_tilde_opt = stacked.smoothed(opt._r[None], mu[:, None])
            xs = np.array([entry[0] for entry in pending])
            lyap = _lyapunov(
                xs, self._opt, weight, integral, f_tilde, self._beta, mu, f_tilde_opt
            ).tolist()
        self.records.extend(build(f_tilde.tolist(), f_true.tolist(), lyap))
        self._points = []
        self._pending = []


def _records(record_type, *columns):
    """Named tuples of ``record_type``, one per entry of its field ``columns``.

    Built through ``tuple.__new__``: the tuples the generated ``__new__``
    makes, at half its cost per record.
    """
    return map(tuple.__new__, repeat(record_type), zip(*columns))


def _gap_bound(x0_dist_sq, beta, inv_eta, scaled_sum_eta_mu_s, scaled_sum_eta_s):
    """(x0_dist_sq/2 * D_k + beta * M_k) / N_k, of floats or of arrays, one entry per state."""
    return (0.5 * x0_dist_sq * inv_eta + beta * scaled_sum_eta_mu_s) / scaled_sum_eta_s


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
    return _gap_bound(
        x0_dist_sq, beta, state.inv_eta, state.scaled_sum_eta_mu_s, state.scaled_sum_eta_s
    )


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
    c = _smoothness(lipschitz, alpha, mu0)
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


def _start(problem, x0):
    """``x0`` as a float vector of the problem's dimension, and ||x0 - x*||^2.

    The distance is NaN when the optimum is unknown; it overflows to inf
    quietly, for a start far from x*.
    """
    x = np.array(x0, dtype=float).reshape(-1)
    if x.shape[0] != problem.input_dim:
        raise DimensionMismatchError(
            f"x0 has dimension {x.shape[0]}, problem expects {problem.input_dim}"
        )
    if problem.optimum is None:
        return x, math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x - problem.optimum
        return x, float(diff @ diff)


def run_sgm(
    problem,
    sched,
    x0,
    max_steps,
    grad_eval_budget=None,
    record_stride=1,
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
    record_stride : keep every stride-th record (first and last always);
        an integer >= 1
    counter : optional externally owned ``GradEvalCounter``

    Returns a ``Trajectory``; schedule exhaustion ends the run with
    status ``schedule-exhausted`` rather than raising. The states come
    from ``schedule._states``, each formed as the run reaches it.

    A recorded step queues its iterate x, a copy of its residual row,
    its ``ScheduleState``, gradient norm and evaluation count. The monitors
    (F(x, mu), F(x), F(x*, mu), eta, sum eta s, the Lyapunov value and
    the bound) are evaluated a chunk of records at a time, once the
    chunk's x and residual rows reach ``_CHUNK_FLOATS`` and at the end
    of the run, from the residuals each iterate formed for its
    gradient; each is the kernel of its single-point function applied
    to the chunk's arrays, so it reads the same bits. The divergence
    check stays per step.
    """
    if max_steps < 1:
        raise InvalidParameterError("max_steps must be >= 1")
    if record_stride < 1:
        raise InvalidParameterError(f"record_stride must be >= 1, got {record_stride}")
    x, x0_dist_sq = _start(problem, x0)
    sigma = problem.f.sigma
    lipschitz = problem.f.lipschitz
    alpha = problem.alpha
    beta = problem.beta
    if counter is None:
        counter = GradEvalCounter()
    opt = problem.optimum

    def columns(pending):
        xs, states, grad_norms, evals = zip(*pending)
        k, t, mu, s, _, scaled_s, scaled_mu_s, inv_eta = zip(*states)
        scaled_s, inv_eta = np.array(scaled_s), np.array(inv_eta)
        if opt is None:
            bound = [math.nan] * len(k)
        else:
            # The bound is undefined at k = 0, where N_0 = 0.
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = _gap_bound(x0_dist_sq, beta, inv_eta, np.array(scaled_mu_s), scaled_s)
            bound = np.where(np.array(k) > 0, bound, math.nan).tolist()

        def build(f_tilde, f_true, lyap):
            return _records(
                IterationRecord, k, t, s, mu, xs, f_tilde, f_true, grad_norms, lyap, bound, evals
            )

        eta, sum_eta_s = _times_eta(1.0, inv_eta), _times_eta(scaled_s, inv_eta)
        return np.array(mu), eta, sum_eta_s, build

    state = initial_state(sched, lipschitz, alpha)
    upcoming = _states(sched, sigma, lipschitz, alpha, max_steps, state)
    status = STATUS_BUDGET
    # A diverging run (or a start far from x*) overflows quietly and is
    # caught by the finiteness test below, as NumericalDivergenceError,
    # not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # One point per run, moved to each iterate: the charged gradient and,
        # on a recorded step, the monitors read the same residuals.
        point = problem.point(x)
        chunk = _Chunk(problem, point, columns)
        zeros = np.zeros_like(x)
        while True:
            k = state.k
            stopping = k >= max_steps or (
                grad_eval_budget is not None and counter.count >= grad_eval_budget
            )
            if not stopping:
                # Peek the schedule first: on exhaustion the run ends at the
                # current iterate and the gradient below is diagnostic only.
                next_state = next(upcoming, None)
                if next_state is None:
                    stopping = True
                    status = STATUS_SCHEDULE
            charged = not stopping
            g = smoothed_grad(problem, point, state.mu, counter if charged else None)
            # The Euclidean norm as np.linalg.norm forms it, without its overhead.
            grad_norm = math.sqrt(g.dot(g))
            # x.dot(zeros) is NaN exactly when an entry of x is inf or NaN.
            if not math.isfinite(grad_norm + x.dot(zeros)):
                raise NumericalDivergenceError(k)
            if stopping or k % record_stride == 0:
                # Evaluations spent reaching this iterate; a just-charged
                # evaluation belongs to the step ahead, not to this record.
                evals = counter.count - (1 if charged else 0)
                chunk.add(point, state, grad_norm, evals)
            if stopping:
                break
            x = x - state.s * g
            state = next_state
            point = point.move(x)
        chunk.flush()
    return Trajectory(
        records=chunk.records,
        schedule=sched.describe(),
        status=status,
    )
