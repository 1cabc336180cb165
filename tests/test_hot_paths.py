"""The hot loops enter no Python frame outside smoothflow per step.

Every per-evaluation product goes through ``ndarray.dot`` (not the
``np.dot`` dispatcher or ``@``), every clip, maximum and finiteness test
through a ufunc, and every state and record is built by
``tuple.__new__`` (not a named tuple's generated ``__new__``). So the
number of Python frames a run enters outside the package is fixed set-up
and wind-down work, the same at any number of steps. A frame counter
set with ``sys.setprofile`` checks that for ``run_sgm`` (and through it
``integrate_euler``) and ``integrate_rk45`` on one stacked problem per
built-in kernel.
"""

import collections
import gc
import os
import sys

import numpy as np
import pytest

import smoothflow
from smoothflow import (
    CompositeProblem,
    ContinuousDriven,
    PowerDecay,
    ReciprocalMu,
    huber_l2_approx,
    integrate_euler,
    integrate_rk45,
    log_sum_exp_max_approx,
    quadratic_least_squares,
    run_sgm,
    sqrt_l2_approx,
)
from smoothflow import solver
from smoothflow.harness import ExperimentConfig, generate_problem

PACKAGE = os.path.dirname(os.path.abspath(smoothflow.__file__)) + os.sep


def l1_problem(smoothing):
    return generate_problem(
        ExperimentConfig(n_x=10, n_a=20, n_c=50, rng_seed=11, smoothing=smoothing)
    )


def vector_problem(h):
    """||A x - b||^2 + h(x) for a vector surrogate h, stacked with C = I."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, h.input_dim))
    return CompositeProblem(f=quadratic_least_squares(a, rng.standard_normal(20)), h=h)


PROBLEMS = {
    "l1-sqrt": lambda: l1_problem("sqrt_l2"),
    "l1-huber": lambda: l1_problem("huber_l2"),
    "sqrt_l2": lambda: vector_problem(sqrt_l2_approx(10)),
    "huber_l2": lambda: vector_problem(huber_l2_approx(10)),
    "log_sum_exp_max": lambda: vector_problem(log_sum_exp_max_approx(10)),
}


def foreign_frames(fn, *args, **kwargs):
    """(fn's result, a Counter of the Python frames fn entered outside smoothflow)."""
    frames = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if not os.path.abspath(code.co_filename).startswith(PACKAGE):
                frames[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    # A collection would run gc.callbacks (a test plugin's, say) at a
    # point that depends on the allocations so far, not on the run.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, frames


def assert_same_frames(short, long):
    grown = (long - short) + (short - long)
    assert not grown, f"frames outside smoothflow that depend on the step count: {dict(grown)}"


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def problem(request):
    return PROBLEMS[request.param]()


@pytest.mark.parametrize("route", ["sgm-power", "euler-reciprocal"])
def test_unrecorded_steps_enter_no_foreign_frame(problem, route):
    x0 = np.full(problem.input_dim, 0.5)

    def run(steps):
        # Only the first and the last iterate are recorded.
        if route == "sgm-power":
            return run_sgm(problem, PowerDecay(1.0, 0.5), x0, steps, record_stride=10 * steps)
        design = ContinuousDriven(ReciprocalMu(1.0, 1.0, t0=1.0), t0=1.0)
        return integrate_euler(problem, design, x0, steps, record_stride=10 * steps)

    (short, frames_short), (long, frames_long) = (foreign_frames(run, n) for n in (1000, 2000))
    assert [r.k for r in short.records] == [0, 1000]
    assert [r.k for r in long.records] == [0, 2000]
    assert_same_frames(frames_short, frames_long)


def test_rk45_attempts_enter_no_foreign_frame(problem):
    x0 = np.full(problem.input_dim, 0.5)

    def run(t_end):
        return integrate_rk45(problem, ReciprocalMu(1.0, 1.0, t0=1.0), x0, 1.0, t_end, 1e-6, 1e-9)

    (short, frames_short), (long, frames_long) = (foreign_frames(run, t) for t in (1.5, 3.0))
    # Every accepted step is recorded: both runs must stay inside one
    # monitor chunk, whose flush is per-chunk work, for the counts to match.
    cap = solver._Chunk(problem, problem.point(x0), None)._cap
    assert len(short) < len(long) < cap
    assert short[-1].grad_evals < long[-1].grad_evals
    assert_same_frames(frames_short, frames_long)
