"""Run records, flow samples and schedule states: immutable named tuples
that keep the run's own iterate arrays, and one residual formation per RK45
evaluation."""

import math

import numpy as np
import pytest

from smoothflow import (
    CompositeProblem,
    FlowSample,
    IterationRecord,
    PowerDecay,
    ReciprocalMu,
    ScheduleState,
    TimelineBounds,
    initial_state,
    integrate_rk45,
    run_sgm,
    timeline_bounds_power,
)
from smoothflow.problem import GradEvalCounter


def schedule_state():
    return initial_state(PowerDecay(mu0=1.0, gamma=0.5), 1.0, 1.0)


def iteration_record():
    return IterationRecord(3, 0.5, 0.1, 0.2, np.ones(2), 1.0, 1.5, 0.3, 2.0, 4.0, 3)


def flow_sample():
    return FlowSample(1.5, np.ones(2), 0.4, 1.5, 2.0, 4.0, 19)


def timeline_bounds():
    return timeline_bounds_power(1.0, 1.0, 1.0, 0.5, 10)


RECORDS = [schedule_state, iteration_record, flow_sample, timeline_bounds]
RECORD_IDS = ["ScheduleState", "IterationRecord", "FlowSample", "TimelineBounds"]


@pytest.mark.parametrize("make", RECORDS, ids=RECORD_IDS)
class TestNamedTupleRecords:
    def test_fields_cannot_be_assigned(self, make):
        record = make()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)

    def test_keyword_and_positional_construction_agree(self, make):
        record = make()
        cls = type(record)
        by_keyword = cls(**record._asdict())
        by_position = cls(*record)
        for name in record._fields:
            value = getattr(record, name)
            assert getattr(by_keyword, name) is value
            assert getattr(by_position, name) is value

    def test_replace_makes_a_modified_copy(self, make):
        record = make()
        first, *rest = record._fields
        copy = record._replace(**{first: 7})
        assert getattr(copy, first) == 7
        assert getattr(record, first) != 7
        for name in rest:
            assert getattr(copy, name) is getattr(record, name)


def test_schedule_state_properties_survive():
    state = schedule_state()
    assert state.eta == 1.0 / state.inv_eta == 1.0
    assert state.sum_eta_s == state.sum_eta_mu_s == 0.0
    forced = state._replace(scaled_sum_eta_s=1.0, inv_eta=0.5)
    assert forced.sum_eta_s == 2.0
    assert forced._replace(inv_eta=0.0).sum_eta_s == math.inf


def test_timeline_bounds_defaults():
    bounds = TimelineBounds(1, 0.0, 1.0, 0.5, 1.0)
    assert bounds.k_lower is None and bounds.k_upper is None
    assert isinstance(schedule_state(), ScheduleState)


def assert_own_arrays(xs, x0):
    assert len({id(x) for x in xs}) == len(xs)
    assert all(x is not x0 and not np.shares_memory(x, x0) for x in xs)


@pytest.mark.parametrize("stride", [1, 3])
def test_sgm_records_keep_distinct_iterates(strongly_convex_problem, zero_x0, stride):
    x0 = zero_x0.copy()
    traj = run_sgm(strongly_convex_problem, PowerDecay(mu0=1.0, gamma=0.5), x0, 12, record_stride=stride)
    assert_own_arrays([r.x for r in traj.records], x0)
    assert np.array_equal(traj.records[0].x, x0)
    assert not np.array_equal(traj.final.x, x0)


def test_rk45_samples_keep_distinct_states(strongly_convex_problem, zero_x0):
    x0 = zero_x0.copy()
    samples = integrate_rk45(strongly_convex_problem, ReciprocalMu(1.0, 1.0), x0, 0.0, 0.5, 1e-6, 1e-9)
    assert len(samples) > 2
    assert_own_arrays([s.x for s in samples], x0)
    assert np.array_equal(samples[0].x, x0)
    assert np.array_equal(x0, zero_x0)


@pytest.mark.parametrize("with_optimum", [True, False], ids=["optimum", "no-optimum"])
def test_rk45_builds_one_point_per_evaluation(
    strongly_convex_problem, zero_x0, residual_formations, with_optimum
):
    # The run's one point is moved to every stage and serves the accepted
    # samples too, so the stacked residual is formed once per right-hand
    # side evaluation, plus once at x*.
    problem = strongly_convex_problem
    if not with_optimum:
        problem = CompositeProblem(f=problem.f, h=problem.h)
    counter = GradEvalCounter()
    samples = integrate_rk45(
        problem, ReciprocalMu(1.0, 1.0), zero_x0, 0.0, 0.5, 1e-6, 1e-9, counter=counter
    )
    assert len(samples) > 2
    assert samples[-1].grad_evals == counter.count
    assert len(residual_formations) == counter.count + (1 if with_optimum else 0)
