import math
import struct

import numpy as np
import pytest

from smoothflow import (
    ConstantMu,
    ContinuousDriven,
    ExpDecay,
    ExponentialMu,
    LinearMu,
    PowerDecay,
    ReciprocalMu,
    advance,
    eta_lower_bound,
    initial_state,
    step_size,
    sum_divergence_equivalent,
)
from smoothflow.errors import InvalidParameterError, ScheduleExhaustedError

U = 2.0**-53  # unit roundoff of IEEE double


def run_schedule(sched, sigma, lipschitz, alpha, steps):
    state = initial_state(sched, lipschitz, alpha)
    states = [state]
    for _ in range(steps):
        state = advance(sched, state, sigma, lipschitz, alpha)
        states.append(state)
    return states


class TestStepSize:
    def test_equals_mu_when_l_zero_alpha_one(self):
        assert step_size(0.0, 1.0, 0.5) == 0.5

    def test_general_value(self):
        assert step_size(2.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_vanishes_with_mu(self):
        assert step_size(1.0, 1.0, 1e-12) < 2e-12

    def test_exact_reciprocal_identity(self):
        for lipschitz, alpha, mu in [(0.0, 1.0, 0.5), (3.0, 2.0, 0.7), (100.0, 5.0, 1e-4)]:
            s = step_size(lipschitz, alpha, mu)
            assert abs(s * (lipschitz + alpha / mu) - 1.0) <= 1e-15

    def test_never_exceeds_mu_over_alpha(self):
        for mu in (1e-6, 0.1, 1.0, 50.0):
            assert 0.0 < step_size(0.7, 2.0, mu) <= mu / 2.0 * (1 + 1e-15)

    def test_mu_validated(self):
        with pytest.raises(InvalidParameterError):
            step_size(1.0, 1.0, 0.0)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(InvalidParameterError, match="L \\+ alpha/mu must be positive"):
            step_size(-2.0, 1.0, 1.0)


# Finite arguments of each schedule constructor.
SCHEDULE_ARGS = {
    PowerDecay: {"mu0": 1.0, "gamma": 0.5, "t0": 0.0},
    ExpDecay: {"mu0": 1.0, "lam": 0.5, "t0": 0.0},
    LinearMu: {"mu0": 1.0, "rate": 1.0, "t0": 0.0},
    ExponentialMu: {"mu0": 1.0, "gamma": 1.0, "t0": 0.0},
    ReciprocalMu: {"mu0": 1.0, "power": 1.0, "t0": 0.0},
    ConstantMu: {"mu0": 1.0},
    ContinuousDriven: {"mu_of_t": ReciprocalMu(1.0, 1.0), "t0": 0.0},
}
NUMERIC_ARGS = [
    (cls, name) for cls, args in SCHEDULE_ARGS.items() for name in args if name != "mu_of_t"
]
# A refusal names a parameter as the config and ``describe`` do.
CONFIG_NAMES = {(ExpDecay, "lam"): "lambda", (ReciprocalMu, "power"): "p"}


class TestVariants:
    def test_power_decay_values(self):
        sched = PowerDecay(mu0=2.0, gamma=0.5)
        states = run_schedule(sched, 0.0, 0.0, 1.0, 5)
        for k, st in enumerate(states):
            assert st.mu == pytest.approx(2.0 / math.sqrt(k + 1.0), rel=1e-15)

    def test_exp_decay_values(self):
        sched = ExpDecay(mu0=1.0, lam=0.5)
        states = run_schedule(sched, 0.0, 0.0, 1.0, 6)
        for k, st in enumerate(states):
            assert st.mu == pytest.approx(0.5**k, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            PowerDecay(mu0=0.0, gamma=0.5)
        with pytest.raises(InvalidParameterError):
            PowerDecay(mu0=1.0, gamma=-1.0)
        with pytest.raises(InvalidParameterError):
            ExpDecay(mu0=1.0, lam=1.0)

    @pytest.mark.parametrize(
        "sched,message",
        [
            (lambda: ExpDecay(mu0=1.0, lam=1.5), "lambda must be in (0, 1), got 1.5"),
            (lambda: ReciprocalMu(1.0, -1.0), "p must be finite and > 0, got -1.0"),
        ],
        ids=["ExpDecay", "ReciprocalMu"],
    )
    def test_refusal_names_the_config_key_and_value(self, sched, message):
        # ExpDecay named its field lam and left out the value; ReciprocalMu
        # named power, where the config, the docstring and describe say p.
        with pytest.raises(InvalidParameterError) as info:
            sched()
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "cls,name", NUMERIC_ARGS, ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_ARGS]
    )
    def test_non_finite_parameters_are_refused(self, cls, name, value):
        # A schedule must not run at mu = inf or t = inf.
        with pytest.raises(InvalidParameterError, match=f"^{CONFIG_NAMES.get((cls, name), name)} "):
            cls(**dict(SCHEDULE_ARGS[cls], **{name: value}))

    def test_mu_non_increasing_across_variants(self):
        variants = [
            PowerDecay(mu0=1.0, gamma=0.25),
            PowerDecay(mu0=1.0, gamma=2.0),
            ExpDecay(mu0=1.0, lam=0.9),
            ContinuousDriven(ReciprocalMu(1.0, 1.5), t0=0.0),
            ContinuousDriven(ExponentialMu(1.0, 2.0), t0=0.0),
        ]
        for sched in variants:
            states = run_schedule(sched, 0.3, 1.0, 1.0, 200)
            mus = [st.mu for st in states]
            assert all(b <= a for a, b in zip(mus, mus[1:]))
            assert all(st.mu > 0.0 for st in states)


class TestEtaRecursion:
    def test_initial_state_conventions(self):
        st = initial_state(PowerDecay(mu0=1.0, gamma=1.0), 0.0, 1.0)
        assert (st.k, st.sum_s, st.eta, st.sum_eta_s, st.sum_eta_mu_s) == (0, 0.0, 1.0, 0.0, 0.0)

    def test_eta_stays_one_without_strong_convexity(self):
        states = run_schedule(PowerDecay(mu0=1.0, gamma=0.5), 0.0, 1.0, 1.0, 50)
        assert all(st.eta == 1.0 for st in states)
        # with eta identically 1 the two weighted sums coincide bit-for-bit
        assert all(st.inv_eta == 1.0 for st in states)
        assert all(st.sum_eta_s == st.scaled_sum_eta_s == st.sum_s for st in states)

    def test_initial_mu_below_the_floor_is_exhaustion(self):
        with pytest.raises(ScheduleExhaustedError, match="initial smoothing parameter"):
            initial_state(PowerDecay(mu0=1e-301, gamma=0.5), 0.0, 1.0)

    def test_step_past_the_strong_convexity_limit_rejected(self):
        # s_0 = 1 at L = 0, alpha = mu = 1, so sigma = 1 makes 1 - sigma*s = 0.
        st = initial_state(PowerDecay(mu0=1.0, gamma=1.0), 0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="1 - sigma\\*s must stay positive"):
            advance(PowerDecay(mu0=1.0, gamma=1.0), st, 1.0, 0.0, 1.0)

    def test_single_step_discount(self):
        st = initial_state(PowerDecay(mu0=1.0, gamma=1.0), 0.0, 1.0)
        assert st.s == 1.0
        nxt = advance(PowerDecay(mu0=1.0, gamma=1.0), st, 0.5, 0.0, 1.0)
        assert nxt.eta == pytest.approx(2.0, rel=1e-15)
        assert nxt.sum_eta_s == pytest.approx(2.0, rel=1e-15)

    def test_matches_bruteforce_accumulation(self):
        sched = PowerDecay(mu0=1.0, gamma=0.5)
        sigma, lipschitz, alpha = 0.8, 2.0, 1.0
        states = run_schedule(sched, sigma, lipschitz, alpha, 300)
        eta = 1.0
        sum_s = sum_es = sum_ems = 0.0
        for st, nxt in zip(states, states[1:]):
            eta = eta / (1.0 - sigma * st.s)
            sum_s += st.s
            sum_es += eta * st.s
            sum_ems += eta * st.mu * st.s
            assert nxt.eta == pytest.approx(eta, rel=1e-13)
            assert nxt.sum_s == pytest.approx(sum_s, rel=1e-13)
            assert nxt.sum_eta_s == pytest.approx(sum_es, rel=1e-13)
            assert nxt.sum_eta_mu_s == pytest.approx(sum_ems, rel=1e-13)
            # the carried fields are the same sums divided by eta
            assert nxt.inv_eta == pytest.approx(1.0 / eta, rel=1e-13)
            assert nxt.scaled_sum_eta_s == pytest.approx(sum_es / eta, rel=1e-13)
            assert nxt.scaled_sum_eta_mu_s == pytest.approx(sum_ems / eta, rel=1e-13)

    def test_scaled_sums_survive_overflow(self):
        # sigma*s near 1 makes eta grow like 1000^k: D = 1/eta underflows
        # to 0 and the weight reads inf, while N and M stay finite.
        state = overflowed_state()
        assert math.isfinite(state.scaled_sum_eta_s) and state.scaled_sum_eta_s > 0.0
        assert math.isfinite(state.scaled_sum_eta_mu_s) and state.scaled_sum_eta_mu_s > 0.0
        assert state.inv_eta == 0.0
        assert state.eta == math.inf


def overflowed_state():
    """3000 steps of PowerDecay(1e9, 1e-9) at sigma 0.999: eta far past the double range."""
    sched = PowerDecay(mu0=1e9, gamma=1e-9)
    sigma, lipschitz, alpha = 0.999, 1.0, 1.0
    state = initial_state(sched, lipschitz, alpha)
    for _ in range(3000):
        state = advance(sched, state, sigma, lipschitz, alpha)
    return state


class TestEtaLowerBound:
    def test_equality_at_sigma_zero(self):
        states = run_schedule(PowerDecay(mu0=1.0, gamma=0.5), 0.0, 0.0, 1.0, 20)
        for st in states:
            assert eta_lower_bound(st, 0.0) == 1.0
            assert st.eta == 1.0

    def test_single_step_value(self):
        st = initial_state(PowerDecay(mu0=1.0, gamma=1.0), 0.0, 1.0)
        nxt = advance(PowerDecay(mu0=1.0, gamma=1.0), st, 0.5, 0.0, 1.0)
        assert eta_lower_bound(nxt, 0.5) == pytest.approx(math.exp(0.5))
        assert eta_lower_bound(nxt, 0.5) <= nxt.eta

    @pytest.mark.parametrize("sigma", [0.2, 0.9])
    def test_bound_holds_along_long_runs(self, sigma):
        sched = PowerDecay(mu0=1.0, gamma=0.5)
        state = initial_state(sched, 1.0, 1.0)
        for _ in range(10_000):
            state = advance(sched, state, sigma, 1.0, 1.0)
            # compare in log space: sigma * sum_s <= log eta = -log(1/eta)
            assert sigma * state.sum_s <= -math.log(state.inv_eta) * (1.0 + 1e-12) + 1e-12

    def test_reads_inf_where_eta_does(self):
        # exp(sigma * sum_s) used to raise OverflowError here.
        state = overflowed_state()
        assert state.eta == eta_lower_bound(state, 0.999) == math.inf


class TestContinuousDriven:
    def test_linear_design_reproduces_exponential_decay(self):
        # mu(t) = mu0 - (1-lam)(t - t0) with L=0, alpha=1 walks mu_k = mu0*lam^k.
        lam = 0.99
        sched = ContinuousDriven(LinearMu(mu0=1.0, rate=1.0 - lam, t0=1.0), t0=1.0)
        state = initial_state(sched, 0.0, 1.0)
        for k in range(1, 201):
            state = advance(sched, state, 0.0, 0.0, 1.0)
            assert state.mu == pytest.approx(lam**k, rel=1e-12)

    def test_linear_design_exhausts_at_finite_time(self):
        sched = ContinuousDriven(LinearMu(mu0=1.0, rate=0.5, t0=0.0), t0=0.0)
        state = initial_state(sched, 0.0, 1.0)
        with pytest.raises(ScheduleExhaustedError):
            for _ in range(10_000):
                state = advance(sched, state, 0.0, 0.0, 1.0)
        assert state.t < 2.0  # exhaustion strictly before t0 + mu0/rate

    def test_exp_decay_underflow_exhausts(self):
        sched = ExpDecay(mu0=1.0, lam=0.5)
        state = initial_state(sched, 0.0, 1.0)
        with pytest.raises(ScheduleExhaustedError):
            for _ in range(2000):
                state = advance(sched, state, 0.0, 0.0, 1.0)
        assert state.k < 1100  # 2^-k underflows near k ~ 1000

    def test_sum_s_exceeds_budgets_on_positive_designs(self):
        # Any positive non-increasing mu(t) -> 0 keeps the discretized
        # time diverging; check concrete budgets on the shipped designs.
        sched = ContinuousDriven(ReciprocalMu(1.0, 1.0, t0=0.0), t0=0.0)
        state = initial_state(sched, 0.0, 1.0)
        budgets = [10.0, 100.0]
        hit = []
        for _ in range(200_000):
            state = advance(sched, state, 0.0, 0.0, 1.0)
            if budgets and state.sum_s > budgets[0]:
                hit.append(state.k)
                budgets.pop(0)
            if not budgets:
                break
        assert len(hit) == 2

        sched = ContinuousDriven(ExponentialMu(1.0, 1.0, t0=0.0), t0=0.0)
        state = initial_state(sched, 0.0, 1.0)
        for _ in range(30_000):
            state = advance(sched, state, 0.0, 0.0, 1.0)
            if state.sum_s > 10.0:
                break
        assert state.sum_s > 10.0

    def test_constant_design_never_exhausts(self):
        sched = ContinuousDriven(ConstantMu(0.5), t0=0.0)
        states = run_schedule(sched, 0.0, 1.0, 1.0, 100)
        assert states[-1].mu == 0.5


class TestSumDivergence:
    def test_exponential_saturates_below_closed_form(self):
        report = sum_divergence_equivalent(ExpDecay(mu0=1.0, lam=0.5), 0.0, 0.0, 1.0, 900)
        assert report.sum_s_verdict == "saturating"
        assert report.consistent
        assert np.all(report.sum_s_series <= 2.0 + 1e-12)

    def test_exhaustion_truncates_the_series(self):
        # lam**k underflows the positivity floor near k ~ 1074.
        sched = ExpDecay(mu0=1.0, lam=0.5)
        report = sum_divergence_equivalent(sched, 0.0, 0.0, 1.0, 2000)
        assert 1 <= report.horizon < 2000
        assert len(report.sum_s_series) == len(report.sum_eta_s_series) == report.horizon + 1
        # The run that stops at the last step before exhaustion reads the same.
        whole = sum_divergence_equivalent(sched, 0.0, 0.0, 1.0, report.horizon)
        assert whole.horizon == report.horizon
        assert np.array_equal(whole.sum_s_series, report.sum_s_series)
        assert np.array_equal(whole.sum_eta_s_series, report.sum_eta_s_series)
        assert report.sum_s_verdict == whole.sum_s_verdict == "saturating"

    def test_power_half_grows_like_sqrt(self):
        report = sum_divergence_equivalent(PowerDecay(mu0=1.0, gamma=0.5), 0.0, 0.0, 1.0, 10_000)
        assert report.sum_s_verdict == "diverging"
        s_at = dict(zip(range(len(report.sum_s_series)), report.sum_s_series))
        assert s_at[10_000] >= 5.0 * s_at[100]

    def test_sigma_zero_series_identical(self):
        report = sum_divergence_equivalent(PowerDecay(mu0=1.0, gamma=0.5), 0.0, 2.0, 1.0, 500)
        assert np.array_equal(report.sum_s_series, report.sum_eta_s_series)

    def test_strongly_convex_exponential_still_saturates(self):
        report = sum_divergence_equivalent(ExpDecay(mu0=1.0, lam=0.9), 0.9, 1.0, 1.0, 800)
        assert report.sum_s_verdict == "saturating"
        assert report.sum_eta_s_verdict == "saturating"

    def test_strongly_convex_power_diverges_together(self):
        report = sum_divergence_equivalent(PowerDecay(mu0=1.0, gamma=1.0), 0.5, 1.0, 1.0, 5000)
        assert report.sum_s_verdict == "diverging"
        assert report.sum_eta_s_verdict == "diverging"

    def test_horizon_validated(self):
        with pytest.raises(InvalidParameterError):
            sum_divergence_equivalent(PowerDecay(mu0=1.0, gamma=0.5), 0.0, 0.0, 1.0, 0)


class TestStateMonotonicity:
    @pytest.mark.parametrize(
        "sched",
        [
            PowerDecay(mu0=1.0, gamma=0.75),
            ExpDecay(mu0=2.0, lam=0.8),
            ContinuousDriven(ReciprocalMu(1.0, 2.0), t0=0.0),
        ],
    )
    def test_running_sums_non_decreasing(self, sched):
        sigma = 0.4
        states = run_schedule(sched, sigma, 1.5, 1.0, 300)
        for a, b in zip(states, states[1:]):
            assert b.sum_s >= a.sum_s
            # the eta-weighted sums are ratios of two rounded recursions:
            # where a step adds less than their rounding (ExpDecay here)
            # they may fall, by at most 5 u of themselves (ScheduleState)
            assert a.sum_eta_s - b.sum_eta_s <= 5 * U * a.sum_eta_s
            assert a.sum_eta_mu_s - b.sum_eta_mu_s <= 5 * U * a.sum_eta_mu_s
            assert b.t >= a.t
            # strict time growth holds until the stepsize drops below the
            # resolution of t (saturating schedules stall there by design)
            if a.s > 1e-12 * max(1.0, a.t):
                assert b.t > a.t
            assert b.eta >= a.eta >= 1.0


def float_bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("design", [ConstantMu(1.0), ExponentialMu(1.0, 0.5)])
def test_weighted_integral_reads_inf_past_the_double_range(design):
    assert design.weighted_integral(100.0, 0.0, 10.0) == math.inf
    assert design.weighted_integral(1e300, 0.0, 1e10) == math.inf


@pytest.mark.parametrize("sigma, t0, t", [(0.5, 0.0, 3.0), (2.0, 1.0, 1.25), (7.0, -1.0, 50.0), (1e-9, 0.0, 1e3)])
def test_weighted_integral_finite_values_unchanged(sigma, t0, t):
    # The formulas as they were before the overflow guard, bit for bit.
    constant = ConstantMu(1.7)
    assert float_bits(constant.weighted_integral(sigma, t0, t)) == float_bits(
        1.7 * math.expm1(sigma * (t - t0)) / sigma
    )
    exponential = ExponentialMu(1.3, 0.75, t0=-0.5)
    rate = 0.75 - sigma
    assert float_bits(exponential.weighted_integral(sigma, t0, t)) == float_bits(
        exponential(t0) * -math.expm1(-rate * (t - t0)) / rate
    )
