import math

import numpy as np
import pytest

from smoothflow import (
    ContinuousDriven,
    ExpDecay,
    PowerDecay,
    ReciprocalMu,
    advance,
    bound_discrete,
    discrete_bound_series,
    fit_rate,
    initial_state,
    timeline_bounds_exponential,
    timeline_bounds_power,
    timeline_table,
)
from smoothflow.analysis import exponential_time_recursion, power_time_recursion
from smoothflow.errors import InvalidParameterError, InvalidSeriesError, ScheduleExhaustedError

SLACK = 1e-12


def advance_oracle(sched, lipschitz, alpha, k_max):
    """Elapsed times via the (independent) schedule-state recursion."""
    state = initial_state(sched, lipschitz, alpha)
    out = [0.0]
    for _ in range(k_max):
        state = advance(sched, state, 0.0, lipschitz, alpha)
        out.append(state.t - sched.t0)
    return np.array(out)


class TestExponentialBounds:
    def test_coefficients_coincide_when_l_zero(self):
        # with L = 0 and alpha/mu0 = 1 both sandwich constants are equal,
        # so the bounds pin t exactly
        for k in (1, 5, 50):
            b = timeline_bounds_exponential(0.0, 1.0, 1.0, 0.5, k)
            expected = 2.0 * (1.0 - 0.5**k)
            assert b.t_lower == pytest.approx(expected, rel=1e-14)
            assert b.t_upper == pytest.approx(expected, rel=1e-14)

    def test_upper_time_saturates_at_geometric_sum(self):
        b = timeline_bounds_exponential(0.0, 1.0, 1.0, 0.5, 2000)
        assert b.t_upper == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-12)
        b9 = timeline_bounds_exponential(0.0, 1.0, 1.0, 0.9, 2000)
        assert b9.t_upper == pytest.approx(1.0 / (1.0 - 0.9), rel=1e-12)

    def test_lambda_validated(self):
        with pytest.raises(InvalidParameterError):
            timeline_bounds_exponential(0.0, 1.0, 1.0, 1.0, 5)
        with pytest.raises(InvalidParameterError):
            timeline_bounds_exponential(0.0, 1.0, 1.0, 0.5, 0)

    def test_recursion_inside_bounds_and_matches_advance(self):
        lipschitz, alpha, mu0, lam = 1.7, 2.3, 0.9, 0.8
        t = exponential_time_recursion(lipschitz, alpha, mu0, lam, 2000)
        t_adv = advance_oracle(ExpDecay(mu0=mu0, lam=lam), lipschitz, alpha, 1000)
        assert np.allclose(t[: len(t_adv)], t_adv, rtol=0, atol=1e-12)
        for k in (1, 10, 100, 1000, 2000):
            b = timeline_bounds_exponential(lipschitz, alpha, mu0, lam, k, t_delta=float(t[k]))
            assert b.t_lower - SLACK <= t[k] <= b.t_upper + SLACK
            mu_k = mu0 * lam**k
            assert b.mu_lower - SLACK <= mu_k <= b.mu_upper + SLACK


class TestPowerBounds:
    def test_gamma_one_explicit_lines(self):
        lipschitz, alpha, mu0 = 1.0, 2.0, 1.0
        k = 100
        b = timeline_bounds_power(lipschitz, alpha, mu0, 1.0, k)
        c_full = lipschitz + alpha / mu0
        c_tail = alpha / mu0
        assert b.t_lower == pytest.approx(math.log(k + 1.0) / c_full, rel=1e-14)
        assert b.t_upper == pytest.approx((1.0 + math.log(k)) / c_tail, rel=1e-14)

    def test_gamma_above_one_reachable_time_finite(self):
        # Remark-5 regime: the upper time bound stays finite for all k
        caps = [
            timeline_bounds_power(0.0, 1.0, 1.0, 2.0, k).t_upper for k in (10, 100, 10_000)
        ]
        limit = (1.0 / (2.0 - 1.0)) * 2.0  # (gamma - k^{1-gamma})/(gamma-1) -> gamma
        assert all(c <= limit for c in caps)
        assert caps[-1] == pytest.approx(limit, rel=1e-3)

    def test_gamma_validated(self):
        with pytest.raises(InvalidParameterError):
            timeline_bounds_power(0.0, 1.0, 1.0, 0.0, 5)
        with pytest.raises(InvalidParameterError):
            timeline_bounds_power(0.0, 1.0, 1.0, 0.5, 0)

    def test_infinite_gamma_is_refused(self):
        # It made every t_upper NaN.
        with pytest.raises(InvalidParameterError, match="^gamma must be finite and > 0, got inf"):
            timeline_bounds_power(0.0, 1.0, 1.0, math.inf, 5)
        with pytest.raises(InvalidParameterError, match="^gamma must be finite and > 0, got inf"):
            timeline_table("power", 0.0, 1.0, 1.0, math.inf, 3)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0, 2.0])
    @pytest.mark.parametrize("constants", [(0.0, 1.0, 1.0), (2.5, 3.7, 0.8)])
    def test_sandwiches_hold_against_recursion(self, gamma, constants):
        lipschitz, alpha, mu0 = constants
        k_max = 10_000
        t = power_time_recursion(lipschitz, alpha, mu0, gamma, k_max)
        for k in (1, 2, 10, 100, 1000, 10_000):
            b = timeline_bounds_power(lipschitz, alpha, mu0, gamma, k, t_delta=float(t[k]))
            assert b.t_lower - SLACK <= t[k] <= b.t_upper + SLACK
            assert b.k_lower - SLACK <= k
            assert k <= b.k_upper + SLACK
            mu_k = mu0 * (k + 1.0) ** (-gamma)
            assert b.mu_lower - SLACK <= mu_k <= b.mu_upper + SLACK

    def test_recursion_matches_advance_oracle(self):
        t = power_time_recursion(1.2, 0.7, 1.0, 0.5, 500)
        t_adv = advance_oracle(PowerDecay(mu0=1.0, gamma=0.5), 1.2, 0.7, 500)
        assert np.allclose(t, t_adv, rtol=0, atol=1e-12)


class TestTimelineTable:
    def test_columns_and_sandwich(self):
        tab = timeline_table("power", 0.0, 1.0, 1.0, 0.5, 200)
        assert set(tab) == {
            "k",
            "t_actual",
            "t_lower",
            "t_upper",
            "mu_actual",
            "mu_lower",
            "mu_upper",
        }
        assert len(tab["k"]) == 200
        assert np.all(tab["t_lower"] <= tab["t_actual"] + SLACK)
        assert np.all(tab["t_actual"] <= tab["t_upper"] + SLACK)
        assert np.all(tab["mu_lower"] <= tab["mu_actual"] + SLACK)
        assert np.all(tab["mu_actual"] <= tab["mu_upper"] + SLACK)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            timeline_table("geometric", 0.0, 1.0, 1.0, 0.5, 10)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("lipschitz", -3.0),
            ("lipschitz", math.inf),
            ("lipschitz", math.nan),
            ("alpha", 0.0),
            ("alpha", -1.0),
            ("alpha", math.inf),
            ("mu0", 0.0),
            ("mu0", -1.0),
            ("mu0", math.inf),
        ],
    )
    def test_constants_out_of_range_are_refused(self, name, value):
        # Refused by name before any arithmetic, which would divide by
        # zero or warn (an error under this suite's warning filter).
        constants = dict({"lipschitz": 1.0, "alpha": 1.0, "mu0": 1.0}, **{name: value})
        calls = [
            lambda: timeline_table("power", **constants, param=0.5, k_max=10),
            lambda: timeline_table("exponential", **constants, param=0.5, k_max=10),
            lambda: timeline_bounds_power(**constants, gamma=0.5, k=3),
            lambda: timeline_bounds_exponential(**constants, lam=0.5, k=3),
        ]
        for call in calls:
            with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
                call()


class TestFitRate:
    def test_exact_power_series(self):
        ks = np.arange(10, 2000)
        series = list(zip(ks, ks**-0.5))
        fit = fit_rate(series, "power", (10, 2000))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-6)
        assert fit.residual < 1e-9

    def test_exact_power_log_series(self):
        ks = np.arange(10, 5000)
        series = list(zip(ks, ks**-0.5 * np.log(ks)))
        fit = fit_rate(series, "power_log", (10, 5000))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-3)
        assert fit.residual < 1e-9
        assert fit.log_factor

    def test_exact_inv_log_series(self):
        ks = np.arange(10, 5000)
        series = list(zip(ks, 3.0 / np.log(ks)))
        fit = fit_rate(series, "inv_log", (10, 5000))
        assert fit.exponent == pytest.approx(3.0, rel=1e-9)
        assert fit.residual < 1e-9

    def test_window_and_positivity_validated(self):
        ks = np.arange(1, 200)
        series = list(zip(ks, 1.0 / ks))
        with pytest.raises(InvalidSeriesError):
            fit_rate(series, "power", (150, 155))  # too few points
        bad = [(k, v - 0.5) for k, v in series]  # some non-positive values
        with pytest.raises(InvalidSeriesError):
            fit_rate(bad, "power", (2, 199))
        with pytest.raises(InvalidParameterError):
            fit_rate(series, "cubic", (10, 100))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_are_refused(self, bad):
        # NaN passed the positivity test and gave a NaN exponent.
        series = [(k, bad if k == 50 else 1.0 / k) for k in range(1, 200)]
        with pytest.raises(InvalidSeriesError, match="must be positive and finite"):
            fit_rate(series, "power", (2, 199))

    def test_power_model_requires_k_above_one(self):
        series = [(k, 1.0 / (k + 1)) for k in range(1, 50)]
        with pytest.raises(InvalidSeriesError):
            fit_rate(series, "power_log", (1, 49))

    @pytest.mark.parametrize("model", ["power", "power_log", "inv_log"])
    def test_every_model_requires_k_above_one(self, model):
        # 1/log(1) = inf made inv_log return NaNs with a RuntimeWarning.
        series = [(k, 1.0 / (k + 1)) for k in range(1, 50)]
        with pytest.raises(InvalidSeriesError, match="needs k > 1"):
            fit_rate(series, model, (1, 49))


class TestBoundSeriesRates:
    """Log-log behavior of the analytical bound along power schedules.

    Normalized setting (L=0, alpha=beta=mu0=1, squared start distance 2)
    so the mu-driven term dominates the numerator inside the window. For
    gamma < 1/2 the bound decays like k^-gamma; for gamma in (1/2, 1)
    the numerator sum converges and the true decay is k^-(1-gamma).
    """

    @staticmethod
    def normalized_series(gamma, k_max=10_000):
        ks, bounds = discrete_bound_series(
            PowerDecay(mu0=1.0, gamma=gamma), 0.0, 0.0, 1.0, 1.0, 2.0, k_max
        )
        return list(zip(ks, bounds))

    def test_gamma_quarter_slope(self):
        fit = fit_rate(self.normalized_series(0.25), "power", (100, 10_000))
        assert fit.exponent == pytest.approx(-0.25, abs=0.1)

    def test_gamma_three_quarters_true_slope(self):
        # the convergent-numerator regime: Theta(k^-(1-gamma)), not k^-gamma
        fit = fit_rate(self.normalized_series(0.75), "power", (100, 10_000))
        assert fit.exponent == pytest.approx(-0.25, abs=0.1)

    def test_gamma_half_power_log_fit(self):
        fit = fit_rate(self.normalized_series(0.5), "power_log", (100, 10_000))
        assert fit.exponent == pytest.approx(-0.5, abs=0.1)

    def test_gamma_one_inv_log_beats_power(self):
        series = self.normalized_series(1.0)
        inv = fit_rate(series, "inv_log", (100, 10_000))
        pow_ = fit_rate(series, "power", (100, 10_000))
        assert inv.residual < pow_.residual
        assert inv.normalized_residual < pow_.normalized_residual

    def test_series_truncates_on_exhaustion(self):
        ks, bounds = discrete_bound_series(
            ExpDecay(mu0=1.0, lam=0.5), 0.0, 0.0, 1.0, 1.0, 2.0, 5000
        )
        assert len(ks) < 1100
        assert np.all(np.isfinite(bounds))

    def test_sigma_positive_series_tracks_beta_mu(self):
        # with eta-weighting the bound ratio approaches beta * mu_k once
        # sigma * t_k is large
        sched = ContinuousDriven(ReciprocalMu(1.0, 1.0, t0=0.0), t0=0.0)
        sigma, lipschitz, alpha, beta = 2.0, 4.0, 1.0, 1.5
        state = initial_state(sched, lipschitz, alpha)
        for _ in range(30_000):
            state = advance(sched, state, sigma, lipschitz, alpha)
        from smoothflow import bound_discrete

        val = bound_discrete(state, 2.0, beta)
        assert val == pytest.approx(beta * state.mu, rel=0.15)


@pytest.mark.parametrize(
    "sched,sigma",
    [
        (PowerDecay(mu0=1.0, gamma=0.5), 0.0),
        (PowerDecay(mu0=2.0, gamma=0.75), 0.3),
        (ExpDecay(mu0=1.0, lam=0.5), 0.1),  # exhausts near k = 1074
        (ContinuousDriven(ReciprocalMu(1.0, 1.0, t0=1.0), t0=1.0), 2.0),
    ],
)
def test_bound_series_equals_bound_discrete_per_state(sched, sigma):
    # The series forms every bound in one array expression; the loop over
    # bound_discrete is the reference, bit for bit, truncation included.
    lipschitz, alpha, beta, x0_dist_sq = 4.0, 1.0, 1.5, 2.0
    ks, bounds = discrete_bound_series(sched, sigma, lipschitz, alpha, beta, x0_dist_sq, 3000)
    state = initial_state(sched, lipschitz, alpha)
    expected = []
    for _ in range(3000):
        try:
            state = advance(sched, state, sigma, lipschitz, alpha)
        except ScheduleExhaustedError:
            break
        expected.append(bound_discrete(state, x0_dist_sq, beta))
    assert ks.dtype.kind == "i" and bounds.dtype == np.float64
    assert ks.tolist() == list(range(1, len(expected) + 1))
    assert [b.hex() for b in bounds.tolist()] == [b.hex() for b in expected]


@pytest.mark.parametrize("k_max", [0, -2])
def test_series_lengths_below_one_are_refused(k_max):
    # Each used to return an empty table.
    sched = PowerDecay(mu0=1.0, gamma=0.5)
    calls = [
        lambda: timeline_table("power", 0.0, 1.0, 1.0, 0.5, k_max),
        lambda: timeline_table("exponential", 0.0, 1.0, 1.0, 0.5, k_max),
        lambda: discrete_bound_series(sched, 0.0, 0.0, 1.0, 1.0, 2.0, k_max),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match=f"^k_max must be >= 1, got {k_max}"):
            call()


def test_bound_series_is_empty_when_the_schedule_exhausts_at_once():
    ks, bounds = discrete_bound_series(ExpDecay(mu0=1e-299, lam=0.01), 0.0, 0.0, 1.0, 1.0, 2.0, 50)
    assert ks.size == 0 and bounds.size == 0 and bounds.dtype == np.float64
