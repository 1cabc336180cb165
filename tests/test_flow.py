import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothflow import (
    CompositeProblem,
    ConstantMu,
    ContinuousDriven,
    ExponentialMu,
    GradEvalCounter,
    LinearMu,
    ReciprocalMu,
    SmoothPart,
    bound_continuous,
    integrate_euler,
    integrate_rk45,
    lyapunov_continuous,
    quadratic_least_squares,
    run_sgm,
    sqrt_l2_approx,
)
from smoothflow.errors import (
    DimensionMismatchError,
    IllPosedIntervalError,
    InvalidParameterError,
    NumericalDivergenceError,
    StiffnessError,
    UndefinedBoundError,
)
from smoothflow import flow
from smoothflow.flow import _chord_step, weighted_mu_integral
from smoothflow.harness import ExperimentConfig, generate_problem
from smoothflow.solver import STATUS_SCHEDULE

DIGITS = 50


def linear_decay_problem(rate):
    """Pure smooth problem with x' = -rate * x (no non-smooth term)."""
    f = quadratic_least_squares(np.array([[math.sqrt(rate / 2.0)]]), np.zeros(1))
    return CompositeProblem(f=f, h=None)


def dense_simpson(fn, a, b, n=4000):
    """Fixed-grid Simpson oracle, independent of the adaptive code path."""
    xs = np.linspace(a, b, 2 * n + 1)
    ys = np.array([fn(x) for x in xs])
    h = (b - a) / (2 * n)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


class TestEulerIdentity:
    def test_bitwise_equal_to_sgm(self, strongly_convex_problem, zero_x0):
        design = ContinuousDriven(ReciprocalMu(1.0, 1.0, t0=1.0), t0=1.0)
        a = run_sgm(strongly_convex_problem, design, zero_x0, 1000)
        b = integrate_euler(strongly_convex_problem, design, zero_x0, 1000)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x, rb.x)
            assert ra.t == rb.t and ra.mu == rb.mu and ra.s == rb.s

    def test_linear_design_walks_exponential_decay(self):
        lam = 0.99
        f = quadratic_least_squares(np.zeros((1, 1)), np.zeros(1))
        prob = CompositeProblem(f=f, h=sqrt_l2_approx(1), optimum=np.zeros(1))
        design = ContinuousDriven(LinearMu(1.0, 1.0 - lam, t0=1.0), t0=1.0)
        traj = integrate_euler(prob, design, np.array([5.0]), 300)
        for r in traj.records:
            assert r.mu == pytest.approx(lam**r.k, rel=1e-12)

    def test_linear_design_exhausts_before_singular_time(self):
        lam = 0.5
        f = quadratic_least_squares(np.zeros((1, 1)), np.zeros(1))
        prob = CompositeProblem(f=f, h=sqrt_l2_approx(1), optimum=np.zeros(1))
        design = ContinuousDriven(LinearMu(1.0, 1.0 - lam, t0=0.0), t0=0.0)
        traj = integrate_euler(prob, design, np.array([5.0]), 100_000)
        assert traj.status == STATUS_SCHEDULE
        t_singular = 1.0 / (1.0 - lam)
        assert traj.final.t < t_singular

    def test_accepts_bare_design(self, strongly_convex_problem, zero_x0):
        design = ReciprocalMu(1.0, 1.0, t0=1.0)
        traj = integrate_euler(strongly_convex_problem, design, zero_x0, 10)
        assert traj.final.k == 10


class TestRk45Linear:
    @pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-8])
    def test_matches_analytic_solution(self, rtol):
        prob = linear_decay_problem(2.0)
        samples = integrate_rk45(
            prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, rtol, 1e-14
        )
        assert samples[-1].t == 1.0
        assert abs(samples[-1].x[0] - math.exp(-2.0)) <= 10.0 * rtol

    @pytest.mark.parametrize("rate", [1.0, 2.0, 10.0])
    def test_relative_error_within_ten_rtol(self, rate):
        prob = linear_decay_problem(rate)
        for rtol in (1e-3, 1e-6):
            samples = integrate_rk45(
                prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, rtol, 1e-14
            )
            rel = abs(samples[-1].x[0] - math.exp(-rate)) / math.exp(-rate)
            assert rel <= 10.0 * rtol

    def test_eval_count_monotone_in_tolerance(self):
        prob = linear_decay_problem(2.0)
        counts = []
        for rtol in (1e-3, 1e-6, 1e-8):
            c = GradEvalCounter()
            integrate_rk45(prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, rtol, rtol * 1e-3, counter=c)
            counts.append(c.count)
        assert counts[0] < counts[1] < counts[2]

    def test_benchmark_tolerance_pairs_eval_counts(self, strongly_convex_problem, zero_x0):
        # the two tolerance pairs used for the flow comparisons: the tight
        # run must spend more gradient evaluations
        design = ExponentialMu(1.0, 2.0, t0=1.0)
        counts = []
        for rtol, atol in ((1e-3, 1e-6), (1e-8, 1e-11)):
            c = GradEvalCounter()
            integrate_rk45(
                strongly_convex_problem, design, zero_x0, 1.0, 1.5, rtol, atol, counter=c
            )
            counts.append(c.count)
        assert counts[1] > counts[0]

    def test_fsal_accounting(self):
        # one up-front evaluation plus six per attempted step
        prob = linear_decay_problem(2.0)
        c = GradEvalCounter()
        samples = integrate_rk45(prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, 1e-6, 1e-9, counter=c)
        accepted = len(samples) - 1
        assert (c.count - 1) % 6 == 0
        attempts = (c.count - 1) // 6
        assert attempts >= accepted

    def test_counting_wrapper_sees_every_rhs_call(self):
        # wrap the problem's gradient to count calls independently
        calls = {"n": 0}
        f = quadratic_least_squares(np.array([[1.0]]), np.zeros(1))
        inner_grad = f.grad

        def counting_grad(x):
            calls["n"] += 1
            return inner_grad(x)

        wrapped = CompositeProblem(
            f=f.__class__(
                value=f.value,
                grad=counting_grad,
                sigma=f.sigma,
                lipschitz=f.lipschitz,
                input_dim=f.input_dim,
            ),
            h=None,
        )
        c = GradEvalCounter()
        integrate_rk45(wrapped, ConstantMu(1.0), np.ones(1), 0.0, 1.0, 1e-6, 1e-9, counter=c)
        assert calls["n"] == c.count

    def test_parameter_validation(self):
        prob = linear_decay_problem(1.0)
        with pytest.raises(InvalidParameterError):
            integrate_rk45(prob, ConstantMu(1.0), np.ones(1), 1.0, 1.0, 1e-3, 1e-6)
        with pytest.raises(InvalidParameterError):
            integrate_rk45(prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, -1e-3, 1e-6)

    @pytest.mark.parametrize(
        "name,value",
        [("t0", -math.inf), ("t_end", math.inf), ("rtol", math.inf), ("atol", math.inf),
         ("t_end", math.nan), ("rtol", math.nan)],
    )
    def test_non_finite_parameter_rejected(self, name, value):
        # t_end = inf used to evaluate a stage at t = inf; rtol = inf
        # accepted every step.
        args = {"t0": 0.0, "t_end": 1.0, "rtol": 1e-6, "atol": 1e-9}
        args[name] = value
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
            integrate_rk45(linear_decay_problem(1.0), ConstantMu(1.0), np.ones(1), **args)

    def test_x0_length_checked_up_front(self, strongly_convex_problem):
        # The known optimum used to meet x0 first, in numpy's broadcast error.
        with pytest.raises(DimensionMismatchError, match="x0 has dimension 9, problem expects 10"):
            integrate_rk45(
                strongly_convex_problem, ConstantMu(1.0), np.zeros(9), 0.0, 1.0, 1e-3, 1e-6
            )

    def test_charged_gradients_pass_through_flow_smoothed_grad(
        self, monkeypatch, strongly_convex_problem, zero_x0
    ):
        # The benchmark tracer rebinds flow.smoothed_grad; every charged
        # stage gradient must go through that name.
        charged = []
        inner = flow.smoothed_grad

        def counting(problem, x, mu, counter=None):
            if counter is not None:
                charged.append(mu)
            return inner(problem, x, mu, counter)

        monkeypatch.setattr(flow, "smoothed_grad", counting)
        samples = integrate_rk45(
            strongly_convex_problem, ReciprocalMu(1.0, 1.0, t0=1.0), zero_x0, 1.0, 1.5, 1e-6, 1e-9
        )
        assert len(charged) == samples[-1].grad_evals > 1

    def test_samples_strictly_increasing_in_time(self):
        prob = linear_decay_problem(2.0)
        samples = integrate_rk45(prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, 1e-6, 1e-9)
        ts = [s.t for s in samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[0] == 0.0


class TestRk45IllPosed:
    def test_mu_nonpositive_raises(self):
        prob = linear_decay_problem(1.0)
        design = LinearMu(mu0=1.0, rate=2.0, t0=0.0)  # hits zero at t = 0.5
        with pytest.raises(IllPosedIntervalError):
            integrate_rk45(prob, design, np.ones(1), 0.0, 1.0, 1e-6, 1e-9)

    def test_discontinuous_rhs_underflows_step(self):
        # A jump in mu(t) makes the local error O(h) at the crossing;
        # with tolerances this tight the controller would need a step
        # below the hard floor, which must raise rather than spin.
        f = quadratic_least_squares(np.array([[1.0]]), np.zeros(1))
        prob = CompositeProblem(f=f, h=sqrt_l2_approx(1))

        def jumpy_mu(t):
            return 1.0 if t < 0.5 else 1e-250

        with pytest.raises(StiffnessError):
            integrate_rk45(prob, jumpy_mu, np.array([0.3]), 0.0, 1.0, 1e-16, 1e-30)

    def test_attempt_budget_exhaustion_raises(self):
        with pytest.raises(StiffnessError, match="no convergence within 3 attempted steps"):
            integrate_rk45(
                linear_decay_problem(1.0), ConstantMu(1.0), np.ones(1), 0.0, 1.0, 1e-6, 1e-9,
                max_attempts=3,
            )

    def test_non_finite_rhs_is_divergence(self):
        # A NaN stage makes every error estimate NaN; without a stage
        # check the controller would shrink h to the floor and report
        # StiffnessError, hiding the divergence.
        f = SmoothPart(
            value=lambda x: 0.0,
            grad=lambda x: np.full_like(x, np.nan),
            sigma=0.0,
            lipschitz=1.0,
            input_dim=2,
        )
        prob = CompositeProblem(f=f, h=None)
        with pytest.raises(NumericalDivergenceError):
            integrate_rk45(prob, ConstantMu(1.0), np.ones(2), 0.0, 1.0, 1e-6, 1e-9)

    def test_overflow_is_divergence_not_a_warning(self):
        # A part that under-reports its curvature and pushes x away from
        # its minimum: the stage states overflow within the first attempt,
        # which must surface as divergence, not as a numpy RuntimeWarning.
        lying = SmoothPart(
            value=lambda x: -1e300 * float(x @ x),
            grad=lambda x: -2e300 * x,
            sigma=0.0,
            lipschitz=1e-3,
            input_dim=1,
        )
        prob = CompositeProblem(f=lying, h=sqrt_l2_approx(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergenceError):
                integrate_rk45(prob, ConstantMu(1.0), np.ones(1), 0.0, 1.0, 1e-6, 1e-9)

    def test_start_far_from_the_optimum_leaks_no_warning(self, strongly_convex_problem):
        # ||x0 - x*||^2 and the squared residuals overflow; the run reads inf.
        x0 = np.full(strongly_convex_problem.input_dim, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = integrate_rk45(
                strongly_convex_problem, ConstantMu(1.0), x0, 0.0, 0.01, 1e-6, 1e-9
            )
        assert samples[0].f_true == math.inf

    # (threshold, bad value, sample index, message), pinned: the first
    # non-finite stage of the failing attempt is stage 1, 2, 3, 4 or 5,
    # or the initial evaluation at t0, and the message names its time.
    DIVERGENCES = [
        (0.3346, np.nan, 6, "non-finite right-hand side at t = 1.0955552150551267"),
        (0.3271, np.inf, 6, "non-finite right-hand side at t = 1.1187324323447454"),
        (0.3, -np.inf, 6, "non-finite right-hand side at t = 1.2346185187928391"),
        (0.3586, np.nan, 5, "non-finite right-hand side at t = 1.0234518715839884"),
        (0.3496, np.inf, 5, "non-finite right-hand side at t = 1.0492007804758892"),
        (2.0, np.nan, 0, "non-finite right-hand side at t = 0.0"),
    ]

    # The failing attempt's remaining stages run from non-finite states,
    # where inf - inf must not leak a numpy warning.
    @pytest.mark.parametrize("threshold,bad,step,message", DIVERGENCES)
    def test_divergence_names_first_non_finite_stage(self, threshold, bad, step, message):
        # x' = -x whose gradient turns non-finite once x[0] drops below
        # the threshold, partway through the run.
        def grad(x):
            return x.copy() if x[0] > threshold else np.full_like(x, bad)

        f = SmoothPart(
            value=lambda x: 0.5 * float(x @ x), grad=grad, sigma=1.0, lipschitz=1.0, input_dim=2
        )
        prob = CompositeProblem(f=f, h=None)
        with pytest.raises(NumericalDivergenceError) as info:
            integrate_rk45(prob, ConstantMu(1.0), np.array([1.0, 0.5]), 0.0, 2.0, 1e-6, 1e-9)
        assert type(info.value) is NumericalDivergenceError
        assert info.value.args == (message,)
        assert info.value.step == step


class TestContinuousLyapunov:
    def test_value_at_start_is_half_squared_distance(self, strongly_convex_problem):
        p = strongly_convex_problem
        design = ExponentialMu(1.0, 2.0, t0=1.0)
        x0 = np.zeros(10)
        expected = 0.5 * float((x0 - p.optimum) @ (x0 - p.optimum))
        v0 = lyapunov_continuous(p, x0, 1.0, 1.0, p.f.sigma, p.beta, design)
        assert v0 == pytest.approx(expected, rel=1e-12)

    def test_sigma_zero_integral_weight_is_elapsed_time(self, nonstrongly_convex_problem):
        p = nonstrongly_convex_problem
        design = ConstantMu(1.0)
        x = np.ones(10)
        # V = ||x - x*||^2/2 + (t - t0) * gap; recover the weight by
        # differencing two evaluations
        v1 = lyapunov_continuous(p, x, 2.0, 1.0, 0.0, p.beta, design)
        v2 = lyapunov_continuous(p, x, 3.0, 1.0, 0.0, p.beta, design)
        gap = v2 - v1  # equals the (constant-mu) gap term once per unit time
        v3 = lyapunov_continuous(p, x, 4.0, 1.0, 0.0, p.beta, design)
        assert v3 - v2 == pytest.approx(gap, rel=1e-9)

    def test_requires_optimum(self):
        prob = linear_decay_problem(1.0)
        with pytest.raises(Exception):
            lyapunov_continuous(prob, np.ones(1), 1.0, 0.0, 0.0, 0.0, ConstantMu(1.0))

    def test_time_before_t0_is_refused(self, strongly_convex_problem):
        p = strongly_convex_problem
        design = ExponentialMu(1.0, 2.0, t0=1.0)
        with pytest.raises(InvalidParameterError, match="t must be >= t0"):
            lyapunov_continuous(p, np.zeros(10), 0.5, 1.0, p.f.sigma, p.beta, design)

    def test_increment_bounded_by_weighted_mu_integral(self, strongly_convex_problem, zero_x0):
        # V(t) - V(t0) <= beta * int exp(sigma tau') mu dtau', checked along
        # a tight-tolerance adaptive run with a dense-grid quadrature oracle.
        p = strongly_convex_problem
        sigma, beta = p.f.sigma, p.beta
        gamma = 1.5 * sigma
        design = ExponentialMu(1.0, gamma, t0=1.0)
        samples = integrate_rk45(p, design, zero_x0, 1.0, 2.0, 1e-8, 1e-11)
        v0 = samples[0].lyapunov_v
        for s in samples[1::50] + [samples[-1]]:
            if s.t == 1.0:
                continue
            oracle = dense_simpson(
                lambda tau: math.exp(sigma * (tau - 1.0)) * design(tau), 1.0, s.t
            )
            assert s.lyapunov_v - v0 <= beta * oracle + 1e-6 * (1.0 + abs(s.lyapunov_v))


class TestContinuousBound:
    def test_constant_mu_closed_form(self):
        d_sq, beta, mu0 = 3.0, 2.0, 0.4
        got = bound_continuous(d_sq, beta, 0.0, ConstantMu(mu0), 1.0, 5.0)
        assert got == pytest.approx(0.5 * d_sq / 4.0 + beta * mu0, rel=1e-12)

    def test_undefined_at_or_before_start(self):
        with pytest.raises(UndefinedBoundError):
            bound_continuous(1.0, 1.0, 0.0, ConstantMu(1.0), 1.0, 1.0)

    def test_exponential_mu_sigma_zero_decays_like_one_over_t(self):
        mu0, gamma = 1.0, 2.0
        design = ExponentialMu(mu0, gamma, t0=0.0)
        # integral saturates at mu0/gamma, so t * bound(t) tends to a constant
        values = [
            (t, bound_continuous(2.0, 1.0, 0.0, design, 0.0, t)) for t in (50.0, 100.0, 200.0)
        ]
        products = [t * b for t, b in values]
        assert products[0] == pytest.approx(products[1], rel=1e-2)
        assert products[1] == pytest.approx(products[2], rel=1e-2)
        assert weighted_mu_integral(design, 0.0, 0.0, 1e6) <= mu0 / gamma + 1e-9

    def test_sigma_positive_exponential_rate(self):
        sigma = 1.3
        design = ExponentialMu(1.0, 2.0 * sigma, t0=0.0)
        ts = np.linspace(4.0, 8.0, 9)
        logs = [math.log(bound_continuous(2.0, 1.0, sigma, design, 0.0, t)) for t in ts]
        slope = np.polyfit(ts, logs, 1)[0]
        assert slope <= -sigma * 0.9

    @pytest.mark.parametrize(
        "design", [ExponentialMu(1.0, 2.0, t0=1.0), LinearMu(1.0, 0.2, t0=1.0)]
    )
    def test_closed_form_from_another_origin(self, design):
        # The integral starts at t0 = 0, not at the design's origin t0 = 1.
        got = weighted_mu_integral(design, 0.5, 0.0, 2.0)
        oracle = dense_simpson(lambda tau: math.exp(0.5 * tau) * design(tau), 0.0, 2.0)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_simpson_fallback_matches_closed_form(self):
        # reciprocal design has no closed form; compare adaptive Simpson
        # against the dense-grid oracle
        design = ReciprocalMu(1.0, 2.0, t0=0.0)
        sigma = 0.7
        got = weighted_mu_integral(design, sigma, 0.0, 3.0)
        oracle = dense_simpson(lambda tau: math.exp(sigma * tau) * design(tau), 0.0, 3.0)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_bound_holds_along_adaptive_run(self, strongly_convex_problem, zero_x0):
        p = strongly_convex_problem
        gamma = 1.5 * p.f.sigma
        design = ExponentialMu(1.0, gamma, t0=1.0)
        samples = integrate_rk45(p, design, zero_x0, 1.0, 2.0, 1e-8, 1e-11)
        for s in samples[1:]:
            assert s.f_true - 0.0 <= s.bound_ct * (1.0 + 1e-3)


class TestEulerVsAdaptive:
    def test_matched_time_discrepancy(self, strongly_convex_problem, zero_x0):
        """Forward Euler vs a tight-tolerance adaptive oracle at matched times.

        The Euler stepsize 1/(L + alpha/mu) sits at the stability
        boundary of the flow, so pointwise objective values agree with
        the exact solution only over the first step or two; after that
        the trajectories deviate by a few percent of the objective scale
        while decaying at the same rate. The envelopes below are frozen
        from the oracle: 7.8e-3 over the first two matched points,
        1.53e-2 at plot scale over the whole window.
        """
        p = strongly_convex_problem
        design = ExponentialMu(1.0, 2.0, t0=1.0)
        sched = ContinuousDriven(design, t0=1.0)
        t_end = 1.05
        euler = run_sgm(p, sched, zero_x0, 2000)
        ts = euler.column("t")
        keep = ts <= t_end
        ts = ts[keep]
        fs = euler.column("f_true")[keep]
        # the adaptive run is the denser series; interpolate it onto the
        # Euler times
        ref = integrate_rk45(p, design, zero_x0, 1.0, t_end, 1e-8, 1e-11)
        rts = np.array([s.t for s in ref])
        rfs = np.array([s.f_true for s in ref])
        oracle = np.interp(ts, rts, rfs)
        scale = float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(fs - oracle))) / scale <= 2e-2
        early = np.abs(fs[:2] - oracle[:2]) / (1.0 + np.abs(oracle[:2]))
        assert float(np.max(early)) <= 1e-2


def exact_scaled_integrals(design, sigma, ts):
    """J(t) = int_{ts[0]}^{t} exp(-sigma (t - tau)) mu(tau) dtau at every grid point.

    ``design`` is a ReciprocalMu; 50 digits, one quadrature per step.
    """
    with mpmath.workdps(DIGITS):
        s, mu0, p, t0 = (mpmath.mpf(v) for v in (sigma, design.mu0, design.power, design.t0))
        out = [mpmath.mpf(0)]
        for a, b in zip(ts, ts[1:]):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            step = mpmath.quad(
                lambda tau: mpmath.exp(-s * (b - tau)) * mu0 * (1 + (tau - t0)) ** (-p), [a, b]
            )
            out.append(mpmath.exp(-s * (b - a)) * out[-1] + step)
        return out


def chord_integral(design, sigma, ts):
    """J(ts[-1]) accumulated over the grid as ``integrate_rk45`` does."""
    scaled = 0.0
    mu_a = design._upper_mu(ts[0], design(ts[0]))
    for a, b in zip(ts, ts[1:]):
        mu_b = design._upper_mu(b, design(b))
        scaled = _chord_step(scaled, sigma, b - a, mu_a, mu_b)
        mu_a = mu_b
    return scaled


@st.composite
def chord_cases(draw, max_step):
    design = ReciprocalMu(
        draw(st.floats(0.01, 100.0)), draw(st.floats(0.1, 4.0)), t0=draw(st.floats(-1.0, 2.0))
    )
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(50.0, 2000.0)))
    # Steps down to 1e-9, where the chord's own slack is far below a
    # rounding error, so the outward rounding alone keeps J on top.
    steps = draw(
        st.lists(
            st.one_of(st.floats(1e-9, 1e-6), st.floats(1e-6, max_step)), min_size=1, max_size=10
        )
    )
    ts = [design.t0 + draw(st.floats(0.0, 3.0))]
    for h in steps:
        ts.append(ts[-1] + h)
    return design, sigma, [t for i, t in enumerate(ts) if i == 0 or t > ts[i - 1]]


class TestChordIntegral:
    """The scaled integral J that ``integrate_rk45`` accumulates for ReciprocalMu."""

    @settings(max_examples=80, deadline=None)
    @given(chord_cases(max_step=1.0))
    def test_at_least_the_exact_integral(self, case):
        design, sigma, ts = case
        if len(ts) < 2:
            return
        assert chord_integral(design, sigma, ts) >= exact_scaled_integrals(design, sigma, ts)[-1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.01, 100.0),
        st.floats(0.1, 1.5),
        st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        st.lists(st.floats(1e-3, 0.05), min_size=1, max_size=20),
    )
    def test_tight_for_short_steps(self, mu0, p, sigma, steps):
        # The chord's slack on one step is about h^2 p (p + 1) / 12 of the
        # integral: below 1e-3 for h <= 0.05 and p <= 1.5.
        design = ReciprocalMu(mu0, p, t0=1.0)
        ts = list(1.0 + np.cumsum([0.0] + steps))
        exact = exact_scaled_integrals(design, sigma, ts)[-1]
        assert chord_integral(design, sigma, ts) <= exact * (1 + 1e-3)

    def test_sigma_zero_is_the_trapezoid(self):
        assert _chord_step(2.0, 0.0, 0.5, 3.0, 1.0) >= 2.0 + 0.5 * (3.0 + 1.0) / 2
        assert _chord_step(2.0, 0.0, 0.5, 3.0, 1.0) == pytest.approx(3.0, rel=1e-14)


def rk45_samples(problem, design, t_end=2.0):
    x0 = np.zeros(problem.f.input_dim)
    return integrate_rk45(problem, design, x0, 1.0, t_end, 1e-9, 1e-12)


def count_simpson(monkeypatch):
    calls = {"n": 0}
    inner = flow.adaptive_simpson

    def counting(*args, **kwargs):
        calls["n"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(flow, "adaptive_simpson", counting)
    return calls


class TestCertifiedRk45Bound:
    @pytest.mark.parametrize("fixture", ["strongly_convex_problem", "nonstrongly_convex_problem"])
    def test_reciprocal_bound_above_simpson_and_exact(self, request, fixture):
        p = request.getfixturevalue(fixture)
        design = ReciprocalMu(1.0, 1.0, t0=1.0)
        samples = rk45_samples(p, design, t_end=1.5)
        sigma, beta = p.f.sigma, p.beta
        d_sq = float(p.optimum @ p.optimum)
        exact_j = exact_scaled_integrals(design, sigma, [s.t for s in samples])
        for s, j in zip(samples[1:], exact_j[1:]):
            assert s.bound_ct >= bound_continuous(d_sq, beta, sigma, design, 1.0, s.t)
            with mpmath.workdps(DIGITS):
                delta = mpmath.mpf(s.t) - 1
                decay = mpmath.exp(-sigma * delta)
                weight = (1 - decay) / sigma if sigma > 0 else delta
                exact = (d_sq / 2 * decay + beta * j) / weight
            assert exact <= s.bound_ct <= exact * (1 + 1e-4)

    @pytest.mark.parametrize(
        "design",
        [
            ConstantMu(0.5),
            LinearMu(1.0, 0.3, t0=1.0),
            ExponentialMu(1.0, 2.0, t0=1.0),
            ReciprocalMu(1.0, 1.0, t0=1.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_builtin_designs_never_call_simpson(self, monkeypatch, strongly_convex_problem, design):
        calls = count_simpson(monkeypatch)
        samples = rk45_samples(strongly_convex_problem, design, t_end=1.5)
        assert calls["n"] == 0
        assert all(math.isfinite(s.bound_ct) for s in samples[1:])

    def test_user_callable_keeps_simpson(self, monkeypatch, strongly_convex_problem):
        calls = count_simpson(monkeypatch)
        rk45_samples(strongly_convex_problem, lambda t: 1.0 / t, t_end=1.5)
        assert calls["n"] > 0

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["sqrt_l2", "huber_l2"]),
        st.sampled_from(["constant", "linear", "exponential", "reciprocal"]),
        st.floats(0.1, 5.0),
    )
    def test_gap_below_bound(self, n_x, n_a, n_c, seed, smoothing, name, mu0):
        p = generate_problem(ExperimentConfig(n_x, n_a, n_c, seed, smoothing=smoothing))
        design = {
            "constant": lambda: ConstantMu(mu0),
            "linear": lambda: LinearMu(mu0, mu0 / 2.0, t0=1.0),  # positive up to t = 3
            "exponential": lambda: ExponentialMu(mu0, 1.0, t0=1.0),
            "reciprocal": lambda: ReciprocalMu(mu0, 1.0, t0=1.0),
        }[name]()
        samples = rk45_samples(p, design)
        gap = np.array([s.f_true for s in samples[1:]]) - p.optimal_value
        bound = np.array([s.bound_ct for s in samples[1:]])
        # Slack for evaluating f_true and the bound in floating point only.
        assert (gap <= bound + 1e-12 * (1.0 + np.abs(bound))).all()


class TestExponentialClosedForm:
    @pytest.mark.parametrize("mu0,rate,t", [(1.0, 0.5, 3.0), (2.5, 1.3, 1.75), (0.3, 4.0, 11.0)])
    def test_rate_equal_to_sigma_is_mu0_times_elapsed_time(self, mu0, rate, t):
        # exp(sigma (tau - t0)) mu0 exp(-gamma (tau - t0)) is the constant mu0.
        design = ExponentialMu(mu0, rate, t0=1.0)
        assert design.weighted_integral(rate, 1.0, t) == mu0 * (t - 1.0)


class TestLinearClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.01, 5.0),
        st.floats(0.0, 0.99),
        st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(5.0, 500.0)),
    )
    def test_rounded_up_against_mpmath(self, mu0, rate, frac, sigma):
        design = LinearMu(mu0, rate, t0=1.0)
        t = 1.0 + frac * mu0 / rate
        if not t > 1.0:
            return
        got = design.weighted_integral(sigma, 1.0, t)
        with mpmath.workdps(DIGITS):
            s, m, r = mpmath.mpf(sigma), mpmath.mpf(mu0), mpmath.mpf(rate)
            exact = mpmath.quad(
                lambda tau: mpmath.exp(s * (tau - 1)) * (m - r * (tau - 1)), [1, mpmath.mpf(t)]
            )
        assert exact <= got
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_inf_past_the_double_range(self):
        assert LinearMu(1.0, 0.1, t0=0.0).weighted_integral(1000.0, 0.0, 1.0) == math.inf

    # sigma (t - t0) = 704.9 and 710.2: x e^x, then e^x itself overflow,
    # while the integral still fits in a double.
    @pytest.mark.parametrize("sigma", [401.0, 404.0])
    def test_finite_where_e_x_overflows(self, sigma):
        mu0, rate, frac = 0.703125, 0.28125, 0.703125
        t = 1.0 + frac * mu0 / rate
        got = LinearMu(mu0, rate, t0=1.0).weighted_integral(sigma, 1.0, t)
        with mpmath.workdps(DIGITS):
            s, m, r = mpmath.mpf(sigma), mpmath.mpf(mu0), mpmath.mpf(rate)
            exact = mpmath.quad(
                lambda tau: mpmath.exp(s * (tau - 1)) * (m - r * (tau - 1)), [1, mpmath.mpf(t)]
            )
        assert exact <= got <= exact * (1 + 1e-12)

    # sigma (t - t0) = 716, 719, 722: mu(t) g overflows at 716, g itself
    # from 716.3, while the integral still fits in a double.
    @pytest.mark.parametrize("x, mu_end", [(716.0, 4.0), (719.0, 2.0**-4), (722.0, 2.0**-9)])
    def test_finite_where_mu_g_overflows(self, x, mu_end):
        delta, rate = 2.0**-4, 2.0**-4
        mu0 = mu_end + rate * delta
        got = LinearMu(mu0, rate, t0=1.0).weighted_integral(x / delta, 1.0, 1.0 + delta)
        with mpmath.workdps(DIGITS):
            s, m, r, d = (mpmath.mpf(v) for v in (x / delta, mu0, rate, delta))
            grown = mpmath.expm1(s * d)
            exact = m * grown / s - r * (d * (grown + 1) / s - grown / s**2)
        assert exact <= got <= exact * (1 + 1e-12)


class TestContinuousOverflow:
    def test_lyapunov_weight_reads_inf(self, strongly_convex_problem):
        p = strongly_convex_problem
        v = lyapunov_continuous(p, np.zeros(10), 1e4, 0.0, p.f.sigma, p.beta, ConstantMu(1.0))
        assert v == math.inf

    @pytest.mark.parametrize(
        "design", [ConstantMu(0.5), ExponentialMu(1.0, 0.5), ReciprocalMu(1.0, 1.0)]
    )
    def test_bound_continuous_scales_past_overflow(self, design):
        sigma, t = 100.0, 10.0
        got = bound_continuous(2.0, 1.0, sigma, design, 0.0, t)
        # e^{-sigma t} is far below a rounding, so the bound is beta J / (1/sigma)
        exact = sigma * mpmath.quad(
            lambda tau: mpmath.exp(-sigma * (t - tau)) * design(float(tau)), [0, t - 1, t]
        )
        assert math.isfinite(got)
        assert got == pytest.approx(float(exact), rel=1e-6)

    @pytest.mark.parametrize("design", [ConstantMu(1.0), ExponentialMu(1.0, 0.5)])
    def test_weighted_integral_closed_form_reads_inf(self, design):
        assert weighted_mu_integral(design, 100.0, 0.0, 10.0) == math.inf

    def test_weighted_integral_callable_reads_inf_without_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(flow, "adaptive_simpson", lambda *args: calls.append(args))
        assert weighted_mu_integral(lambda t: 1.0, 100.0, 0.0, 10.0) == math.inf
        assert calls == []
