import math
import warnings

import mpmath
import numpy as np
import pytest

from smoothflow import (
    CompositeProblem,
    ExpDecay,
    GradEvalCounter,
    PowerDecay,
    SmoothPart,
    advance,
    bound_discrete,
    closed_form_bound_nonstrongly,
    initial_state,
    lyapunov_discrete,
    quadratic_least_squares,
    run_sgm,
    smoothed_value,
    sqrt_l2_approx,
)
from smoothflow.errors import (
    InvalidParameterError,
    NumericalDivergenceError,
    UndefinedBoundError,
    UnsupportedOperationError,
)
from smoothflow.rng import Xoshiro256pp
from smoothflow.solver import STATUS_BUDGET, STATUS_SCHEDULE, STATUS_TOLERANCE

from conftest import SEED


def scalar_abs_problem():
    """min |x|: f == 0, h the sqrt surrogate of |.| (L=0, sigma=0, alpha=beta=1)."""
    f = quadratic_least_squares(np.zeros((1, 1)), np.zeros(1))
    return CompositeProblem(f=f, h=sqrt_l2_approx(1), optimum=np.zeros(1))


class _ConstantMuSchedule:
    """Degenerate fixed-mu schedule for bound-limit tests."""

    def __init__(self, mu0, t0=0.0):
        self.mu0 = mu0
        self.t0 = t0

    def mu_at(self, k, t):
        return self.mu0

    def describe(self):
        return f"frozen(mu0={self.mu0:g})"


class TestRunSgm:
    def test_absolute_value_trap(self):
        # With an exponentially decaying mu the reachable set has radius
        # mu0/(1-lam); starting outside it the method cannot reach 0.
        prob = scalar_abs_problem()
        mu0, lam = 1.0, 0.9
        x0 = np.array([10.0 * mu0 / (1.0 - lam)])
        traj = run_sgm(prob, ExpDecay(mu0=mu0, lam=lam), x0, max_steps=7000)
        floor = x0[0] - mu0 / (1.0 - lam)
        assert all(r.x[0] >= floor - 1e-9 for r in traj.records)
        # 0.9**k underflows past the positivity floor near k ~ 6556
        assert traj.status == STATUS_SCHEDULE
        assert 6000 < traj.final.k < 7000

    def test_record_structure(self, strongly_convex_problem, zero_x0):
        traj = run_sgm(
            strongly_convex_problem, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), zero_x0, 50
        )
        ks = traj.column("k")
        assert ks[0] == 0 and np.all(np.diff(ks) == 1)
        assert np.all(np.diff(traj.column("t")) > 0.0)
        assert np.all(np.diff(traj.column("grad_evals")) == 1)
        assert np.all(np.diff(traj.column("mu")) <= 0.0)
        assert traj.records[0].grad_evals == 0
        assert math.isnan(traj.records[0].bound)
        assert traj.status == STATUS_BUDGET

    def test_grad_eval_conservation(self, strongly_convex_problem, zero_x0):
        counter = GradEvalCounter()
        run_sgm(
            strongly_convex_problem,
            PowerDecay(mu0=1.0, gamma=0.5, t0=1.0),
            zero_x0,
            123,
            counter=counter,
        )
        assert counter.count == 123

    def test_grad_eval_budget_stops_run(self, strongly_convex_problem, zero_x0):
        traj = run_sgm(
            strongly_convex_problem,
            PowerDecay(mu0=1.0, gamma=0.5, t0=1.0),
            zero_x0,
            10_000,
            grad_eval_budget=37,
        )
        assert traj.final.k == 37
        assert traj.final.grad_evals == 37
        assert traj.status == STATUS_BUDGET

    def test_tolerance_stop(self, strongly_convex_problem, zero_x0):
        traj = run_sgm(
            strongly_convex_problem,
            PowerDecay(mu0=1.0, gamma=0.5, t0=1.0),
            zero_x0,
            10_000,
            grad_tol=1.0,
        )
        assert traj.status == STATUS_TOLERANCE
        assert traj.final.grad_norm <= 1.0
        assert traj.final.k < 10_000

    def test_record_stride_keeps_first_and_last(self, strongly_convex_problem, zero_x0):
        traj = run_sgm(
            strongly_convex_problem,
            PowerDecay(mu0=1.0, gamma=0.5, t0=1.0),
            zero_x0,
            100,
            record_stride=7,
        )
        ks = [r.k for r in traj.records]
        assert ks[0] == 0 and ks[-1] == 100
        assert all(k % 7 == 0 for k in ks[:-1])

    def test_dimension_checked(self, strongly_convex_problem):
        with pytest.raises(Exception):
            run_sgm(
                strongly_convex_problem,
                PowerDecay(mu0=1.0, gamma=0.5),
                np.zeros(3),
                10,
            )

    def test_divergence_detected_with_lying_constants(self):
        # A smooth part that under-reports its curvature produces an
        # overlong stepsize and a geometric blow-up.
        lying = SmoothPart(
            value=lambda x: 1e6 * float(x @ x),
            grad=lambda x: 2e6 * x,
            sigma=0.0,
            lipschitz=1e-3,
            input_dim=1,
        )
        prob = CompositeProblem(f=lying, h=sqrt_l2_approx(1))
        # The blow-up overflows; it must surface as divergence, not as a
        # numpy RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergenceError):
                run_sgm(prob, PowerDecay(mu0=1.0, gamma=0.5), np.ones(1), 5000)

    def test_start_far_from_the_optimum_is_divergence_not_a_warning(self, strongly_convex_problem):
        # ||x0 - x*||^2 and the first gradient's norm overflow.
        x0 = np.full(strongly_convex_problem.input_dim, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergenceError):
                run_sgm(strongly_convex_problem, PowerDecay(mu0=1.0, gamma=0.5), x0, 5)

    def test_step_scale_validated(self, strongly_convex_problem, zero_x0):
        with pytest.raises(InvalidParameterError):
            run_sgm(
                strongly_convex_problem,
                PowerDecay(mu0=1.0, gamma=0.5),
                zero_x0,
                10,
                step_scale=1.5,
            )

    def test_smoothed_descent_inequality(self, strongly_convex_problem, zero_x0):
        # One 1/L_k gradient step on an L_k-smooth function descends by at
        # least s/2 * ||g||^2.
        p = strongly_convex_problem
        traj = run_sgm(p, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), zero_x0, 300)
        for a, b in zip(traj.records, traj.records[1:]):
            before = smoothed_value(p, a.x, a.mu)
            after = smoothed_value(p, b.x, a.mu)
            drop = a.s / 2.0 * a.grad_norm**2
            assert after <= before - drop + 1e-9 * (1.0 + abs(before))

    def test_iterate_endpoint_improvement_sigma_positive(
        self, strongly_convex_problem, zero_x0
    ):
        p = strongly_convex_problem
        for gamma in (0.5, 1.0):
            traj = run_sgm(p, PowerDecay(mu0=1.0, gamma=gamma, t0=1.0), zero_x0, 2000)
            d0 = np.linalg.norm(zero_x0 - p.optimum)
            dend = np.linalg.norm(traj.final.x - p.optimum)
            assert dend < d0

    def test_start_at_optimum_stays_in_level_set(self, strongly_convex_problem):
        p = strongly_convex_problem
        traj = run_sgm(
            p, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), p.optimum.copy(), 500
        )
        beta_mu0 = p.beta * 1.0
        f_true = traj.column("f_true")
        assert np.all(f_true <= f_true[0] + beta_mu0 + 1e-9)

    def test_bound_holds_along_runs(self, strongly_convex_problem, zero_x0):
        traj = run_sgm(
            strongly_convex_problem, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), zero_x0, 2000
        )
        f_true = traj.column("f_true")[1:]
        bound = traj.column("bound")[1:]
        assert np.all(f_true - 0.0 <= bound + 1e-9 * (1.0 + np.abs(bound)))

    def test_inverse_sqrt_schedule_descends_over_benchmark_horizon(
        self, strongly_convex_problem, zero_x0
    ):
        traj = run_sgm(
            strongly_convex_problem, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), zero_x0, 1250
        )
        assert traj.final.f_true < traj.records[0].f_true
        assert traj.final.grad_norm < traj.records[0].grad_norm


# The generated problem's data, drawn as generate_problem draws it.
def generated_data(seed, n_x, n_a, n_c):
    rng = Xoshiro256pp(seed)
    a = rng.normals((n_a, n_x))
    c = rng.normals((n_c, n_x))
    x_star = rng.normals(n_x)
    e = np.vstack((a, c)) @ x_star
    return a, e[:n_a], c, e[n_a:]


class TestAgainstDirectLoop:
    def test_iterates_match_bruteforce_recursion(self, strongly_convex_problem):
        # a from-scratch implementation of the recursion, kept independent
        # of ScheduleState/run_sgm bookkeeping: one residual over the
        # stacked rows [A; C] x - [b; d], one transposed product for the
        # gradient of ||A x - b||^2 + sum sqrt((c_i x - d_i)^2 + mu^2)
        p = strongly_convex_problem
        a, b, c, d = generated_data(SEED, 10, 20, 50)
        m, e = np.vstack((a, c)), np.concatenate((b, d))
        lipschitz, alpha = p.f.lipschitz, p.alpha
        mu0, gamma, t0 = 1.0, 0.5, 1.0
        x = np.zeros(10)
        xs = [x.copy()]
        for k in range(200):
            mu = mu0 * (k + 1.0) ** (-gamma)
            s = 1.0 / (lipschitz + alpha / mu)
            r = m @ x - e
            w = np.concatenate((2.0 * r[:20], r[20:] / np.hypot(r[20:], mu)))
            x = x - s * (m.T @ w)
            xs.append(x.copy())
        traj = run_sgm(p, PowerDecay(mu0=mu0, gamma=gamma, t0=t0), np.zeros(10), 200)
        assert len(traj.records) == 201
        for rec, expected in zip(traj.records, xs):
            assert np.array_equal(rec.x, expected)

    def test_iterates_match_per_part_gradients(self, strongly_convex_problem):
        # The parts' own gradients f.grad + h.grad_x sum two products, so
        # they differ from the stacked product in the last bits. Each
        # step's gradient differs by at most about 70 eps relative (one
        # dot product of 70 terms each way), and gradient steps on this
        # strongly convex problem do not amplify a perturbation, so 200
        # steps stay within 200 * 70 eps ~ 3e-12 of the scale of x.
        # The tolerance, 1e-10, was set before the runs were compared.
        p = strongly_convex_problem
        mu0, gamma = 1.0, 0.5
        x = np.zeros(10)
        traj = run_sgm(p, PowerDecay(mu0=mu0, gamma=gamma, t0=1.0), x, 200)
        for k, rec in enumerate(traj.records):
            scale = max(1.0, float(np.max(np.abs(x))))
            assert np.max(np.abs(rec.x - x)) <= 1e-10 * scale
            mu = mu0 * (k + 1.0) ** (-gamma)
            s = 1.0 / (p.f.lipschitz + p.alpha / mu)
            x = x - s * (p.f.grad(x) + p.h.grad_x(x, mu))


class TestLyapunovDiscrete:
    def test_initial_value_is_half_squared_distance(self, strongly_convex_problem):
        p = strongly_convex_problem
        st = initial_state(PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), p.f.lipschitz, p.alpha)
        x0 = np.zeros(10)
        expected = 0.5 * float((x0 - p.optimum) @ (x0 - p.optimum))
        assert lyapunov_discrete(p, st, x0) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_optimum_at_step_zero(self, strongly_convex_problem):
        p = strongly_convex_problem
        st = initial_state(PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), p.f.lipschitz, p.alpha)
        assert lyapunov_discrete(p, st, p.optimum.copy()) == 0.0

    def test_requires_optimum(self):
        f = quadratic_least_squares(np.eye(2), np.zeros(2))
        p = CompositeProblem(f=f, h=sqrt_l2_approx(2))
        st = initial_state(PowerDecay(mu0=1.0, gamma=0.5), p.f.lipschitz, p.alpha)
        with pytest.raises(UnsupportedOperationError):
            lyapunov_discrete(p, st, np.zeros(2))

    @pytest.mark.parametrize("fixture_name", ["strongly_convex_problem", "nonstrongly_convex_problem"])
    def test_increment_inequality_along_runs(self, request, fixture_name, zero_x0):
        p = request.getfixturevalue(fixture_name)
        traj = run_sgm(p, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), zero_x0, 1500)
        sigma = p.f.sigma
        s = traj.column("s")
        mu = traj.column("mu")
        ly = traj.column("lyapunov")
        eta = np.ones(len(s))
        for i in range(1, len(s)):
            eta[i] = eta[i - 1] / (1.0 - sigma * s[i - 1])
        lhs = ly[1:] - ly[:-1]
        rhs = p.beta * eta[1:] * mu[:-1] * s[:-1]
        slack = 1e-9 * (1.0 + np.maximum(np.abs(ly[1:]), np.abs(ly[:-1])))
        assert np.all(lhs <= rhs + slack)


class TestBoundDiscrete:
    def test_undefined_at_step_zero(self):
        st = initial_state(PowerDecay(mu0=1.0, gamma=0.5), 0.0, 1.0)
        with pytest.raises(UndefinedBoundError):
            bound_discrete(st, 1.0, 1.0)

    def test_single_step_substitution(self):
        # sigma = 0, k = 1: (d^2/2 + beta*mu0*s0) / s0.
        sched = PowerDecay(mu0=1.0, gamma=0.5)
        st = initial_state(sched, 2.0, 1.0)
        s0 = st.s
        st = advance(sched, st, 0.0, 2.0, 1.0)
        d_sq, beta = 3.0, 1.5
        expected = (0.5 * d_sq + beta * 1.0 * s0) / s0
        assert bound_discrete(st, d_sq, beta) == pytest.approx(expected, rel=1e-14)

    def test_frozen_mu_limit_is_beta_mu(self):
        sched = _ConstantMuSchedule(0.7)
        sigma, lipschitz, alpha = 0.0, 1.0, 1.0
        state = initial_state(sched, lipschitz, alpha)
        for _ in range(100_000):
            state = advance(sched, state, sigma, lipschitz, alpha)
        beta = 2.0
        limit = beta * 0.7
        val = bound_discrete(state, 2.0, beta)
        assert val == pytest.approx(limit, rel=1e-4)
        assert val > limit  # approaches from above

    def test_power_half_bound_decreases(self):
        sched = PowerDecay(mu0=1.0, gamma=0.5)
        state = initial_state(sched, 0.0, 1.0)
        checkpoints = {}
        for k in range(1, 10_001):
            state = advance(sched, state, 0.0, 0.0, 1.0)
            if k in (100, 1000, 10_000):
                checkpoints[k] = bound_discrete(state, 2.0, 1.0)
        assert checkpoints[100] > checkpoints[1000] > checkpoints[10_000]

    def test_matches_mpmath_recursion_past_overflow(self):
        # The run's own s_k, mu_k and sigma, summed to 50 digits; eta_k
        # leaves the double range at k = 356.
        p = overflowing_problem()
        sched = PowerDecay(mu0=100.0, gamma=0.1, t0=1.0)
        state = initial_state(sched, p.f.lipschitz, p.alpha)
        d_sq = float(p.optimum @ p.optimum)
        with mpmath.workdps(50):
            sigma, half_dist, beta = (mpmath.mpf(v) for v in (p.f.sigma, d_sq / 2, p.beta))
            eta, sum_es, sum_ems = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for _ in range(3000):
                s_k, mu_k = mpmath.mpf(state.s), mpmath.mpf(state.mu)
                state = advance(sched, state, p.f.sigma, p.f.lipschitz, p.alpha)
                eta /= 1 - sigma * s_k
                sum_es += eta * s_k
                sum_ems += eta * mu_k * s_k
                exact = (half_dist + beta * sum_ems) / sum_es
                assert abs(bound_discrete(state, d_sq, p.beta) - exact) <= 1e-14 * exact
                if state.sum_eta_s == math.inf:
                    assert sum_es > np.finfo(float).max * (1.0 - 1e-14)
                else:
                    assert abs(state.sum_eta_s - sum_es) <= 1e-14 * sum_es
                if state.eta == math.inf:
                    assert eta > np.finfo(float).max * (1.0 - 1e-14)
                else:
                    assert abs(state.eta - eta) <= 1e-14 * eta
        assert state.sum_eta_s == math.inf and state.inv_eta == 0.0


class TestClosedFormBound:
    def test_gamma_validated(self):
        with pytest.raises(InvalidParameterError):
            closed_form_bound_nonstrongly(1.0, 1.0, 1.0, 1.0, 1.5, 1.0, 10)
        with pytest.raises(UndefinedBoundError):
            closed_form_bound_nonstrongly(1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 0)

    def test_gamma_half_formula(self):
        lipschitz, alpha, beta, mu0, d_sq, k = 2.0, 3.0, 1.5, 0.8, 4.0, 50
        expected = (0.5 * d_sq + beta * mu0**2 / alpha * (1.0 + math.log(k))) / (
            2.0 / (lipschitz + alpha / mu0) * (math.sqrt(k + 1.0) - 1.0)
        )
        got = closed_form_bound_nonstrongly(lipschitz, alpha, beta, mu0, 0.5, d_sq, k)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_gamma_one_at_k_one(self):
        lipschitz, alpha, beta, mu0 = 1.0, 2.0, 1.0, 1.0
        got = closed_form_bound_nonstrongly(lipschitz, alpha, beta, mu0, 1.0, 2.0, 1)
        denom = math.log(2.0) / (lipschitz + alpha / mu0)
        numer = 1.0 + beta * mu0**2 / alpha * (2.0 - 1.0)
        assert got == pytest.approx(numer / denom, rel=1e-14)

    def test_branch_continuity_near_half(self):
        args = (1.0, 1.0, 1.0, 1.0)
        at_half = closed_form_bound_nonstrongly(*args, 0.5, 2.0, 1000)
        near_half = closed_form_bound_nonstrongly(*args, 0.5 + 1e-9, 2.0, 1000)
        assert near_half == pytest.approx(at_half, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    def test_dominates_running_bound_sigma_zero(self, nonstrongly_convex_problem, gamma):
        p = nonstrongly_convex_problem
        assert p.f.sigma == 0.0
        sched = PowerDecay(mu0=1.0, gamma=gamma, t0=1.0)
        state = initial_state(sched, p.f.lipschitz, p.alpha)
        d_sq = float(p.optimum @ p.optimum)  # x0 = 0
        for k in range(1, 3001):
            state = advance(sched, state, 0.0, p.f.lipschitz, p.alpha)
            running = bound_discrete(state, d_sq, p.beta)
            closed = closed_form_bound_nonstrongly(
                p.f.lipschitz, p.alpha, p.beta, 1.0, gamma, d_sq, k
            )
            assert running <= closed * (1.0 + 1e-12)


def overflowing_problem():
    """Strongly convex enough that eta_k leaves the double range at k = 356."""
    from smoothflow.harness import ExperimentConfig, generate_problem

    return generate_problem(ExperimentConfig(n_x=2, n_a=50, n_c=1, rng_seed=3))


class TestLongStronglyConvexRun:
    def test_run_survives_eta_overflow(self):
        # eta overflows at k = 356 and the eta-weighted sums pass DBL_MAX
        # soon after; the run used to die there with OverflowError.
        p = overflowing_problem()
        traj = run_sgm(p, PowerDecay(mu0=100.0, gamma=0.1, t0=1.0), np.zeros(2), 3000)
        assert traj.status == STATUS_BUDGET
        assert [r.k for r in traj.records] == list(range(3001))
        lyap = traj.column("lyapunov")
        # The iterate sits at x* bit for bit, so the overflowed weight
        # meets a zero distance and adds 0; the integral term overflows
        # from k = 357 on.
        assert np.isfinite(lyap[:357]).all()
        assert np.isposinf(lyap[357:]).all()
        bounds = traj.column("bound")[1:]
        assert np.isfinite(bounds).all()
        assert (traj.column("f_true")[1:] - p.optimal_value <= bounds).all()

    def test_eta_sums_read_inf_past_the_double_range(self):
        p = overflowing_problem()
        sched = PowerDecay(mu0=100.0, gamma=0.1, t0=1.0)
        state = advance(
            sched, initial_state(sched, p.f.lipschitz, p.alpha), p.f.sigma, p.f.lipschitz, p.alpha
        )
        # log(N/D) is log(sum eta*s), which passes log(DBL_MAX) < 710.
        while math.log(state.scaled_sum_eta_s) - math.log(state.inv_eta) <= 710.0:
            state = advance(sched, state, p.f.sigma, p.f.lipschitz, p.alpha)
        assert math.log(state.scaled_sum_eta_mu_s) - math.log(state.inv_eta) > 710.0
        assert state.sum_eta_s == math.inf
        assert state.sum_eta_mu_s == math.inf
        d_sq = float(p.optimum @ p.optimum)
        assert math.isfinite(bound_discrete(state, d_sq, p.beta))


    def test_bound_without_h_survives_overflow(self):
        # beta = 0 past eta's overflow (k = 603 here): beta * sum_eta_mu_s
        # would be 0 * inf, so the bound must stay finite from the scaled sums.
        a = Xoshiro256pp(11).normals((50, 2))
        p = CompositeProblem(f=quadratic_least_squares(a, np.zeros(50)), optimum=np.zeros(2))
        traj = run_sgm(p, PowerDecay(mu0=100.0, gamma=0.1), np.ones(2), 1000)
        assert traj.status == STATUS_BUDGET
        bounds = traj.column("bound")[1:]
        assert np.isfinite(bounds).all()
        assert (traj.column("f_true")[1:] <= bounds).all()
        assert not np.isnan(traj.column("lyapunov")).any()


@pytest.mark.parametrize("stride", [0, -3])
def test_record_stride_must_be_positive(strongly_convex_problem, zero_x0, stride):
    with pytest.raises(InvalidParameterError, match="record_stride"):
        run_sgm(
            strongly_convex_problem,
            PowerDecay(mu0=1.0, gamma=0.5),
            zero_x0,
            10,
            record_stride=stride,
        )


@pytest.mark.parametrize("stride", [1, 4, 100])
def test_one_residual_pass_per_iterate(strongly_convex_problem, zero_x0, residual_formations, stride):
    # Count formations of the stacked residual [A; C] x - [b; d]: the
    # run's one point is moved to each iterate. A recorded step reads its
    # gradient and its monitors from the same formation, and an
    # unrecorded step forms no more than a recorded one, so the count is
    # one per iterate plus one at x* for the run.
    steps = 12
    traj = run_sgm(
        strongly_convex_problem,
        PowerDecay(mu0=1.0, gamma=0.5),
        zero_x0,
        steps,
        record_stride=stride,
    )
    assert traj.final.k == steps
    assert len(residual_formations) == (steps + 1) + 1
