import math

import numpy as np
import pytest

from smoothflow import (
    CompositeProblem,
    GradEvalCounter,
    SmoothPart,
    Xoshiro256pp,
    lipschitz_at,
    quadratic_least_squares,
    smoothed_grad,
    smoothed_value,
    sqrt_l2_approx,
)
from smoothflow.approx import _fd_grad
from smoothflow.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnsupportedOperationError,
)


class TestQuadraticLeastSquares:
    def test_identity(self):
        f = quadratic_least_squares(np.eye(2), np.zeros(2))
        assert f.lipschitz == pytest.approx(2.0, rel=1e-12)
        assert f.sigma == pytest.approx(2.0, rel=1e-12)
        x = np.array([1.5, -0.5])
        assert f.value(x) == pytest.approx(float(x @ x), rel=1e-14)
        assert np.allclose(f.grad(x), 2.0 * x, rtol=1e-14)

    def test_diagonal_eigenvalues(self):
        f = quadratic_least_squares(np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2))
        assert f.lipschitz == pytest.approx(8.0, rel=1e-12)
        assert f.sigma == pytest.approx(2.0, rel=1e-12)

    def test_rank_deficient_gram_gives_sigma_zero(self):
        rng = Xoshiro256pp(6)
        a = rng.normals((2, 10))
        f = quadratic_least_squares(a, rng.normals(2))
        assert f.sigma == 0.0
        assert f.lipschitz > 0.0

    def test_grad_matches_finite_differences(self):
        rng = Xoshiro256pp(8)
        a = rng.normals((5, 3))
        b = rng.normals(5)
        f = quadratic_least_squares(a, b)
        for _ in range(20):
            x = rng.normals(3)
            fd = _fd_grad(lambda xs: np.array([f.value(y) for y in xs]), x)
            rel = np.linalg.norm(f.grad(x) - fd) / (1.0 + np.linalg.norm(fd))
            assert rel <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quadratic_least_squares(np.eye(2), np.zeros(3))

    def test_sigma_never_exceeds_lipschitz(self):
        rng = Xoshiro256pp(11)
        for _ in range(10):
            a = rng.normals((6, 4))
            f = quadratic_least_squares(a, rng.normals(6))
            assert f.sigma <= f.lipschitz


class TestSmoothPart:
    def test_sigma_above_lipschitz_rejected(self):
        with pytest.raises(InvalidParameterError):
            SmoothPart(value=lambda x: 0.0, grad=lambda x: x, sigma=2.0, lipschitz=1.0, input_dim=1)


class TestCompositeProblem:
    def test_dimension_agreement_enforced(self):
        f = quadratic_least_squares(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            CompositeProblem(f=f, h=sqrt_l2_approx(3))

    def test_optimal_value_consistency_checked(self):
        f = quadratic_least_squares(np.eye(2), np.zeros(2))
        with pytest.raises(InvalidParameterError):
            CompositeProblem(
                f=f, h=sqrt_l2_approx(2), optimum=np.zeros(2), optimal_value=1.0
            )

    def test_optimal_value_autofilled(self):
        f = quadratic_least_squares(np.eye(2), np.zeros(2))
        p = CompositeProblem(f=f, h=sqrt_l2_approx(2), optimum=np.zeros(2))
        assert p.optimal_value == 0.0

    def test_require_optimum(self):
        f = quadratic_least_squares(np.eye(2), np.zeros(2))
        p = CompositeProblem(f=f, h=sqrt_l2_approx(2))
        with pytest.raises(UnsupportedOperationError):
            p.require_optimum()

    def test_pure_smooth_problem_allows_missing_h(self):
        f = quadratic_least_squares(np.array([[1.0]]), np.zeros(1))
        p = CompositeProblem(f=f, h=None)
        assert p.alpha == 0.0 and p.beta == 0.0
        assert smoothed_value(p, np.array([2.0]), 1.0) == pytest.approx(4.0)
        assert lipschitz_at(p, 0.1) == p.f.lipschitz


class TestSmoothedObjective:
    def setup_method(self):
        self.p = CompositeProblem(
            f=quadratic_least_squares(np.eye(2), np.zeros(2)),
            h=sqrt_l2_approx(2),
            optimum=np.zeros(2),
        )

    def test_value_at_origin(self):
        assert smoothed_value(self.p, np.zeros(2), 1.0) == 0.0

    def test_value_reduces_to_h_when_f_vanishes(self):
        p0 = CompositeProblem(
            f=quadratic_least_squares(np.zeros((2, 2)), np.zeros(2)),
            h=sqrt_l2_approx(2),
        )
        assert smoothed_value(p0, np.array([3.0, 4.0]), 12.0) == pytest.approx(1.0)

    def test_sandwich_inherited(self):
        rng = Xoshiro256pp(21)
        beta = self.p.beta
        for _ in range(100):
            x = rng.normals(2)
            mu = 0.01 + 3.0 * rng.uniform()
            lo = smoothed_value(self.p, x, mu)
            exact = self.p.true_value(x)
            assert lo <= exact + 1e-12
            assert exact <= lo + beta * mu + 1e-12

    def test_grad_zero_at_symmetric_origin(self):
        g = smoothed_grad(self.p, np.zeros(2), 0.7)
        assert np.all(g == 0.0)

    def test_grad_matches_finite_differences(self):
        rng = Xoshiro256pp(31)
        for _ in range(100):
            x = rng.normals(2)
            mu = 0.05 + 2.0 * rng.uniform()
            g = smoothed_grad(self.p, x, mu)
            fd = _fd_grad(lambda xs: np.array([smoothed_value(self.p, y, mu) for y in xs]), x)
            rel = np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd))
            assert rel <= 1e-6

    def test_mu_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            smoothed_value(self.p, np.zeros(2), 0.0)
        with pytest.raises(InvalidParameterError):
            smoothed_grad(self.p, np.zeros(2), -0.1)
        with pytest.raises(InvalidParameterError):
            lipschitz_at(self.p, 0.0)

    def test_counter_is_caller_owned(self):
        c1 = GradEvalCounter()
        c2 = GradEvalCounter()
        smoothed_grad(self.p, np.zeros(2), 1.0, c1)
        smoothed_grad(self.p, np.zeros(2), 1.0, c1)
        smoothed_grad(self.p, np.zeros(2), 1.0, c2)
        assert (c1.count, c2.count) == (2, 1)
        smoothed_grad(self.p, np.zeros(2), 1.0)  # uncharged
        assert (c1.count, c2.count) == (2, 1)

    def test_grad_norm_small_near_optimum(self, strongly_convex_problem):
        # run the method toward x* and compare gradient norms at the ends;
        # at the planted optimum itself the smoothed gradient vanishes for
        # every mu (all residuals are exactly zero there)
        from smoothflow import ContinuousDriven, ReciprocalMu, run_sgm

        p = strongly_convex_problem
        design = ContinuousDriven(ReciprocalMu(1.0, 1.0, t0=1.0), t0=1.0)
        traj = run_sgm(p, design, np.zeros(10), 3000)
        assert traj.final.grad_norm < 1e-6 * traj.records[0].grad_norm
        for mu in (1.0, 1e-3, 1e-9):
            assert np.linalg.norm(smoothed_grad(p, p.optimum, mu)) == 0.0

    def test_midpoint_convexity_along_segments(self):
        rng = Xoshiro256pp(41)
        for _ in range(200):
            x = rng.normals(2) * 3.0
            y = rng.normals(2) * 3.0
            mu = 0.05 + rng.uniform()
            mid = smoothed_value(self.p, 0.5 * (x + y), mu)
            avg = 0.5 * (smoothed_value(self.p, x, mu) + smoothed_value(self.p, y, mu))
            assert mid <= avg + 1e-9


class TestLipschitzAt:
    def test_examples(self):
        p_free = CompositeProblem(
            f=quadratic_least_squares(np.zeros((2, 2)), np.zeros(2)),
            h=sqrt_l2_approx(2),
        )
        assert lipschitz_at(p_free, 0.5) == pytest.approx(2.0)
        p = CompositeProblem(
            f=quadratic_least_squares(np.eye(2), np.zeros(2)), h=sqrt_l2_approx(2)
        )
        assert lipschitz_at(p, 1.0) == pytest.approx(3.0)

    def test_strictly_above_base_and_monotone(self, strongly_convex_problem):
        p = strongly_convex_problem
        prev = math.inf
        for mu in (0.01, 0.1, 1.0, 10.0, 1e4):
            val = lipschitz_at(p, mu)
            assert val > p.f.lipschitz
            assert val < prev
            prev = val
        assert lipschitz_at(p, 1e12) == pytest.approx(p.f.lipschitz, rel=1e-9)

    def test_strong_convexity_discount_stays_positive(self, strongly_convex_problem):
        p = strongly_convex_problem
        for mu in (1e-6, 1e-2, 1.0, 1e3):
            assert 1.0 - p.f.sigma / lipschitz_at(p, mu) > 0.0
