import math

import numpy as np
import pytest

from smoothflow import (
    AffineTerm,
    SmoothApprox,
    SmoothingParams,
    Xoshiro256pp,
    affine_sum,
    certify,
    huber_l2_approx,
    l1_residual,
    log_sum_exp_max_approx,
    sqrt_l2_approx,
)
from smoothflow.approx import _norm
from smoothflow.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
)

ALL_FACTORIES = [sqrt_l2_approx, huber_l2_approx, log_sum_exp_max_approx]


def fd_grad_mu(approx, x, mu, h=1e-6):
    return (approx.value(x, mu + h) - approx.value(x, mu - h)) / (2 * h)


class TestSqrtL2:
    def test_value_at_origin(self):
        a = sqrt_l2_approx(3)
        assert a.value(np.zeros(3), 1.0) == 0.0

    def test_value_three_four(self):
        a = sqrt_l2_approx(2)
        assert a.value(np.array([3.0, 4.0]), 12.0) == pytest.approx(1.0, abs=1e-15)

    def test_grad_mu_at_origin_hits_upper_boundary(self):
        a = sqrt_l2_approx(4)
        assert a.grad_mu(np.zeros(4), 1.0) == 0.0

    def test_params(self):
        p = sqrt_l2_approx(7).params
        assert (p.alpha, p.beta) == (1.0, 1.0)

    def test_grad_x_formula(self):
        a = sqrt_l2_approx(2)
        x = np.array([3.0, 4.0])
        expected = x / math.sqrt(25.0 + 4.0)
        assert np.allclose(a.grad_x(x, 2.0), expected, rtol=1e-15)


class TestHuberL2:
    def test_inner_branch_value(self):
        a = huber_l2_approx(2)
        assert a.value(np.array([1.0, 0.0]), 2.0) == 0.25

    def test_outer_branch_value(self):
        a = huber_l2_approx(2)
        assert a.value(np.array([3.0, 4.0]), 2.0) == 4.0

    def test_outer_branch_grad_mu_is_minus_half(self):
        a = huber_l2_approx(2)
        assert a.grad_mu(np.array([3.0, 4.0]), 2.0) == -0.5

    def test_params(self):
        p = huber_l2_approx(3).params
        assert (p.alpha, p.beta) == (1.0, 0.5)

    def test_branches_agree_at_boundary(self):
        a = huber_l2_approx(1)
        mu = 1.5
        x = np.array([mu])
        # value and grad_x are continuous across the split; grad_mu is not,
        # and the quadratic branch is the one evaluated at equality.
        assert a.value(x, mu) == pytest.approx(mu / 2.0, rel=1e-15)
        assert a.grad_x(x, mu)[0] == pytest.approx(1.0, rel=1e-15)
        assert a.grad_mu(x, mu) == pytest.approx(-0.5, rel=1e-15)

    def test_branch_distance(self):
        a = huber_l2_approx(2)
        assert a.branch_distance(np.array([3.0, 4.0]), 4.5) == pytest.approx(0.5)


class TestLogSumExpMax:
    def test_value_equal_entries_is_exact(self):
        a = log_sum_exp_max_approx(2)
        assert a.value(np.zeros(2), 1.0) == 0.0
        for c in (-3.0, 0.5, 7.0):
            for mu in (0.01, 1.0, 10.0):
                assert log_sum_exp_max_approx(5).value(np.full(5, c), mu) == c

    def test_overflow_safe_for_tiny_mu(self):
        a = log_sum_exp_max_approx(3)
        x = np.array([1000.0, -1000.0, 500.0])
        assert a.value(x, 1e-6) == pytest.approx(1000.0)
        assert np.all(np.isfinite(a.grad_x(x, 1e-6)))
        assert math.isfinite(a.grad_mu(x, 1e-6))

    def test_grad_mu_range_and_fd(self):
        a = log_sum_exp_max_approx(2)
        g = a.grad_mu(np.array([5.0, -5.0]), 0.1)
        assert -math.log(2.0) <= g <= 0.0
        fd = fd_grad_mu(a, np.array([5.0, -5.0]), 0.1, h=1e-7)
        assert g == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_params_carry_log_n(self):
        assert log_sum_exp_max_approx(8).params.beta == pytest.approx(math.log(8.0))

    def test_grad_x_is_softmax(self):
        a = log_sum_exp_max_approx(3)
        g = a.grad_x(np.array([1.0, 2.0, 3.0]), 0.5)
        assert g.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(g > 0.0)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_invalid_dimension_rejected(factory):
    with pytest.raises(InvalidDimensionError):
        factory(0)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_nonpositive_mu_rejected(factory):
    a = factory(2)
    with pytest.raises(InvalidParameterError):
        a.value(np.zeros(2), 0.0)
    with pytest.raises(InvalidParameterError):
        a.grad_x(np.zeros(2), -1.0)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_sandwich_and_mu_derivative_range_on_samples(factory):
    a = factory(4)
    beta = a.params.beta
    rng = Xoshiro256pp(314159)
    for _ in range(200):
        x = rng.normals(4) * 2.0
        mu = math.exp(math.log(1e-3) + rng.uniform() * math.log(1e4))
        val = a.value(x, mu)
        exact = a.underlying_value(x)
        assert val <= exact + 1e-9
        assert exact <= val + beta * mu + 1e-9
        g = a.grad_mu(x, mu)
        assert -beta - 1e-9 <= g <= 1e-9


class TestSmoothingParams:
    def test_positive_required(self):
        with pytest.raises(InvalidParameterError):
            SmoothingParams(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            SmoothingParams(1.0, -2.0)
        with pytest.raises(InvalidParameterError):
            SmoothingParams(math.inf, 1.0)


class TestAffineSum:
    def test_identity_composition_matches_inner(self):
        inner = sqrt_l2_approx(3)
        combo = affine_sum(
            [AffineTerm(1.0, np.eye(3), np.zeros(3), inner)]
        )
        assert (combo.params.alpha, combo.params.beta) == pytest.approx((1.0, 1.0))
        rng = Xoshiro256pp(1)
        for _ in range(20):
            x = rng.normals(3)
            mu = 0.1 + rng.uniform()
            assert combo.value(x, mu) == pytest.approx(inner.value(x, mu), rel=1e-14)
            assert np.allclose(combo.grad_x(x, mu), inner.grad_x(x, mu), rtol=1e-14)
            assert combo.grad_mu(x, mu) == pytest.approx(inner.grad_mu(x, mu), rel=1e-14)

    def test_l1_composition_parameters(self):
        rng = Xoshiro256pp(99)
        c = rng.normals((12, 6))
        d = rng.normals(12)
        terms = [
            AffineTerm(1.0, c[i : i + 1, :], -d[i : i + 1], sqrt_l2_approx(1))
            for i in range(12)
        ]
        combo = affine_sum(terms)
        assert combo.params.alpha == pytest.approx(float(np.sum(c * c)), rel=1e-8)
        assert combo.params.beta == pytest.approx(12.0, rel=1e-12)

    def test_l1_composition_value_is_sum_of_scalars(self):
        rng = Xoshiro256pp(3)
        c = rng.normals((5, 4))
        d = rng.normals(5)
        terms = [
            AffineTerm(1.0, c[i : i + 1, :], -d[i : i + 1], sqrt_l2_approx(1))
            for i in range(5)
        ]
        combo = affine_sum(terms)
        x = rng.normals(4)
        mu = 0.3
        r = c @ x - d
        expected = float(np.sum(np.sqrt(r * r + mu * mu) - mu))
        assert combo.value(x, mu) == pytest.approx(expected, rel=1e-14)
        assert combo.underlying_value(x) == pytest.approx(float(np.sum(np.abs(r))), rel=1e-14)

    def test_generic_path_matches_fast_path(self):
        # Mixed inner types go through affine_sum's per-term path; the
        # l1 shape is one l1_residual term. Both must agree with the
        # hand-rolled formula.
        rng = Xoshiro256pp(17)
        c = rng.normals((4, 3))
        fast = l1_residual(c, np.zeros(4), "sqrt_l2")
        x = rng.normals(3)
        mu = 0.7
        r = c @ x
        expected = float(np.sum(np.sqrt(r * r + mu * mu) - mu))
        assert fast.value(x, mu) == pytest.approx(expected, rel=1e-14)
        per_term = affine_sum(
            AffineTerm(1.0, c[i : i + 1, :], np.zeros(1), sqrt_l2_approx(1)) for i in range(4)
        )
        assert fast.value(x, mu) == pytest.approx(per_term.value(x, mu), rel=1e-14)
        assert np.allclose(fast.grad_x(x, mu), per_term.grad_x(x, mu), rtol=1e-14)
        # heterogeneous: sqrt + huber
        terms_mixed = [
            AffineTerm(1.0, c[0:1, :], np.zeros(1), sqrt_l2_approx(1)),
            AffineTerm(1.0, c[1:2, :], np.zeros(1), huber_l2_approx(1)),
        ]
        mixed = affine_sum(terms_mixed)
        v0 = sqrt_l2_approx(1).value(c[0:1, :] @ x, mu)
        v1 = huber_l2_approx(1).value(c[1:2, :] @ x, mu)
        assert mixed.value(x, mu) == pytest.approx(v0 + v1, rel=1e-14)

    def test_huber_stack_matches_per_term(self):
        rng = Xoshiro256pp(23)
        c = rng.normals((6, 3))
        combo = l1_residual(c, np.zeros(6), "huber_l2")
        x = rng.normals(3)
        for mu in (0.05, 0.5, 5.0):
            r = c @ x
            a = np.abs(r)
            expected = float(
                np.sum(np.where(a <= mu, a * a / (2 * mu), a - mu / 2))
            )
            assert combo.value(x, mu) == pytest.approx(expected, rel=1e-14)
            per_term = sum(
                huber_l2_approx(1).grad_mu(r[i : i + 1], mu) for i in range(6)
            )
            assert combo.grad_mu(x, mu) == pytest.approx(per_term, rel=1e-13)

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            affine_sum(
                [
                    AffineTerm(0.0, np.eye(2), np.zeros(2), sqrt_l2_approx(2)),
                    AffineTerm(0.0, np.eye(2), np.zeros(2), sqrt_l2_approx(2)),
                ]
            )

    def test_dimension_mismatch_names_offending_term(self):
        terms = [
            AffineTerm(1.0, np.eye(2), np.zeros(2), sqrt_l2_approx(2)),
            AffineTerm(1.0, np.ones((3, 2)), np.zeros(3), sqrt_l2_approx(2)),
        ]
        with pytest.raises(DimensionMismatchError, match="term 1"):
            affine_sum(terms)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            affine_sum([])

    def test_spectral_norm_scaling_enters_alpha(self):
        combo = affine_sum(
            [AffineTerm(1.0, 3.0 * np.eye(2), np.zeros(2), sqrt_l2_approx(2))]
        )
        assert combo.params.alpha == pytest.approx(9.0, rel=1e-10)


class _CorruptedBeta(SmoothApprox):
    """Claims half the true approximation-gap scale; must fail the sandwich."""

    def __init__(self, inner):
        self.inner = inner
        self.input_dim = inner.input_dim
        self.params = SmoothingParams(inner.params.alpha, inner.params.beta * 0.5)

    def underlying_value(self, x):
        return self.inner.underlying_value(x)

    def value(self, x, mu):
        return self.inner.value(x, mu)

    def grad_x(self, x, mu):
        return self.inner.grad_x(x, mu)

    def grad_mu(self, x, mu):
        return self.inner.grad_mu(x, mu)


class TestCertify:
    def test_sqrt_certifies(self):
        report = certify(sqrt_l2_approx(5), 1000, rng_seed=101)
        assert report.passed

    def test_huber_certifies_with_boundary_exclusion(self):
        report = certify(huber_l2_approx(3), 1000, rng_seed=202)
        assert report.passed
        assert report.checked_fd_samples + report.excluded_fd_samples == 1000

    def test_log_sum_exp_certifies(self):
        report = certify(log_sum_exp_max_approx(4), 1000, rng_seed=303)
        assert report.passed

    def test_corrupted_beta_fails_sandwich(self):
        report = certify(_CorruptedBeta(sqrt_l2_approx(5)), 1000, rng_seed=404)
        assert not report.passed
        assert report.sandwich_high > 1e-3

    def test_sample_count_validated(self):
        with pytest.raises(InvalidParameterError):
            certify(sqrt_l2_approx(2), 0, rng_seed=1)

    def test_deterministic_given_seed(self):
        a = certify(sqrt_l2_approx(3), 50, rng_seed=7)
        b = certify(sqrt_l2_approx(3), 50, rng_seed=7)
        assert a == b


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_smoothness_constant_on_sampled_pairs(factory):
    a = factory(5)
    alpha = a.params.alpha
    rng = Xoshiro256pp(271828)
    for _ in range(1000):
        x = rng.normals(5)
        y = rng.normals(5)
        mu = math.exp(math.log(1e-2) + rng.uniform() * math.log(1e3))
        lhs = float(np.linalg.norm(a.grad_x(x, mu) - a.grad_x(y, mu)))
        rhs = (alpha / mu) * (1.0 + 1e-9) * float(np.linalg.norm(x - y))
        assert lhs <= rhs + 1e-12


# certify's reports before its norms became dot products and its finite
# differences shared one perturbation buffer; every field must repeat.
# The l1_residual row was re-pinned when its sums became np.add.reduce:
# its two finite-difference errors, quotients of cancelling value
# differences, moved (with the old dot products they reproduce).
# The huber_l2 and l1_residual rows' grad_x errors were re-pinned when
# the finite differences became one kernel call on a stack of points
# and the l2 norm one np.add.reduce: with the per-point loop and the
# norm as sqrt(r @ r), the old values 8.891876112291001e-10 and
# 1.7830840939705575e-09 reproduce.
CERTIFY_PINNED = {
    "sqrt_l2": (sqrt_l2_approx(9), 1, 2.3975312009279706e-09, 7.678690225456105e-09, 0.0),
    "huber_l2": (huber_l2_approx(7), 2, 7.555431201414911e-10, 8.137383240913336e-09, 0.0),
    "log_sum_exp": (log_sum_exp_max_approx(5), 3, 3.2828263976476117e-09, 2.502464209026177e-09, 0.0),
    "l1_residual": (None, 4, 1.7159472606662301e-09, 6.868300821049921e-08, 2.1316282072803006e-14),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_PINNED))
def test_certify_reports_repeat_bit_for_bit(name):
    approx, seed, grad_x_rel, grad_mu_rel, sandwich_high = CERTIFY_PINNED[name]
    if approx is None:
        rng = Xoshiro256pp(20240601)
        c = rng.normals((12, 9))
        approx = l1_residual(c, rng.normals(12), "huber_l2")
    report = certify(approx, 200, rng_seed=seed)
    expected = dict(
        sample_count=200,
        rng_seed=seed,
        checked_fd_samples=200,
        excluded_fd_samples=0,
        sandwich_low=0.0,
        sandwich_high=sandwich_high,
        grad_mu_low=0.0,
        grad_mu_high=0.0,
        grad_x_fd_rel=grad_x_rel,
        grad_mu_fd_rel=grad_mu_rel,
        smoothness_excess=0.0,
        convexity_gap=0.0,
    )
    assert {key: getattr(report, key) for key in expected} == expected


@pytest.mark.parametrize("scale", [1e-200, 1e-3, 1.0, 1e150, 1e200])
def test_norm_is_numpys_bit_for_bit(scale):
    rng = Xoshiro256pp(99)
    for dim in (1, 2, 7, 50):
        x = rng.normals(dim) * scale
        with np.errstate(over="ignore"):
            expected = float(np.linalg.norm(x))
            assert _norm(x) == expected
