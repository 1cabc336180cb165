"""The l1-of-residuals term ``l1_residual(C, d, smoothing)``.

Its certified parameters are ``alpha = ||C||_F^2`` (rounded up) and
``beta = n_C beta_1``, the composition rule applied to one 1-d
surrogate per row. The per-term ``affine_sum`` of one-row
``AffineTerm``s is the reference it must agree with.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothflow import AffineTerm, affine_sum, l1_residual
from smoothflow import approx as approx_module
from smoothflow.approx import L1_SMOOTHERS
from smoothflow.errors import DimensionMismatchError, InvalidParameterError
from smoothflow.harness import ExperimentConfig, generate_problem

DIGITS = 50
SMOOTHINGS = sorted(L1_SMOOTHERS)
PROPERTY = settings(max_examples=60, deadline=None)

shapes = st.tuples(st.integers(1, 30), st.integers(1, 8))
seeds = st.integers(0, 2**32 - 1)
mus = st.floats(1e-4, 10.0)
x_scales = st.sampled_from([1e-3, 1.0, 30.0])


def draw(seed, n_c, n_x, scale):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_c, n_x)),
        rng.standard_normal(n_c),
        scale * rng.standard_normal(n_x),
    )


def per_row_reference(c, d, smoothing):
    return affine_sum(
        AffineTerm(1.0, c[i : i + 1, :], -d[i : i + 1], L1_SMOOTHERS[smoothing](1))
        for i in range(c.shape[0])
    )


@PROPERTY
@given(shapes, seeds, st.sampled_from(SMOOTHINGS))
def test_alpha_and_beta(shape, seed, smoothing):
    c, d, _ = draw(seed, *shape, 1.0)
    params = l1_residual(c, d, smoothing).params
    with mpmath.workdps(DIGITS):
        exact = mpmath.fsum(mpmath.mpf(v) ** 2 for v in c.ravel())
        assert exact <= params.alpha <= exact * (1 + mpmath.mpf("1e-10"))
    assert params.beta == shape[0] * L1_SMOOTHERS[smoothing](1).params.beta


@PROPERTY
@given(shapes, seeds, st.sampled_from(SMOOTHINGS), mus, x_scales)
def test_sandwich_and_grad_mu_range(shape, seed, smoothing, mu, scale):
    c, d, x = draw(seed, *shape, scale)
    h = l1_residual(c, d, smoothing)
    beta = h.params.beta
    value, exact, grad_mu = h.value(x, mu), h.underlying_value(x), h.grad_mu(x, mu)
    # Slack for the rounding of the sums only.
    slack = 1e-12 * (exact + beta * mu)
    assert value <= exact + slack
    assert exact <= value + beta * mu + slack
    assert -beta - 1e-12 * beta <= grad_mu <= 0.0


@PROPERTY
@given(shapes, seeds, st.sampled_from(SMOOTHINGS), mus, x_scales)
def test_agrees_with_per_row_affine_sum(shape, seed, smoothing, mu, scale):
    c, d, x = draw(seed, *shape, scale)
    h = l1_residual(c, d, smoothing)
    ref = per_row_reference(c, d, smoothing)
    # Relative to the rows' magnitudes: the two sum in other orders, and
    # the sqrt surrogate's hypot(r, mu) - mu cancels.
    r = c @ x - d
    size = float(np.sum(np.abs(r) + mu))
    assert abs(h.value(x, mu) - ref.value(x, mu)) <= 1e-12 * size
    assert abs(h.underlying_value(x) - ref.underlying_value(x)) <= 1e-12 * size
    assert abs(h.grad_mu(x, mu) - ref.grad_mu(x, mu)) <= 1e-12 * shape[0]
    # Each row's gradient coefficient is at most 1 in magnitude.
    grad_size = np.abs(c).T @ np.ones(shape[0])
    assert (np.abs(h.grad_x(x, mu) - ref.grad_x(x, mu)) <= 1e-12 * grad_size).all()


class TestInputChecks:
    @pytest.mark.parametrize(
        "c", [np.ones(3), np.ones((0, 3)), np.ones((2, 0)), np.ones((2, 3, 1))]
    )
    def test_c_not_2d_or_empty(self, c):
        with pytest.raises(DimensionMismatchError):
            l1_residual(c, np.zeros(c.shape[0] if c.ndim else 1), "sqrt_l2")

    @pytest.mark.parametrize("d", [np.zeros(3), np.zeros((2, 1)), np.zeros(())])
    def test_d_not_of_shape_n_c(self, d):
        with pytest.raises(DimensionMismatchError):
            l1_residual(np.ones((2, 3)), d, "sqrt_l2")

    @pytest.mark.parametrize("smoothing", ["log_sum_exp", "SQRT_L2", None])
    def test_unknown_smoothing(self, smoothing):
        with pytest.raises(InvalidParameterError):
            l1_residual(np.ones((2, 3)), np.zeros(2), smoothing)

    def test_overflowing_frobenius_norm(self):
        with pytest.raises(InvalidParameterError):
            l1_residual(np.array([[1e200, 1.0]]), np.zeros(1), "huber_l2")


@pytest.mark.parametrize("smoothing", SMOOTHINGS)
def test_generate_problem_makes_no_spectral_norm_call(smoothing, monkeypatch):
    def refuse(a):
        raise AssertionError("spectral_norm called")

    monkeypatch.setattr(approx_module, "spectral_norm", refuse)
    p = generate_problem(ExperimentConfig(4, 6, 9, 5, smoothing=smoothing))
    assert p.beta == 9 * L1_SMOOTHERS[smoothing](1).params.beta


@pytest.mark.parametrize("smoothing", SMOOTHINGS)
def test_traced_methods_defined_on_the_term_class(smoothing):
    # The benchmark tracer wraps these through the class __dict__;
    # inherited methods are not in it.
    h_type = type(generate_problem(ExperimentConfig(2, 3, 4, 0, smoothing=smoothing)).h)
    for name in ("value", "grad_x", "underlying_value"):
        assert name in h_type.__dict__

