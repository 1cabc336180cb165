"""One stacked residual per point for the built-in affine parts.

When f is ``quadratic_least_squares(A, b)`` and h is ``l1_residual(C,
d, .)`` (or None), a point forms ``r = [A; C] x - [b; d]`` once and the
gradient is the one product ``[A; C]^T [2 r_A; coeff(r_C, mu)]``. These
tests pin the Huber coefficient's clip form, bound the gradient's
distance from the parts' own gradients, check that the generated
problems keep an exact optimum, and check that moving a point re-forms
its residual in place without touching what it returned before.
"""

import numpy as np
import pytest

from smoothflow import (
    CompositeProblem,
    SmoothPart,
    l1_residual,
    quadratic_least_squares,
    sqrt_l2_approx,
)
from smoothflow.approx import _L1_KERNELS, L1_SMOOTHERS
from smoothflow.errors import DimensionMismatchError
from smoothflow.harness import ExperimentConfig, generate_problem

# Unit roundoff of a double.
U = np.finfo(float).eps / 2


def gamma(n):
    """Higham's gamma_n: a dot product of n terms errs by at most gamma_n |a| . |b|."""
    return n * U / (1.0 - n * U)


@pytest.mark.parametrize("mu", [5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, np.inf])
def test_huber_clip_coefficient_is_the_where_sign_coefficient(mu):
    below, above = np.nextafter(mu, 0.0), np.nextafter(mu, np.inf)
    specials = [0.0, -0.0, mu, -mu, below, -below, above, -above, np.inf, -np.inf, np.nan, -np.nan]
    r = np.concatenate((specials, np.random.default_rng(0).standard_normal(64) * 4.0))
    with np.errstate(all="ignore"):
        clip = _L1_KERNELS["huber_l2"].coeff(r, mu)
        where = np.where(np.abs(r) <= mu, r / mu, np.sign(r))
    assert np.array_equal(clip.view(np.uint64), where.view(np.uint64))


def problem(n_a, smoothing, seed=3, n_x=6, n_c=13):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n_a, n_x)), rng.standard_normal(n_a)
    c, d = rng.standard_normal((n_c, n_x)), rng.standard_normal(n_c)
    h = None if smoothing is None else l1_residual(c, d, smoothing)
    return CompositeProblem(f=quadratic_least_squares(a, b), h=h), a, b, c, d


# n_A = 8 .. 11 covers every remainder of BLAS's 4-row blocks.
@pytest.mark.parametrize("n_a", [8, 9, 10, 11])
@pytest.mark.parametrize("smoothing", [None] + sorted(L1_SMOOTHERS))
@pytest.mark.parametrize("mu", [1e-3, 0.7, 20.0])
def test_stacked_gradient_matches_the_parts_gradients(n_a, smoothing, mu):
    p, a, b, c, d = problem(n_a, smoothing)
    x = np.random.default_rng(n_a).standard_normal(a.shape[1]) * 2.0
    g = p.point(x).grad(mu)
    if smoothing is None:
        # One product either way, and doubling before or after it is exact.
        assert np.array_equal(g, p.f.grad(x))
        return
    parts = p.f.grad(x) + p.h.grad_x(x, mu)
    # Both sides round each residual row, a dot product of n_x + 1
    # terms, within gamma_(n_x+1) of its magnitude |M| |x| + |e|; the
    # coefficients 2 r_A and coeff(r_C) move by at most 2 and 1/mu times
    # that. Each gradient entry is then a dot product of n_A + n_C
    # terms on one side and two summed products on the other.
    m, e = np.vstack((a, c)), np.concatenate((b, d))
    r = m @ x - e
    w = np.concatenate((2.0 * r[:n_a], _L1_KERNELS[smoothing].coeff(r[n_a:], mu)))
    dr = 2.0 * gamma(x.size + 1) * (np.abs(m) @ np.abs(x) + np.abs(e))
    dw = np.concatenate((2.0 * dr[:n_a], dr[n_a:] / mu))
    bound = 2.0 * gamma(len(e) + 1) * (np.abs(m).T @ (np.abs(w) + dw)) + np.abs(m).T @ dw
    assert np.all(np.abs(g - parts) <= bound)


@pytest.mark.parametrize("smoothing", sorted(L1_SMOOTHERS))
@pytest.mark.parametrize(
    "shape", [(6, 9, 8), (8, 5, 6), (10, 20, 50), (5, 6, 7), (5, 7, 9), (4, 11, 3)]
)
def test_generated_optimum_is_exact(shape, smoothing):
    # [b; d] is the stacked product the points form, so the residual at
    # x* is zero bit for bit whatever n_A's remainder mod 4.
    n_x, n_a, n_c = shape
    p = generate_problem(ExperimentConfig(n_x, n_a, n_c, rng_seed=777, smoothing=smoothing))
    assert p.true_value(p.optimum) == 0.0
    assert p.point(p.optimum).smoothed(0.25) == 0.0
    assert not np.any(p.point(p.optimum).grad(0.25))


@pytest.mark.parametrize("smoothing", [None] + sorted(L1_SMOOTHERS))
def test_moved_point_leaves_earlier_gradients_alone(smoothing):
    # A run moves one point from iterate to iterate; the gradient a
    # caller holds from before a move is its own array.
    p, a, *_ = problem(9, smoothing)
    rng = np.random.default_rng(11)
    x0, x1 = rng.standard_normal((2, a.shape[1]))
    point = p.point(x0)
    g0 = point.grad(0.4)
    kept = g0.copy()
    moved = point.move(x1)
    assert moved is point and moved.x is x1
    g1 = moved.grad(0.4)
    assert np.array_equal(g0, kept)
    fresh = p.point(x1)
    assert np.array_equal(g1, fresh.grad(0.4))
    assert moved.smoothed(0.4) == fresh.smoothed(0.4)
    assert moved.exact() == fresh.exact()


def test_moving_a_point_without_a_stack_builds_a_fresh_one():
    # A _ValueChunk keeps such points, so a move must not change one. A
    # user SmoothPart has no residual to stack.
    f = SmoothPart(
        value=lambda x: float(x @ x), grad=lambda x: 2.0 * x, sigma=2.0, lipschitz=2.0, input_dim=3
    )
    p = CompositeProblem(f=f, h=sqrt_l2_approx(3))
    point = p.point(np.zeros(3))
    moved = point.move(np.ones(3))
    assert moved is not point
    assert point.exact() == p.true_value(np.zeros(3))
    assert moved.exact() == p.true_value(np.ones(3))


def test_move_checks_the_shape():
    p, *_ = problem(8, "huber_l2")
    point = p.point(np.zeros(6))
    with pytest.raises(DimensionMismatchError):
        point.move(np.zeros(5))
