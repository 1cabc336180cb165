"""Property tests for the partial-evaluation path ``point(x)``.

``CompositeProblem.point(x)`` gives ``smoothed(mu)`` and ``exact()``.
A stacked problem's point forms one residual ``M x - e`` for the
gradient and every value; any other problem's point calls h's
``value`` and ``underlying_value`` at ``x``. The solvers' monitors read
every recorded value through these points or, on a stacked problem,
through the same kernels on a chunk of rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothflow import (
    AffineTerm,
    CompositeProblem,
    affine_sum,
    huber_l2_approx,
    l1_residual,
    log_sum_exp_max_approx,
    quadratic_least_squares,
    smoothed_value,
    sqrt_l2_approx,
)
from smoothflow.approx import L1_SMOOTHERS
from smoothflow.errors import InvalidParameterError

PROPERTY = settings(max_examples=60, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)
mus = st.floats(min_value=1e-4, max_value=10.0)
x_scales = st.sampled_from([1e-3, 1.0, 30.0])


def stacked_sum(rng, n_x, n_terms, smoothing):
    """The l1-of-residuals shape: one l1_residual term, rows stacked in C."""
    c = rng.standard_normal((n_terms, n_x))
    d = rng.standard_normal(n_terms)
    return l1_residual(c, d, smoothing), c, d


def generic_sum(rng, n_x, n_terms):
    """Multi-row terms with mixed smoothers take the per-term path."""
    terms = []
    for i in range(n_terms):
        rows = int(rng.integers(1, 4))
        inner = [sqrt_l2_approx, huber_l2_approx, log_sum_exp_max_approx][i % 3](rows)
        terms.append(
            AffineTerm(
                float(rng.uniform(0.1, 2.0)),
                rng.standard_normal((rows, n_x)),
                rng.standard_normal(rows),
                inner,
            )
        )
    return affine_sum(terms)


@PROPERTY
@given(
    seeds,
    dims,
    st.integers(min_value=1, max_value=8),
    st.sampled_from(sorted(L1_SMOOTHERS)),
    mus,
    x_scales,
)
def test_stacked_sum_matches_its_terms(seed, n_x, n_terms, smoothing, mu, scale):
    rng = np.random.default_rng(seed)
    h, c, d = stacked_sum(rng, n_x, n_terms, smoothing)
    x = scale * rng.standard_normal(n_x)
    value, exact = h.value(x, mu), h.underlying_value(x)
    # Against the 1-d smoothers row by row. The term sums in another
    # order and uses numpy's hypot, and sqrt(r^2 + mu^2) - mu cancels,
    # so the tolerance is relative to the rows' magnitude.
    inner = L1_SMOOTHERS[smoothing](1)
    residuals = [float(c[i] @ x - d[i]) for i in range(n_terms)]
    scale_sum = sum(abs(r) + mu for r in residuals)
    ref_value = sum(inner.value(np.array([r]), mu) for r in residuals)
    ref_exact = sum(abs(r) for r in residuals)
    assert abs(value - ref_value) <= 1e-12 * scale_sum
    assert exact == pytest.approx(ref_exact, rel=1e-12, abs=1e-300)


@PROPERTY
@given(seeds, dims, st.sampled_from(["none", "stacked", "generic"]), mus, mus, x_scales)
def test_problem_at_keeps_summation_order(seed, n_x, kind, mu, other_mu, scale):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n_x + 2, n_x)), rng.standard_normal(n_x + 2)
    f = quadratic_least_squares(a, b)
    h, c, d = {
        "none": lambda: (None, None, None),
        "stacked": lambda: stacked_sum(rng, n_x, 5, "huber_l2"),
        "generic": lambda: (generic_sum(rng, n_x, 3), None, None),
    }[kind]()
    p = CompositeProblem(f=f, h=h)
    x = scale * rng.standard_normal(n_x)
    point = p.point(x)
    smoothed, exact = point.smoothed, point.exact()
    fx = f.value(x)
    if h is None:
        expected = [float(fx), float(fx)]
    elif kind == "generic":
        expected = [float(fx + h.value(x, mu)), float(fx + h.underlying_value(x))]
    else:
        # Exact against the segments of the one stacked residual: f's
        # rows, then h's, each summed as the parts sum their own rows.
        m, e = np.vstack((a, c)), np.concatenate((b, d))
        r = m @ x - e
        r_a, r_c = r[: n_x + 2], r[n_x + 2 :]
        f_seg = np.add.reduce(r_a * r_a)
        a_c = np.abs(r_c)
        per = np.where(a_c <= mu, a_c * a_c / (2.0 * mu), a_c - 0.5 * mu)
        expected = [float(f_seg + np.add.reduce(per)), float(f_seg + np.add.reduce(a_c))]
        # Against the parts' own values, whose residuals come from two
        # products: every row of r differs by at most 2 gamma_(n_x+1)
        # times its magnitude |M| |x| + |e|, f by twice |r| times that,
        # h by that (each surrogate is 1-Lipschitz in its row), and the
        # sums by a few eps of their size; 1e-13 is a margin of about
        # 30 over 2 gamma_7.
        mag = np.abs(m) @ np.abs(x) + np.abs(e)
        tol = 1e-13 * (mag @ (2.0 * np.abs(r) + 1.0) + fx + h.underlying_value(x))
        assert abs(smoothed(mu) - (fx + h.value(x, mu))) <= tol
        assert abs(exact - (fx + h.underlying_value(x))) <= tol
    assert [smoothed(mu), exact] == expected
    # The point read at a second mu agrees with a fresh evaluation there.
    assert smoothed(other_mu) == smoothed_value(p, x, other_mu)
    assert exact == p.true_value(x)
    with pytest.raises(InvalidParameterError):
        smoothed(0.0)
