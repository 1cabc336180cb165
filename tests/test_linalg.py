"""The certified curvature kernel against exact references.

``symmetric_eigenvalues`` must enclose the extreme eigenvalues and
``spectral_norm`` must bound the largest singular value from above, for
the exact matrices their float inputs stand for. The references are
``mpmath.eigsy`` at 50 digits on the exact entries, so a bound that is
off by a rounding error fails here.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smoothflow import PowerDecay, quadratic_least_squares, run_sgm
from smoothflow._linalg import spectral_norm, symmetric_eigenvalues
from smoothflow.harness import ExperimentConfig, generate_problem
from smoothflow.rng import Xoshiro256pp

PROPERTY = settings(max_examples=80, deadline=None)
DIGITS = 50

entries = st.floats(-8.0, 8.0, allow_subnormal=False)
scales = st.sampled_from([2.0**-100, 1.0, 2.0**100])


@st.composite
def matrices(draw, max_dim=8):
    """Dense or exactly rank-deficient m x n matrices, m < n included."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        a = draw(hnp.arrays(np.float64, (m, n), elements=entries))
    else:
        # Small integers keep the product exact, so the rank is r < min(m, n).
        r = draw(st.integers(0, min(m, n) - 1))
        ints = st.integers(-4, 4).map(float)
        a = draw(hnp.arrays(np.float64, (m, r), elements=ints)) @ draw(
            hnp.arrays(np.float64, (r, n), elements=ints)
        )
    return a * draw(scales)


def exact_spectrum(sym):
    """(lambda_min, lambda_max, ||sym||_F) of an mpmath symmetric matrix."""
    eigs = mpmath.eigsy(sym, eigvals_only=True)
    values = [eigs[i] for i in range(sym.rows)]
    return min(values), max(values), mpmath.mnorm(sym, "f")


def exact_gram(a):
    with mpmath.workdps(DIGITS):
        m = mpmath.matrix(a.tolist())
        return m.T * m


def slack(norm):
    """The references' own error: far below one rounding of a double."""
    return norm * mpmath.mpf(10) ** (10 - DIGITS)


def _underflowing():
    # The residual's squares underflow to 0 here (entries near 1e-220);
    # read as 0, they let the enclosure miss lambda_max by an ulp.
    a = np.full((5, 5), 5.419226022613863e-232)
    a[2, 3] = -1.4416392227170868e-204
    return a


@PROPERTY
@given(matrices(), st.booleans())
@example(_underflowing(), False)
def test_eigenvalues_enclosed(a, gram):
    if gram:
        m = a.T @ a
    else:
        k = min(a.shape)
        m = a[:k, :k] + a[:k, :k].T  # symmetric and, in general, indefinite
    lo, hi = symmetric_eigenvalues(m)
    with mpmath.workdps(DIGITS):
        lam_min, lam_max, norm = exact_spectrum(mpmath.matrix(m.tolist()))
        assert lo <= lam_min + slack(norm)
        assert lam_max - slack(norm) <= hi


@PROPERTY
@given(matrices())
def test_curvature_constants_certified(a):
    # Against the Gram of the exact entries: the kernel's Gram is rounded.
    norm = spectral_norm(a)
    f = quadratic_least_squares(a, np.zeros(a.shape[0]))
    with mpmath.workdps(DIGITS):
        lam_min, lam_max, fro = exact_spectrum(exact_gram(a))
        assert lam_max - slack(fro) <= mpmath.mpf(norm) ** 2
        assert 2 * (lam_max - slack(fro)) <= f.lipschitz
        assert f.sigma <= 2 * (lam_min + slack(fro))


def test_reads_the_lower_triangle():
    # eigh reads the lower triangle: [[2, 1], [1, 2]], eigenvalues 1 and 3.
    lo, hi = symmetric_eigenvalues(np.array([[2.0, 100.0], [1.0, 2.0]]))
    assert 1.0 - 1e-12 <= lo <= 1.0
    assert 3.0 <= hi <= 3.0 + 1e-12


@pytest.mark.parametrize(
    "m",
    [
        [[1e300, 1.0], [1.0, 0.0]],
        [[1e300, 1e300], [1e300, -1e300]],
        [[3e200, -1e-300, 5.0], [-1e-300, 2e155, 1e154], [5.0, 1e154, -7e160]],
    ],
    ids=["huge-and-one", "all-huge", "mixed"],
)
def test_entries_past_1e154_enclosed(m):
    # Their squares overflow; the Frobenius norms scale them first.
    lo, hi = symmetric_eigenvalues(np.array(m))
    with mpmath.workdps(DIGITS):
        lam_min, lam_max, norm = exact_spectrum(mpmath.matrix(m))
        assert lo <= lam_min + slack(norm)
        assert lam_max - slack(norm) <= hi
        assert hi - lo <= (lam_max - lam_min) * (1 + mpmath.mpf("1e-12"))


@pytest.mark.parametrize(
    "a",
    [
        # PSD, eigenvalues 1 and 0.5; the top eigenvector (1, -1) is
        # orthogonal to all-ones. Power iteration from all-ones gave 0.5.
        np.array([[0.75, -0.25], [-0.25, 0.75]]),
        # sigma_1 = 1, sigma_2 = 0.9999: 200 power iterations gave 0.99993.
        np.diag([1.0, 0.9999]),
    ],
    ids=["orthogonal-start", "near-degenerate"],
)
def test_spectral_norm_reproduced_underestimates(a):
    norm = spectral_norm(a)
    assert 1.0 <= norm <= 1.0 + 1e-12


@PROPERTY
@given(st.integers(1, 200).flatmap(lambda n: hnp.arrays(np.float64, (1, n), elements=entries)))
def test_one_row_norm_is_tight(c):
    with mpmath.workdps(DIGITS):
        exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(v) ** 2 for v in c[0]))
        # Below ~2**-500 the absolute underflow slack dominates.
        assume(exact > 1e-100)
        norm = spectral_norm(c)
        assert exact <= norm <= exact * (1 + mpmath.mpf("1e-13"))


def test_widening_at_the_medium_size():
    # (n_x, n_A) = (100, 200): the least-squares Gram of the medium problem.
    a = Xoshiro256pp(1).normals((200, 100))
    f = quadratic_least_squares(a, np.zeros(200))
    eigs = np.linalg.eigvalsh(a.T @ a)
    assert 0.0 <= f.lipschitz / 2 - eigs[-1] <= 1e-9 * eigs[-1]
    assert 0.0 <= eigs[0] - f.sigma / 2 <= 1e-9 * eigs[0]
    top = np.linalg.svd(a, compute_uv=False)[0]
    assert 0.0 <= spectral_norm(a) - top <= 1e-9 * top


GOLDEN_CONFIGS = [
    ((6, 9, 8, 777), "sqrt_l2"),
    ((6, 9, 8, 777), "huber_l2"),
    ((2, 50, 1, 3), "sqrt_l2"),
]


@pytest.mark.parametrize("shape,smoothing", GOLDEN_CONFIGS)
def test_golden_configs_certified(shape, smoothing):
    n_x, n_a, n_c, seed = shape
    p = generate_problem(ExperimentConfig(n_x, n_a, n_c, seed, smoothing=smoothing))
    rng = Xoshiro256pp(seed)
    a = rng.normals((n_a, n_x))
    c = rng.normals((n_c, n_x))
    with mpmath.workdps(DIGITS):
        lam_min, lam_max, _ = exact_spectrum(exact_gram(a))
        # Both smoothers have alpha_i = 1 and every weight is 1.
        alpha = mpmath.fsum(mpmath.mpf(v) ** 2 for v in c.ravel())
        assert 2 * lam_max <= p.f.lipschitz
        assert p.f.sigma <= 2 * lam_min
        assert alpha <= p.alpha


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sqrt_l2", "huber_l2"]),
    st.floats(0.1, 10.0),
    st.floats(0.05, 1.0),
)
def test_gap_below_bound_along_short_runs(n_x, n_a, n_c, seed, smoothing, mu0, gamma):
    p = generate_problem(ExperimentConfig(n_x, n_a, n_c, seed, smoothing=smoothing))
    traj = run_sgm(p, PowerDecay(mu0=mu0, gamma=gamma), np.zeros(n_x), 50)
    gap = traj.column("f_true")[1:] - p.optimal_value
    bound = traj.column("bound")[1:]
    # Slack for evaluating f_true and the bound in floating point only.
    assert (gap <= bound + 1e-12 * (1.0 + np.abs(bound))).all()
