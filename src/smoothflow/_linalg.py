"""Small numerical kernels: certified curvature constants and quadrature.

The stepsize ``1/(L + alpha/mu)`` and the gap bounds hold only if ``L``
and ``alpha`` are upper bounds and ``sigma`` a lower bound, so the
eigenvalue kernel returns an enclosure: LAPACK's ``eigh`` widened by
Kahan's residual bound (Parlett, *The Symmetric Eigenvalue Problem*,
Sec. 11.5) and the ``gamma_n`` rounding bounds (Higham, *Accuracy and
Stability of Numerical Algorithms*, Sec. 3), each rounded outward. Its
last bits depend on the numpy/LAPACK build, as a matrix product's do.
"""

import math

import numpy as np

_U = 2.0**-53  # unit roundoff of IEEE double
# Covers every product that underflows on the way (each errs by at most
# 2**-1075, and there are far fewer than 2**70 of them).
_TINY = 2.0**-1000


def _gamma(n):
    """An upper bound on gamma_n = n u / (1 - n u) while n u <= 0.01."""
    return 1.01 * n * _U


def upper(x, roundings):
    """An upper bound on a non-negative formula whose float value is ``x``.

    The formula combines non-negative terms with sums, products,
    quotients and square roots, at most ``roundings`` on any one term.
    """
    return math.nextafter(x * (1.0 + _gamma(roundings)) + _TINY, math.inf)


def lower(x, roundings):
    """A lower bound on a positive formula whose float value is ``x``.

    The mirror of ``upper`` for a formula that does not underflow.
    """
    return math.nextafter(x * (1.0 - _gamma(roundings)), 0.0)


def _frobenius(x):
    """An upper bound on the Frobenius norm of ``x``.

    When the squares overflow, or their sum is below 2**-900, where
    squares that underflow are no longer far below one rounding of it,
    the entries are scaled by a power of two taken from the largest one
    and squared again. The scaling is exact but for entries it takes
    below 2**-1022, whose squares are far below one rounding of the
    scaled sum (at least 1/4), and for a subnormal norm, which the last
    step up covers.
    """
    x = x.ravel()
    square = float(x @ x)
    if math.isinf(square) or square < 2.0**-900:
        exp = math.frexp(float(abs(x).max()))[1]
        x = np.ldexp(x, -exp)  # largest entry now in [1/2, 1)
        norm = upper(math.sqrt(float(x @ x)), x.size + 2)
        return norm / 2.0**-exp if exp > 0 else math.nextafter(norm * 2.0**exp, math.inf)
    return upper(math.sqrt(square), x.size + 2)


def gram_error(a):
    """An upper bound on ``||fl(A^T A) - A^T A||_2`` and on that of ``A A^T``.

    An entry errs by at most gamma_k (k the inner dimension) times that
    of ``|A|^T |A|``, whose Frobenius norm is at most ``||A||_F^2``.
    """
    return upper(_gamma(max(a.shape)) * _frobenius(a) ** 2, 4)


def _enclose(g):
    """``(lo, hi)`` enclosing the spectrum of ``g`` read as ``eigh`` reads it."""
    n = g.shape[0]
    g = np.where(np.tri(n, dtype=bool), g, g.T)  # the lower triangle, mirrored
    lam, v = np.linalg.eigh(g)
    # Kahan: the eigenvalues of g pair off with lam, each within ||R||_2 /
    # sigma_min(v), R = g v - v lam. The computed R errs by gamma_n |g| |v|
    # (g @ v), u |v| |lam| (v * lam) and u |R| (the subtraction).
    v_norm = _frobenius(v)
    residual = upper(
        _frobenius(g @ v - v * lam) * (1.0 + _gamma(1))
        + _gamma(n) * _frobenius(g) * v_norm
        + _U * v_norm * max(-lam[0], lam[-1]),
        8,
    )
    # sigma_min(v)^2 >= 1 - ||v^T v - I||_2; the computed v^T v is off by
    # gamma_n |v|^T |v|, whose Frobenius norm is at most ||v||_F^2.
    drift = upper(
        _frobenius(v.T @ v - np.eye(n)) * (1.0 + _gamma(1)) + _gamma(n) * v_norm * v_norm,
        6,
    )
    if not (drift < 1.0 and math.isfinite(residual)):
        raise ValueError("no finite enclosure: the matrix is non-finite or overflows")
    sigma_min = math.nextafter(math.sqrt(math.nextafter(1.0 - drift, 0.0)), 0.0)
    delta = math.nextafter(residual / sigma_min, math.inf)
    lo = math.nextafter(float(lam[0]) - delta, -math.inf)
    return lo, math.nextafter(float(lam[-1]) + delta, math.inf)


def symmetric_eigenvalues(m):
    """``(lo, hi)`` with ``lo <= lambda_min(m)`` and ``lambda_max(m) <= hi``.

    ``m`` is symmetric; only its lower triangle is read.
    """
    g = np.asarray(m, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
        raise ValueError("expected a non-empty square matrix")
    with np.errstate(over="ignore"):  # squares past 1e154 are rescaled
        return _enclose(g)


def spectral_norm(a):
    """An upper bound on the largest singular value of ``a``.

    From the smaller Gram, ``A^T A`` or ``A A^T`` (1 x 1 for one row).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a non-empty 2-D array")
    _, hi = _enclose(a @ a.T if a.shape[0] < a.shape[1] else a.T @ a)
    square = math.nextafter(max(hi, 0.0) + gram_error(a), math.inf)
    return math.nextafter(math.sqrt(square), math.inf)


def kahan_cumsum(values):
    """Compensated running sums of a 1-D array.

    Sequential accumulation error stays near one ulp of the running
    total, which the timeline sandwich checks (1e-12 absolute slack over
    1e4 terms) rely on.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    total = 0.0
    carry = 0.0
    for i, v in enumerate(values):
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


# Below |x| = 1/2 the chord weights are summed as Taylor series: 17 terms
# leave a tail under 2**-60 of the sum, and the closed forms would lose
# up to all their bits to cancellation there.
_SERIES_BELOW = 0.5
_G_SERIES = [(-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(17)][::-1]
_Q_SERIES = [(-1) ** k / math.factorial(k + 2) for k in range(17)][::-1]
# Horner over 17 terms whose absolute sum is at most twice the value
# (70 u), or the closed forms: two libm calls of 1 ulp each, amplified at
# most 8.4 times by the cancellation at |x| = 1/2.
_CHORD_ROUNDINGS = 80


def chord_weights(x):
    """Upper bounds on g(x) = (1 - (1 + x) e^-x)/x^2 and q(x) = (e^-x - 1 + x)/x^2.

    Both are 1/2 at x = 0 and positive for every real x. With
    x = sigma h, the integral of exp(-sigma (b - tau)) over [b - h, b]
    against the chord through (b - h, mu_a) and (b, mu_b) is
    h (mu_a g(x) + mu_b q(x)). g reads inf from x = -703.2, where
    x e^-x overflows, and q from -709.8; ``LinearMu.weighted_integral``
    forms its products below -703 without them. The bounds are for ``x``
    as given: a relative error e in ``x`` moves g and q by at most
    (|x| + 2) e of themselves.
    """
    if abs(x) < _SERIES_BELOW:
        g = q = 0.0
        for cg, cq in zip(_G_SERIES, _Q_SERIES):
            g = g * x + cg
            q = q * x + cq
    else:
        try:
            em = math.expm1(-x)
            decay = math.exp(-x)
        except OverflowError:
            return math.inf, math.inf
        x2 = x * x
        g = (-em - x * decay) / x2
        q = (x + em) / x2
    return upper(g, _CHORD_ROUNDINGS), upper(q, _CHORD_ROUNDINGS)


def adaptive_simpson(func, a, b, rel_tol=1e-8, max_depth=40):
    """Adaptive Simpson quadrature of ``func`` over ``[a, b]``.

    Tolerance is relative to the running estimate with a tiny absolute
    floor so that integrals near zero terminate.
    """
    fa = func(a)
    fb = func(b)
    fm = func(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(abs(whole), 1e-300)

    def recurse(lo, hi, flo, fmid, fhi, approx, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = func(lm)
        frm = func(rm)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        if depth >= max_depth or abs(left + right - approx) <= 15.0 * rel_tol * scale:
            return left + right + (left + right - approx) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, 0)
