"""Certified smooth approximations of pointy convex functions.

Each surrogate h(x, mu) is differentiable for mu > 0, squeezes the exact
function as h_tilde <= h <= h_tilde + beta*mu, and gets smoother as mu
grows at the price of a larger gap. `certify` samples random points and
reports the worst violation of every certified property.
"""

import numpy as np

import smoothflow as sf

# --- the l2-norm surrogates -------------------------------------------------
x = np.array([3.0, 4.0])  # ||x|| = 5

sqrt5 = sf.sqrt_l2_approx(2)
huber5 = sf.huber_l2_approx(2)
print("surrogates of ||x||_2 at x = (3, 4):")
for mu in (2.0, 0.5, 0.01):
    print(
        f"  mu = {mu:5g}:  sqrt form = {sqrt5.value(x, mu):.6f}   "
        f"huber form = {huber5.value(x, mu):.6f}   exact = 5"
    )

# the mu-derivative is confined to [-beta, 0]; for the Huber form the outer
# branch sits exactly at -1/2
print("huber d/dmu on the linear branch:", huber5.grad_mu(x, 2.0))

# --- smooth maximum ----------------------------------------------------------
lse = sf.log_sum_exp_max_approx(4)
v = np.array([1.0, -2.0, 0.5, 0.99])
print("\nsmooth max of", v)
for mu in (1.0, 0.1, 0.001):
    print(f"  mu = {mu:5g}: {lse.value(v, mu):.6f}   (exact max = 1)")

# --- l1 norms of affine residuals --------------------------------------------
# ||C x - d||_1 as one term: each |c_i^T x - d_i| is approximated by the
# one-dimensional sqrt surrogate; the composition rule yields parameters
# (sum ||c_i||^2, n_C).
rng = sf.Xoshiro256pp(7)
c = rng.normals((6, 4))
d = rng.normals(6)
l1 = sf.l1_residual(c, d, "sqrt_l2")
print("\nl1-of-residuals composition:")
print("  alpha =", l1.params.alpha, " (sum ||c_i||^2 =", float(np.sum(c * c)), ")")
print("  beta  =", l1.params.beta, " (n_C = 6)")

# --- numerical certification ---------------------------------------------------
print("\ncertification on 1000 random samples each:")
for name, approx in [
    ("sqrt_l2(5)", sf.sqrt_l2_approx(5)),
    ("huber_l2(5)", sf.huber_l2_approx(5)),
    ("log_sum_exp(5)", sf.log_sum_exp_max_approx(5)),
    ("l1_residual(4)", l1),
]:
    rep = sf.certify(approx, 1000, rng_seed=42)
    print(
        f"  {name:15s} passed = {rep.passed}   worst fd error = "
        f"{max(rep.grad_x_fd_rel, rep.grad_mu_fd_rel):.2e}"
    )
