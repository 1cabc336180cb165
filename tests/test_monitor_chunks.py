"""Recorded values are evaluated in byte-bounded chunks.

Each record's ``f_tilde``, ``f_true`` and Lyapunov value must equal the
single-point functions at the record's own state bit for bit, across
chunk boundaries, whether the problem's parts have a row kernel (least
squares with a built-in h) or are read point by point (a user part);
and the chunk's memory must not grow with the number of records. Each
built-in kernel reads a row of a chunk as it reads that row alone.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothflow import (
    CompositeProblem,
    PowerDecay,
    ReciprocalMu,
    SmoothApprox,
    SmoothingParams,
    SmoothPart,
    advance,
    bound_discrete,
    huber_l2_approx,
    initial_state,
    integrate_rk45,
    l1_residual,
    log_sum_exp_max_approx,
    lyapunov_continuous,
    lyapunov_discrete,
    quadratic_least_squares,
    run_sgm,
    smoothed_value,
    sqrt_l2_approx,
)
from smoothflow import approx, solver
from smoothflow.errors import InvalidParameterError
from smoothflow.harness import ExperimentConfig, generate_problem

# A chunk holds 2**14 floats of x and residual rows; with 500 rows that
# is about 32 records, so the short runs below cross several boundaries.
ROWS = 500


def l1_problem(smoothing, n_a=8):
    cfg = ExperimentConfig(n_x=4, n_a=n_a, n_c=ROWS, rng_seed=5, smoothing=smoothing)
    return generate_problem(cfg)


def vector_problem(h):
    """||A x||^2 + h(x) for a vector surrogate h, which stacks with C = I.

    x* = 0 is a stand-in optimum with a zero h residual.
    """
    n = h.input_dim
    a = np.random.default_rng(1).standard_normal((ROWS, n))
    return CompositeProblem(f=quadratic_least_squares(a, np.zeros(ROWS)), h=h, optimum=np.zeros(n))


class UserSqrtL2(SmoothApprox):
    """sqrt(||x||^2 + mu^2) - mu written as a user subclass, so it is read point by point."""

    params = SmoothingParams(1.0, 1.0)

    def __init__(self, dim):
        self.input_dim = dim

    def underlying_value(self, x):
        return math.sqrt(x @ x)

    def value(self, x, mu):
        return math.hypot(math.sqrt(x @ x), mu) - mu

    def grad_x(self, x, mu):
        return x / math.hypot(math.sqrt(x @ x), mu)

    def grad_mu(self, x, mu):
        return mu / math.hypot(math.sqrt(x @ x), mu) - 1.0


def custom_approx_problem():
    """||x||^2 plus a user SmoothApprox subclass: no part has a residual.

    A chunk of points holds 2**14 floats of x, so with n_x = ROWS it
    holds 32 records, and the short runs below cross its boundaries.
    """
    f = SmoothPart(
        value=lambda x: float(x @ x), grad=lambda x: 2.0 * x, sigma=2.0, lipschitz=2.0, input_dim=ROWS
    )
    return CompositeProblem(f=f, h=UserSqrtL2(ROWS), optimum=np.zeros(ROWS))


def custom_part_problem():
    """A user SmoothPart ||x - x*||^2 with the l1 term; f has no residual.

    Its points are read one by one, so a chunk holds 2**14 floats of x
    alone: 32 records at n_x = ROWS.
    """
    rng = np.random.default_rng(2)
    x_star = rng.standard_normal(ROWS)
    c = rng.standard_normal((ROWS, ROWS))
    f = SmoothPart(
        value=lambda x: float((x - x_star) @ (x - x_star)),
        grad=lambda x: 2.0 * (x - x_star),
        sigma=2.0,
        lipschitz=2.0,
        input_dim=ROWS,
    )
    return CompositeProblem(f=f, h=l1_residual(c, c @ x_star, "sqrt_l2"), optimum=x_star)


def smooth_only_problem():
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(4)
    a = rng.standard_normal((ROWS, 4))
    return CompositeProblem(f=quadratic_least_squares(a, a @ x_star), h=None, optimum=x_star)


PROBLEMS = {
    "l1-sqrt_l2": lambda: l1_problem("sqrt_l2"),
    "l1-huber_l2": lambda: l1_problem("huber_l2"),
    # n_A = 7 leaves a partial block of BLAS's 4 rows in the stacked product.
    "l1-huber_l2-7-rows": lambda: l1_problem("huber_l2", n_a=7),
    "sqrt_l2_approx": lambda: vector_problem(sqrt_l2_approx(1)),
    "huber_l2_approx": lambda: vector_problem(huber_l2_approx(3)),
    "log_sum_exp_max_approx": lambda: vector_problem(log_sum_exp_max_approx(4)),
    "custom-part": custom_part_problem,
    "custom-approx": custom_approx_problem,
    "h-none": smooth_only_problem,
}


# Least squares with a built-in h or no h: one stacked residual row a
# point, of n_A + n_C floats (n_C = n_x for a vector surrogate).
STACKED_ROWS = {
    "l1-sqrt_l2": 8 + ROWS,
    "l1-huber_l2": 8 + ROWS,
    "l1-huber_l2-7-rows": 7 + ROWS,
    "sqrt_l2_approx": ROWS + 1,
    "huber_l2_approx": ROWS + 3,
    "log_sum_exp_max_approx": ROWS + 4,
    "h-none": ROWS,
}


def chunk_of(problem, columns=None):
    """The monitor chunk of a run of ``problem``, started at x = 1."""
    return solver._Chunk(problem, problem.point(np.ones(problem.input_dim)), columns)


def chunk_records(problem):
    """Records in one chunk of ``problem``'s runs."""
    return chunk_of(problem)._cap


def assert_python_floats(*values):
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_records_equal_single_point_values(name):
    problem = PROBLEMS[name]()
    x0 = np.full(problem.input_dim, 3.0)
    sched = PowerDecay(mu0=1.0, gamma=0.5)
    traj = run_sgm(problem, sched, x0, max_steps=100)
    assert len(traj.records) > 2 * chunk_records(problem)
    state = initial_state(sched, problem.f.lipschitz, problem.alpha)
    for r in traj.records:
        assert r.k == state.k
        assert_python_floats(r.f_tilde, r.f_true, r.lyapunov)
        assert r.f_tilde == smoothed_value(problem, r.x, r.mu)
        assert r.f_true == problem.true_value(r.x)
        assert r.lyapunov == lyapunov_discrete(problem, state, r.x)
        state = advance(sched, state, problem.f.sigma, problem.f.lipschitz, problem.alpha)


@pytest.mark.parametrize("name", ["l1-sqrt_l2", "custom-part"])
def test_records_filling_whole_chunks(name):
    # The last record fills the second chunk, which flushes at once, so the
    # run's closing flush finds nothing pending: every record is made once.
    problem = PROBLEMS[name]()
    cap = chunk_records(problem)
    x0 = np.full(problem.input_dim, 3.0)
    traj = run_sgm(problem, PowerDecay(mu0=1.0, gamma=0.5), x0, max_steps=2 * cap - 1)
    assert [r.k for r in traj.records] == list(range(2 * cap))
    for r in traj.records[cap - 1 : cap + 1] + traj.records[-1:]:
        assert r.f_tilde == smoothed_value(problem, r.x, r.mu)
        assert r.f_true == problem.true_value(r.x)


# The user part's stage points move in place as the stacked ones do; its
# chunk forms a point at each queued x when it flushes.
RK45_PROBLEMS = {
    "sqrt_l2": PROBLEMS["l1-sqrt_l2"],
    "huber_l2": PROBLEMS["l1-huber_l2"],
    "custom-part": custom_part_problem,
}


@pytest.mark.parametrize("name", sorted(RK45_PROBLEMS))
def test_rk45_samples_equal_single_point_values(name):
    problem = RK45_PROBLEMS[name]()
    design = ReciprocalMu(1.0, 1.0, t0=1.0)
    x0 = np.full(problem.input_dim, 3.0)
    samples = integrate_rk45(problem, design, x0, 1.0, 1.5, 1e-6, 1e-8)
    assert len(samples) > 2 * chunk_records(problem)
    sigma, beta = problem.f.sigma, problem.beta
    for s in samples:
        assert_python_floats(s.f_true, s.lyapunov_v)
        assert s.f_true == problem.true_value(s.x)
        assert s.lyapunov_v == lyapunov_continuous(problem, s.x, s.t, 1.0, sigma, beta, design)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_stacked_problems_chunk_one_residual_row(name):
    # So the records tests above cover the stacked path on these
    # problems and the point-by-point path on the others.
    problem = PROBLEMS[name]()
    rows = chunk_of(problem)._rows
    assert (0 if rows is None else rows.shape[1]) == STACKED_ROWS.get(name, 0)
    assert chunk_records(problem) == solver._CHUNK_FLOATS // (
        problem.input_dim + STACKED_ROWS.get(name, 0)
    )


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("copies,mu", [(2, [1.0, 0.0]), (1, [0.5, math.nan])])
def test_chunk_values_reject_a_non_positive_mu(name, copies, mu):
    # As smoothed(mu) does for one point: a chunk read, or one point (x*'s,
    # here off its planted zero residual) read at every mu.
    problem = PROBLEMS[name]()
    ones = np.ones(problem.input_dim)
    problem = CompositeProblem(f=problem.f, h=problem.h, optimum=ones)
    mu = np.array(mu)

    def columns(pending):
        return mu, np.ones(mu.size), np.ones(mu.size), None

    chunk = chunk_of(problem, columns)
    for _ in range(copies):
        chunk.add(problem.point(ones))
    with pytest.raises(InvalidParameterError, match="mu must be > 0"):
        chunk.flush()


def offset_problem(smoothing):
    """Least squares with l1_residual, random b and d: x*'s h residual is not 0.

    The optimum is a stand-in, not the minimiser; the certificates are
    formulas in it all the same, and F(x*, mu) then depends on mu.
    """
    rng = np.random.default_rng(4)
    a, c = rng.standard_normal((8, 4)), rng.standard_normal((ROWS, 4))
    f = quadratic_least_squares(a, rng.standard_normal(8))
    h = l1_residual(c, rng.standard_normal(ROWS), smoothing)
    return CompositeProblem(f=f, h=h, optimum=rng.standard_normal(4))


def mu_free_value(problem):
    """F(x*, mu) as the one float a run's chunk reads for every mu, or None."""
    return chunk_of(problem)._opt_value


@pytest.mark.parametrize("smoothing", ["sqrt_l2", "huber_l2"])
def test_generated_optimum_is_read_once(smoothing):
    # Every generated problem plants x* with a zero residual, so F(x*, mu)
    # is F(x*) at every mu and no chunk re-reads it.
    problem = l1_problem(smoothing)
    assert mu_free_value(problem) == problem.true_value(problem.optimum)


@pytest.mark.parametrize("smoothing", ["sqrt_l2", "huber_l2"])
def test_records_read_f_opt_per_chunk_at_an_offset_optimum(smoothing):
    problem = offset_problem(smoothing)
    assert mu_free_value(problem) is None
    sched = PowerDecay(mu0=1.0, gamma=0.5)
    x0 = np.full(problem.input_dim, 3.0)
    diff = x0 - problem.optimum
    traj = run_sgm(problem, sched, x0, max_steps=100)
    assert len(traj.records) > 2 * chunk_records(problem)
    state = initial_state(sched, problem.f.lipschitz, problem.alpha)
    assert math.isnan(traj.records[0].bound)
    for r in traj.records:
        assert r.k == state.k
        assert r.lyapunov == lyapunov_discrete(problem, state, r.x)
        if r.k >= 1:
            assert r.bound == bound_discrete(state, float(diff @ diff), problem.beta)
        state = advance(sched, state, problem.f.sigma, problem.f.lipschitz, problem.alpha)


@pytest.mark.parametrize("smoothing", ["sqrt_l2", "huber_l2"])
def test_samples_read_f_opt_per_chunk_at_an_offset_optimum(smoothing):
    problem = offset_problem(smoothing)
    design = ReciprocalMu(1.0, 1.0, t0=1.0)
    samples = integrate_rk45(problem, design, np.full(4, 3.0), 1.0, 1.5, 1e-6, 1e-8)
    assert len(samples) > 2 * chunk_records(problem)
    sigma, beta = problem.f.sigma, problem.beta
    for s in samples:
        assert s.lyapunov_v == lyapunov_continuous(problem, s.x, s.t, 1.0, sigma, beta, design)


def monitor_overhead(problem, steps):
    """Peak minus retained traced memory of one fully recorded run."""
    sched = PowerDecay(mu0=1.0, gamma=0.5, t0=1.0)
    tracemalloc.start()
    try:
        traj = run_sgm(problem, sched, np.zeros(problem.input_dim), max_steps=steps)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.records) == steps + 1
    return peak - current


def test_monitor_memory_is_flat_in_the_step_count():
    # Keeping every record's residuals until the end would grow this by
    # about 8 MB from 4k to 16k steps; one chunk at a time keeps it flat.
    problem = generate_problem(ExperimentConfig(n_x=10, n_a=20, n_c=50, rng_seed=0))
    short, long = monitor_overhead(problem, 4000), monitor_overhead(problem, 16000)
    assert abs(long - short) <= 512 * 1024
    assert long < 4 * 2**20


KERNELS = {
    "l1-sqrt": approx._L1_SQRT,
    "l1-huber": approx._L1_HUBER,
    "l2-sqrt": approx._L2_SQRT,
    "l2-huber": approx._L2_HUBER,
    "log-sum-exp-max": approx._LSE_MAX,
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(KERNELS)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, 5),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_kernel_rows_of_a_chunk_read_as_the_row_alone(name, seed, n, k, scale):
    # The chunk reads are solver._Chunk's: rows at a mu column, and one
    # row (x*'s) at every mu of a column.
    kernel = KERNELS[name]
    rng = np.random.default_rng(seed)
    rows = scale * rng.standard_normal((k, n))
    mu = np.exp(rng.uniform(np.log(1e-4), np.log(1e2), k))
    smoothed = kernel.smoothed(rows, mu[:, None])
    exact = kernel.exact(rows)
    coeff = kernel.coeff(rows, mu[:, None])
    grad_mu = kernel.grad_mu(rows, mu[:, None])
    at_every_mu = kernel.smoothed(rows[:1], mu[:, None])
    for i in range(k):
        assert same_bits(smoothed[i], kernel.smoothed(rows[i], mu[i]))
        assert same_bits(exact[i], kernel.exact(rows[i]))
        assert same_bits(coeff[i], kernel.coeff(rows[i], mu[i]))
        assert same_bits(grad_mu[i], kernel.grad_mu(rows[i], mu[i]))
        assert same_bits(at_every_mu[i], kernel.smoothed(rows[0], mu[i]))


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("n", [1, 2, 7, 9, 500])
def test_kernel_reads_zero_on_a_zero_row(name, n):
    # solver._Chunk reads F(x*, mu) = F(x*) once per run on this.
    kernel = KERNELS[name]
    mus = np.array([5e-324, 1e-300, 1e-3, 0.7, 1.0, 3.0, 1e300])
    for mu in mus:
        assert kernel.smoothed(np.zeros(n), mu) == 0.0
    assert not kernel.smoothed(np.zeros((1, n)), mus[:, None]).any()
    assert kernel.exact(np.zeros(n)) == 0.0
