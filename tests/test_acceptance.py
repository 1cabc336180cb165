"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Problem data is seed-fixed; tolerances are stated inline. Criterion 5's
gamma = 0.75 clause is asserted exactly as specified and is expected to
fail: with sigma = 0 the bound's numerator sum converges for
gamma > 1/2, so the series decays like k**-(1-gamma) (measured
slope ~ -0.28), not k**-gamma. See the analysis-module tests for the
characterization of the true exponent.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import smoothflow as sf
from smoothflow.cli import cli_main
from smoothflow.harness import ExperimentConfig, generate_problem
from smoothflow.problem import GradEvalCounter
from smoothflow.solver import STATUS_SCHEDULE

SEED = 20260808
GAMMAS = (0.25, 0.5, 0.75, 1.0)

_cache = {}


def report(number, ok, text):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    return ok


def strong_problem():
    if "strong" not in _cache:
        _cache["strong"] = generate_problem(
            ExperimentConfig(n_x=10, n_a=20, n_c=50, rng_seed=SEED)
        )
    return _cache["strong"]


def weak_problem():
    if "weak" not in _cache:
        _cache["weak"] = generate_problem(
            ExperimentConfig(n_x=10, n_a=2, n_c=5, rng_seed=SEED)
        )
    return _cache["weak"]


def strong_runs():
    """10^4-step SGM runs on the strongly convex problem, one per gamma."""
    if "runs" not in _cache:
        runs = {}
        start = time.perf_counter()
        for gamma in GAMMAS:
            runs[gamma] = sf.run_sgm(
                strong_problem(),
                sf.PowerDecay(mu0=1.0, gamma=gamma, t0=1.0),
                np.zeros(10),
                max_steps=10_000,
            )
        _cache["runs"] = runs
        _cache["runs_elapsed"] = time.perf_counter() - start
    return _cache["runs"]


def test_criterion_01_certification():
    start = time.perf_counter()
    rng = sf.Xoshiro256pp(SEED)
    c = rng.normals((50, 50))
    d = rng.normals(50)
    l1 = sf.l1_residual(c, d, "sqrt_l2")
    reports = {
        "sqrt_l2(50)": sf.certify(sf.sqrt_l2_approx(50), 1000, rng_seed=1),
        "huber_l2(25)": sf.certify(sf.huber_l2_approx(25), 1000, rng_seed=2),
        "log_sum_exp(10)": sf.certify(sf.log_sum_exp_max_approx(10), 1000, rng_seed=3),
        "l1_residual(50)": sf.certify(l1, 1000, rng_seed=4),
    }
    elapsed = time.perf_counter() - start
    failed = [name for name, rep in reports.items() if not rep.passed]
    worst_fd = max(
        max(r.grad_x_fd_rel, r.grad_mu_fd_rel) for r in reports.values()
    )
    ok = not failed and elapsed < 5.0
    assert report(
        1,
        ok,
        f"certification of 4 approximations x 1000 samples "
        f"(worst fd rel err {worst_fd:.2e} <= 1e-6, {elapsed:.2f}s < 5s)",
    )


def test_criterion_02_composition_parameters():
    p = strong_problem()
    rng = sf.Xoshiro256pp(SEED)
    rng.normals((20, 10))
    c = rng.normals((50, 10))
    expected_alpha = float(np.sum(c * c))
    rel = abs(p.alpha - expected_alpha) / expected_alpha
    ok = rel <= 1e-8 and p.beta == 50.0
    assert report(
        2,
        ok,
        f"l1-of-affine parameters (sum||c_i||^2, n_C): alpha rel err {rel:.2e} <= 1e-8, "
        f"beta = {p.beta:g} = n_C",
    )


def test_criterion_03_discrete_bound():
    runs = strong_runs()
    start = time.perf_counter()
    ok_bound = True
    for gamma, traj in runs.items():
        f_true = traj.column("f_true")[1:]
        bound = traj.column("bound")[1:]
        if not np.all(f_true - 0.0 <= bound + 1e-9 * (1.0 + np.abs(bound))):
            ok_bound = False
    # sigma = 0 problem: running bound never exceeds the closed form
    w = weak_problem()
    assert w.f.sigma == 0.0
    d_sq = float(w.optimum @ w.optimum)
    ok_closed = True
    for gamma in GAMMAS:
        sched = sf.PowerDecay(mu0=1.0, gamma=gamma, t0=1.0)
        state = sf.initial_state(sched, w.f.lipschitz, w.alpha)
        for k in range(1, 10_001):
            state = sf.advance(sched, state, 0.0, w.f.lipschitz, w.alpha)
            running = sf.bound_discrete(state, d_sq, w.beta)
            closed = sf.closed_form_bound_nonstrongly(
                w.f.lipschitz, w.alpha, w.beta, 1.0, gamma, d_sq, k
            )
            if running > closed * (1.0 + 1e-12):
                ok_closed = False
                break
    elapsed = _cache["runs_elapsed"] + (time.perf_counter() - start)
    ok = ok_bound and ok_closed and elapsed < 30.0
    assert report(
        3,
        ok,
        f"F(x_k) <= discrete bound at every k for gamma in {GAMMAS}; "
        f"running bound <= closed form on the sigma=0 problem ({elapsed:.1f}s < 30s)",
    )


def test_criterion_04_lyapunov_increments():
    p = strong_problem()
    sigma = p.f.sigma
    worst = -math.inf
    ok = True
    for gamma, traj in strong_runs().items():
        s = traj.column("s")
        mu = traj.column("mu")
        ly = traj.column("lyapunov")
        eta = np.ones(len(s))
        for i in range(1, len(s)):
            eta[i] = eta[i - 1] / (1.0 - sigma * s[i - 1])
        lhs = ly[1:] - ly[:-1]
        rhs = p.beta * eta[1:] * mu[:-1] * s[:-1]
        slack = 1e-9 * (1.0 + np.maximum(np.abs(ly[1:]), np.abs(ly[:-1])))
        excess = float(np.max(lhs - rhs - slack))
        worst = max(worst, excess)
        if excess > 0.0:
            ok = False
    assert report(
        4,
        ok,
        f"V(k+1) - V(k) <= beta*eta(k+1)*mu_k*s_k on every step of every run "
        f"(worst excess over slack {worst:.2e})",
    )


def test_criterion_05_rate_correspondence():
    # Normalized schedule bound series: L=0, alpha=beta=mu0=1, d0^2=2.
    def series(gamma):
        ks, bounds = sf.discrete_bound_series(
            sf.PowerDecay(mu0=1.0, gamma=gamma), 0.0, 0.0, 1.0, 1.0, 2.0, 10_000
        )
        return list(zip(ks, bounds))

    window = (100, 10_000)
    clauses = []
    for gamma in (0.25, 0.75):
        fit = sf.fit_rate(series(gamma), "power", window)
        ok = abs(fit.exponent - (-gamma)) <= 0.1
        clauses.append((f"gamma={gamma}: slope {fit.exponent:+.3f} in -{gamma}+-0.1", ok))
    fit_half = sf.fit_rate(series(0.5), "power_log", window)
    clauses.append(
        (f"gamma=0.5: power_log slope {fit_half.exponent:+.3f} in -0.5+-0.1",
         abs(fit_half.exponent + 0.5) <= 0.1)
    )
    s1 = series(1.0)
    inv = sf.fit_rate(s1, "inv_log", window)
    pow_ = sf.fit_rate(s1, "power", window)
    clauses.append(
        (f"gamma=1: inv_log residual {inv.residual:.2e} < power residual {pow_.residual:.2e}",
         inv.residual < pow_.residual)
    )
    ok = all(c[1] for c in clauses)
    detail = "; ".join(f"{'ok' if c_ok else 'FAIL'} [{text}]" for text, c_ok in clauses)
    report(5, ok, f"rate correspondence on the analytical bound series: {detail}")
    assert ok, (
        "gamma=0.75 clause fails as anticipated: with sigma=0 the bound's "
        "numerator sum converges for gamma>1/2 and the series is "
        "Theta(k**-(1-gamma)); the stated -gamma target inherits the source's "
        "out-of-hypothesis limit argument (see decisions ledger)."
    )


def test_criterion_06_timeline_bounds():
    start = time.perf_counter()
    slack = 1e-12
    worst = -math.inf
    for lipschitz, alpha, mu0 in ((0.0, 1.0, 1.0), (2.5, 3.7, 0.8)):
        for lam in (0.5, 0.9, 0.99):
            tab = sf.timeline_table("exponential", lipschitz, alpha, mu0, lam, 10_000)
            worst = max(
                worst,
                float(np.max(tab["t_lower"] - tab["t_actual"])),
                float(np.max(tab["t_actual"] - tab["t_upper"])),
                float(np.max(tab["mu_lower"] - tab["mu_actual"])),
                float(np.max(tab["mu_actual"] - tab["mu_upper"])),
            )
        for gamma in (0.25, 0.5, 0.75, 1.0, 2.0):
            tab = sf.timeline_table("power", lipschitz, alpha, mu0, gamma, 10_000)
            worst = max(
                worst,
                float(np.max(tab["t_lower"] - tab["t_actual"])),
                float(np.max(tab["t_actual"] - tab["t_upper"])),
                float(np.max(tab["mu_lower"] - tab["mu_actual"])),
                float(np.max(tab["mu_actual"] - tab["mu_upper"])),
            )
            for k in (1, 10, 100, 1000, 10_000):
                b = sf.timeline_bounds_power(
                    lipschitz, alpha, mu0, gamma, k, t_delta=float(tab["t_actual"][k - 1])
                )
                worst = max(worst, b.k_lower - k, k - b.k_upper)
    elapsed = time.perf_counter() - start
    ok = worst <= slack and elapsed < 5.0
    assert report(
        6,
        ok,
        f"timeline sandwiches for lambda in (0.5,0.9,0.99), gamma in (0.25..2), "
        f"k <= 1e4 (worst violation {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s)",
    )


def test_criterion_07_nonconvergence_trap():
    f = sf.quadratic_least_squares(np.zeros((1, 1)), np.zeros(1))
    prob = sf.CompositeProblem(f=f, h=sf.sqrt_l2_approx(1), optimum=np.zeros(1))
    mu0, lam = 1.0, 0.9
    x0 = np.array([10.0 * mu0 / (1.0 - lam)])
    traj = sf.run_sgm(prob, sf.ExpDecay(mu0=mu0, lam=lam), x0, max_steps=100_000)
    floor = x0[0] - mu0 / (1.0 - lam) - 1e-9
    final_x = traj.final.x[0]
    all_above = all(r.x[0] >= floor for r in traj.records)
    # the schedule underflows its positivity floor near k ~ 6556; past that
    # the remaining stepsizes sum to < 1e-296, so the iterate is frozen
    ok = all_above and final_x >= floor and traj.status == STATUS_SCHEDULE
    assert report(
        7,
        ok,
        f"trapped iterate: x stays >= {floor:.6g} for all k "
        f"(final x = {final_x:.6g} at k = {traj.final.k}, status {traj.status})",
    )


def test_criterion_08_schedule_equivalence():
    worst = 0.0
    for lam, k_max in ((0.99, 200), (0.9, 50)):
        design = sf.LinearMu(mu0=1.0, rate=1.0 - lam, t0=1.0)
        sched = sf.ContinuousDriven(design, t0=1.0)
        state = sf.initial_state(sched, 0.0, 1.0)
        for k in range(1, k_max + 1):
            state = sf.advance(sched, state, 0.0, 0.0, 1.0)
            worst = max(worst, abs(state.mu - lam**k) / lam**k)
    ok = worst <= 1e-12
    assert report(
        8,
        ok,
        f"linear continuous design reproduces mu0*lambda^k "
        f"(worst rel err {worst:.2e} <= 1e-12 for k <= 200)",
    )


def test_criterion_09_euler_sgm_identity():
    p = strong_problem()
    design = sf.ContinuousDriven(sf.ReciprocalMu(1.0, 1.0, t0=1.0), t0=1.0)
    a = sf.run_sgm(p, design, np.zeros(10), 1000)
    b = sf.integrate_euler(p, design, np.zeros(10), 1000)
    identical = len(a.records) == len(b.records) and all(
        np.array_equal(ra.x, rb.x) and ra.t == rb.t and ra.mu == rb.mu
        for ra, rb in zip(a.records, b.records)
    )
    assert report(9, identical, "forward Euler and SGM iterates bitwise identical over 1e3 steps")


def test_criterion_10_rk45_validation():
    f = sf.quadratic_least_squares(np.array([[1.0]]), np.zeros(1))
    prob = sf.CompositeProblem(f=f, h=None)  # x' = -2x
    errors = {}
    counts = []
    for rtol in (1e-3, 1e-6, 1e-8):
        counter = GradEvalCounter()
        samples = sf.integrate_rk45(
            prob, sf.ConstantMu(1.0), np.ones(1), 0.0, 1.0, rtol, rtol * 1e-3, counter=counter
        )
        errors[rtol] = abs(samples[-1].x[0] - math.exp(-2.0))
        counts.append(counter.count)
    within = all(err <= 10.0 * rtol for rtol, err in errors.items())
    monotone = counts[0] < counts[1] < counts[2]
    ok = within and monotone
    assert report(
        10,
        ok,
        f"x' = -2x: |x(1) - e^-2| <= 10*rtol for rtol in (1e-3,1e-6,1e-8) "
        f"(errors {', '.join(f'{e:.1e}' for e in errors.values())}); "
        f"grad evals strictly increase with tightening tolerance {counts}",
    )


def test_criterion_11_continuous_bound():
    p = strong_problem()
    sigma = p.f.sigma
    gamma = 1.5 * sigma
    design = sf.ExponentialMu(1.0, gamma, t0=1.0)
    samples = sf.integrate_rk45(p, design, np.zeros(10), 1.0, 2.0, 1e-8, 1e-11)
    holds = all(s.f_true - 0.0 <= s.bound_ct * (1.0 + 1e-3) for s in samples[1:])
    tail = [(s.t, s.bound_ct) for s in samples if s.t > 1.5]
    ts = np.array([t for t, _ in tail])
    logs = np.log([b for _, b in tail])
    slope = float(np.polyfit(ts, logs, 1)[0])
    ok = holds and slope <= -sigma + 0.1 * sigma
    assert report(
        11,
        ok,
        f"F(x(t)) <= continuous bound * (1+1e-3) at every adaptive sample; "
        f"tail log-slope {slope:.2f} <= -0.9*sigma = {-0.9 * sigma:.2f}",
    )


def test_criterion_12_strongly_convex_iterate_convergence():
    p = strong_problem()
    design = sf.ContinuousDriven(sf.ReciprocalMu(1.0, 1.0, t0=1.0), t0=1.0)
    traj = sf.run_sgm(p, design, np.zeros(10), 10_000)
    d0 = float(np.linalg.norm(np.zeros(10) - p.optimum))
    d_end = float(np.linalg.norm(traj.final.x - p.optimum))
    ratio = d_end / d0
    ok = ratio <= 1e-2
    assert report(
        12,
        ok,
        f"continuous-driven reciprocal design: ||x_final - x*||/||x_0 - x*|| = {ratio:.3e} "
        f"(target <= 1e-2)",
    )


def test_criterion_13_cli_reproducibility(tmp_path):
    config = {
        "problem": {"n_x": 6, "n_A": 9, "n_C": 8, "rng_seed": 777},
        "smoothing": "sqrt_l2",
        "schedule": {"name": "continuous-exp", "mu0": 1.0, "gamma": 2.0, "t0": 1.0},
        "run": {"max_steps": 60, "t_end": 1.2, "rtol": 1e-4, "atol": 1e-7},
    }
    power_config = dict(config, schedule={"name": "power", "mu0": 1.0, "gamma": 0.5})
    cfg_cont = tmp_path / "cont.json"
    cfg_cont.write_text(json.dumps(config))
    cfg_pow = tmp_path / "pow.json"
    cfg_pow.write_text(json.dumps(power_config))
    jobs = [
        (["generate", "--config", str(cfg_pow)], "problem.json"),
        (["solve-sgm", "--config", str(cfg_pow)], "trajectory.csv"),
        (["solve-sgf-euler", "--config", str(cfg_cont)], "flow_euler.csv"),
        (["solve-sgf-rk45", "--config", str(cfg_cont)], "flow_rk45.csv"),
        (["bounds", "--config", str(cfg_pow)], "discrete_bounds.csv"),
        (
            [
                "rate-fit",
                "--config",
                str(cfg_pow),
                "--window-min",
                "10",
                "--window-max",
                "60",
                "--k-max",
                "60",
            ],
            "rate_fit.csv",
        ),
        (["compare", "--config", str(cfg_cont)], "compare.csv"),
    ]
    ok = True
    for args, artifact in jobs:
        digests = []
        for sub in ("first", "second"):
            out = tmp_path / (artifact + sub)
            code = cli_main(args + ["--out", str(out)])
            if code != 0:
                ok = False
                break
            digests.append(hashlib.sha256((out / artifact).read_bytes()).hexdigest())
        if len(digests) != 2 or digests[0] != digests[1]:
            ok = False
    assert report(
        13, ok, "all 7 CLI subcommands byte-identical across repeated seeded runs"
    )
