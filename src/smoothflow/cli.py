"""Command-line entry points for the experiment harness.

Subcommands:

* ``generate``        write the seeded benchmark problem to problem.json
* ``solve-sgm``       run the discrete method, write trajectory data
* ``solve-sgf-euler`` integrate the flow by forward Euler (identical
                      recursion; requires a continuous-* schedule)
* ``solve-sgf-rk45``  integrate the flow adaptively, write flow data
* ``bounds``          timeline sandwich table and, given a problem,
                      the discrete bound series
* ``rate-fit``        fit a decay model to the analytical bound series
* ``compare``         SGM vs adaptive flow at a matched gradient budget

Exit codes: 0 success, 2 configuration/usage error, 3 numerical
divergence, 4 schedule exhaustion under ``--strict``.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .analysis import discrete_bound_series, fit_rate, timeline_table
from .errors import (
    ConfigError,
    NumericalDivergenceError,
    SmoothflowError,
    StiffnessError,
)
from .flow import integrate_euler, integrate_rk45
from .harness import (
    ExperimentConfig,
    _schedule_param,
    flow_csv,
    generate_problem,
    json_envelope,
    schedule_from_config,
    series_csv,
    timeline_csv,
    trajectory_csv,
)
from .problem import GradEvalCounter
from .schedule import ContinuousDriven
from .solver import STATUS_SCHEDULE, closed_form_bound_nonstrongly, run_sgm

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DIVERGED = 3
_EXIT_EXHAUSTED = 4

# Benchmark defaults: the experiments anchor the timeline at t0 = 1
# with mu(t0) = 1.
_DEFAULT_T0 = 1.0
_DEFAULT_MAX_STEPS = 1250


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to an experiment config (JSON)")
    common.add_argument("--seed", type=int, help="override the config's rng_seed")
    common.add_argument("--out", help="output directory (default: config outputs or '.')")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument(
        "--strict", action="store_true", help="exit 4 when a schedule exhausts"
    )
    parser = _ArgumentParser(prog="smoothflow")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common])
    sub.add_parser("solve-sgm", parents=[common])
    sub.add_parser("solve-sgf-euler", parents=[common])
    sub.add_parser("solve-sgf-rk45", parents=[common])
    bounds = sub.add_parser("bounds", parents=[common])
    bounds.add_argument("--schedule", choices=("power", "exponential"))
    bounds.add_argument("--gamma", type=float)
    bounds.add_argument("--lambda", dest="lam", type=float)
    bounds.add_argument("--mu0", type=float, default=1.0)
    bounds.add_argument("--lipschitz", type=float, default=0.0)
    bounds.add_argument("--alpha", type=float, default=1.0)
    bounds.add_argument("--k-max", type=int, default=1000)
    fit = sub.add_parser("rate-fit", parents=[common])
    fit.add_argument("--model", choices=("power", "power_log", "inv_log"), default="power")
    fit.add_argument("--window-min", type=int, default=100)
    fit.add_argument("--window-max", type=int, default=10_000)
    fit.add_argument("--k-max", type=int, default=10_000)
    sub.add_parser("compare", parents=[common])
    return parser


def _load_config(args):
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        if not (0 <= args.seed < 2**64):
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        cfg.rng_seed = args.seed
    return cfg


def _out_dir(args, cfg=None):
    out = args.out or (cfg.outputs if cfg is not None and cfg.outputs else ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _run_param(cfg, name, kind, default):
    """``run.<name>`` of the config as ``kind`` (int or float), ``default`` when absent."""
    raw = cfg.run.get(name, default)
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"run.{name} must be {what}, got {raw!r}") from exc


def _x0(cfg):
    raw = cfg.run.get("x0")
    if raw is None:
        return np.zeros(cfg.n_x)
    try:
        x0 = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"run.x0 must be a list of numbers: {exc}") from exc
    if x0.shape != (cfg.n_x,):
        raise ConfigError(f"x0 must have length {cfg.n_x}")
    return x0


def _schedule(cfg):
    return schedule_from_config(cfg.schedule, t0=_DEFAULT_T0)


def _trajectory_records_json(traj):
    return [
        {
            "k": r.k,
            "t": r.t,
            "s": r.s,
            "mu": r.mu,
            "f_tilde": r.f_tilde,
            "f_true": r.f_true,
            "grad_norm": r.grad_norm,
            "lyapunov": None if np.isnan(r.lyapunov) else r.lyapunov,
            "bound": None if np.isnan(r.bound) else r.bound,
            "grad_evals": r.grad_evals,
        }
        for r in traj.records
    ]


def _emit_trajectory(args, cfg, traj, stem):
    out = _out_dir(args, cfg)
    if args.format == "csv":
        _write(os.path.join(out, stem + ".csv"), trajectory_csv(traj))
    else:
        envelope = json_envelope(
            cfg.to_dict(),
            {"status": traj.status, "schedule": traj.schedule, "records": _trajectory_records_json(traj)},
        )
        _write(os.path.join(out, stem + ".json"), envelope)
    if args.strict and traj.status == STATUS_SCHEDULE:
        return _EXIT_EXHAUSTED
    return _EXIT_OK


def _exhausted_code(args, ks, k_max):
    """4 under --strict if the bound series stopped before k_max, at schedule exhaustion; else 0."""
    if args.strict and len(ks) < k_max:
        return _EXIT_EXHAUSTED
    return _EXIT_OK


def _cmd_generate(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    rng_order_note = "A (n_A x n_x, row-major), then C (n_C x n_x), then x_star"
    data = {
        "config": cfg.to_dict(),
        "draw_order": rng_order_note,
        "sigma": problem.f.sigma,
        "lipschitz": problem.f.lipschitz,
        "alpha": problem.alpha,
        "beta": problem.beta,
        "x_star": list(problem.optimum),
        "optimal_value": problem.optimal_value,
    }
    out = _out_dir(args, cfg)
    _write(os.path.join(out, "problem.json"), json_envelope(cfg.to_dict(), data))
    return _EXIT_OK


def _cmd_solve_sgm(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    sched = _schedule(cfg)
    traj = run_sgm(
        problem,
        sched,
        _x0(cfg),
        max_steps=_run_param(cfg, "max_steps", int, _DEFAULT_MAX_STEPS),
        record_stride=_run_param(cfg, "record_stride", int, 1),
    )
    return _emit_trajectory(args, cfg, traj, "trajectory")


def _cmd_solve_euler(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    sched = _schedule(cfg)
    if not isinstance(sched, ContinuousDriven):
        raise ConfigError("solve-sgf-euler needs a continuous-* schedule")
    traj = integrate_euler(
        problem,
        sched,
        _x0(cfg),
        max_steps=_run_param(cfg, "max_steps", int, _DEFAULT_MAX_STEPS),
        record_stride=_run_param(cfg, "record_stride", int, 1),
    )
    return _emit_trajectory(args, cfg, traj, "flow_euler")


def _flow_samples_json(samples):
    return [
        {
            "t": s.t,
            "mu": s.mu,
            "f_true": s.f_true,
            "lyapunov_v": None if np.isnan(s.lyapunov_v) else s.lyapunov_v,
            "bound_ct": None if np.isnan(s.bound_ct) else s.bound_ct,
            "grad_evals": s.grad_evals,
        }
        for s in samples
    ]


def _rk45_leg(cfg, problem):
    sched = _schedule(cfg)
    if not isinstance(sched, ContinuousDriven):
        raise ConfigError("adaptive flow integration needs a continuous-* schedule")
    t0 = sched.t0
    t_end = _run_param(cfg, "t_end", float, t0 + 1.0)
    rtol = _run_param(cfg, "rtol", float, 1e-3)
    atol = _run_param(cfg, "atol", float, 1e-6)
    counter = GradEvalCounter()
    samples = integrate_rk45(
        problem, sched.mu_of_t, _x0(cfg), t0, t_end, rtol, atol, counter=counter
    )
    return samples, counter


def _warn_gap_above_bound(samples, f_star):
    """One stderr line if the integrated gap f_true - f* exceeds bound_ct anywhere."""
    above = [s.t for s in samples if s.f_true - f_star > s.bound_ct]
    if above:
        print(
            f"warning: f_true - f* > bound_ct at {len(above)} of {len(samples)} samples, "
            f"first at t = {above[0]!r} (the bound is for the exact flow; try a smaller rtol)",
            file=sys.stderr,
        )


def _cmd_solve_rk45(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    samples, _ = _rk45_leg(cfg, problem)
    out = _out_dir(args, cfg)
    if args.format == "csv":
        _write(os.path.join(out, "flow_rk45.csv"), flow_csv(samples))
    else:
        envelope = json_envelope(cfg.to_dict(), {"samples": _flow_samples_json(samples)})
        _write(os.path.join(out, "flow_rk45.json"), envelope)
    _warn_gap_above_bound(samples, problem.optimal_value)
    return _EXIT_OK


def _cmd_bounds(args):
    cfg = _load_config(args) if args.config else None
    out = _out_dir(args, cfg)
    wrote_any = False
    code = _EXIT_OK
    kind = args.schedule
    if kind is None and cfg is not None:
        name = cfg.schedule.get("name")
        kind = {"power": "power", "exp": "exponential"}.get(name)
    if kind == "power":
        gamma = args.gamma if args.gamma is not None else (
            _schedule_param(cfg.schedule, "gamma") if cfg else None
        )
        if gamma is None:
            raise ConfigError("bounds --schedule power needs --gamma")
        table = timeline_table("power", args.lipschitz, args.alpha, args.mu0, gamma, args.k_max)
        _write(os.path.join(out, "timeline_bounds.csv"), timeline_csv(table))
        wrote_any = True
    elif kind == "exponential":
        lam = args.lam if args.lam is not None else (
            _schedule_param(cfg.schedule, "lambda") if cfg else None
        )
        if lam is None:
            raise ConfigError("bounds --schedule exponential needs --lambda")
        table = timeline_table(
            "exponential", args.lipschitz, args.alpha, args.mu0, lam, args.k_max
        )
        _write(os.path.join(out, "timeline_bounds.csv"), timeline_csv(table))
        wrote_any = True
    if cfg is not None:
        problem = generate_problem(cfg)
        sched = _schedule(cfg)
        x0 = _x0(cfg)
        diff = x0 - problem.optimum
        d0_sq = float(diff @ diff)
        k_max = _run_param(cfg, "max_steps", int, args.k_max)
        ks, bounds = discrete_bound_series(
            sched,
            problem.f.sigma,
            problem.f.lipschitz,
            problem.alpha,
            problem.beta,
            d0_sq,
            k_max,
        )
        rows = []
        is_power_sigma0 = (
            problem.f.sigma == 0.0 and cfg.schedule.get("name") == "power"
        )
        for k, b in zip(ks, bounds):
            row = [int(k), b]
            if is_power_sigma0 and 0.0 < float(cfg.schedule["gamma"]) <= 1.0:
                row.append(
                    closed_form_bound_nonstrongly(
                        problem.f.lipschitz,
                        problem.alpha,
                        problem.beta,
                        float(cfg.schedule["mu0"]),
                        float(cfg.schedule["gamma"]),
                        d0_sq,
                        int(k),
                    )
                )
            rows.append(row)
        columns = ["k", "bound"] + (
            ["closed_form_bound"] if rows and len(rows[0]) == 3 else []
        )
        _write(os.path.join(out, "discrete_bounds.csv"), series_csv(columns, rows))
        wrote_any = True
        code = _exhausted_code(args, ks, k_max)
    if not wrote_any:
        raise ConfigError("bounds needs --schedule and/or --config")
    return code


def _cmd_rate_fit(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    sched = _schedule(cfg)
    x0 = _x0(cfg)
    diff = x0 - problem.optimum
    ks, bounds = discrete_bound_series(
        sched,
        problem.f.sigma,
        problem.f.lipschitz,
        problem.alpha,
        problem.beta,
        float(diff @ diff),
        args.k_max,
    )
    result = fit_rate(list(zip(ks, bounds)), args.model, (args.window_min, args.window_max))
    report = {
        "model": result.model,
        "exponent": result.exponent,
        "log_factor": result.log_factor,
        "residual": result.residual,
        "normalized_residual": result.normalized_residual,
        "window": list(result.window),
        "intercept": result.intercept,
    }
    out = _out_dir(args, cfg)
    if args.format == "csv":
        _write(
            os.path.join(out, "rate_fit.csv"),
            series_csv(
                ["model", "exponent", "residual", "normalized_residual"],
                [[result.model, result.exponent, result.residual, result.normalized_residual]],
            ),
        )
    else:
        _write(os.path.join(out, "rate_fit.json"), json_envelope(cfg.to_dict(), report))
    return _exhausted_code(args, ks, args.k_max)


def _cmd_compare(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    samples, counter = _rk45_leg(cfg, problem)
    budget = counter.count
    sched = _schedule(cfg)
    max_steps = _run_param(cfg, "max_steps", int, max(budget, 1))
    traj = run_sgm(problem, sched, _x0(cfg), max_steps=max_steps, grad_eval_budget=budget)
    out = _out_dir(args, cfg)
    if args.format == "csv":
        rows = [
            ["SGM", r.t, r.mu, r.f_true, r.grad_evals] for r in traj.records
        ] + [
            ["SGF-RK45", s.t, s.mu, s.f_true, s.grad_evals] for s in samples
        ]
        _write(
            os.path.join(out, "compare.csv"),
            series_csv(["series", "t", "mu", "f_true", "grad_evals"], rows),
        )
    else:
        envelope = json_envelope(
            cfg.to_dict(),
            {
                "SGM": _trajectory_records_json(traj),
                "SGF-RK45": _flow_samples_json(samples),
                "matched_grad_eval_budget": budget,
            },
        )
        _write(os.path.join(out, "compare.json"), envelope)
    if args.strict and traj.status == STATUS_SCHEDULE:
        return _EXIT_EXHAUSTED
    return _EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve-sgm": _cmd_solve_sgm,
    "solve-sgf-euler": _cmd_solve_euler,
    "solve-sgf-rk45": _cmd_solve_rk45,
    "bounds": _cmd_bounds,
    "rate-fit": _cmd_rate_fit,
    "compare": _cmd_compare,
}


def cli_main(argv):
    """Run one subcommand; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help exits instead of returning
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return _EXIT_CONFIG
    except (NumericalDivergenceError, StiffnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except SmoothflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
