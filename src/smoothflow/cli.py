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

Exit codes: 0 success, 2 configuration/usage error (an input too large
to fit in memory too), 3 numerical divergence, 4 schedule exhaustion
under ``--strict``.
"""

import argparse
import dataclasses
import functools
import itertools
import operator
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
    _integer,
    _number,
    _schedule_param,
    flow_csv,
    flow_json,
    generate_problem,
    json_envelope,
    schedule_from_config,
    series_csv,
    timeline_csv,
    trajectory_csv,
    trajectory_json,
)
from .schedule import ContinuousDriven
from .solver import STATUS_SCHEDULE, _start, closed_form_bound_nonstrongly, run_sgm

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


def _write(args, cfg, name, text):
    """Write ``text`` to the file ``name`` in the output directory, which is made here.

    The directory is --out, else the config's ``outputs``, else '.'; it
    is made only once a file is ready, so a refused input leaves none.
    An ``OSError`` from making it or writing is a ``ConfigError``.
    """
    out = args.out or (cfg.outputs if cfg is not None and cfg.outputs else ".")
    path = os.path.join(out, name)
    try:
        os.makedirs(out, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _run_param(cfg, name, kind, default):
    """``run.<name>`` of the config as ``kind`` (int or float), ``default`` when absent."""
    raw = cfg.run.get(name, default)
    read = _integer if kind is int else _number
    return read(raw, f"run.{name}")


def _x0(cfg):
    raw = cfg.run.get("x0")
    if raw is None:
        return np.zeros(cfg.n_x)
    if not isinstance(raw, list):
        raise ConfigError(f"run.x0 must be a list of numbers, got {raw!r}")
    x0 = np.array([_number(v, "run.x0 entry") for v in raw])
    if x0.shape != (cfg.n_x,):
        raise ConfigError(f"x0 must have length {cfg.n_x}")
    return x0


def _schedule(cfg, needs=None):
    """``cfg``'s schedule, which must be continuous-* when ``needs`` names what needs it."""
    sched = schedule_from_config(cfg.schedule, t0=_DEFAULT_T0)
    if needs is not None and not isinstance(sched, ContinuousDriven):
        raise ConfigError(f"{needs} needs a continuous-* schedule")
    return sched


def _emit(args, cfg, stem, csv_text, series):
    """Write ``csv_text()`` to ``stem``.csv, or with --format json ``series()`` to ``stem``.json."""
    if args.format == "csv":
        text = csv_text()
    else:
        text = json_envelope(cfg.to_dict(), series())
    _write(args, cfg, f"{stem}.{args.format}", text)


def _exit_code(args, exhausted):
    """4 under --strict if the schedule exhausted before the run's end; else 0."""
    return _EXIT_EXHAUSTED if args.strict and exhausted else _EXIT_OK


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
    _write(args, cfg, "problem.json", json_envelope(cfg.to_dict(), data))
    return _EXIT_OK


def _solve(args, method, stem, needs=None):
    """Run ``method`` (``run_sgm`` or ``integrate_euler``) on the config; write its trajectory."""
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    traj = method(
        problem,
        _schedule(cfg, needs),
        _x0(cfg),
        max_steps=_run_param(cfg, "max_steps", int, _DEFAULT_MAX_STEPS),
        record_stride=_run_param(cfg, "record_stride", int, 1),
    )
    _emit(
        args,
        cfg,
        stem,
        lambda: trajectory_csv(traj),
        lambda: {
            "status": traj.status,
            "schedule": traj.schedule,
            "records": trajectory_json(traj),
        },
    )
    return _exit_code(args, traj.status == STATUS_SCHEDULE)


# Each looks its method up by name when it runs, so a rebound module
# attribute (a test's patch, a tracer's wrapper) is the one called.
def _cmd_solve_sgm(args):
    return _solve(args, run_sgm, "trajectory")


def _cmd_solve_euler(args):
    return _solve(args, integrate_euler, "flow_euler", needs="solve-sgf-euler")


def _rk45_leg(cfg, problem):
    sched = _schedule(cfg, needs="adaptive flow integration")
    t0 = sched.t0
    t_end = _run_param(cfg, "t_end", float, t0 + 1.0)
    rtol = _run_param(cfg, "rtol", float, 1e-3)
    atol = _run_param(cfg, "atol", float, 1e-6)
    return integrate_rk45(problem, sched.mu_of_t, _x0(cfg), t0, t_end, rtol, atol)


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
    samples = _rk45_leg(cfg, problem)
    _emit(
        args, cfg, "flow_rk45", lambda: flow_csv(samples), lambda: {"samples": flow_json(samples)}
    )
    _warn_gap_above_bound(samples, problem.optimal_value)
    return _EXIT_OK


def _bound_series(cfg, problem, k_max):
    """(ks, bounds, ||x0 - x*||^2): the discrete bound series of ``cfg``'s schedule and x0."""
    sched = _schedule(cfg)
    _, d0_sq = _start(problem, _x0(cfg))
    f = problem.f
    ks, bounds = discrete_bound_series(
        sched, f.sigma, f.lipschitz, problem.alpha, problem.beta, d0_sq, k_max
    )
    return ks, bounds, d0_sq


# Timeline kind -> (the flag and the schedule parameter that give its rate).
_TIMELINE_PARAM = {"power": ("gamma", "gamma"), "exponential": ("lam", "lambda")}


def _cmd_bounds(args):
    if args.format != "csv":
        raise ConfigError(f"bounds writes CSV only; --format {args.format} is not supported")
    cfg = _load_config(args) if args.config else None
    kind = args.schedule
    if kind is None and cfg is not None:
        name = cfg.schedule.get("name")
        kind = {"power": "power", "exp": "exponential"}.get(name)
    if kind is None and cfg is None:
        raise ConfigError("bounds needs --schedule and/or --config")
    table = None
    if kind is not None:
        flag, key = _TIMELINE_PARAM[kind]
        param = getattr(args, flag)
        if param is None and cfg is not None:
            param = _schedule_param(cfg.schedule, key)
        if param is None:
            raise ConfigError(f"bounds --schedule {kind} needs --{key}")
        table = timeline_table(kind, args.lipschitz, args.alpha, args.mu0, param, args.k_max)
    if cfg is not None:
        problem = generate_problem(cfg)
        k_max = _run_param(cfg, "max_steps", int, args.k_max)
        ks, bounds, d0_sq = _bound_series(cfg, problem, k_max)
    # Both series are formed before either file is written, so a refused input leaves none.
    if table is not None:
        _write(args, cfg, "timeline_bounds.csv", timeline_csv(table))
    if cfg is None:
        return _EXIT_OK
    ks_list = ks.tolist()
    columns, row, fields = ["k", "bound"], "%d,%.17g", [ks_list, bounds.tolist()]
    params = cfg.schedule
    if (
        ks_list
        and problem.f.sigma == 0.0
        and params.get("name") == "power"
        and 0.0 < _schedule_param(params, "gamma") <= 1.0
    ):
        columns.append("closed_form_bound")
        row += ",%.17g"
        closed = functools.partial(
            closed_form_bound_nonstrongly,
            problem.f.lipschitz,
            problem.alpha,
            problem.beta,
            _schedule_param(params, "mu0"),
            _schedule_param(params, "gamma"),
            d0_sq,
        )
        fields.append([closed(k) for k in ks_list])
    _write(args, cfg, "discrete_bounds.csv", series_csv(columns, zip(*fields), row))
    return _exit_code(args, len(ks) < k_max)


def _cmd_rate_fit(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    ks, bounds, _ = _bound_series(cfg, problem, args.k_max)
    result = fit_rate(list(zip(ks, bounds)), args.model, (args.window_min, args.window_max))
    columns = ["model", "exponent", "residual", "normalized_residual"]
    _emit(
        args,
        cfg,
        "rate_fit",
        lambda: series_csv(
            columns, [operator.attrgetter(*columns)(result)], "%s,%.17g,%.17g,%.17g"
        ),
        lambda: dataclasses.asdict(result),
    )
    return _exit_code(args, len(ks) < args.k_max)


def _cmd_compare(args):
    cfg = _load_config(args)
    problem = generate_problem(cfg)
    samples = _rk45_leg(cfg, problem)
    budget = samples[-1].grad_evals
    sched = _schedule(cfg)
    max_steps = _run_param(cfg, "max_steps", int, max(budget, 1))
    traj = run_sgm(problem, sched, _x0(cfg), max_steps=max_steps, grad_eval_budget=budget)
    columns = ["series", "t", "mu", "f_true", "grad_evals"]
    get = operator.attrgetter(*columns[1:])
    rows = itertools.chain(
        (("SGM", *get(r)) for r in traj.records),
        (("SGF-RK45", *get(s)) for s in samples),
    )
    _emit(
        args,
        cfg,
        "compare",
        lambda: series_csv(columns, rows, "%s,%.17g,%.17g,%.17g,%d"),
        lambda: {
            "SGM": trajectory_json(traj),
            "SGF-RK45": flow_json(samples),
            "matched_grad_eval_budget": budget,
        },
    )
    return _exit_code(args, traj.status == STATUS_SCHEDULE)


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
    except MemoryError as exc:  # an input sized past memory, such as a huge --k-max
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_CONFIG


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
