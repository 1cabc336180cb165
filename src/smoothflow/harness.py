"""Experiment harness: seeded benchmark problems and serialization.

The benchmark family is least squares plus an l1 residual term,

    minimize ||A x - b||^2 + ||C x - d||_1,

with A, C and the planted solution x* drawn from the package's
reproducible normal sampler and [b; d] = [A; C] x*. Both residuals
vanish at x*, so the optimal value is exactly 0 and x* is a known
optimum. n_A >= n_x makes the quadratic part strongly convex with
overwhelming probability; n_A < n_x forces sigma = 0. The config's
``smoothing`` picks the per-row surrogate of the one ``l1_residual``.

All serialization here is byte-deterministic for a fixed config/seed:
floats are printed with 17 significant digits.
"""

import json
import numbers
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .approx import L1_SMOOTHERS, l1_residual
from .errors import ConfigError
from .flow import FlowSample
from .problem import CompositeProblem, quadratic_least_squares
from .rng import Xoshiro256pp
from .schedule import (
    ContinuousDriven,
    ExpDecay,
    ExponentialMu,
    LinearMu,
    PowerDecay,
    ReciprocalMu,
)
from .solver import IterationRecord

__all__ = [
    "ExperimentConfig",
    "generate_problem",
    "schedule_from_config",
    "trajectory_csv",
    "trajectory_json",
    "flow_csv",
    "flow_json",
    "timeline_csv",
    "series_csv",
    "json_envelope",
]


def _integer(raw, name):
    """``raw`` as an int; a ``ConfigError`` naming ``name`` unless it is an integral number.

    A bool, a string or a number with a fractional part is refused, not
    read or truncated.
    """
    if isinstance(raw, numbers.Real) and not isinstance(raw, bool):
        try:
            if int(raw) == raw:
                return int(raw)
        except (ValueError, OverflowError):  # NaN or an infinity
            pass
    raise ConfigError(f"{name} must be an integer, got {raw!r}")


def _number(raw, name):
    """``raw`` as a float; a ``ConfigError`` naming ``name`` unless it is a number.

    A bool or a string is refused, not read as 0, 1 or its text.
    """
    if isinstance(raw, numbers.Real) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:  # an integer past the double range
            pass
    raise ConfigError(f"{name} must be a number, got {raw!r}")


# README's config schema: the keys of each section, which its reader takes
# from here and ``ExperimentConfig`` refuses any other of.
_CONFIG_KEYS = ("problem", "smoothing", "schedule", "run", "outputs")
_PROBLEM_KEYS = {"n_x": "n_x", "n_A": "n_a", "n_C": "n_c", "rng_seed": "rng_seed"}
_RUN_KEYS = ("max_steps", "record_stride", "t_end", "rtol", "atol", "x0")
# Schedule name -> its design and parameters, read after ``name`` and ``t0``.
_SCHEDULES = {
    "power": (PowerDecay, ("mu0", "gamma")),
    "exp": (ExpDecay, ("mu0", "lambda")),
    "continuous-linear": (LinearMu, ("mu0", "rate")),
    "continuous-exp": (ExponentialMu, ("mu0", "gamma")),
    "continuous-reciprocal": (ReciprocalMu, ("mu0", "p")),
}


def _object(section, where):
    """``section`` itself; a ``ConfigError`` naming ``where`` unless it is a JSON object."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    return section


def _refuse_unknown(section, allowed, where):
    """A ``ConfigError`` naming the first key of the map ``section`` that ``allowed`` lacks."""
    for key in _object(section, where):
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {where}; allowed: {', '.join(allowed)}"
            )


@dataclass
class ExperimentConfig:
    """Deserialized experiment description (see README for the schema)."""

    n_x: int
    n_a: int
    n_c: int
    rng_seed: int
    smoothing: str = "sqrt_l2"
    schedule: dict = field(default_factory=lambda: {"name": "power", "mu0": 1.0, "gamma": 0.5})
    run: dict = field(default_factory=dict)
    outputs: Optional[str] = None

    def __post_init__(self):
        for key, name in _PROBLEM_KEYS.items():
            setattr(self, name, _integer(getattr(self, name), f"problem.{key}"))
        if min(self.n_x, self.n_a, self.n_c) < 1:
            raise ConfigError("n_x, n_A and n_C must all be >= 1")
        # 64-bit numpy refuses an array of 2**60 floats or more with a ValueError;
        # a smaller problem that does not fit in memory raises MemoryError.
        if self.n_x * (self.n_a + self.n_c) >= 2**60:
            raise ConfigError("n_x * (n_A + n_C) must be below 2**60")
        if not (0 <= self.rng_seed < 2**64):
            raise ConfigError("rng_seed must be an unsigned 64-bit integer")
        if self.smoothing not in L1_SMOOTHERS:
            raise ConfigError(
                f"unknown smoothing {self.smoothing!r}; choose from {sorted(L1_SMOOTHERS)}"
            )
        if self.outputs is not None and not isinstance(self.outputs, str):
            raise ConfigError(f"outputs must be a string or null, got {self.outputs!r}")
        # Each section is checked to be an object before it is read, then copied.
        self.run = dict(_object(self.run, "run"))
        _refuse_unknown(self.run, _RUN_KEYS, "run")
        self.schedule = dict(_object(self.schedule, "schedule"))
        name = self.schedule.get("name")
        if name not in _SCHEDULES:
            raise ConfigError(f"unknown schedule name {name!r}")
        _refuse_unknown(self.schedule, ("name", "t0", *_SCHEDULES[name][1]), "schedule")

    @classmethod
    def from_dict(cls, raw):
        try:
            _refuse_unknown(raw, _CONFIG_KEYS, "the config")
            prob = raw["problem"]
            _refuse_unknown(prob, _PROBLEM_KEYS, "problem")
            return cls(
                **{name: prob[key] for key, name in _PROBLEM_KEYS.items()},
                smoothing=raw.get("smoothing", "sqrt_l2"),
                schedule=raw.get("schedule", {"name": "power", "mu0": 1.0, "gamma": 0.5}),
                run=raw.get("run", {}),
                outputs=raw.get("outputs"),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        return {
            "problem": {
                "n_x": self.n_x,
                "n_A": self.n_a,
                "n_C": self.n_c,
                "rng_seed": self.rng_seed,
            },
            "smoothing": self.smoothing,
            "schedule": self.schedule,
            "run": self.run,
            "outputs": self.outputs,
        }


def generate_problem(cfg):
    """Build the seeded benchmark problem described by ``cfg``.

    Draw order is fixed (A row-major, then C row-major, then x*), so a
    given seed always yields bit-identical data. The l1 term is
    ``l1_residual(C, d, cfg.smoothing)``; its parameters come out as
    (||C||_F^2 rounded up, n_C beta_1), beta_1 = 1 for the sqrt
    smoother and 1/2 for Huber.
    """
    rng = Xoshiro256pp(cfg.rng_seed)
    a = rng.normals((cfg.n_a, cfg.n_x))
    c = rng.normals((cfg.n_c, cfg.n_x))
    x_star = rng.normals(cfg.n_x)
    # [b; d] is the one stacked product M x* with M = [A; C], the product
    # every point of the problem forms, so the residuals at x* are zero
    # bit for bit and the optimal value is exactly 0. BLAS blocks the
    # rows of M, so b can differ from A @ x* in its last bits.
    e = np.vstack((a, c)) @ x_star
    return CompositeProblem(
        f=quadratic_least_squares(a, e[: cfg.n_a]),
        h=l1_residual(c, e[cfg.n_a :], cfg.smoothing),
        optimum=x_star,
        optimal_value=0.0,
    )


def _schedule_param(params, key):
    """``params[key]`` of a schedule map as a float; a ``ConfigError`` naming it otherwise."""
    name = params.get("name")
    if key not in params:
        raise ConfigError(f"schedule {name!r} is missing parameter {key!r}")
    return _number(params[key], f"schedule {name!r} parameter {key!r}")


def schedule_from_config(params, t0=0.0):
    """Build a schedule variant from a name + parameter map.

    Names: "power" (mu0, gamma), "exp" (mu0, lambda),
    "continuous-linear" (mu0, rate), "continuous-exp" (mu0, gamma),
    "continuous-reciprocal" (mu0, p). Continuous designs anchor at
    ``params["t0"]`` or the ``t0`` argument.
    """
    params = dict(params)
    params.setdefault("t0", t0)
    t0 = _schedule_param(params, "t0")
    name = params.get("name")
    if name not in _SCHEDULES:
        raise ConfigError(f"unknown schedule name {name!r}")
    design, keys = _SCHEDULES[name]
    sched = design(*(_schedule_param(params, key) for key in keys), t0=t0)
    if name.startswith("continuous-"):
        return ContinuousDriven(mu_of_t=sched, t0=t0)
    return sched


TRAJECTORY_COLUMNS = "k,t,s,mu,f_tilde,f_true,grad_norm,lyapunov,bound,grad_evals"
FLOW_COLUMNS = "t,mu,f_true,lyapunov_v,bound_ct,grad_evals"
TIMELINE_COLUMNS = "k,t_actual,t_lower,t_upper,mu_actual,mu_lower,mu_upper"

_TIMELINE_ROW = "%d" + ",%.17g" * 6


def _schema(record_type, columns):
    """Column names, row getter and printf row of a record type's output.

    ``columns`` names fields of the named tuple ``record_type`` in file
    order. An ``int`` field prints exactly and any other as a float with
    17 significant digits (enough to round-trip a double), so one %
    operation formats a whole row.
    """
    names = columns.split(",")
    get = operator.itemgetter(*map(record_type._fields.index, names))
    hints = record_type.__annotations__
    row = ",".join("%d" if hints[name] is int else "%.17g" for name in names)
    return names, get, row


_TRAJECTORY = _schema(IterationRecord, TRAJECTORY_COLUMNS)
_FLOW = _schema(FlowSample, FLOW_COLUMNS)


def _csv(header, rows, row_format):
    # The writers below call this, not series_csv, so a tracer that wraps
    # every public writer counts each file's time and bytes once.
    lines = [header]
    lines.extend(row_format % row for row in rows)
    # An empty last line gives the final newline without copying the joined text.
    lines.append("")
    return "\n".join(lines)


def _records_json(schema, records):
    names, get, _ = schema
    return [dict(zip(names, [None if v != v else v for v in get(r)])) for r in records]


def trajectory_csv(traj):
    """Fixed-column CSV of a discrete trajectory."""
    _, get, row = _TRAJECTORY
    return _csv(TRAJECTORY_COLUMNS, map(get, traj.records), row)


def trajectory_json(traj):
    """JSON records of a discrete trajectory: the CSV columns as keys, NaN as null."""
    return _records_json(_TRAJECTORY, traj.records)


def flow_csv(samples):
    """Fixed-column CSV of adaptive-integrator samples."""
    _, get, row = _FLOW
    return _csv(FLOW_COLUMNS, map(get, samples), row)


def flow_json(samples):
    """JSON records of adaptive-integrator samples: the CSV columns as keys, NaN as null."""
    return _records_json(_FLOW, samples)


def timeline_csv(table):
    """CSV of a timeline bounds-vs-recursion table."""
    _, *names = TIMELINE_COLUMNS.split(",")
    columns = [np.asarray(table[name], dtype=float).tolist() for name in names]
    return _csv(TIMELINE_COLUMNS, zip(map(int, table["k"]), *columns), _TIMELINE_ROW)


def series_csv(columns, rows, row_format):
    """CSV of ``rows`` under the column list ``columns``, each row one printf ``row_format``."""
    return _csv(",".join(columns), rows, row_format)


def json_envelope(config, series):
    """JSON envelope {config, version, series} as a deterministic string."""
    payload = {"config": config, "version": __version__, "series": series}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
