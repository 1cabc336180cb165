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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .approx import L1_SMOOTHERS, l1_residual
from .errors import ConfigError
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

__all__ = [
    "ExperimentConfig",
    "generate_problem",
    "schedule_from_config",
    "trajectory_csv",
    "flow_csv",
    "timeline_csv",
    "series_csv",
    "json_envelope",
]

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
        if min(self.n_x, self.n_a, self.n_c) < 1:
            raise ConfigError("n_x, n_A and n_C must all be >= 1")
        if not (0 <= int(self.rng_seed) < 2**64):
            raise ConfigError("rng_seed must be an unsigned 64-bit integer")
        if self.smoothing not in L1_SMOOTHERS:
            raise ConfigError(
                f"unknown smoothing {self.smoothing!r}; choose from {sorted(L1_SMOOTHERS)}"
            )

    @classmethod
    def from_dict(cls, raw):
        try:
            prob = raw["problem"]
            return cls(
                n_x=int(prob["n_x"]),
                n_a=int(prob["n_A"]),
                n_c=int(prob["n_C"]),
                rng_seed=int(prob["rng_seed"]),
                smoothing=raw.get("smoothing", "sqrt_l2"),
                schedule=dict(raw.get("schedule", {"name": "power", "mu0": 1.0, "gamma": 0.5})),
                run=dict(raw.get("run", {})),
                outputs=raw.get("outputs"),
            )
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
    try:
        return float(params[key])
    except KeyError as exc:
        raise ConfigError(f"schedule {params.get('name')!r} is missing parameter {key!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"schedule {params.get('name')!r} parameter {key!r} must be a number, "
            f"got {params[key]!r}"
        ) from exc


def schedule_from_config(params, t0=0.0):
    """Build a schedule variant from a name + parameter map.

    Names: "power" (mu0, gamma), "exp" (mu0, lambda),
    "continuous-linear" (mu0, rate), "continuous-exp" (mu0, gamma),
    "continuous-reciprocal" (mu0, p). Continuous designs anchor at
    ``params["t0"]`` or the ``t0`` argument.
    """
    params = dict(params)
    name = params.get("name")

    def num(key):
        return _schedule_param(params, key)

    params.setdefault("t0", t0)
    t0 = num("t0")
    if name == "power":
        return PowerDecay(mu0=num("mu0"), gamma=num("gamma"), t0=t0)
    if name == "exp":
        return ExpDecay(mu0=num("mu0"), lam=num("lambda"), t0=t0)
    if name == "continuous-linear":
        design = LinearMu(mu0=num("mu0"), rate=num("rate"), t0=t0)
        return ContinuousDriven(mu_of_t=design, t0=t0)
    if name == "continuous-exp":
        design = ExponentialMu(mu0=num("mu0"), gamma=num("gamma"), t0=t0)
        return ContinuousDriven(mu_of_t=design, t0=t0)
    if name == "continuous-reciprocal":
        design = ReciprocalMu(mu0=num("mu0"), power=num("p"), t0=t0)
        return ContinuousDriven(mu_of_t=design, t0=t0)
    raise ConfigError(f"unknown schedule name {name!r}")


def _conversion(cls):
    """printf conversion for one CSV field of type ``cls``.

    Integers print exactly, strings as they are, and everything else as
    a float with 17 significant digits (enough to round-trip a double).
    """
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (int, np.integer)):
        return "%d"
    return "%.17g"


TRAJECTORY_COLUMNS = "k,t,s,mu,f_tilde,f_true,grad_norm,lyapunov,bound,grad_evals"
FLOW_COLUMNS = "t,mu,f_true,lyapunov_v,bound_ct,grad_evals"
TIMELINE_COLUMNS = "k,t_actual,t_lower,t_upper,mu_actual,mu_lower,mu_upper"

# One % operation formats a whole row; the columns' types are fixed.
_TRAJECTORY_ROW = "%d," + "%.17g," * 8 + "%d"
_FLOW_ROW = "%.17g," * 5 + "%d"
_TIMELINE_ROW = "%d" + ",%.17g" * 6


def trajectory_csv(traj):
    """Fixed-column CSV of a discrete trajectory."""
    lines = [TRAJECTORY_COLUMNS]
    lines.extend(
        _TRAJECTORY_ROW
        % (r.k, r.t, r.s, r.mu, r.f_tilde, r.f_true, r.grad_norm, r.lyapunov, r.bound, r.grad_evals)
        for r in traj.records
    )
    # An empty last line gives the final newline without copying the joined text.
    lines.append("")
    return "\n".join(lines)


def flow_csv(samples, include_x=False):
    """Fixed-column CSV of adaptive-integrator samples."""
    header = FLOW_COLUMNS
    row = _FLOW_ROW
    if include_x:
        dim = samples[0].x.shape[0]
        header = header + "," + ",".join(f"x{i}" for i in range(dim))
        row = row + ",%.17g" * dim
    lines = [header]
    for s in samples:
        fields = (s.t, s.mu, s.f_true, s.lyapunov_v, s.bound_ct, s.grad_evals)
        if include_x:
            fields += tuple(s.x)
        lines.append(row % fields)
    lines.append("")
    return "\n".join(lines)


def timeline_csv(table):
    """CSV of a timeline bounds-vs-recursion table."""
    lines = [TIMELINE_COLUMNS]
    columns = [
        np.asarray(table[key], dtype=float).tolist()
        for key in ("t_actual", "t_lower", "t_upper", "mu_actual", "mu_lower", "mu_upper")
    ]
    ks = [int(k) for k in table["k"]]
    lines.extend(_TIMELINE_ROW % (k, *rest) for k, *rest in zip(ks, *columns))
    lines.append("")
    return "\n".join(lines)


def series_csv(columns, rows, row_format=None):
    """Generic CSV with a fixed column list; floats at full precision.

    With ``row_format``, one printf format for every row, each row is
    one % operation, as in ``trajectory_csv``. Otherwise each field
    prints by its type (see ``_conversion``); a row format is built
    once per distinct tuple of field types.
    """
    lines = [",".join(columns)]
    if row_format is not None:
        lines.extend(row_format % row for row in rows)
        lines.append("")
        return "\n".join(lines)
    formats = {}
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(map(_conversion, types))
        lines.append(fmt % tuple(row))
    lines.append("")
    return "\n".join(lines)


def json_envelope(config, series):
    """JSON envelope {config, version, series} as a deterministic string."""
    payload = {"config": config, "version": __version__, "series": series}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
