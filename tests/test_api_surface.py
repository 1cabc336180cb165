"""The public API: exported names and the shape of each exported callable.

README's quick start imports from ``smoothflow`` and ``smoothflow.harness``;
these goldens pin what those two modules export and, for each export, its
parameters' names, kinds and defaults (the signature without annotations,
defaults as their ``repr``), and for each exported class the public
methods and properties smoothflow defines on it, a method with its
signature. They also pin the command line: every
subcommand's options, each with its strings, ``dest``, default, type and
choices. The file formats are pinned by the golden hashes of
``test_cli.py``; this pins the calls that produce them. A change here is
a change to the API and should be deliberate. README's "Public contract"
table must name a user for every exported name, and no other name.
"""

import argparse
import inspect
import re
from pathlib import Path

import pytest

import smoothflow
import smoothflow.harness
from smoothflow import cli

PACKAGE_API = {
    "AffineTerm": "(weight, matrix, offset, inner)",
    "CertificationReport": (
        "(sample_count, rng_seed, checked_fd_samples, excluded_fd_samples, "
        "sandwich_low=0.0, sandwich_high=0.0, grad_mu_low=0.0, grad_mu_high=0.0, "
        "grad_x_fd_rel=0.0, grad_mu_fd_rel=0.0, smoothness_excess=0.0, "
        "convexity_gap=0.0, tolerances=<factory>)"
    ),
    "CompositeProblem": "(f, h=None, optimum=None, optimal_value=None)",
    "ConstantMu": "(mu0)",
    "ContinuousDriven": "(mu_of_t, t0=0.0)",
    "ExpDecay": "(mu0, lam, t0=0.0)",
    "ExponentialMu": "(mu0, gamma, t0=0.0)",
    "FlowSample": "(t, x, mu, f_true, lyapunov_v, bound_ct, grad_evals)",
    "GradEvalCounter": "()",
    "IterationRecord": "(k, t, s, mu, x, f_tilde, f_true, grad_norm, lyapunov, bound, grad_evals)",
    "LinearMu": "(mu0, rate, t0=0.0)",
    "PowerDecay": "(mu0, gamma, t0=0.0)",
    "RateFit": "(model, exponent, log_factor, residual, normalized_residual, window, intercept)",
    "ReciprocalMu": "(mu0, power, t0=0.0)",
    "ScheduleState": "(k, t, mu, s, sum_s, scaled_sum_eta_s, scaled_sum_eta_mu_s, inv_eta)",
    "SmoothApprox": "()",
    "SmoothPart": "(value, grad, sigma, lipschitz, input_dim)",
    "SmoothingParams": "(alpha, beta)",
    "TimelineBounds": "(k, t_lower, t_upper, mu_lower, mu_upper, k_lower=None, k_upper=None)",
    "Trajectory": "(records, schedule, status)",
    "Xoshiro256pp": "(seed)",
    "advance": "(sched, state, sigma, lipschitz, alpha)",
    "affine_sum": "(terms)",
    "bound_continuous": "(x0_dist_sq, beta, sigma, mu_of_t, t0, t)",
    "bound_discrete": "(state, x0_dist_sq, beta)",
    "certify": (
        "(approx, sample_count, rng_seed, mu_range=(0.001, 10.0), x_scale=1.0, "
        "exclusion_radius=0.001)"
    ),
    "closed_form_bound_nonstrongly": "(lipschitz, alpha, beta, mu0, gamma, x0_dist_sq, k)",
    "discrete_bound_series": "(sched, sigma, lipschitz, alpha, beta, x0_dist_sq, k_max)",
    "eta_lower_bound": "(state, sigma)",
    "fit_rate": "(series, model, window)",
    "huber_l2_approx": "(dim)",
    "initial_state": "(sched, lipschitz, alpha)",
    "integrate_euler": "(problem, design, x0, max_steps, **kwargs)",
    "integrate_rk45": (
        "(problem, mu_of_t, x0, t0, t_end, rtol, atol, counter=None, "
        "max_attempts=10000000)"
    ),
    "l1_residual": "(c, d, smoothing)",
    "lipschitz_at": "(problem, mu)",
    "log_sum_exp_max_approx": "(dim)",
    "lyapunov_continuous": "(problem, x, t, t0, sigma, beta, mu_of_t)",
    "lyapunov_discrete": "(problem, state, x)",
    "quadratic_least_squares": "(a, b)",
    "run_sgm": (
        "(problem, sched, x0, max_steps, grad_eval_budget=None, record_stride=1, counter=None)"
    ),
    "smoothed_grad": "(problem, x, mu, counter=None)",
    "smoothed_value": "(problem, x, mu)",
    "sqrt_l2_approx": "(dim)",
    "step_size": "(lipschitz, alpha, mu)",
    "sum_divergence_equivalent": "(sched, sigma, lipschitz, alpha, horizon)",
    "timeline_bounds_exponential": "(lipschitz, alpha, mu0, lam, k, t_delta=None)",
    "timeline_bounds_power": "(lipschitz, alpha, mu0, gamma, k, t_delta=None)",
    "timeline_table": "(kind, lipschitz, alpha, mu0, param, k_max)",
}
HARNESS_API = {
    "ExperimentConfig": (
        "(n_x, n_a, n_c, rng_seed, smoothing='sqrt_l2', schedule=<factory>, "
        "run=<factory>, outputs=None)"
    ),
    "flow_csv": "(samples)",
    "flow_json": "(samples)",
    "generate_problem": "(cfg)",
    "json_envelope": "(config, series)",
    "schedule_from_config": "(params, t0=0.0)",
    "series_csv": "(columns, rows, row_format)",
    "timeline_csv": "(table)",
    "trajectory_csv": "(traj)",
    "trajectory_json": "(traj)",
}
# Each exported class -> its public methods and properties defined in
# smoothflow: a method's signature (with ``self``), or "property".
PUBLIC_MEMBERS = {
    "AffineTerm": {},
    "CertificationReport": {"passed": "property"},
    "CompositeProblem": {
        "alpha": "property",
        "beta": "property",
        "input_dim": "property",
        "point": "(self, x)",
        "require_optimum": "(self)",
        "true_value": "(self, x)",
    },
    "ConstantMu": {"describe": "(self)", "weighted_integral": "(self, sigma, t0, t)"},
    "ContinuousDriven": {"describe": "(self)", "mu_at": "(self, k, t)"},
    "ExpDecay": {"describe": "(self)", "mu_at": "(self, k, t)"},
    "ExponentialMu": {"describe": "(self)", "weighted_integral": "(self, sigma, t0, t)"},
    "FlowSample": {},
    "GradEvalCounter": {"increment": "(self)"},
    "IterationRecord": {},
    "LinearMu": {"describe": "(self)", "weighted_integral": "(self, sigma, t0, t)"},
    "PowerDecay": {"describe": "(self)", "mu_at": "(self, k, t)"},
    "RateFit": {},
    "ReciprocalMu": {"describe": "(self)"},
    "ScheduleState": {"eta": "property", "sum_eta_mu_s": "property", "sum_eta_s": "property"},
    "SmoothApprox": {
        "branch_distance": "(self, x, mu)",
        "grad_mu": "(self, x, mu)",
        "grad_x": "(self, x, mu)",
        "underlying_value": "(self, x)",
        "value": "(self, x, mu)",
    },
    "SmoothPart": {},
    "SmoothingParams": {},
    "TimelineBounds": {},
    "Trajectory": {"column": "(self, name)", "final": "property"},
    "Xoshiro256pp": {
        "next_u64": "(self)",
        "normal": "(self)",
        "normals": "(self, shape)",
        "uniform": "(self)",
    },
    "ExperimentConfig": {"from_dict": "(raw)", "from_file": "(path)", "to_dict": "(self)"},
}

# Each option as "strings dest default type choices": the default as its
# repr, the type as its name (None reads the raw string).
COMMON_OPTIONS = [
    "-h --help help '==SUPPRESS==' None None",
    "--config config None None None",
    "--seed seed None int None",
    "--out out None None None",
    "--format format 'csv' None ('csv', 'json')",
    "--strict strict False None None",
]
CLI_API = {
    "generate": COMMON_OPTIONS,
    "solve-sgm": COMMON_OPTIONS,
    "solve-sgf-euler": COMMON_OPTIONS,
    "solve-sgf-rk45": COMMON_OPTIONS,
    "bounds": COMMON_OPTIONS
    + [
        "--schedule schedule None None ('power', 'exponential')",
        "--gamma gamma None float None",
        "--lambda lam None float None",
        "--mu0 mu0 1.0 float None",
        "--lipschitz lipschitz 0.0 float None",
        "--alpha alpha 1.0 float None",
        "--k-max k_max 1000 int None",
    ],
    "rate-fit": COMMON_OPTIONS
    + [
        "--model model 'power' None ('power', 'power_log', 'inv_log')",
        "--window-min window_min 100 int None",
        "--window-max window_max 10000 int None",
        "--k-max k_max 10000 int None",
    ],
    "compare": COMMON_OPTIONS,
}


def shape(obj):
    """``obj``'s signature without annotations, e.g. ``(a, b=1, *args, **kwargs)``."""
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


GOLDENS = {smoothflow: PACKAGE_API, smoothflow.harness: HARNESS_API}


@pytest.mark.parametrize("module", GOLDENS, ids=lambda module: module.__name__)
def test_exported_names(module):
    assert sorted(module.__all__) == sorted(GOLDENS[module])


@pytest.mark.parametrize(
    "module,name",
    [
        pytest.param(module, name, id=f"{module.__name__}.{name}")
        for module, golden in GOLDENS.items()
        for name in sorted(golden)
    ],
)
def test_exported_signature(module, name):
    assert shape(getattr(module, name)) == GOLDENS[module][name]


def public_members(cls):
    """Name -> signature (or "property") of each public method and property
    that a smoothflow class in ``cls``'s MRO defines."""
    members = {}
    for owner in cls.__mro__:
        if not owner.__module__.startswith("smoothflow"):
            continue
        for name, value in vars(owner).items():
            if name.startswith("_") or name in members:
                continue
            if isinstance(value, property):
                members[name] = "property"
            elif inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod)):
                members[name] = shape(getattr(cls, name))
    return dict(sorted(members.items()))


EXPORTED_CLASSES = {
    name: getattr(module, name)
    for module in GOLDENS
    for name in sorted(module.__all__)
    if inspect.isclass(getattr(module, name))
}


def test_every_exported_class_is_pinned():
    assert sorted(EXPORTED_CLASSES) == sorted(PUBLIC_MEMBERS)


@pytest.mark.parametrize("name", sorted(EXPORTED_CLASSES))
def test_public_members(name):
    assert public_members(EXPORTED_CLASSES[name]) == PUBLIC_MEMBERS[name]


def subcommands():
    """The parser's subcommand name -> sub-parser map."""
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_subcommand_names():
    assert list(subcommands()) == list(CLI_API)


@pytest.mark.parametrize("command", CLI_API)
def test_subcommand_options(command):
    options = [
        " ".join(
            [
                *action.option_strings,
                action.dest,
                repr(action.default),
                getattr(action.type, "__name__", "None"),
                str(action.choices),
            ]
        )
        for action in subcommands()[command]._actions
    ]
    assert options == CLI_API[command]


def ledger():
    """Name -> user cell of each row of README's "Public contract" table."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Public contract\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", section, flags=re.MULTILINE)
    return {name: user.strip() for name, user in rows}, len(rows)


def test_public_contract_ledger_lists_every_export():
    users, rows = ledger()
    assert rows == len(users)  # no name listed twice
    assert sorted(users) == sorted(smoothflow.__all__)
    assert [name for name, user in users.items() if not user] == []
