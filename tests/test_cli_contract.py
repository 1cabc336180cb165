"""The CLI's exit-code contract, as a property over drawn configs and flags.

README: a run exits 0 on success, 2 on a configuration or usage error, 3
on numerical divergence and 4 on schedule exhaustion under ``--strict``.
A refused or diverged run prints one ``error:`` line first and leaves no
file or directory behind; a run that succeeds writes each CSV under its
README header, and the same inputs write the same bytes again.

The grammar draws a valid config for every README field and a
subcommand with some of its flags, and then, in four examples of seven,
breaks one input: the config (a malformed value, a missing or unknown
key, a section that is not an object, or a file that is not a config),
one flag, or the path to the config. Sizes stay small so each example
runs in milliseconds: n <= 5, ``max_steps`` <= 200 (README's default of
1,250 where the key is dropped), ``t_end - t0`` <= 3 and ``k_max`` <=
5,000, and no drawn value, valid or malformed, enlarges them.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smoothflow.cli import cli_main
from smoothflow.harness import FLOW_COLUMNS, TIMELINE_COLUMNS, TRAJECTORY_COLUMNS

# README's CSV headers, by file name.
HEADERS = {
    "trajectory.csv": {TRAJECTORY_COLUMNS},
    "flow_euler.csv": {TRAJECTORY_COLUMNS},
    "flow_rk45.csv": {FLOW_COLUMNS},
    "compare.csv": {"series,t,mu,f_true,grad_evals"},
    "timeline_bounds.csv": {TIMELINE_COLUMNS},
    "discrete_bounds.csv": {"k,bound", "k,bound,closed_form_bound"},
    "rate_fit.csv": {"model,exponent,residual,normalized_residual"},
}

COMMANDS = [
    "generate", "solve-sgm", "solve-sgf-euler", "solve-sgf-rk45", "bounds", "rate-fit", "compare",
]

# Values no numeric field takes, and some extreme ones a field may take. None
# makes a run longer than the sizes above allow: a problem size past numpy's
# array limit is refused before anything is allocated.
NOT_NUMBERS = [None, True, False, "1", [1.0], {"v": 1.0}]
BAD_INTEGERS = NOT_NUMBERS + [0, -1, 2.5, math.nan, math.inf, -math.inf]
BAD_SIZES = BAD_INTEGERS + [10**400, 2**62]
BAD_FLOATS = NOT_NUMBERS + [0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, 5e-324, 1e300]

# mu0 and the rates stay where the flow over t_end - t0 <= 3 is not stiff: a
# stiff RK45 run is bounded only by its attempt limit (ROADMAP, small open
# defects), which these sizes do not reach.
SCHEDULES = {
    "power": {"mu0": st.floats(0.5, 4.0), "gamma": st.floats(0.05, 2.0)},
    "exp": {"mu0": st.floats(0.5, 4.0), "lambda": st.floats(0.05, 0.99)},
    "continuous-linear": {"mu0": st.floats(0.5, 4.0), "rate": st.floats(0.01, 2.0)},
    "continuous-exp": {"mu0": st.floats(0.5, 4.0), "gamma": st.floats(0.01, 1.0)},
    "continuous-reciprocal": {"mu0": st.floats(0.5, 4.0), "p": st.floats(0.05, 2.0)},
}
TOLERANCES = st.sampled_from([1e-2, 1e-3, 1e-4, 1e-6])


@st.composite
def valid_configs(draw):
    n_x = draw(st.integers(1, 5))
    problem = {
        "n_x": n_x,
        "n_A": draw(st.integers(1, 5)),
        "n_C": draw(st.integers(1, 5)),
        "rng_seed": draw(st.one_of(st.integers(0, 2**16), st.just(2**64 - 1))),
    }
    name = draw(st.sampled_from(sorted(SCHEDULES)))
    schedule = {"name": name, **{key: draw(s) for key, s in SCHEDULES[name].items()}}
    t0 = 1.0
    if draw(st.booleans()):
        t0 = schedule["t0"] = draw(st.sampled_from([0.0, 1.0, -2.5, 7.0]))
    run = {"max_steps": draw(st.integers(1, 200))}
    if draw(st.booleans()):
        run["record_stride"] = draw(st.one_of(st.integers(1, 12), st.just(10**30)))
    if draw(st.booleans()):
        run["t_end"] = t0 + draw(st.floats(0.01, 3.0))
    if draw(st.booleans()):
        run["rtol"], run["atol"] = draw(TOLERANCES), draw(TOLERANCES)
    if draw(st.booleans()):
        entries = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1e200, -1e200]))
        run["x0"] = draw(st.lists(entries, min_size=n_x, max_size=n_x))
    config = {"problem": problem, "schedule": schedule, "run": run}
    if draw(st.booleans()):
        config["smoothing"] = draw(st.sampled_from(["sqrt_l2", "huber_l2"]))
    if draw(st.booleans()):
        config["outputs"] = draw(st.sampled_from([None, "from_config"]))
    return config


def _bad_value(key):
    if key in ("n_x", "n_A", "n_C", "rng_seed"):
        return st.sampled_from(BAD_SIZES)
    if key in ("max_steps", "record_stride"):
        return st.sampled_from(BAD_INTEGERS)
    return st.sampled_from(BAD_FLOATS)


@st.composite
def broken(draw, config):
    """``config`` broken in one place, as a parsed JSON value or as raw file text."""
    kind = draw(st.sampled_from(["value", "drop", "unknown", "section", "entry", "file"]))
    sections = [s for s in ("problem", "schedule", "run") if config[s]]
    section = draw(st.sampled_from(sections))
    keys = sorted(config[section])
    if kind == "value":
        key = draw(st.sampled_from(keys))
        bad = draw(st.sampled_from(["moreau", 3, None]) if key == "name" else _bad_value(key))
        config[section][key] = bad
    elif kind == "drop":
        del config[section][draw(st.sampled_from(keys))]
    elif kind == "unknown":
        target = draw(st.sampled_from([config, config[section]]))
        target[draw(st.sampled_from(["extra", "recrod_stride", "gama", "lambda", "p"]))] = 1
    elif kind == "section":
        name = draw(st.sampled_from(["problem", "schedule", "run", "smoothing", "outputs"]))
        section = config.get(name)
        pairs = [list(item) for item in section.items()] if isinstance(section, dict) else []
        config[name] = draw(st.sampled_from([pairs, "ab", 5, None]))
    elif kind == "entry":
        x0 = config["run"].setdefault("x0", [0.0] * config["problem"]["n_x"])
        if draw(st.booleans()):
            x0.append(0.0)
        else:
            x0[draw(st.integers(0, len(x0) - 1))] = draw(st.sampled_from(BAD_FLOATS))
    else:
        return draw(st.sampled_from(["{not json", "[]", "null", "5", '{"problem": 1}']))
    return config


BAD_FLAG_NUMBERS = ["0", "-1", "nan", "inf", "x", ""]


@st.composite
def invocations(draw):
    """The argv of one call and the config file's text (None: no file).

    At most one input is broken: the config, one flag, or the path to
    the config.
    """
    command = draw(st.sampled_from(COMMANDS))
    fault = draw(st.sampled_from([None, None, None, "config", "config", "flag", "path"]))
    config = draw(valid_configs())
    if fault == "config":
        config = draw(broken(config))
    config = config if isinstance(config, str) else json.dumps(config)
    argv = [command]
    if command != "bounds" or draw(st.booleans()):
        argv += ["--config", "missing.json" if fault == "path" else "config.json"]
    else:
        config = None
    # Each optional flag: (name, valid values, malformed values).
    flags = [
        ("--seed", st.integers(0, 2**16), ["-1", str(2**64), "x"]),
        ("--format", st.sampled_from(["csv", "json"]), ["xml"]),
        ("--out", st.sampled_from(["out", "out/deeper"]), ["config.json"]),
    ]
    if command == "bounds":
        flags += [
            ("--schedule", st.sampled_from(["power", "exponential"]), ["linear"]),
            ("--gamma", st.floats(0.05, 2.0), BAD_FLAG_NUMBERS),
            ("--lambda", st.floats(0.05, 0.99), BAD_FLAG_NUMBERS + ["1", "1.5"]),
            ("--mu0", st.floats(0.1, 4.0), BAD_FLAG_NUMBERS),
            ("--lipschitz", st.floats(0.0, 10.0), BAD_FLAG_NUMBERS[1:]),
            ("--alpha", st.floats(0.1, 5.0), BAD_FLAG_NUMBERS),
            ("--k-max", st.sampled_from([1, 17, 400, 5000]), ["0", "-5", "x"]),
        ]
    if command == "rate-fit":
        flags += [
            ("--model", st.sampled_from(["power", "power_log", "inv_log"]), ["cubic"]),
            ("--window-min", st.integers(2, 50), ["x", "5000"]),
            ("--window-max", st.integers(80, 5000), ["x", "1"]),
        ]
    chosen = draw(st.lists(st.sampled_from(flags), unique_by=lambda flag: flag[0]))
    if command == "rate-fit":  # its default --k-max, 10,000, is past the sizes above
        flags.append(("--k-max", st.sampled_from([12, 300, 2000, 5000]), ["0", "-5"]))
        chosen.append(flags[-1])
    if fault == "flag":
        chosen.append(draw(st.sampled_from(flags)))
    for i, (name, valid, bad) in enumerate(chosen):
        broken_flag = fault == "flag" and i == len(chosen) - 1
        argv += [name, str(draw(st.sampled_from(bad)) if broken_flag else draw(valid))]
    if draw(st.booleans()):
        argv.append("--strict")
    return argv, config


def _call(argv, config):
    """Run ``argv`` in a fresh directory; its exit code, stderr and the files it left."""
    with tempfile.TemporaryDirectory() as root:
        if config is not None:
            with open(os.path.join(root, "config.json"), "w") as fh:
                fh.write(config)
        cwd = os.getcwd()
        os.chdir(root)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
        left = {}
        for dirpath, dirnames, filenames in os.walk(root):
            for name in dirnames + filenames:
                path = os.path.join(dirpath, name)
                if path != os.path.join(root, "config.json"):
                    left[os.path.relpath(path, root)] = (
                        None if name in dirnames else open(path, "rb").read()
                    )
        return code, err.getvalue(), left


def _config(section=None, **changes):
    """A small valid config's text, with ``changes`` made in ``section`` (None: the top level)."""
    config = {
        "problem": {"n_x": 3, "n_A": 4, "n_C": 2, "rng_seed": 1},
        "schedule": {"name": "power", "mu0": 1.0, "gamma": 0.5},
        "run": {"max_steps": 20},
    }
    (config if section is None else config[section]).update(changes)
    return json.dumps(config)


# Inputs that broke the contract, each found by hand or by this test.
@example((["generate", "--config", "config.json"], _config(outputs=5)))
@example((["solve-sgm", "--config", "config.json", "--out", "config.json"], _config()))
@example((["bounds", "--schedule", "power", "--gamma", "-1", "--out", "D"], None))
@example((["generate", "--config", "config.json"], _config("problem", n_A=10**400)))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_code_contract(invocation):
    argv, config = invocation
    code, err, left = _call(argv, config)
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        lines = err.splitlines()
        assert lines and lines[0].startswith("error:")
        assert sum(line.startswith("error:") for line in lines) == 1
        assert left == {}
        return
    written = {path: data for path, data in left.items() if data is not None}
    assert written
    for path, data in written.items():
        name = os.path.basename(path)
        if name.endswith(".csv"):
            assert data.decode().split("\n", 1)[0] in HEADERS[name]
    assert _call(argv, config) == (code, err, left)
