"""Workloads, one pass of the CLI pipeline, and the output checks.

A workload file under ``workloads/`` holds the CLI subcommands of one
pass, the number of problem instances a pass runs, and an experiment
config in the README schema. The benchmark writes the ``--seed`` it is
given into that config (one derived seed per instance); the program only
ever sees the generated config files.
"""

import copy
import hashlib
import json
import math
import os
import shutil
import time
import traceback

from calibrate import SpeedSampler

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")

# Fixed columns from the README's CLI section.
TRAJECTORY_HEADER = "k,t,s,mu,f_tilde,f_true,grad_norm,lyapunov,bound,grad_evals"
FLOW_HEADER = "t,mu,f_true,lyapunov_v,bound_ct,grad_evals"
TIMELINE_HEADER = "k,t_actual,t_lower,t_upper,mu_actual,mu_lower,mu_upper"
COMPARE_HEADER = "series,t,mu,f_true,grad_evals"
RATE_FIT_HEADER = "model,exponent,residual,normalized_residual"

# The generated problems plant x* with both residuals zero, so the
# optimal value is exactly 0.
F_STAR = 0.0

# Files each subcommand writes in its output directory (CSV format).
OUTPUTS = {
    "generate": ("problem.json",),
    "solve-sgm": ("trajectory.csv",),
    "solve-sgf-euler": ("flow_euler.csv",),
    "solve-sgf-rk45": ("flow_rk45.csv",),
    "bounds": ("timeline_bounds.csv", "discrete_bounds.csv"),
    "rate-fit": ("rate_fit.csv",),
    "compare": ("compare.csv",),
}

# Spacing of the derived per-instance seeds; instance 0 uses --seed itself.
_SEED_STRIDE = 1_000_003


def load_contract():
    """The repository's BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_names():
    return sorted(f[: -len(".json")] for f in os.listdir(WORKLOAD_DIR) if f.endswith(".json"))


def load_workload(name):
    path = os.path.join(WORKLOAD_DIR, name + ".json")
    if not os.path.isfile(path):
        raise ValueError(f"unknown workload {name!r}; choose from {workload_names()}")
    with open(path) as fh:
        return json.load(fh)


def write_instances(spec, seed, work_dir):
    """Write one config per instance; returns [(config path, output dir)]."""
    instances = []
    for i in range(int(spec["instances"])):
        cfg = copy.deepcopy(spec["config"])
        cfg["problem"]["rng_seed"] = (seed + i * _SEED_STRIDE) % 2**64
        inst_dir = os.path.join(work_dir, f"i{i}")
        os.makedirs(inst_dir, exist_ok=True)
        path = os.path.join(inst_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        instances.append((path, os.path.join(inst_dir, "out")))
    return instances


def run_pass(cli, commands, instances, calibrated=False):
    """Run every subcommand on every instance, one after another.

    Each instance's output directory is removed first, so the checks see
    only files this pass wrote. ``cli.cli_main`` is looked up on each
    call so that a tracer's wrapper, when installed, is the one invoked.
    Returns the wall
    seconds per subcommand, the reference seconds per subcommand (see
    ``calibrate``; None unless ``calibrated``) and the (instance,
    command, exit code) of every call.
    """
    wall = {cmd: 0.0 for cmd in commands}
    ref = {cmd: 0.0 for cmd in commands} if calibrated else None
    calls = []
    for _, out in instances:
        shutil.rmtree(out, ignore_errors=True)
    clock = time.perf_counter
    for i, (config, out) in enumerate(instances):
        for cmd in commands:
            argv = [cmd, "--config", config, "--out", out]
            if calibrated:
                with SpeedSampler() as sampler:
                    t0 = clock()
                    code = _call(cli, argv)
                    seconds = clock() - t0
                ref[cmd] += sampler.scale(seconds)
            else:
                t0 = clock()
                code = _call(cli, argv)
                seconds = clock() - t0
            wall[cmd] += seconds
            calls.append((i, cmd, code))
    return wall, ref, calls


def _call(cli, argv):
    """Exit code of one CLI call; an escaping exception fails the call."""
    try:
        return cli.cli_main(argv)
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        return f"uncaught {type(exc).__name__}: {exc}"


def file_hashes(instances, commands):
    """sha256 of every output file, keyed ``i<k>/<file>``."""
    hashes = {}
    for i, (_, out) in enumerate(instances):
        for cmd in commands:
            for name in OUTPUTS[cmd]:
                path = os.path.join(out, name)
                if os.path.isfile(path):
                    with open(path, "rb") as fh:
                        hashes[f"i{i}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class OutputCheckError(Exception):
    pass


def _csv_rows(path, header):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        got = lines[0] if lines else "<empty>"
        raise OutputCheckError(f"{os.path.basename(path)}: header {got!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_trajectory(path):
    """f_true - f* <= bound on every record with k >= 1."""
    rows = _csv_rows(path, TRAJECTORY_HEADER)
    if not rows:
        raise OutputCheckError(f"{path}: no records")
    for row in rows:
        k, f_true, bound = int(row[0]), float(row[5]), float(row[8])
        if k >= 1 and not (f_true - F_STAR <= bound):
            raise OutputCheckError(f"{path}: k={k} gap {f_true - F_STAR} > bound {bound}")
    return {"grad_evals": int(rows[-1][9]), "records": len(rows), "rk45_attempts": 0}


def _check_rk45(path):
    """f_true <= bound_ct for t > t0; final evaluations = 1 + 6 * attempts."""
    rows = _csv_rows(path, FLOW_HEADER)
    if not rows:
        raise OutputCheckError(f"{path}: no samples")
    t0 = float(rows[0][0])
    for row in rows[1:]:
        t, f_true, bound = float(row[0]), float(row[2]), float(row[4])
        if t > t0 and not (f_true - F_STAR <= bound):
            raise OutputCheckError(f"{path}: t={t} gap {f_true - F_STAR} > bound_ct {bound}")
    evals = int(rows[-1][5])
    if evals % 6 != 1:
        raise OutputCheckError(f"{path}: final grad_evals {evals} is not 1 mod 6")
    return {"grad_evals": evals, "records": 0, "rk45_attempts": (evals - 1) // 6}


def _check_compare(path):
    """SGM's charged evaluations stay within the RK45 budget."""
    rows = _csv_rows(path, COMPARE_HEADER)
    sgm = [int(r[4]) for r in rows if r[0] == "SGM"]
    rk45 = [int(r[4]) for r in rows if r[0] == "SGF-RK45"]
    if not sgm or not rk45:
        raise OutputCheckError(f"{path}: missing a series")
    if rk45[-1] % 6 != 1:
        raise OutputCheckError(f"{path}: RK45 grad_evals {rk45[-1]} is not 1 mod 6")
    if not sgm[-1] <= rk45[-1]:
        raise OutputCheckError(f"{path}: SGM used {sgm[-1]} > RK45 budget {rk45[-1]}")
    return {
        "grad_evals": sgm[-1] + rk45[-1],
        "records": len(sgm),
        "rk45_attempts": (rk45[-1] - 1) // 6,
    }


def _check_rate_fit(path):
    rows = _csv_rows(path, RATE_FIT_HEADER)
    if len(rows) != 1 or not math.isfinite(float(rows[0][1])):
        raise OutputCheckError(f"{path}: no finite rate exponent")
    return {}


def _check_timeline(path):
    rows = _csv_rows(path, TIMELINE_HEADER)
    if not rows or any(len(r) != 7 for r in rows):
        raise OutputCheckError(f"{path}: malformed rows")
    return {}


def _check_discrete_bounds(path):
    with open(path) as fh:
        header = fh.readline().strip()
    if header not in ("k,bound", "k,bound,closed_form_bound"):
        raise OutputCheckError(f"{path}: header {header!r}")
    rows = _csv_rows(path, header)
    if not rows or not all(math.isfinite(float(r[1])) and float(r[1]) > 0 for r in rows):
        raise OutputCheckError(f"{path}: bounds must be finite and positive")
    return {}


def _check_problem(path):
    with open(path) as fh:
        data = json.load(fh)["series"]
    if data["optimal_value"] != F_STAR:
        raise OutputCheckError(f"{path}: optimal value {data['optimal_value']} != {F_STAR}")
    return {}


_CHECKS = {
    "problem.json": _check_problem,
    "trajectory.csv": _check_trajectory,
    "flow_euler.csv": _check_trajectory,
    "flow_rk45.csv": _check_rk45,
    "timeline_bounds.csv": _check_timeline,
    "discrete_bounds.csv": _check_discrete_bounds,
    "rate_fit.csv": _check_rate_fit,
    "compare.csv": _check_compare,
}


def check_call(cmd, out_dir):
    """Check the files one subcommand wrote.

    Returns (error or None, counts), where counts sums the charged
    gradient evaluations, solver records and RK45 attempts the files
    report.
    """
    counts = {"grad_evals": 0, "records": 0, "rk45_attempts": 0}
    for name in OUTPUTS[cmd]:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return f"{cmd}: {name} was not written", counts
        try:
            found = _CHECKS[name](path)
        except (OutputCheckError, ValueError, IndexError, KeyError) as exc:
            return f"{cmd}: {exc}", counts
        for key, value in found.items():
            counts[key] += value
    return None, counts


class PassVerifier:
    """Checks every call of every pass and counts failures.

    The first pass is checked file by file and its hashes become the
    reference. A later call passes when it exits 0 and its files are
    byte-identical to the reference; outputs that moved fail the call.
    A call whose first-pass files failed a check is checked again.
    """

    def __init__(self, commands, instances):
        self.commands = commands
        self.instances = instances
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counts = {"grad_evals": 0, "records": 0, "rk45_attempts": 0}
        self.checked = set()  # (instance, command) whose first-pass files passed

    def verify(self, calls):
        hashes = file_hashes(self.instances, self.commands)
        first = self.reference is None
        for i, cmd, code in calls:
            self.attempted += 1
            error = None
            if code != 0:
                error = f"{cmd}: exit code {code}" if isinstance(code, int) else f"{cmd}: {code}"
            elif first:
                error, counts = check_call(cmd, self.instances[i][1])
                for key, value in counts.items():
                    self.counts[key] += value
                if error is None:
                    self.checked.add((i, cmd))
            elif (i, cmd) not in self.checked:
                error, _ = check_call(cmd, self.instances[i][1])
            else:
                moved = [
                    name
                    for name in OUTPUTS[cmd]
                    if hashes.get(f"i{i}/{name}") != self.reference.get(f"i{i}/{name}")
                ]
                if moved:
                    error = f"{cmd}: outputs differ from the first pass: {moved}"
            if error is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"instance {i}: {error}")
        if first:
            self.reference = hashes


def timed_passes(cli, commands, instances, seconds, tracer=None, h_type=None):
    """One warm-up pass, then calibrated passes until ``seconds`` elapse.

    The warm-up pass is checked file by file and is the reference for
    byte identity. With a ``tracer``, every untraced pass is followed by
    a traced one. Returns the verifier and the per-pass times (and, when
    traced, the per-layer metrics of each traced pass).
    """
    verifier = PassVerifier(commands, instances)
    _, _, calls = run_pass(cli, commands, instances)
    verifier.verify(calls)
    passes = {"wall": [], "ref": [], "traced_wall": [], "traced_ref": [], "layers": []}
    begin = time.perf_counter()
    while True:
        wall, ref, calls = run_pass(cli, commands, instances, calibrated=True)
        verifier.verify(calls)
        passes["wall"].append(sum(wall.values()))
        passes["ref"].append(ref)
        if tracer is not None:
            tracer.current_pass = len(passes["layers"])
            with tracer.installed(h_type):
                wall, ref, calls = run_pass(cli, commands, instances, calibrated=True)
            verifier.verify(calls)
            passes["traced_wall"].append(sum(wall.values()))
            passes["traced_ref"].append(sum(ref.values()))
            passes["layers"].append(tracer.pass_metrics(tracer.current_pass, passes["traced_wall"][-1]))
        if time.perf_counter() - begin >= seconds:
            return verifier, passes
