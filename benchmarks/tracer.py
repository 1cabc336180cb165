"""Span tracer that times smoothflow's public functions from outside.

The tracer wraps functions of the installed ``smoothflow`` modules
without editing them. Several modules import functions by name (``from
.problem import smoothed_grad``), so a wrapper is rebound in every
``smoothflow`` module whose attribute is the original object, and
methods are wrapped on their class. ``installed()`` restores every
original on exit, so untraced passes run the unmodified code.

Each span records a name, start, end, parent span and pass id in flat
arrays that live until the run ends. Counts (draws, bytes, records) are
taken at the same boundaries from call arguments and return values.
One thread runs everything, so spans nest strictly and no span ever
waits on a queue or lock.
"""

import contextlib
import functools
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Span names for charged and uncharged gradient evaluations; the
# distinction is whether a GradEvalCounter was passed.
GRAD = "problem.smoothed_grad"
GRAD_FREE = "problem.smoothed_grad.uncharged"
APPROX = ("approx.value", "approx.grad_x", "approx.underlying_value")
SERIALIZERS = ("trajectory_csv", "flow_csv", "timeline_csv", "series_csv", "json_envelope")


class Tracer:
    """In-memory span store plus per-pass counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.pass_id = array("H")
        self.counts = defaultdict(lambda: defaultdict(float))
        self.steps_h = defaultdict(list)
        self.current_pass = 0
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, value=1):
        self.counts[self.current_pass][key] += value

    def wrap(self, name, fn, classify=None, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``classify(args, kwargs)`` may pick another span name per call;
        ``on_return(tracer, args, kwargs, result)`` records counts.
        """
        default_id = self._name_id(name)
        ids = {name: default_id}
        stack = self._stack
        names, parents, starts, ends, passes = (
            self.name, self.parent, self.start, self.end, self.pass_id
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = default_id
            if classify is not None:
                label = classify(args, kwargs)
                nid = ids.get(label)
                if nid is None:
                    nid = ids[label] = self._name_id(label)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(self.current_pass)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self, h_type):
        """Wrap every traced function for the duration of the block.

        ``h_type`` is the class of the problems' smoothed ``h`` term,
        whose ``value``/``grad_x``/``underlying_value`` are wrapped.
        """
        restore = []
        try:
            for owner, attr, span, classify, on_return in _targets(h_type):
                original = owner.__dict__[attr]
                wrapper = self.wrap(span, original, classify, on_return)
                if isinstance(owner, type):
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in _smoothflow_modules():
                    if module.__dict__.get(attr) is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def save(self, path):
        """Write every span (and the name table) to an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.uint16),
        )

    def pass_metrics(self, pass_id, wall_s):
        """Per-layer metrics of one traced pass (see README.md)."""
        return _aggregate(self, pass_id, wall_s)


def h_type_for(smoothing):
    """Class of the smoothed h term that generated problems use."""
    from smoothflow.harness import ExperimentConfig, generate_problem

    cfg = ExperimentConfig(n_x=1, n_a=1, n_c=1, rng_seed=0, smoothing=smoothing)
    return type(generate_problem(cfg).h)


def _smoothflow_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "smoothflow" or name.startswith("smoothflow."))
    ]


def _grad_label(args, kwargs):
    counter = args[3] if len(args) > 3 else kwargs.get("counter")
    return GRAD if counter is not None else GRAD_FREE


def _count_draws(tracer, args, kwargs, result):
    tracer.count("rng.draws", result.size)


def _count_terms(tracer, args, kwargs, result):
    tracer.count("approx.terms", len(result.terms))


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("harness.serialize_bytes", len(result.encode()))


def _count_records(tracer, args, kwargs, result):
    tracer.count("solver.records", len(result.records))


def _count_samples(tracer, args, kwargs, result):
    tracer.count("flow.samples", len(result))
    tracer.count("flow.accepted", len(result) - 1)
    ts = [s.t for s in result]
    tracer.steps_h[tracer.current_pass].extend(b - a for a, b in zip(ts, ts[1:]))


def _count_series(tracer, args, kwargs, result):
    tracer.count("analysis.bound_series_terms", len(result[0]))


def _targets(h_type):
    """(owner, attribute, span name, classify, on_return) per traced function."""
    from smoothflow import (
        _linalg,
        analysis,
        approx,
        cli,
        flow,
        harness,
        problem,
        rng,
        schedule,
        solver,
    )

    out = [
        (rng.Xoshiro256pp, "normals", "rng.normals", None, _count_draws),
        (_linalg, "symmetric_eigenvalues", "linalg.eig", None, None),
        (_linalg, "spectral_norm", "linalg.spectral_norm", None, None),
        (_linalg, "adaptive_simpson", "linalg.simpson", None, None),
        (approx, "affine_sum", "approx.affine_sum", None, _count_terms),
        (h_type, "value", "approx.value", None, None),
        (h_type, "grad_x", "approx.grad_x", None, None),
        (h_type, "underlying_value", "approx.underlying_value", None, None),
        (problem, "smoothed_grad", GRAD, _grad_label, None),
        (problem, "smoothed_value", "problem.smoothed_value", None, None),
        (problem.CompositeProblem, "true_value", "problem.true_value", None, None),
        (schedule, "advance", "schedule.advance", None, None),
        (schedule, "initial_state", "schedule.initial_state", None, None),
        (solver, "run_sgm", "solver.run_sgm", None, _count_records),
        (solver, "lyapunov_discrete", "solver.lyapunov_discrete", None, None),
        (solver, "bound_discrete", "solver.bound_discrete", None, None),
        (flow, "integrate_rk45", "flow.integrate_rk45", None, _count_samples),
        (flow, "integrate_euler", "flow.integrate_euler", None, None),
        (flow, "lyapunov_continuous", "flow.lyapunov_continuous", None, None),
        (flow, "bound_continuous", "flow.bound_continuous", None, None),
        (analysis, "discrete_bound_series", "analysis.discrete_bound_series", None, _count_series),
        (analysis, "timeline_table", "analysis.timeline_table", None, None),
        (analysis, "fit_rate", "analysis.fit_rate", None, None),
        (harness, "generate_problem", "harness.generate_problem", None, None),
        (cli, "cli_main", "cli.cli_main", None, None),
    ]
    out += [(harness, fn, "harness." + fn, None, _count_bytes) for fn in SERIALIZERS]
    return out


_SOLVERS = ("solver.run_sgm", "flow.integrate_rk45")
_PARENTS_OF_INTEREST = _SOLVERS + ("harness.generate_problem",)
# Monitors called directly by run_sgm (records) and integrate_rk45 (samples).
_SGM_MONITORS = (
    "solver.lyapunov_discrete",
    "solver.bound_discrete",
    "problem.smoothed_value",
    "problem.true_value",
)
_FLOW_MONITORS = ("flow.lyapunov_continuous", "flow.bound_continuous", "problem.true_value")


def _percentile(values, q):
    """Nearest-rank percentile; None unless >= 10 samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def _aggregate(tracer, pass_id, wall_s):
    # Passes run one after another, so a pass's spans are contiguous.
    ids = tracer.pass_id
    lo = next(i for i in range(len(ids)) if ids[i] == pass_id)
    hi = lo
    while hi < len(ids) and ids[hi] == pass_id:
        hi += 1
    n = hi - lo
    names = tracer.names
    name_of = [names[tracer.name[i]] for i in range(lo, hi)]
    parent = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
    dur = [e - s for s, e in zip(tracer.start[lo:hi], tracer.end[lo:hi])]
    start = tracer.start[lo:hi]

    child_time = [0.0] * n
    approx_below = [0] * n  # residual (C x) evaluations at or below a span
    for j in range(n - 1, -1, -1):
        if name_of[j] in APPROX:
            approx_below[j] += 1
        p = parent[j]
        if p >= 0:
            child_time[p] += dur[j]
            approx_below[p] += approx_below[j]

    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for j in range(n):
        nm = name_of[j]
        total[nm] += dur[j]
        calls[nm] += 1
        self_time[nm] += dur[j] - child_time[j]

    children = defaultdict(list)
    evals_in_solvers = 0  # smoothed/true values evaluated inside a solver
    owner = [-1] * n
    for j in range(n):
        p = parent[j]
        nm = name_of[j]
        owner[j] = j if nm in _SOLVERS else (owner[p] if p >= 0 else -1)
        if owner[j] >= 0 and nm in ("problem.smoothed_value", "problem.true_value"):
            evals_in_solvers += 1
        if p >= 0 and name_of[p] in _PARENTS_OF_INTEREST:
            children[p].append(j)

    monitor_s = 0.0
    sample_s = 0.0
    steps = 0
    attempts = 0
    gaps = []
    records_seen = 0
    residual_at_records = 0
    generate_children = defaultdict(float)
    for p, kids in children.items():
        pn = name_of[p]
        if pn == "harness.generate_problem":
            for c in kids:
                generate_children[name_of[c]] += dur[c]
        elif pn == "flow.integrate_rk45":
            charged = 0
            for c in kids:
                cn = name_of[c]
                if cn == GRAD:
                    charged += 1
                elif cn in _FLOW_MONITORS:
                    sample_s += dur[c]
            # One evaluation up front plus six per attempted step (FSAL).
            attempts += (charged - 1) // 6
        elif pn == "solver.run_sgm":
            # Each loop iteration makes one smoothed_grad call, then, when
            # it records, the monitors (only a record calls true_value).
            iterations = []  # [residual evaluations, recorded?]
            last_grad = None
            for c in kids:
                cn = name_of[c]
                if cn in (GRAD, GRAD_FREE):
                    iterations.append([0, False])
                    if cn == GRAD:
                        steps += 1
                        if last_grad is not None:
                            gaps.append((start[c] - last_grad) * 1e6)
                        last_grad = start[c]
                if cn in _SGM_MONITORS:
                    monitor_s += dur[c]
                if iterations:
                    iterations[-1][0] += approx_below[c]
                    if cn == "problem.true_value":
                        iterations[-1][1] = True
            for evals, recorded in iterations:
                if recorded:
                    records_seen += 1
                    residual_at_records += evals

    cnt = tracer.counts[pass_id]
    records = int(cnt["solver.records"])
    samples = int(cnt["flow.samples"])
    accepted = int(cnt["flow.accepted"])
    h = tracer.steps_h[pass_id]
    grad_calls = calls[GRAD] + calls[GRAD_FREE]

    def share(seconds):
        return seconds / wall_s

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "rng.normals_s": total["rng.normals"],
        "rng.draws": int(cnt["rng.draws"]),
        "linalg.eig_s": total["linalg.eig"],
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.spectral_norm_s": total["linalg.spectral_norm"],
        "linalg.spectral_norm_calls": calls["linalg.spectral_norm"],
        "linalg.simpson_share": share(total["linalg.simpson"]),
        "linalg.simpson_calls": calls["linalg.simpson"],
        "approx.affine_sum_build_s": self_time["approx.affine_sum"],
        "approx.terms": int(cnt["approx.terms"]),
        "approx.value_calls": calls["approx.value"],
        "approx.grad_x_calls": calls["approx.grad_x"],
        "approx.underlying_calls": calls["approx.underlying_value"],
        "approx.residual_evals_per_record": ratio(residual_at_records, records_seen),
        "problem.grad_s": total[GRAD] + total[GRAD_FREE],
        "problem.grad_calls": grad_calls,
        "problem.grad_charged": calls[GRAD],
        "problem.grad_charged_ratio": ratio(calls[GRAD], grad_calls),
        "problem.value_s": total["problem.smoothed_value"],
        "problem.value_calls": calls["problem.smoothed_value"],
        "problem.true_value_s": total["problem.true_value"],
        "problem.true_value_calls": calls["problem.true_value"],
        "problem.evals_per_record": ratio(evals_in_solvers, records + samples),
        "schedule.advance_s": total["schedule.advance"],
        "schedule.advance_calls": calls["schedule.advance"],
        "solver.run_s": total["solver.run_sgm"],
        "solver.self_s": self_time["solver.run_sgm"],
        "solver.monitor_s": monitor_s,
        "solver.steps": steps,
        "solver.records": records,
        "solver.step_us_p50": _percentile(gaps, 50),
        "solver.step_us_p99": _percentile(gaps, 99),
        "flow.rk45_share": share(total["flow.integrate_rk45"]),
        "flow.self_share": share(self_time["flow.integrate_rk45"]),
        "flow.sample_share": share(sample_s),
        "flow.attempts": attempts,
        "flow.accepted": accepted,
        "flow.rejected": attempts - accepted,
        "flow.accept_ratio": ratio(accepted, attempts),
        "flow.h_min": min(h) if h else 0.0,
        "flow.h_max": max(h) if h else 0.0,
        "analysis.bound_series_share": share(total["analysis.discrete_bound_series"]),
        "analysis.bound_series_terms": int(cnt["analysis.bound_series_terms"]),
        "analysis.timeline_table_share": share(total["analysis.timeline_table"]),
        "analysis.fit_rate_share": share(total["analysis.fit_rate"]),
        "harness.generate_problem_s": total["harness.generate_problem"],
        "harness.serialize_s": sum(total["harness." + fn] for fn in SERIALIZERS),
        "harness.serialize_bytes": int(cnt["harness.serialize_bytes"]),
        "cli.self_s": self_time["cli.cli_main"],
        "trace.wall_s": wall_s,
        "trace.spans": n,
        "_generate_children": dict(generate_children),
    }


def median_metrics(per_pass):
    """Median over passes of each numeric per-layer metric."""
    out = {}
    for key in per_pass[0]:
        if key.startswith("_"):
            continue
        values = [m[key] for m in per_pass if m[key] is not None]
        if not values:
            out[key] = None
        elif all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out
