"""End-to-end and per-layer benchmark of the smoothflow CLI pipeline.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sgm-dense --seed 1 --seconds 21 --trace 0

One closed-loop client in one process drives the CLI subcommands of the
workload through ``smoothflow.cli.cli_main``; each call starts after the
previous one returns. ``--trace 0`` reports the end-to-end metrics with
no tracing; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics. Every call's outputs are checked. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(sample counts, per-subcommand times, output hashes, environment) is
written under ``.bench_work/results/``. See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pipeline
from tracer import Tracer, h_type_for, median_metrics

BENCH_DIR = pipeline.BENCH_DIR
# Set-up probes per run, each on its own problem instance: the Jacobi
# eigensolver's sweep count, and so the medium build's cost, depends on
# the instance, and the median over several instances keeps that out of
# the comparison between runs.
SETUP_PROBES = 13
SETUP_TIMEOUT_S = 120
PASS_WORKERS = 3
WORKER_TIMEOUT_S = 120


def _environment(root, np):
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_sha": None,
        "src_sha256": _tree_digest(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
    }
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _tree_digest(top):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _setup_seconds(root, spec, seed, work_dir):
    """Set-up (wall, reference) seconds of fresh interpreters.

    Each probe builds one of ``SETUP_PROBES`` instances of the workload's
    config, derived from ``seed`` as the workload's own instances are.
    One warm-up probe runs first and is dropped: it absorbs the one-time
    bytecode compilation in the checkout, which a user pays once, not
    on every call.
    """
    probes = pipeline.write_instances(
        dict(spec, instances=SETUP_PROBES), seed, os.path.join(work_dir, "setup")
    )
    configs = [config for config, _ in probes]
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    wall, ref = [], []
    for n, config in enumerate(configs[:1] + configs):
        done = subprocess.run(
            [sys.executable, probe, config],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        if n > 0:
            w, r = done.stdout.split()
            wall.append(float(w))
            ref.append(float(r))
    return wall, ref


def _command_key(cmd):
    return cmd.replace("-", "_")


def _worker_passes(root, commands, instances, seconds, work_dir):
    """Untraced passes split over PASS_WORKERS fresh processes in turn."""
    results = []
    for n in range(PASS_WORKERS):
        job = os.path.join(work_dir, f"job{n}.json")
        out = os.path.join(work_dir, f"worker{n}.json")
        with open(job, "w") as fh:
            json.dump(
                {"commands": commands, "instances": instances, "seconds": seconds / PASS_WORKERS},
                fh,
            )
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job, out],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=seconds + WORKER_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"pass worker failed:\n{done.stderr}")
        with open(out) as fh:
            results.append(json.load(fh))
    return results


def measure(root, workload, seed, seconds, trace, work_dir):
    """Run one benchmark measurement; returns the full result record."""
    import numpy as np

    spec = pipeline.load_workload(workload)
    commands = spec["commands"]
    instances = pipeline.write_instances(spec, seed, work_dir)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "instances": len(instances),
        "commands": commands,
        "env": _environment(root, np),
    }

    if trace:
        from smoothflow import cli

        tracer = Tracer()
        verifier, passes = pipeline.timed_passes(
            cli, commands, instances, seconds, tracer, h_type_for(spec["config"]["smoothing"])
        )
        record.update(
            attempted=verifier.attempted,
            failed=verifier.failed,
            errors=verifier.errors,
            output_counts=verifier.counts,
            outputs_sha256=verifier.reference,
            pass_wall_s=passes["wall"],
        )
        refs = passes["ref"]
    else:
        record["setup_wall_s"], record["setup_ref_s"] = _setup_seconds(root, spec, seed, work_dir)
        workers = _worker_passes(root, commands, instances, seconds, work_dir)
        first = workers[0]
        record.update(
            attempted=sum(w["attempted"] for w in workers),
            failed=sum(w["failed"] for w in workers),
            errors=[e for w in workers for e in w["errors"]],
            output_counts=first["counts"],
            outputs_sha256=first["outputs_sha256"],
            pass_wall_s=[t for w in workers for t in w["pass_wall_s"]],
            pass_workers=len(workers),
        )
        # Every process must write the same bytes and report the same counts.
        for n, w in enumerate(workers[1:], 1):
            ref, mine = first["outputs_sha256"], w["outputs_sha256"]
            moved = sorted(k for k in set(ref) | set(mine) if ref.get(k) != mine.get(k))
            if moved or w["counts"] != first["counts"]:
                record["failed"] += max(len(moved), 1)
                record["errors"].append(f"worker {n} differs from worker 0: {moved or w['counts']}")
        refs = [r for w in workers for r in w["pass_ref"]]

    record["pass_ref_s"] = [sum(r.values()) for r in refs]
    record["command_ref_s"] = {
        _command_key(cmd) + "_s": statistics.median(r[cmd] for r in refs) for cmd in commands
    }
    wall_s = statistics.median(record["pass_ref_s"])
    grad_evals = record["output_counts"]["grad_evals"]
    if not trace:
        record["metrics"] = {
            "wall_s": wall_s,
            "setup_s": statistics.median(record["setup_ref_s"]),
            "grad_evals": grad_evals,
            "grad_evals_per_s": grad_evals / wall_s,
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        }
        return record

    layers = median_metrics(passes["layers"])
    layers["trace.overhead_ratio"] = statistics.median(passes["traced_ref"]) / wall_s
    layers["error_rate"] = verifier.failed / verifier.attempted
    for cmd in pipeline.OUTPUTS:
        layers[f"cmd.{_command_key(cmd)}_share"] = (
            statistics.median(r[cmd] / sum(r.values()) for r in refs) if cmd in commands else 0.0
        )
    record["traced_pass_wall_s"] = passes["traced_wall"]
    record["generate_children_s"] = passes["layers"][-1]["_generate_children"]
    record["waiting_s"] = 0.0  # one thread, no queues or locks: nothing waits
    record["metrics"] = layers
    record["trace_consistency"] = _consistency(passes["layers"], verifier.counts)
    tracer.save(os.path.join(work_dir, "spans.npz"))
    return record


def _consistency(layer_passes, counts):
    """Traced counts against the counts the output files report."""
    problems = []
    for n, m in enumerate(layer_passes):
        expect = {
            "problem.grad_charged": counts["grad_evals"],
            "flow.attempts": counts["rk45_attempts"],
            "solver.records": counts["records"],
        }
        for key, want in expect.items():
            if m[key] != want:
                problems.append(f"traced pass {n}: {key} = {m[key]}, outputs say {want}")
    return problems


def _print_summary(record, contract):
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{len(record['pass_ref_s'])} timed passes of {record['instances']} instance(s), "
        f"{record['attempted']} calls, {record['failed']} failed"
    )
    if not record["trace"]:
        print(f"  setup_s is the median of {len(record['setup_ref_s'])} fresh processes")
    print("  times are reference seconds (calibrate.py); wall seconds are in the result file")
    for name, value in record["metrics"].items():
        print(f"  {name:36s} {value!r} {units.get(name, '')}")
    for name, value in record["command_ref_s"].items():
        print(f"  {name:36s} {value!r} s (median over untraced passes)")
    for err in record["errors"] + record.get("trace_consistency", []):
        print(f"  error: {err}")
    env = record["env"]
    print(
        f"  env: python {env['python']} numpy {env['numpy']} blas_threads {env['blas_threads']} "
        f"git {env['git_sha']} src_sha256 {env['src_sha256'][:16]}"
    )
    for name, digest in sorted(record["outputs_sha256"].items()):
        print(f"  sha256 {digest} {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "smoothflow", "cli.py")):
        print(f"error: no smoothflow sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import smoothflow

    if not os.path.abspath(smoothflow.__file__).startswith(src + os.sep):
        print(f"error: imported smoothflow from {smoothflow.__file__}, not {src}", file=sys.stderr)
        return 2
    try:
        pipeline.load_workload(args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    contract = pipeline.load_contract()

    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    record = measure(root, args.workload, args.seed, args.seconds, args.trace, work_dir)
    for i in range(record["instances"]):
        shutil.rmtree(os.path.join(work_dir, f"i{i}", "out"), ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in contract[kind]]
    metrics = {name: record["metrics"][name] for name in names}
    units = {m["name"]: m["unit"] for m in contract[kind]}
    correct = (
        record["failed"] == 0
        and not record.get("trace_consistency")
        and all(v is not None for v in metrics.values())
    )
    record["correct"] = correct
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    _print_summary(record, contract)
    print(f"result: {os.path.relpath(result_path, root)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
