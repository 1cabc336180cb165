"""Repeat, pair and compare benchmark runs.

Run from the root of a checkout:

    # ten runs per workload, seeds 1..10, with the spread of each metric
    python3 benchmarks/compare.py record --seeds 1-10 --out BENCH_n.json

    # parent against change, alternating which side runs first
    python3 benchmarks/compare.py pair --parent ../parent --change . --pairs 10

    # two saved collections, e.g. the committed baseline and a new one
    python3 benchmarks/compare.py report benchmarks/baseline/BENCH_0.json BENCH_n.json

``pair`` runs this directory's benchmark code against both checkouts'
``src/``, so both sides are measured with identical benchmark code and
settings. A metric whose run-to-run spread on the parent exceeds its
bound is reported as unresolved unless every change run beats every
parent run. Output hashes that moved are listed, not failed: a change
that moves bytes must name them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from pipeline import load_contract

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
RUN_TIMEOUT_S = 900


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run in ``checkout``; returns its full result record."""
    done = subprocess.run(
        [
            sys.executable,
            RUN,
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"benchmark failed in {checkout}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    rel = next(line for line in lines if line.startswith("result: "))[len("result: ") :]
    with open(os.path.join(checkout, rel)) as fh:
        record = json.load(fh)
    record["summary"] = json.loads(lines[-1])
    return record


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_table(runs, contract):
    """Median, quartiles and spread per workload and end-to-end metric."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in mine]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "runs": len(values),
                    "median": med,
                    "q1": q1,
                    "q3": q3,
                    "spread": spread,
                    "bound": metric["bound"],
                    "steady": spread < metric["bound"] / 3.0,
                }
            )
    return rows


def _pairs(parent, change):
    """Match runs by (workload, seed, repeat index)."""
    def keyed(runs):
        out, seen = {}, {}
        for r in runs:
            base = (r["workload"], r["seed"])
            n = seen.get(base, 0)
            seen[base] = n + 1
            out[base + (n,)] = r
        return out

    p = keyed(r for r in parent if not r["trace"])
    c = keyed(r for r in change if not r["trace"])
    return [(p[k], c[k]) for k in sorted(set(p) & set(c))]


def compare(parent, change, contract):
    """Per workload and end-to-end metric: medians, quartiles, wins, verdict."""
    rows = []
    outputs = {}
    pairs = _pairs(parent, change)
    for workload in sorted({p["workload"] for p, _ in pairs}):
        mine = [(p, c) for p, c in pairs if p["workload"] == workload]
        failed = [sum(p["failed"] for p, _ in mine), sum(c["failed"] for _, c in mine)]
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            pv = [p["metrics"][name] for p, _ in mine]
            cv = [c["metrics"][name] for _, c in mine]
            pq1, pmed, pq3 = _quartiles(pv)
            cq1, cmed, cq3 = _quartiles(cv)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            win_fraction = wins / len(mine)
            spread = (pq3 - pq1) / pmed if pmed else float("inf")
            worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif win_fraction >= 0.9 and -worse * pmed > (pq3 - pq1):
                # A gain does not count when more calls fail than before.
                verdict = "improved" if failed[1] <= failed[0] else "not-counted-more-failures"
            else:
                verdict = "within-bound"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "pairs": len(mine),
                    "parent": [pq1, pmed, pq3],
                    "change": [cq1, cmed, cq3],
                    "win_fraction": win_fraction,
                    "parent_spread": spread,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
        names = set()
        for p, c in mine:
            a, b = p["outputs_sha256"], c["outputs_sha256"]
            names.update(n for n in set(a) | set(b) if a.get(n) != b.get(n))
        outputs[workload] = {"moved_hashes": sorted(names), "failed_calls": failed}
    return rows, outputs


def print_spreads(rows):
    print(f"{'workload':16s} {'metric':18s} {'runs':>4s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for r in rows:
        flag = "steady" if r["steady"] else "NOT STEADY (spread >= bound/3)"
        print(
            f"{r['workload']:16s} {r['metric']:18s} {r['runs']:4d} {r['median']:14.6g} "
            f"{r['spread']:8.4f} {r['bound']:6.3f} {flag}"
        )


def print_comparison(rows, outputs):
    print("workload metric pairs | parent q1 median q3 | change q1 median q3 | wins verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(
            f"{r['workload']} {r['metric']} {r['pairs']} | "
            f"{p[0]:.6g} {p[1]:.6g} {p[2]:.6g} | {c[0]:.6g} {c[1]:.6g} {c[2]:.6g} | "
            f"{r['win_fraction']:.2f} {r['verdict']}"
        )
    for workload, out in outputs.items():
        names = out["moved_hashes"]
        print(
            f"{workload}: failed calls parent {out['failed_calls'][0]}, change "
            f"{out['failed_calls'][1]}; moved output hashes: {', '.join(names) or 'none'}"
        )


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat, pair and compare benchmark runs.")
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="repeat the benchmark in this checkout")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--workload", action="append", choices=workloads)
    rec.add_argument(
        "--with-trace", action="store_true", help="add one traced run per workload (first seed)"
    )
    rec.add_argument("--out")
    pair = sub.add_parser("pair", help="alternate parent and change runs")
    pair.add_argument("--parent", required=True)
    pair.add_argument("--change", default=".")
    pair.add_argument("--pairs", type=int, default=10)
    pair.add_argument("--seed", type=int, default=1)
    pair.add_argument("--workload", action="append", choices=workloads)
    pair.add_argument("--out")
    rep = sub.add_parser("report", help="compare two saved collections")
    rep.add_argument("parent")
    rep.add_argument("change")
    args = parser.parse_args(argv)

    if args.mode == "report":
        # A collection written by ``pair`` holds both sides, labelled.
        with open(args.parent) as fh:
            parent = [r for r in json.load(fh)["runs"] if r.get("side") != "change"]
        with open(args.change) as fh:
            change = [r for r in json.load(fh)["runs"] if r.get("side") != "parent"]
        print_comparison(*compare(parent, change, contract))
        return 0

    chosen = args.workload or workloads
    seconds = contract["run_seconds"]
    if args.mode == "record":
        runs = []
        for workload in chosen:
            for seed in _seeds(args.seeds):
                record = run_once(os.getcwd(), workload, seed, seconds)
                runs.append(record)
                print(
                    f"{workload} seed {seed}: "
                    + " ".join(f"{k}={v:.6g}" for k, v in record["metrics"].items()),
                    flush=True,
                )
            if args.with_trace:
                seed = _seeds(args.seeds)[0]
                runs.append(run_once(os.getcwd(), workload, seed, seconds, trace=1))
                print(f"{workload} seed {seed}: traced run done", flush=True)
        rows = spread_table(runs, contract)
        print_spreads(rows)
        payload = {"runs": runs, "spreads": rows}
    else:
        parent, change = [], []
        for workload in chosen:
            for n in range(args.pairs):
                order = [("parent", args.parent), ("change", args.change)]
                if n % 2:
                    order.reverse()
                for side, checkout in order:
                    record = run_once(os.path.abspath(checkout), workload, args.seed, seconds)
                    record["side"] = side
                    (parent if side == "parent" else change).append(record)
                print(f"{workload}: pair {n + 1}/{args.pairs} done", flush=True)
        rows, outputs = compare(parent, change, contract)
        print_comparison(rows, outputs)
        payload = {"runs": parent + change, "comparison": rows, "outputs": outputs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
