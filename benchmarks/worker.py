"""One process's share of the untraced passes of a benchmark run.

Usage: python3 benchmarks/worker.py <job.json> <result.json>, started by
run.py from the root of a checkout. Several workers run one after
another, so the pass times of a run average over process-level effects
(memory placement, cache conflicts) that a single process would fix for
the whole run.
"""

import json
import os
import resource
import sys

import pipeline


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from smoothflow import cli

    verifier, passes = pipeline.timed_passes(
        cli, job["commands"], job["instances"], job["seconds"]
    )
    result = {
        "pass_wall_s": passes["wall"],
        "pass_ref": passes["ref"],
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "errors": verifier.errors,
        "counts": verifier.counts,
        "outputs_sha256": verifier.reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
