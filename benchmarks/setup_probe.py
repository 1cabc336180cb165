"""Time the set-up every CLI call pays, in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py <config.json>, run from the
root of a checkout. Prints the wall seconds and the reference seconds
(see calibrate.py) spent importing smoothflow (numpy with it), loading
the config, generating the problem and building the schedule.
"""

import os
import sys
import time

from calibrate import SpeedSampler


def main(config):
    with SpeedSampler() as sampler:
        begin = time.perf_counter()
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        from smoothflow.harness import ExperimentConfig, generate_problem, schedule_from_config

        cfg = ExperimentConfig.from_file(config)
        generate_problem(cfg)
        # The CLI anchors schedules at t0 = 1.
        schedule_from_config(cfg.schedule, t0=1.0)
        seconds = time.perf_counter() - begin
    print(repr(seconds), repr(sampler.scale(seconds)))


if __name__ == "__main__":
    main(sys.argv[1])
