"""Self-consistency of the benchmark's tracer, output checks and pass verifier.

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""

import pytest

import pipeline
from smoothflow import cli, flow, problem, solver
from tracer import Tracer, h_type_for

# Scaled-down copies of the committed workloads: same subcommands and
# layers, a fraction of the steps.
SMALL = {
    "sgm": {
        "commands": ["generate", "solve-sgm", "bounds", "rate-fit"],
        "instances": 1,
        "config": {
            "problem": {"n_x": 4, "n_A": 8, "n_C": 12, "rng_seed": 0},
            "smoothing": "sqrt_l2",
            "schedule": {"name": "power", "mu0": 1.0, "gamma": 0.5},
            "run": {"max_steps": 300, "record_stride": 7},
        },
    },
    "flow": {
        "commands": ["solve-sgf-rk45", "solve-sgf-euler", "compare"],
        "instances": 2,
        "config": {
            "problem": {"n_x": 4, "n_A": 8, "n_C": 12, "rng_seed": 0},
            "smoothing": "huber_l2",
            "schedule": {"name": "continuous-reciprocal", "mu0": 1.0, "p": 1.0},
            "run": {"max_steps": 200, "t_end": 2.0, "rtol": 1e-6, "atol": 1e-9},
        },
    },
}


def _traced_pass(spec, tmp_path, seed=5):
    instances = pipeline.write_instances(spec, seed, str(tmp_path))
    verifier = pipeline.PassVerifier(spec["commands"], instances)
    _, _, calls = pipeline.run_pass(cli, spec["commands"], instances)
    verifier.verify(calls)
    tracer = Tracer()
    with tracer.installed(h_type_for(spec["config"]["smoothing"])):
        wall, _, calls = pipeline.run_pass(cli, spec["commands"], instances)
    verifier.verify(calls)
    return verifier, tracer.pass_metrics(0, sum(wall.values()))


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_counts_match_outputs(kind, tmp_path):
    verifier, layers = _traced_pass(SMALL[kind], tmp_path)
    assert verifier.failed == 0, verifier.errors
    counts = verifier.counts
    assert layers["problem.grad_charged"] == counts["grad_evals"] > 0
    assert layers["flow.attempts"] == counts["rk45_attempts"]
    assert layers["solver.records"] == counts["records"] > 0


def test_traced_outputs_are_byte_identical(tmp_path):
    # verify() fails any call whose files differ from the untraced pass.
    for kind, spec in SMALL.items():
        verifier, _ = _traced_pass(spec, tmp_path / kind)
        assert verifier.attempted == 2 * len(spec["commands"]) * spec["instances"]
        assert verifier.failed == 0, verifier.errors


def test_per_record_evaluation_counts(tmp_path):
    # One recorded SGM iterate: 1 gradient + 3 smoothed values + 1 true
    # value, each computing the residual once.
    _, layers = _traced_pass(SMALL["sgm"], tmp_path)
    assert layers["approx.residual_evals_per_record"] == 5.0
    assert layers["problem.evals_per_record"] == 4.0
    assert layers["solver.steps"] == SMALL["sgm"]["config"]["run"]["max_steps"]


def test_installed_restores_originals():
    before = (
        cli.cli_main,
        solver.smoothed_value,
        flow.run_sgm,
        problem.CompositeProblem.true_value,
    )
    spec = SMALL["sgm"]
    with Tracer().installed(h_type_for(spec["config"]["smoothing"])):
        assert solver.smoothed_value is not before[1]
        assert flow.run_sgm is not before[2]
    after = (
        cli.cli_main,
        solver.smoothed_value,
        flow.run_sgm,
        problem.CompositeProblem.true_value,
    )
    assert after == before


def test_failed_check_counts_as_error(tmp_path):
    spec = SMALL["sgm"]
    instances = pipeline.write_instances(spec, 5, str(tmp_path))
    verifier = pipeline.PassVerifier(spec["commands"], instances)
    _, _, calls = pipeline.run_pass(cli, spec["commands"], instances)
    verifier.verify(calls)
    path = tmp_path / "i0" / "out" / "rate_fit.csv"
    path.write_text(path.read_text().replace(",", ";", 1))
    verifier.verify([(0, "rate-fit", 0), (0, "solve-sgm", 3)])
    assert verifier.failed == 2
    assert "differ" in verifier.errors[0] and "exit code 3" in verifier.errors[1]


def test_first_pass_check_failure_is_not_cached(tmp_path):
    spec = SMALL["sgm"]
    instances = pipeline.write_instances(spec, 5, str(tmp_path))
    verifier = pipeline.PassVerifier(spec["commands"], instances)
    _, _, calls = pipeline.run_pass(cli, spec["commands"], instances)
    path = tmp_path / "i0" / "out" / "rate_fit.csv"
    path.write_text(path.read_text().replace("model", "mode", 1))
    verifier.verify(calls)
    verifier.verify(calls)  # same bytes again: still a failed check
    assert verifier.failed == 2
    assert all("header" in e for e in verifier.errors)


def test_call_that_writes_nothing_fails(tmp_path):
    # A later pass starts from empty output directories, so a call that
    # exits 0 without writing cannot pass on the files of an earlier pass.
    spec = SMALL["sgm"]
    instances = pipeline.write_instances(spec, 5, str(tmp_path))
    verifier = pipeline.PassVerifier(spec["commands"], instances)
    _, _, calls = pipeline.run_pass(cli, spec["commands"], instances)
    verifier.verify(calls)

    class Silent:
        @staticmethod
        def cli_main(argv):
            return 0

    _, _, calls = pipeline.run_pass(Silent, spec["commands"], instances)
    verifier.verify(calls)
    assert verifier.failed == len(spec["commands"])
    assert all("differ" in e for e in verifier.errors)
