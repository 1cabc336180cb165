import hashlib
import json
import os

import pytest

from smoothflow.cli import cli_main

STRONG = {
    "problem": {"n_x": 6, "n_A": 9, "n_C": 8, "rng_seed": 777},
    "smoothing": "sqrt_l2",
    "schedule": {"name": "power", "mu0": 1.0, "gamma": 0.5},
    "run": {"max_steps": 40},
}

CONTINUOUS = {
    "problem": {"n_x": 6, "n_A": 9, "n_C": 8, "rng_seed": 777},
    "smoothing": "sqrt_l2",
    "schedule": {"name": "continuous-exp", "mu0": 1.0, "gamma": 2.0, "t0": 1.0},
    "run": {"max_steps": 40, "t_end": 1.3, "rtol": 1e-4, "atol": 1e-7},
}

# lambda**k underflows the positivity floor near k ~ 1074, well inside
# the step budget, so this run always ends schedule-exhausted
EXHAUSTING = {
    "problem": {"n_x": 6, "n_A": 9, "n_C": 8, "rng_seed": 777},
    "smoothing": "sqrt_l2",
    "schedule": {"name": "exp", "mu0": 1.0, "lambda": 0.5},
    "run": {"max_steps": 3000},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def run(args):
    return cli_main(list(args))


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["solve-sgm", "--frob"]) == 2

    def test_missing_config(self, capsys):
        assert run(["solve-sgm"]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["solve-sgm", "--config", str(path)]) == 2

    def test_strict_schedule_exhaustion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EXHAUSTING)
        out = tmp_path / "out"
        assert run(["solve-sgm", "--config", cfg, "--out", str(out), "--strict"]) == 4
        # without --strict the run is written and reported as success
        assert run(["solve-sgm", "--config", cfg, "--out", str(out)]) == 0

    def test_numerical_divergence_maps_to_three(self, tmp_path, monkeypatch, capsys):
        from smoothflow import cli
        from smoothflow.errors import NumericalDivergenceError

        def explode(*args, **kwargs):
            raise NumericalDivergenceError(7)

        monkeypatch.setattr(cli, "run_sgm", explode)
        cfg = write_config(tmp_path, STRONG)
        assert run(["solve-sgm", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


class TestOutputs:
    def test_generate_writes_problem_json(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        out = tmp_path / "out"
        assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "problem.json").read_text())
        assert payload["series"]["optimal_value"] == 0.0
        assert len(payload["series"]["x_star"]) == 6

    def test_solve_sgm_csv_header(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        out = tmp_path / "out"
        assert run(["solve-sgm", "--config", cfg, "--out", str(out)]) == 0
        first_line = (out / "trajectory.csv").read_text().split("\n")[0]
        assert first_line == "k,t,s,mu,f_tilde,f_true,grad_norm,lyapunov,bound,grad_evals"

    def test_solve_sgm_json_envelope(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        out = tmp_path / "out"
        assert run(["solve-sgm", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["series"]["status"] == "budget-exhausted"
        assert len(payload["series"]["records"]) == 41

    def test_solve_euler_requires_continuous_schedule(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        assert run(["solve-sgf-euler", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_solve_euler_and_rk45(self, tmp_path):
        cfg = write_config(tmp_path, CONTINUOUS)
        out = tmp_path / "out"
        assert run(["solve-sgf-euler", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "flow_euler.csv").exists()
        assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(out)]) == 0
        flow = (out / "flow_rk45.csv").read_text().split("\n")
        assert flow[0] == "t,mu,f_true,lyapunov_v,bound_ct,grad_evals"

    def test_bounds_by_flags(self, tmp_path):
        out = tmp_path / "out"
        assert (
            run(
                [
                    "bounds",
                    "--schedule",
                    "power",
                    "--gamma",
                    "1",
                    "--k-max",
                    "50",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = (out / "timeline_bounds.csv").read_text()
        assert text.startswith("k,t_actual,t_lower,t_upper,mu_actual,mu_lower,mu_upper\n")
        assert len(text.strip().split("\n")) == 51

    def test_bounds_with_config_adds_discrete_series(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        out = tmp_path / "out"
        assert run(["bounds", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "timeline_bounds.csv").exists()
        text = (out / "discrete_bounds.csv").read_text()
        assert text.split("\n")[0] in ("k,bound", "k,bound,closed_form_bound")

    def test_bounds_without_anything_is_config_error(self):
        assert run(["bounds"]) == 2

    def test_rate_fit_json(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        out = tmp_path / "out"
        code = run(
            [
                "rate-fit",
                "--config",
                cfg,
                "--out",
                str(out),
                "--format",
                "json",
                "--model",
                "power",
                "--window-min",
                "50",
                "--window-max",
                "1000",
                "--k-max",
                "1000",
            ]
        )
        assert code == 0
        payload = json.loads((out / "rate_fit.json").read_text())
        assert payload["series"]["model"] == "power"
        assert payload["series"]["exponent"] < 0.0

    def test_compare_has_both_series(self, tmp_path):
        cfg = write_config(tmp_path, CONTINUOUS)
        out = tmp_path / "out"
        assert run(["compare", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "compare.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "series,t,mu,f_true,grad_evals"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"SGM", "SGF-RK45"}

    def test_compare_json_budget_matched(self, tmp_path):
        cfg = write_config(tmp_path, CONTINUOUS)
        out = tmp_path / "out"
        assert run(["compare", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "compare.json").read_text())
        series = payload["series"]
        budget = series["matched_grad_eval_budget"]
        assert series["SGF-RK45"][-1]["grad_evals"] == budget
        assert series["SGM"][-1]["grad_evals"] <= budget

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, STRONG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["solve-sgm", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["solve-sgm", "--config", cfg, "--out", str(out_b), "--seed", "1234"]) == 0
        assert file_hash(out_a / "trajectory.csv") != file_hash(out_b / "trajectory.csv")


SUBCOMMANDS = [
    ("generate", STRONG, "problem.json"),
    ("solve-sgm", STRONG, "trajectory.csv"),
    ("solve-sgf-euler", CONTINUOUS, "flow_euler.csv"),
    ("solve-sgf-rk45", CONTINUOUS, "flow_rk45.csv"),
    ("bounds", STRONG, "discrete_bounds.csv"),
    ("rate-fit", STRONG, "rate_fit.csv"),
    ("compare", CONTINUOUS, "compare.csv"),
]


@pytest.mark.parametrize("command,payload,artifact", SUBCOMMANDS)
def test_byte_determinism(tmp_path, command, payload, artifact):
    cfg = write_config(tmp_path, payload)
    hashes = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        args = [command, "--config", cfg, "--out", str(out)]
        if command == "rate-fit":
            args += ["--window-min", "10", "--window-max", "40", "--k-max", "40"]
        assert run(args) == 0
        hashes.append(file_hash(out / artifact))
    assert hashes[0] == hashes[1]


# sha256 of each output for the small configs above. Unlike
# test_byte_determinism, which compares two runs of the same code, these
# pin the bytes across commits: an optimisation that reorders a sum or
# skips a rounding step fails here. A change that moves bytes on purpose
# updates the values and says why. They assume the matrix products round
# as in the numpy/BLAS build they were recorded with.
GOLDEN = {
    ("sqrt_l2", "solve-sgm"): "4ee052e27678f554f8f6b3c6bf58323213aaf5556dcf0b2bbc7b18c059eef411",
    ("sqrt_l2", "solve-sgf-euler"): "7e03ab784c3e6c20aa15a11785130c0558952555bcbc5cce5c02448628234c2a",
    ("sqrt_l2", "solve-sgf-rk45"): "8dce2e806560cb0d429008e9997c9bb45b22afc752ca35064347a8c04c902730",
    ("sqrt_l2", "compare"): "297a2044f8c6a989b264e81fd9e301fa66363c189cf09c39b5367fbfb02a1f89",
    ("huber_l2", "solve-sgm"): "cd4e2afcfa189d4788c457e34af202989d14454adc8159b5819b432ab8c3b793",
    ("huber_l2", "solve-sgf-euler"): "2aff3ea0ad14805ae570095e24f2600e06401ec30658f14b2722a1894fbaeba7",
    ("huber_l2", "solve-sgf-rk45"): "a8cb6674ffb17316b9ae40d52aea44eedb34685c2223c88b3ac2d4b9c3fc372e",
    ("huber_l2", "compare"): "378716304a16c65926b8dab05e9dbe4fc2ed1eaf47d221ff727159f359b4c246",
}


@pytest.mark.parametrize("smoothing,command", sorted(GOLDEN))
def test_golden_output_hash(tmp_path, smoothing, command):
    payload, artifact = {
        "solve-sgm": (STRONG, "trajectory.csv"),
        "solve-sgf-euler": (CONTINUOUS, "flow_euler.csv"),
        "solve-sgf-rk45": (CONTINUOUS, "flow_rk45.csv"),
        "compare": (CONTINUOUS, "compare.csv"),
    }[command]
    cfg = write_config(tmp_path, dict(payload, smoothing=smoothing))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 0
    assert file_hash(out / artifact) == GOLDEN[(smoothing, command)]


# eta_k overflows at k = 356 and the eta-weighted sums leave the double
# range soon after, so the bound's tail comes from its log-space branch.
OVERFLOWING = {
    "problem": {"n_x": 2, "n_A": 50, "n_C": 1, "rng_seed": 3},
    "smoothing": "sqrt_l2",
    "schedule": {"name": "power", "mu0": 100.0, "gamma": 0.1},
    "run": {"max_steps": 3000},
}

# Same contract as GOLDEN, for the bound series and the rate fit (with
# the subcommands' default flags).
GOLDEN_BOUNDS = {
    ("STRONG", "bounds"): "a4616f0bfc8500eae4cbfb47d26271a4da0b5ddeed27380c6d40924d1a105205",
    ("STRONG", "rate-fit"): "71ff60082cac81b257bba6c9a16f06757b24432cde206d7af14088902e6d0ddb",
    ("OVERFLOWING", "bounds"): "4eaba7f1b9a6a5b85e9be270963c38adb4f362d31933ce08689dec94a0de5ce5",
}


@pytest.mark.parametrize("config,command", sorted(GOLDEN_BOUNDS))
def test_golden_bound_hash(tmp_path, config, command):
    payload = {"STRONG": STRONG, "OVERFLOWING": OVERFLOWING}[config]
    artifact = {"bounds": "discrete_bounds.csv", "rate-fit": "rate_fit.csv"}[command]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 0
    assert file_hash(out / artifact) == GOLDEN_BOUNDS[(config, command)]


def test_solve_sgm_survives_eta_overflow(tmp_path):
    cfg = write_config(tmp_path, OVERFLOWING)
    out = tmp_path / "out"
    assert run(["solve-sgm", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3001


@pytest.mark.parametrize("stride", [0, -2])
def test_record_stride_below_one_is_config_error(tmp_path, capsys, stride):
    cfg = write_config(tmp_path, dict(STRONG, run={"max_steps": 40, "record_stride": stride}))
    assert run(["solve-sgm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "record_stride" in capsys.readouterr().err
