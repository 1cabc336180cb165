import hashlib
import json
import math
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

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STRONG)
        argv = ["solve-sgm", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: --seed must be an unsigned 64-bit integer")

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

    @pytest.mark.parametrize(
        "command,needs",
        [
            ("solve-sgf-euler", "solve-sgf-euler"),
            ("solve-sgf-rk45", "adaptive flow integration"),
            ("compare", "adaptive flow integration"),
        ],
    )
    def test_flow_commands_need_a_continuous_schedule(self, tmp_path, capsys, command, needs):
        cfg = write_config(tmp_path, STRONG)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {needs} needs a continuous-* schedule\n")

    @pytest.mark.parametrize(
        "flag,value,rule",
        [
            ("--alpha", "0", "> 0"),
            ("--mu0", "0", "> 0"),
            ("--mu0", "inf", "> 0"),
            ("--mu0", "-1", "> 0"),
            ("--alpha", "-1", "> 0"),
            ("--lipschitz", "-3", ">= 0"),
            ("--gamma", "inf", "> 0"),
        ],
    )
    def test_bounds_timeline_flag_out_of_range(self, tmp_path, capsys, flag, value, rule):
        argv = ["bounds", "--schedule", "power", "--gamma", "0.5", flag, value]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be finite and {rule}, got ")

    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_bounds_k_max_below_one(self, tmp_path, capsys, k_max):
        # It wrote a table with a header and no rows, and exited 0.
        out = tmp_path / "o"
        argv = ["bounds", "--schedule", "power", "--gamma", "0.5", "--k-max", k_max]
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: k_max must be >= 1, got {k_max}")
        assert not out.exists()

    def test_bounds_config_without_steps(self, tmp_path, capsys):
        # solve-sgm refused this config; bounds wrote both tables and exited 0.
        cfg = write_config(tmp_path, dict(STRONG, run={"max_steps": 0}))
        out = tmp_path / "o"
        assert run(["bounds", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: k_max must be >= 1, got 0")
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["2", "inf"])
    def test_bounds_lambda_out_of_range_is_refused_quietly(self, tmp_path, capsys, lam):
        # numpy printed four RuntimeWarnings before the refusal.
        argv = ["bounds", "--schedule", "exponential", "--lambda", lam, "--k-max", "2000"]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: lambda must be in (0, 1), got {float(lam)}\n"

    @pytest.mark.parametrize(
        "message,line",
        [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"), ("", "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_maps_to_two(self, tmp_path, monkeypatch, capsys, message, line):
        # --k-max 1000000000000 asked numpy for 7.28 TiB, and its MemoryError escaped.
        from smoothflow import cli

        def exhaust(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "timeline_table", exhaust)
        argv = ["bounds", "--schedule", "power", "--gamma", "0.5", "--k-max", "1000000000000"]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"


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

    def test_rate_fit_window_with_k_one_is_config_error(self, tmp_path, capsys):
        # inv_log regresses on 1/log k; at k = 1 it wrote NaNs and exited 0.
        cfg = write_config(tmp_path, STRONG)
        args = ["rate-fit", "--config", cfg, "--out", str(tmp_path / "out")]
        assert run(args + ["--model", "inv_log", "--window-min", "1"]) == 2
        assert "needs k > 1" in capsys.readouterr().err

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
    ("sqrt_l2", "solve-sgm"): "e56dc45d817e57b7968f91a68177207a0d696662caf3f14b0506937c3b48a583",
    ("sqrt_l2", "solve-sgf-euler"): "36cb01048ae9fd3c4052ff3a2d2fb55dc00379edf7f892d66dd64f47aa99dd70",
    ("sqrt_l2", "solve-sgf-rk45"): "bdbc292fc03e10b6bd2c69d7c13a89aa33c36347f69255fc265f7a878befcbd1",
    ("sqrt_l2", "compare"): "97359db830d7538b433ee458e67f9bbd713cf659ed6f3349c5bc3300ee782a4d",
    ("huber_l2", "solve-sgm"): "182a3d1fdec3a213ebd3a18b12beee3229f52aba06f0dceb72c1f47cf6db7d92",
    ("huber_l2", "solve-sgf-euler"): "b85a92a669d5098ec7d1b2fca194c70b813eeb644ab9013b4ef54409c2408fa9",
    ("huber_l2", "solve-sgf-rk45"): "4c96462337dcbe4bef36f64d94954faf9cc1859d8b9b7dbc25ec111a44748ff9",
    ("huber_l2", "compare"): "3eb00bfd961a0d408d582864514dbec74d723c03d9b280241d6a455afbfaee65",
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
# range soon after; the bound divides both by eta_k and stays finite.
OVERFLOWING = {
    "problem": {"n_x": 2, "n_A": 50, "n_C": 1, "rng_seed": 3},
    "smoothing": "sqrt_l2",
    "schedule": {"name": "power", "mu0": 100.0, "gamma": 0.1},
    "run": {"max_steps": 3000},
}

# Same contract as GOLDEN, for the bound series and the rate fit (with
# the subcommands' default flags).
GOLDEN_BOUNDS = {
    ("STRONG", "bounds"): "5b13aeefc05eb16196cb05fdfcb38d8aaa4f4b625dc6384fa4209e8ba76c928a",
    ("STRONG", "rate-fit"): "622e935126db1c2e8c9cb91ad0528fc6f440b6c3658c51f4f2c9bcf2faa0d84c",
    ("OVERFLOWING", "bounds"): "3251002c472f959e54d2230335f2583a59ba72a95f480e4dff20591bfbb2b051",
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


def test_overflowing_lyapunov_reads_inf_not_nan(tmp_path):
    # From k = 356 the weight eta_k is inf and the iterate sits at x* bit
    # for bit; inf * 0 made the certificate NaN there.
    cfg = write_config(tmp_path, OVERFLOWING)
    out = tmp_path / "out"
    assert run(["solve-sgm", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    column = lines[0].split(",").index("lyapunov")
    lyap = [line.split(",")[column] for line in lines[1:]]
    assert "nan" not in lyap
    assert lyap[357:] == ["inf"] * (3001 - 357)


# The reciprocal design has no closed form, so its bound_ct column is the
# accumulated chord integral, rounded outward; same contract as GOLDEN.
RECIPROCAL = dict(
    CONTINUOUS, schedule={"name": "continuous-reciprocal", "mu0": 1.0, "p": 1.0, "t0": 1.0}
)
GOLDEN_RECIPROCAL_RK45 = "afa0798964866ad685b1c1b7994b2fb706805722f447c24c8e1d4d06f0c5bee7"


def test_golden_reciprocal_flow_hash(tmp_path):
    cfg = write_config(tmp_path, RECIPROCAL)
    out = tmp_path / "out"
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(out)]) == 0
    assert file_hash(out / "flow_rk45.csv") == GOLDEN_RECIPROCAL_RK45


# sha256 over every RK45 sample's state bytes followed by its CSV row
# (the six fields). flow_rk45.csv does not carry x, so only these pin
# the integrated state bit for bit; same contract as GOLDEN.
GOLDEN_RK45_STATE = {
    "sqrt_l2": "a734a9c28ebfc90638adfcea930c724a5ba1817eeedd7e3a408548bd49dcf584",
    "huber_l2": "396dc5a900a26b26a1967b813120d450e0b02756e813b35029588de6826a6733",
    "reciprocal": "3a50ca785fb33ce0ecef24739186673b401eabfe650b798405555ae2e83682c4",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RK45_STATE))
def test_golden_rk45_state_hash(tmp_path, monkeypatch, case):
    from smoothflow import cli

    payload = RECIPROCAL if case == "reciprocal" else dict(CONTINUOUS, smoothing=case)
    runs = []
    integrate = cli.integrate_rk45

    def keep(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "integrate_rk45", keep)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(out)]) == 0
    (samples,) = runs
    rows = (out / "flow_rk45.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == len(samples) and all(row.count(",") == 5 for row in rows)
    digest = hashlib.sha256()
    for sample, row in zip(samples, rows):
        digest.update(sample.x.tobytes())
        digest.update(row.encode())
    assert digest.hexdigest() == GOLDEN_RK45_STATE[case]


@pytest.mark.parametrize("key", ["t_end", "rtol", "atol"])
def test_rk45_non_finite_run_parameter_is_config_error(tmp_path, capsys, key):
    # t_end = Infinity used to die in a stage at t = inf; rtol = Infinity
    # exited 0 having accepted every step.
    payload = dict(CONTINUOUS, run=dict(CONTINUOUS["run"], **{key: math.inf}))
    cfg = write_config(tmp_path, payload)
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {key} must be finite" in capsys.readouterr().err


def flow_columns(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


# sigma is about 75.5 here, so exp(sigma (t - t0)) leaves the double
# range near t = 10.4; both the certificate and the bound used to die
# with OverflowError there.
OVERFLOWING_FLOW = {
    "problem": {"n_x": 2, "n_A": 50, "n_C": 1, "rng_seed": 3},
    "smoothing": "sqrt_l2",
    "run": {"t_end": 12.0},
}
RECIPROCAL_MU = {"name": "continuous-reciprocal", "mu0": 1.0, "p": 1.0}
EXP_MU = {"name": "continuous-exp", "mu0": 1.0, "gamma": 1.0}


def run_overflowing_flow(tmp_path, schedule, **run_keys):
    payload = dict(OVERFLOWING_FLOW, schedule=schedule)
    payload["run"] = dict(payload["run"], **run_keys)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(out)]) == 0
    cols = flow_columns(out / "flow_rk45.csv")
    assert all(math.isfinite(b) for b in cols["bound_ct"][1:])
    assert not any(math.isnan(v) for v in cols["lyapunov_v"])
    assert cols["lyapunov_v"][-1] == math.inf
    return cols


@pytest.mark.parametrize("schedule", [RECIPROCAL_MU, EXP_MU], ids=["reciprocal", "exp"])
def test_solve_rk45_survives_weight_overflow(tmp_path, schedule):
    run_overflowing_flow(tmp_path, schedule)


def test_gap_below_bound_past_overflow(tmp_path):
    cols = run_overflowing_flow(tmp_path, RECIPROCAL_MU)
    assert all(f <= b for f, b in zip(cols["f_true"][1:], cols["bound_ct"][1:]))


def test_gap_below_bound_past_overflow_exp(tmp_path):
    # At the default rtol 1e-3 the integrated x trails the exact flow and
    # f_true exceeds the bound from t = 5.65, before any overflow (also
    # before this change), so this run is integrated tightly. The steps
    # shrink like mu(t), so it stops soon after the overflow at t = 10.4.
    cols = run_overflowing_flow(tmp_path, EXP_MU, t_end=10.8, rtol=1e-8, atol=1e-10)
    assert all(f <= b for f, b in zip(cols["f_true"][1:], cols["bound_ct"][1:]))


@pytest.mark.parametrize("stride", [0, -2])
def test_record_stride_below_one_is_config_error(tmp_path, capsys, stride):
    cfg = write_config(tmp_path, dict(STRONG, run={"max_steps": 40, "record_stride": stride}))
    assert run(["solve-sgm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "record_stride" in capsys.readouterr().err


def test_rk45_warns_once_when_gap_exceeds_bound(tmp_path, capsys):
    # At the default rtol 1e-3 this run's f_true - f* exceeds bound_ct at
    # 29 samples from t = 5.65 (see test_gap_below_bound_past_overflow_exp).
    payload = dict(OVERFLOWING_FLOW, schedule=EXP_MU, run={"t_end": 6.0})
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: ")
    cols = flow_columns(out / "flow_rk45.csv")
    above = [t for t, f, b in zip(cols["t"], cols["f_true"], cols["bound_ct"]) if f > b]
    assert len(above) == 29 and 5.65 < above[0] < 5.66
    assert f" {len(above)} of {len(cols['t'])} samples" in err
    assert f"first at t = {above[0]!r}" in err
    assert file_hash(out / "flow_rk45.csv") == (
        "b017bd6bef2cf591abf7044075a0d401a345d5454fff4f84496299a1d01c9000"
    )


def test_rk45_tight_run_prints_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, RECIPROCAL)
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


# n_A < n_x leaves A^T A singular, so sigma = 0 and `bounds` writes the
# closed_form_bound column. With 1 - sigma s = 1 exactly, the
# eta-weighted sums are the plain sums and these bytes hold across any
# rewrite of how the weighted sums are carried.
SIGMA0 = {
    "problem": {"n_x": 8, "n_A": 5, "n_C": 6, "rng_seed": 777},
    "smoothing": "sqrt_l2",
    "schedule": {"name": "power", "mu0": 1.0, "gamma": 0.5},
    "run": {"max_steps": 40},
}
SIGMA0_CONTINUOUS = dict(SIGMA0, schedule=CONTINUOUS["schedule"], run=CONTINUOUS["run"])
SIGMA0_X0 = dict(
    SIGMA0, run={"max_steps": 40, "x0": [0.5, -1.0, 2.0, 0.0, -0.25, 1.5, -3.0, 0.75]}
)

# mu(t) = 1 - 60 (t - 1) falls faster than the stepsize can follow:
# SGM takes two steps before mu turns negative, well inside the RK45
# leg's gradient budget, so its run ends schedule-exhausted.
COMPARE_EXHAUSTING = dict(
    CONTINUOUS,
    schedule={"name": "continuous-linear", "mu0": 1.0, "rate": 60.0, "t0": 1.0},
    run={"t_end": 1.0 + 0.5 / 60.0, "rtol": 1e-4, "atol": 1e-7},
)

# Same contract as GOLDEN, for CLI paths the pins above do not run:
# name -> (config, arguments after the config, artifact, sha256).
GOLDEN_PATHS = {
    "bounds-sigma0": (
        SIGMA0,
        ["bounds"],
        "discrete_bounds.csv",
        "609ea47bb464e4d19a4f6154765e28b9ad8afa60f494624b2343cd1fcbfac3c2",
    ),
    "solve-sgm-sigma0": (
        SIGMA0,
        ["solve-sgm"],
        "trajectory.csv",
        "12408b105208a605759629185dec1a0bf5d26ace71285d7258097455b2daeb64",
    ),
    "rate-fit-sigma0": (
        SIGMA0,
        ["rate-fit"],
        "rate_fit.csv",
        "596363713cb14616f3ddb4fa6588ec8904351852a12f922797be81384684b993",
    ),
    "solve-sgf-euler-sigma0": (
        SIGMA0_CONTINUOUS,
        ["solve-sgf-euler"],
        "flow_euler.csv",
        "a44cf765e5149f135a7df931559e037bce48d60b230adf4d34330ace2e8aa1ce",
    ),
    "solve-sgm-x0": (
        SIGMA0_X0,
        ["solve-sgm"],
        "trajectory.csv",
        "292e956720183e4f40f7f6d909ed53f905379f6ecc655cccb10bcd90f916e01a",
    ),
    "solve-sgf-rk45-json": (
        CONTINUOUS,
        ["solve-sgf-rk45", "--format", "json"],
        "flow_rk45.json",
        "909b049f414a62849075225681ffe53e6a8ebd919232a7e5a6ef926e495c0cbd",
    ),
    "bounds-exponential": (
        None,
        ["bounds", "--schedule", "exponential", "--lambda", "0.5", "--k-max", "50"],
        "timeline_bounds.csv",
        "a544b7658bfb41193940e3d0703b8e3979cfd9e6ce6cf238d3669208f9c0965d",
    ),
    "compare-strict": (
        COMPARE_EXHAUSTING,
        ["compare", "--strict"],
        "compare.csv",
        "f91ef7efe4966aa85b33ee5ccb90e31df9c01a0b2f1359d5467493d719c67b71",
    ),
    # The schedule exhausts after k = 996, so both series stop short of k_max.
    "bounds-strict": (
        EXHAUSTING,
        ["bounds", "--strict"],
        "discrete_bounds.csv",
        "dc86ce5c6879ed7ad081392b4a84cd3365f58cc725084b042f927e6f025ec05f",
    ),
    "rate-fit-strict": (
        EXHAUSTING,
        ["rate-fit", "--strict", "--k-max", "3000"],
        "rate_fit.csv",
        "6b04e6a3e3ee59be8982f78ba1ca24ea24868615a55ddbd777f88863db32685f",
    ),
    # Without --strict the same exhaustion exits 0 and writes the same bytes.
    "compare-exhausting": (
        COMPARE_EXHAUSTING,
        ["compare"],
        "compare.csv",
        "f91ef7efe4966aa85b33ee5ccb90e31df9c01a0b2f1359d5467493d719c67b71",
    ),
    # 2,627 of the 3,001 records have inv_eta == 0: eta and sum eta s read
    # inf there, and the bound its scaled form.
    "solve-sgm-overflowing": (
        OVERFLOWING,
        ["solve-sgm"],
        "trajectory.csv",
        "c595879904a84d893f95eb88e11981954b3b50c90fabc2d5001d94aea109ab9f",
    ),
    "solve-sgm-json": (
        STRONG,
        ["solve-sgm", "--format", "json"],
        "trajectory.json",
        "e64cfa21412c477847f311d3cb0886180284dc3474bc9c9dfb606351c7ac97fe",
    ),
    "solve-sgf-euler-json": (
        CONTINUOUS,
        ["solve-sgf-euler", "--format", "json"],
        "flow_euler.json",
        "3001618a000f40b9515d234fd27d9f97f211c6de9f21d999c14acda604daae1b",
    ),
    "compare-json": (
        CONTINUOUS,
        ["compare", "--format", "json"],
        "compare.json",
        "6649d9d86e08123407de35da53bc52345cd3ebcba0c5051f2fbc1e16594095fc",
    ),
    "rate-fit-json": (
        STRONG,
        ["rate-fit", "--format", "json"],
        "rate_fit.json",
        "72110013386870b67f45c35b0a81a32c9a5d8ccccc4274e06819ca9f8b2e74e8",
    ),
    "generate": (
        STRONG,
        ["generate"],
        "problem.json",
        "0240d3a7f7581e0435439322fba038e3a44ee99dd46872b39b92b73ae6c69efc",
    ),
    "bounds-power": (
        None,
        ["bounds", "--schedule", "power", "--gamma", "0.5", "--k-max", "50"],
        "timeline_bounds.csv",
        "9e2c66003f352d31e15f54f168a77d94467be7c8b675feea7749c85a297cf155",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PATHS))
def test_golden_path_hash(tmp_path, name):
    payload, args, artifact, expected = GOLDEN_PATHS[name]
    if payload is not None:
        args = [args[0], "--config", write_config(tmp_path, payload)] + args[1:]
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == (4 if "--strict" in args else 0)
    assert file_hash(out / artifact) == expected


# Each record series written as CSV and as JSON:
# (command, config, file stem, JSON series key; None for compare's two series).
CSV_JSON_TWINS = [
    ("solve-sgm", STRONG, "trajectory", "records"),
    ("solve-sgf-euler", CONTINUOUS, "flow_euler", "records"),
    ("solve-sgf-rk45", CONTINUOUS, "flow_rk45", "samples"),
    ("compare", CONTINUOUS, "compare", None),
]


def same_bits(field, value):
    """A CSV field parses to its JSON value bit for bit; CSV nan is JSON null."""
    if field == "nan":
        return value is None
    if isinstance(value, int):
        return int(field) == value
    return isinstance(value, float) and float(field).hex() == value.hex()


@pytest.mark.parametrize("command,payload,stem,key", CSV_JSON_TWINS)
def test_csv_rows_read_as_json_records(tmp_path, command, payload, stem, key):
    cfg = write_config(tmp_path, payload)
    for fmt in ("csv", "json"):
        assert run([command, "--config", cfg, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    text = (tmp_path / "csv" / f"{stem}.csv").read_text()
    header, *rows = [line.split(",") for line in text.splitlines()]
    series = json.loads((tmp_path / "json" / f"{stem}.json").read_text())["series"]
    if key is None:
        # compare.csv tags each row with its series and keeps the columns
        # both record types share; its JSON keeps whole records.
        assert header[0] == "series"
        header = header[1:]
        tables = {name: [row[1:] for row in rows if row[0] == name] for name in ("SGM", "SGF-RK45")}
        assert sum(map(len, tables.values())) == len(rows)
    else:
        assert "nan" in text  # the first record's bound
        tables = {key: rows}
    for name, table in tables.items():
        records = series[name]
        assert table and len(table) == len(records)
        for row, record in zip(table, records):
            if key is not None:
                # The envelope sorts keys, so the file cannot show their order.
                assert sorted(record) == sorted(header)
            assert all(same_bits(field, record[column]) for column, field in zip(header, row))


def csv_column(path, column):
    """{k: field} of one column of a CSV with a ``k`` column, the fields as written."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    k, i = header.index("k"), header.index(column)
    return {int(row[k]): row[i] for row in rows}


BOUND_CONFIGS = {
    "power": STRONG,
    "exp": dict(STRONG, schedule={"name": "exp", "mu0": 1.0, "lambda": 0.99}),
    "exp-exhausting": EXHAUSTING,
    "continuous-reciprocal": dict(
        STRONG,
        schedule={"name": "continuous-reciprocal", "mu0": 1.0, "p": 1.0, "t0": 1.0},
        run={"max_steps": 300},
    ),
}


@pytest.mark.parametrize("name", sorted(BOUND_CONFIGS))
def test_discrete_bounds_match_trajectory_bounds(tmp_path, name):
    # The bound series and the run form the bound from the same schedule
    # states, so every k >= 1 of the run reads the same printed field.
    cfg = write_config(tmp_path, BOUND_CONFIGS[name])
    for command in ("solve-sgm", "bounds"):
        assert run([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    series = csv_column(tmp_path / "discrete_bounds.csv", "bound")
    trajectory = csv_column(tmp_path / "trajectory.csv", "bound")
    assert trajectory.pop(0) == "nan"
    assert len(series) > 30
    assert series == trajectory


def test_config_x0_of_wrong_length_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SIGMA0, run={"max_steps": 40, "x0": [1.0, 2.0]}))
    assert run(["solve-sgm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "x0 must have length 8" in capsys.readouterr().err


# Each of these used to escape cli_main as a ValueError traceback (exit 1).
MALFORMED_VALUES = [
    ("solve-sgm", STRONG, "run", "max_steps", "many"),
    ("solve-sgm", STRONG, "run", "max_steps", None),
    ("solve-sgm", STRONG, "run", "record_stride", "x"),
    ("solve-sgm", STRONG, "run", "x0", ["a", 1]),
    ("solve-sgm", STRONG, "schedule", "mu0", "x"),
    ("solve-sgf-euler", CONTINUOUS, "run", "max_steps", "many"),
    ("solve-sgf-rk45", CONTINUOUS, "run", "rtol", "x"),
    ("solve-sgf-rk45", CONTINUOUS, "run", "t_end", [1.5]),
    ("solve-sgf-rk45", CONTINUOUS, "schedule", "t0", "x"),
    ("compare", CONTINUOUS, "run", "max_steps", "many"),
    ("bounds", STRONG, "run", "max_steps", "many"),
    ("bounds", STRONG, "schedule", "gamma", "x"),
    # Integer fields take integral numbers only: no silent truncation.
    ("generate", STRONG, "problem", "n_x", 3.7),
    ("generate", STRONG, "problem", "n_x", True),
    ("generate", STRONG, "problem", "n_A", 9.5),
    ("generate", STRONG, "problem", "n_C", True),
    ("generate", STRONG, "problem", "rng_seed", 1.9),
    ("solve-sgm", STRONG, "run", "max_steps", 2.5),
    ("solve-sgm", STRONG, "run", "max_steps", True),
    ("solve-sgm", STRONG, "run", "record_stride", 1.9),
    ("solve-sgf-euler", CONTINUOUS, "run", "max_steps", 40.5),
    ("compare", CONTINUOUS, "run", "max_steps", 1e400),
    ("bounds", STRONG, "run", "max_steps", 2.5),
    # Float fields take numbers only: a JSON boolean is not 0 or 1.
    ("solve-sgf-rk45", CONTINUOUS, "run", "rtol", True),
    ("solve-sgf-rk45", CONTINUOUS, "schedule", "t0", True),
    ("solve-sgm", STRONG, "schedule", "mu0", True),
    ("solve-sgm", STRONG, "run", "x0", [True, 0, 0, 0, 0, 0]),
    ("bounds", STRONG, "schedule", "gamma", True),
    # Schedule parameters must be finite.
    ("solve-sgm", STRONG, "schedule", "mu0", math.inf),
    ("solve-sgm", STRONG, "schedule", "gamma", math.inf),
    ("solve-sgm", STRONG, "schedule", "t0", math.nan),
    ("solve-sgm", CONTINUOUS, "schedule", "t0", math.inf),
    ("solve-sgf-rk45", CONTINUOUS, "schedule", "mu0", math.inf),
    ("bounds", STRONG, "schedule", "mu0", math.inf),
    # Numbers written as JSON strings are refused, not parsed.
    ("solve-sgm", STRONG, "problem", "n_x", "6"),
    ("solve-sgm", STRONG, "run", "max_steps", "40"),
    ("solve-sgm", STRONG, "schedule", "gamma", "0.5"),
    ("solve-sgf-rk45", CONTINUOUS, "run", "rtol", "1e-3"),
    ("solve-sgm", STRONG, "run", "x0", ["0", 0, 0, 0, 0, 0]),
    # x0 must be a list.
    ("solve-sgm", STRONG, "run", "x0", 3),
]


@pytest.mark.parametrize(
    "command,base,section,key,value",
    MALFORMED_VALUES,
    ids=[f"{c}:{s}.{k}={v!r}" for c, _, s, k, v in MALFORMED_VALUES],
)
def test_malformed_config_value_is_config_error(tmp_path, capsys, command, base, section, key, value):
    payload = dict(base, **{section: dict(base[section], **{key: value})})
    cfg = write_config(tmp_path, payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err.splitlines()[0]


def test_integer_past_the_double_range_in_a_float_field(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(STRONG, schedule=dict(STRONG["schedule"], mu0=10**400)))
    assert run(["solve-sgm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: schedule 'power' parameter 'mu0' must be a number, got 1000"
    )


def test_integral_floats_read_as_integers(tmp_path):
    # 6.0 is an integer written as a float; the run and its echo match 6's.
    as_floats = dict(
        STRONG,
        problem=dict(STRONG["problem"], n_x=6.0, rng_seed=777.0),
        run={"max_steps": 40.0, "record_stride": 1.0},
    )
    for name, payload in (("int", STRONG), ("float", as_floats)):
        cfg = write_config(tmp_path, payload, name=f"{name}.json")
        out = str(tmp_path / name)
        assert run(["solve-sgm", "--config", cfg, "--out", out, "--format", "json"]) == 0
    ints, floats = (
        json.loads((tmp_path / name / "trajectory.json").read_text()) for name in ("int", "float")
    )
    assert floats["series"] == ints["series"]
    echoed = floats["config"]["problem"]
    assert {key: repr(value) for key, value in echoed.items()} == {
        key: repr(value) for key, value in STRONG["problem"].items()
    }


def test_back_to_back_calls_match_separate_calls(tmp_path, capsys):
    # The parser is built once per process; a call must not see the
    # options, defaults or errors of the call before it.
    def call(args, out):
        code = run(args + ["--out", str(tmp_path / out)])
        return code, capsys.readouterr().err

    gamma = ["bounds", "--schedule", "power", "--gamma", "0.5", "--k-max", "50"]
    no_gamma = ["bounds", "--schedule", "power", "--k-max", "50"]
    assert call(gamma, "a") == (0, "")
    code, err = call(no_gamma, "b")
    assert code == 2 and err.startswith("error: bounds --schedule power needs --gamma")
    assert "usage: smoothflow" in err
    code, err = call(["bounds", "--frob"], "c")
    assert code == 2 and err.startswith("error: unrecognized arguments: --frob")
    assert "usage: smoothflow" in err
    assert call(gamma, "d") == (0, "")
    first, again = (tmp_path / d / "timeline_bounds.csv" for d in ("a", "d"))
    assert first.read_bytes() == again.read_bytes()


# Each of these was read without the misspelled or extra key: the run took
# its defaults (1,250 steps, every record) and exited 0.
UNKNOWN_KEYS = [
    (None, "extra", 1),
    ("problem", "n_y", 3),
    ("run", "max_step", 5),
    ("run", "recrod_stride", 2),
    ("schedule", "gama", 3),
    # A parameter of another schedule is not one of power's.
    ("schedule", "lambda", 0.5),
]


@pytest.mark.parametrize("command", ["generate", "solve-sgm"])
@pytest.mark.parametrize(
    "section,key,value", UNKNOWN_KEYS, ids=[f"{s}.{k}" for s, k, _ in UNKNOWN_KEYS]
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, command, section, key, value):
    if section is None:
        payload = dict(STRONG, **{key: value})
    else:
        payload = dict(STRONG, **{section: dict(STRONG[section], **{key: value})})
    out = tmp_path / "o"
    assert run([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: unknown key {key!r} in ")
    assert sum(line.startswith("error:") for line in err) == 1
    assert not out.exists()


def test_every_schema_key_is_accepted(tmp_path):
    run_keys = dict(CONTINUOUS["run"], record_stride=2, x0=[0.0] * 6)
    payload = dict(CONTINUOUS, run=run_keys, outputs=str(tmp_path / "from_config"))
    cfg = write_config(tmp_path, payload)
    assert run(["solve-sgf-euler", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "flow_euler.csv").exists()


def test_outputs_that_is_not_a_string_is_config_error(tmp_path, capsys):
    # os.makedirs raised TypeError: a traceback and exit 1.
    cfg = write_config(tmp_path, dict(STRONG, outputs=5))
    assert run(["generate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: outputs must be a string or null, got 5\n")


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--config", "{cfg}"],
        ["solve-sgm", "--config", "{cfg}"],
        ["bounds", "--schedule", "power", "--gamma", "0.5", "--k-max", "5"],
    ],
    ids=lambda args: args[0],
)
def test_out_naming_a_regular_file_is_config_error(tmp_path, capsys, args):
    # os.makedirs raised FileExistsError: a traceback and exit 1.
    cfg = write_config(tmp_path, STRONG)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = [a.format(cfg=cfg) for a in args] + ["--out", str(taken)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: cannot write {taken}")
    assert sum(line.startswith("error:") for line in err) == 1
    assert taken.read_text() == "kept\n"


def test_unwritable_output_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "trajectory.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, STRONG)
    assert run(["solve-sgm", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'trajectory.csv'}")


def test_refused_bounds_makes_no_directory(tmp_path, capsys):
    # The directory was made before --gamma was checked, and stayed behind empty.
    out = tmp_path / "D"
    argv = ["bounds", "--schedule", "power", "--gamma", "-1", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: gamma must be finite and > 0")
    assert not out.exists()


def test_bounds_refuses_json_format(tmp_path, capsys):
    # bounds wrote CSV under --format json and exited 0.
    out = tmp_path / "o"
    argv = ["bounds", "--schedule", "power", "--gamma", "0.5", "--format", "json"]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: bounds writes CSV only; --format json is not supported\n"
    )
    assert not out.exists()
