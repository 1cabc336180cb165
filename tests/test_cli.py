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
    ("sqrt_l2", "solve-sgm"): "0f189469815640e28099bc3a0ad838542c1e2e0b592ef6dc9d407aa42a7d8081",
    ("sqrt_l2", "solve-sgf-euler"): "73a759b89f05361959d2f28da3d4d7dd52ee99e10131c7a1cf93be2deb8db12c",
    ("sqrt_l2", "solve-sgf-rk45"): "b7be5c200c149e8c285de08f1c368977cd5a4f9dd7e62719551d3660021bc2d1",
    ("sqrt_l2", "compare"): "395cfb40eed2b7bc9404c8d0e31b8487b7d57f9be389913d3f5573b659dc1912",
    ("huber_l2", "solve-sgm"): "afdaf3a4da81be04edc0fb985eecf336362d9601ccaa3f943143f354daf76f47",
    ("huber_l2", "solve-sgf-euler"): "481dea8dea46088fc008a37b607a7070907e8826945dc45045daadd43db2e7f2",
    ("huber_l2", "solve-sgf-rk45"): "8d42deb9a5a566b8c647395d9a8af7f7ec32a276485ee967a18f852e13c9784c",
    ("huber_l2", "compare"): "1a34a9fd7f572f5b86caf6af8a0435fa89e5478dcaf07c731f99e21c6dc25e7d",
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
    ("STRONG", "bounds"): "2376976b08d36ab817b9335eb0282b7bbec15b55f6c4bd3960f130553e93ebc5",
    ("STRONG", "rate-fit"): "9bc289e6856596785daefc0f44c4369fb94bd6958d9d1bbbd3c4c151b1daa233",
    ("OVERFLOWING", "bounds"): "61813b2d8ff15c246e0b78fa7541600b23d62e709c3794308a77f8793e1a8d40",
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
GOLDEN_RECIPROCAL_RK45 = "e9aae4682fa82febfad12ed9dc38a05dcb61c98905e66a2f3c30fb194f456319"


def test_golden_reciprocal_flow_hash(tmp_path):
    cfg = write_config(tmp_path, RECIPROCAL)
    out = tmp_path / "out"
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(out)]) == 0
    assert file_hash(out / "flow_rk45.csv") == GOLDEN_RECIPROCAL_RK45


# sha256 over every RK45 sample's state bytes followed by its CSV row
# (the six fields). flow_rk45.csv does not carry x, so only these pin
# the integrated state bit for bit; same contract as GOLDEN.
GOLDEN_RK45_STATE = {
    "sqrt_l2": "a0fee3744d8b4ca4c82cbf4ee40ae601cdd91b5529ef5f55836cc459c208b86e",
    "huber_l2": "42fed5eefeacd8ea42c5e65ebe59fbd6a3f6070309b50a0f77f83e10bd21ae08",
    "reciprocal": "a39c4abfef3d3103034bdb464da4d9c56e89b77999919e37bb45c0f4f3f9ee4c",
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
        "43ceb2cf70fda776edee5c9c7771acede8676742f692b1264d8dcbe9986ff2da"
    )


def test_rk45_tight_run_prints_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, RECIPROCAL)
    assert run(["solve-sgf-rk45", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
