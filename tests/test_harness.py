import hashlib
import json
import math

import numpy as np
import pytest

from smoothflow import (
    ContinuousDriven,
    ExpDecay,
    PowerDecay,
    Xoshiro256pp,
    integrate_rk45,
    run_sgm,
)
from smoothflow import harness
from smoothflow.errors import ConfigError
from smoothflow.harness import (
    FLOW_COLUMNS,
    TIMELINE_COLUMNS,
    TRAJECTORY_COLUMNS,
    ExperimentConfig,
    flow_csv,
    generate_problem,
    json_envelope,
    schedule_from_config,
    timeline_csv,
    trajectory_csv,
)
from smoothflow.analysis import timeline_table
from smoothflow.schedule import ConstantMu


def small_config(**over):
    base = dict(n_x=4, n_a=6, n_c=5, rng_seed=99)
    base.update(over)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_round_trip_through_dict(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(n_x=0)
        with pytest.raises(ConfigError):
            small_config(rng_seed=-1)
        with pytest.raises(ConfigError):
            small_config(smoothing="moreau")

    def test_from_dict_requires_problem_block(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"schedule": {"name": "power"}})


class TestGenerateProblem:
    def test_deterministic_for_fixed_seed(self):
        cfg = small_config()
        p1 = generate_problem(cfg)
        p2 = generate_problem(cfg)
        x = np.linspace(-1, 1, 4)
        assert p1.f.value(x) == p2.f.value(x)
        assert np.array_equal(p1.f.grad(x), p2.f.grad(x))
        assert p1.h.value(x, 0.3) == p2.h.value(x, 0.3)
        assert np.array_equal(p1.optimum, p2.optimum)

    def test_seed_changes_data(self):
        p1 = generate_problem(small_config())
        p2 = generate_problem(small_config(rng_seed=100))
        assert not np.array_equal(p1.optimum, p2.optimum)

    def test_optimum_is_exact(self):
        p = generate_problem(small_config())
        assert p.f.value(p.optimum) == 0.0
        assert p.h.underlying_value(p.optimum) == 0.0
        assert p.true_value(p.optimum) == 0.0
        assert p.optimal_value == 0.0

    def test_tall_gram_is_strongly_convex(self):
        p = generate_problem(ExperimentConfig(n_x=10, n_a=20, n_c=50, rng_seed=1))
        assert p.f.sigma > 0.0

    def test_wide_gram_is_not(self):
        p = generate_problem(ExperimentConfig(n_x=10, n_a=2, n_c=5, rng_seed=1))
        assert p.f.sigma == 0.0

    def test_composition_parameters(self):
        cfg = small_config()
        p = generate_problem(cfg)
        rng = Xoshiro256pp(cfg.rng_seed)
        rng.normals((cfg.n_a, cfg.n_x))
        c = rng.normals((cfg.n_c, cfg.n_x))
        assert p.alpha == pytest.approx(float(np.sum(c * c)), rel=1e-8)
        assert p.beta == cfg.n_c

    def test_huber_smoothing_selectable(self):
        p = generate_problem(small_config(smoothing="huber_l2"))
        assert p.beta == pytest.approx(0.5 * 5)

    # sha256 over the bytes of A, C and x* and the generator's state words
    # and spare (NaN for none) after a medium build, recorded with the
    # scalar polar loop before large draws ran as lanes; each build now
    # draws its 70,100 normals on the lane path.
    MEDIUM_BUILD_SHA256 = {
        0: "067c22f2e938e2a381466d56e68a6d4b383ec936fc7e29859f3ca4d35ab9470e",
        1: "2776bcddd29ea4ec1551485ecd7538c3834572f5984baed48e99a3d942ee5257",
    }

    @pytest.mark.parametrize("seed", sorted(MEDIUM_BUILD_SHA256))
    def test_medium_build_bytes_pinned(self, seed, monkeypatch):
        made = []

        class Recording(Xoshiro256pp):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(harness, "Xoshiro256pp", Recording)
        p = generate_problem(ExperimentConfig(n_x=100, n_a=200, n_c=500, rng_seed=seed))
        (rng,) = made
        digest = hashlib.sha256()
        for array in (p.f.a, p.h._c, p.optimum):
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        digest.update(np.array(rng._s, dtype="<u8").tobytes())
        spare = math.nan if rng._spare is None else rng._spare
        digest.update(np.array([spare], dtype="<f8").tobytes())
        assert digest.hexdigest() == self.MEDIUM_BUILD_SHA256[seed]


class TestScheduleFromConfig:
    def test_power(self):
        sched = schedule_from_config({"name": "power", "mu0": 1.0, "gamma": 0.5}, t0=1.0)
        assert isinstance(sched, PowerDecay)
        assert sched.t0 == 1.0

    def test_exp(self):
        sched = schedule_from_config({"name": "exp", "mu0": 2.0, "lambda": 0.9})
        assert isinstance(sched, ExpDecay)

    @pytest.mark.parametrize(
        "params",
        [
            {"name": "continuous-linear", "mu0": 1.0, "rate": 0.1},
            {"name": "continuous-exp", "mu0": 1.0, "gamma": 2.0},
            {"name": "continuous-reciprocal", "mu0": 1.0, "p": 1.0},
        ],
    )
    def test_continuous_designs(self, params):
        sched = schedule_from_config(params, t0=1.0)
        assert isinstance(sched, ContinuousDriven)
        assert sched.mu_at(0, 1.0) == pytest.approx(1.0)

    def test_unknown_name_and_missing_params(self):
        with pytest.raises(ConfigError):
            schedule_from_config({"name": "cosine", "mu0": 1.0})
        with pytest.raises(ConfigError):
            schedule_from_config({"name": "power", "mu0": 1.0})


class TestSerialization:
    def test_trajectory_csv_header_and_shape(self):
        p = generate_problem(small_config())
        traj = run_sgm(p, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), np.zeros(4), 20)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_COLUMNS
        assert lines[0] == "k,t,s,mu,f_tilde,f_true,grad_norm,lyapunov,bound,grad_evals"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert first[0] == "0" and first[-1] == "0"
        assert first[8] == "nan"  # bound undefined at k = 0

    def test_csv_full_precision_round_trip(self):
        p = generate_problem(small_config())
        traj = run_sgm(p, PowerDecay(mu0=1.0, gamma=0.5, t0=1.0), np.zeros(4), 5)
        lines = trajectory_csv(traj).strip().split("\n")[1:]
        for line, rec in zip(lines, traj.records):
            fields = line.split(",")
            assert float(fields[1]) == rec.t
            assert float(fields[5]) == rec.f_true
            assert float(fields[6]) == rec.grad_norm

    def test_flow_csv(self):
        p = generate_problem(small_config())
        samples = integrate_rk45(p, ConstantMu(1.0), np.zeros(4), 0.0, 0.5, 1e-4, 1e-7)
        text = flow_csv(samples)
        assert text.startswith(FLOW_COLUMNS + "\n")

    def test_timeline_csv(self):
        tab = timeline_table("power", 0.0, 1.0, 1.0, 1.0, 10)
        text = timeline_csv(tab)
        assert text.startswith(TIMELINE_COLUMNS + "\n")
        assert len(text.strip().split("\n")) == 11

    def test_json_envelope_deterministic(self):
        cfg = small_config().to_dict()
        a = json_envelope(cfg, {"x": [1.0, 2.0]})
        b = json_envelope(cfg, {"x": [1.0, 2.0]})
        assert a == b
        payload = json.loads(a)
        assert payload["version"]
        assert payload["config"]["problem"]["n_x"] == 4


class TestStandardNormalStatistics:
    def test_mean_and_variance_bands(self):
        rng = Xoshiro256pp(20260808)
        draws = rng.normals(100_000)
        assert -0.02 < float(np.mean(draws)) < 0.02
        assert 0.98 < float(np.var(draws)) < 1.02

    def test_first_draws_golden(self):
        # draw order contract: A rows, then C rows, then x*
        rng = Xoshiro256pp(42)
        first = [rng.normal() for _ in range(5)]
        assert first[0] == 0.98139839007249863
        assert first[4] == -0.96422050629413836


class TestConfigSchema:
    def test_outputs_must_be_a_string_or_null(self):
        assert small_config(outputs="out").outputs == "out"
        with pytest.raises(ConfigError, match="outputs must be a string or null"):
            small_config(outputs=5)

    @pytest.mark.parametrize(
        "over",
        [
            {"run": {"max_step": 5}},
            {"schedule": {"name": "power", "mu0": 1.0, "gamma": 0.5, "gama": 3}},
            {"schedule": {"name": "exp", "mu0": 1.0, "lambda": 0.5, "gamma": 0.5}},
            {"schedule": {"name": "cosine", "mu0": 1.0}},
        ],
    )
    def test_keys_outside_the_schema_are_refused(self, over):
        with pytest.raises(ConfigError):
            small_config(**over)

    def test_each_schedule_takes_name_t0_and_its_parameters(self):
        for name, (_, keys) in harness._SCHEDULES.items():
            params = {"name": name, "t0": 1.0, **{key: 0.5 for key in keys}}
            assert small_config(schedule=params).schedule == params
            schedule_from_config(params)
