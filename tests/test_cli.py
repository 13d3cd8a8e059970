"""Tests for the experiment harness CLI."""

import csv
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fidest.cli
import fidest.estimation
import fidest.fidelity
from fidest.circuits import QubitCapExceeded
from fidest.cli import (
    CSV_HEADER,
    HARD_CSV_HEADER,
    IDENTITY_BOUNDS,
    ExperimentConfig,
    ExperimentRecord,
    _identity_residuals,
    derive_seed,
    fit_scaling,
    main,
    run,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall_ms(path):
    rows = read_csv(path)
    idx = rows[0].index("wall_ms")
    return [row[:idx] + row[idx + 1 :] for row in rows]


def fake_record(estimator, epsilon, queries, seed=0):
    return ExperimentRecord(
        instance_id="fake",
        estimator=estimator,
        epsilon=epsilon,
        seed=seed,
        true_value=0.5,
        estimate=0.5,
        abs_error=0.0,
        success=True,
        queries_U=queries,
        queries_V=queries,
        grover_applications=queries,
        wall_ms=1,
    )


class TestConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(ValueError, match="command"):
            ExperimentConfig(command="explode")

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilons"):
            ExperimentConfig(command="sweep", epsilons=(1.5,))

    def test_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            ExperimentConfig(command="sweep", k=1, rank=3)

    def test_bad_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            ExperimentConfig(command="sweep", estimator="magic")

    def test_pure_pure_needs_rank_one(self):
        with pytest.raises(ValueError, match="rank 1"):
            ExperimentConfig(command="sweep", estimator="pure-pure", rank=2)

    def test_trials_positive(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(command="sweep", trials=0)

    def test_readout_budget_checked_per_estimator(self):
        # swap baseline: m = ceil(log2(4 pi / eps^2)) + 2; the others
        # m = ceil(log2(pi / eps)) + 1, so eps = 1e-9 fits them (m = 33)
        with pytest.raises(QubitCapExceeded, match="epsilon = 1e-09 needs m = 66"):
            ExperimentConfig(command="sweep", estimator="swap-baseline", epsilons=(0.1, 1e-9))
        ExperimentConfig(command="sweep", estimator="optimal", epsilons=(1e-9,))
        # hard-instance runs no estimator
        ExperimentConfig(command="hard-instance", estimator="swap-baseline", epsilons=(1e-9,))


class TestFitScaling:
    def test_constant_counts_give_zero_slope(self):
        records = [fake_record("optimal", e, 640) for e in (0.2, 0.1, 0.05)]
        slopes = fit_scaling(records)
        assert abs(slopes["optimal"]) <= 1e-12

    def test_requires_three_epsilons(self):
        records = [fake_record("optimal", e, 640) for e in (0.2, 0.1)]
        with pytest.raises(ValueError, match="3 distinct"):
            fit_scaling(records)

    def test_inverse_scaling_slope(self):
        records = [
            fake_record("optimal", 0.2, 100),
            fake_record("optimal", 0.1, 200),
            fake_record("optimal", 0.05, 400),
        ]
        assert fit_scaling(records)["optimal"] == pytest.approx(-1.0, abs=1e-9)


def count_sampling(monkeypatch):
    """Wrap fidest.cli.sample_instance; return the list its calls append to."""
    calls = []
    original = fidest.cli.sample_instance

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fidest.cli, "sample_instance", counting)
    return calls


def forbid_sampling(monkeypatch):
    """Make any fidest.cli.sample_instance call fail the test."""

    def no_synthesis(*args, **kwargs):
        raise AssertionError("sample_instance called before the config checks")

    monkeypatch.setattr(fidest.cli, "sample_instance", no_synthesis)


class TestVerifyIdentities:
    def test_passes_on_seeded_instances(self, capsys):
        code = run(ExperimentConfig(command="verify-identities", k=1, trials=8, seed=1))
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "max residual" in out

    @settings(database=None, deadline=None, max_examples=40)
    @given(
        k=st.sampled_from((1, 2, 3)),
        trial=st.integers(0, 7),
        seed=st.integers(0, (1 << 63) - 1),
    )
    def test_identity_residuals_within_bounds(self, k, trial, seed):
        # trial picks the rank, trial % 2^k + 1, so every rank is reachable
        config = ExperimentConfig(command="verify-identities", k=k, seed=seed)
        residuals = _identity_residuals(config, trial)
        for name, bound in IDENTITY_BOUNDS.items():
            assert residuals[name] <= bound, name

    def test_samples_three_instances_per_trial(self, monkeypatch, capsys):
        calls = count_sampling(monkeypatch)
        assert run(ExperimentConfig(command="verify-identities", k=1, trials=4)) == 0
        assert len(calls) == 3 * 4


class TestSweep:
    def test_sweep_row_count_and_success_fraction(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(
            command="sweep",
            estimator="optimal",
            k=1,
            rank=2,
            epsilons=(0.2, 0.1, 0.05),
            trials=50,
            seed=2,
            output_path=str(out),
        )
        assert run(config) == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 1 + 150
        by_eps = {}
        for row in rows[1:]:
            by_eps.setdefault(row[2], []).append(row[7])
        for eps, flags in by_eps.items():
            assert sum(f == "true" for f in flags) / len(flags) >= 0.6

    def test_byte_identical_reruns_excluding_wall_ms(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            config = ExperimentConfig(
                command="sweep",
                estimator="tr-rho-sigma2",
                k=1,
                rank=2,
                epsilons=(0.2, 0.1),
                trials=4,
                seed=5,
                output_path=str(out),
            )
            assert run(config) == 0
            paths.append(out)
        assert strip_wall_ms(paths[0]) == strip_wall_ms(paths[1])

    def test_json_format_embeds_scaling(self, tmp_path):
        out = tmp_path / "sweep.json"
        config = ExperimentConfig(
            command="sweep",
            estimator="optimal",
            k=1,
            rank=1,
            epsilons=(0.2, 0.1, 0.05),
            trials=2,
            seed=3,
            output_path=str(out),
            format="json",
        )
        assert run(config) == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 6
        assert "optimal" in payload["scaling"]
        assert payload["scaling"]["optimal"] == pytest.approx(-1.0, abs=0.15)

    def test_samples_each_trial_once(self, tmp_path, monkeypatch, capsys):
        # the instance seeds derive_seed(seed, trial, 0/1) do not involve epsilon
        calls = count_sampling(monkeypatch)
        config = ExperimentConfig(
            command="sweep",
            k=1,
            epsilons=(0.1, 0.05, 0.03, 0.02, 0.01),
            trials=3,
            output_path=str(tmp_path / "sweep.csv"),
        )
        assert run(config) == 0
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("estimator,slope", [("optimal", -1.0), ("swap-baseline", -2.0)])
    def test_scaling_over_three_decades(self, tmp_path, capsys, estimator, slope):
        out = tmp_path / "sweep.json"
        argv = [
            "sweep", "--estimator", estimator, "--k", "1", "--epsilons", "0.1,0.01,0.001,0.0001",
            "--trials", "3", "--seed", "4", "--format", "json", "--output", str(out),
        ]
        assert main(argv) == 0
        records = [ExperimentRecord(**r) for r in json.loads(out.read_text())["records"]]
        assert fit_scaling(records)[estimator] == pytest.approx(slope, abs=0.05)

    def test_failure_names_trial_and_epsilon(self, tmp_path, monkeypatch, capsys):
        original = fidest.fidelity.sqrt_amplitude_estimate
        bad_seed = derive_seed(0, 1, 2)  # task seed of trial 1 under master seed 0

        def failing(problem, delta, seed):
            # the optimal estimator reads its amplitude to delta = epsilon
            if seed == bad_seed and delta == 0.03:
                raise ValueError("injected failure")
            return original(problem, delta, seed)

        monkeypatch.setattr(fidest.fidelity, "sqrt_amplitude_estimate", failing)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--epsilons", "0.1,0.03,0.01", "--trials", "3", "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "trial 1, epsilon 0.03: injected failure" in err
        assert not out.exists()

    def test_executes_each_trial_circuit_once(self, tmp_path, monkeypatch):
        # p depends only on the trial's oracle pair, not on epsilon
        calls = []
        original = fidest.estimation.flag_probability

        def counting(problem):
            calls.append(problem)
            return original(problem)

        monkeypatch.setattr(fidest.estimation, "flag_probability", counting)
        config = ExperimentConfig(
            command="sweep",
            k=1,
            epsilons=(0.1, 0.05, 0.03, 0.02, 0.01),
            trials=3,
            output_path=str(tmp_path / "sweep.csv"),
        )
        assert run(config) == 0
        assert len(calls) == 3

    def test_json_on_stdout_parses(self, capsys):
        argv = ["sweep", "--epsilons", "0.2,0.1,0.05", "--trials", "2", "--format", "json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["records"]) == 6
        assert "success fraction" in captured.err
        assert "scaling optimal: log-log slope" in captured.err

    def test_csv_on_stdout_starts_with_header(self, capsys):
        assert main(["sweep", "--epsilons", "0.2,0.1,0.05", "--trials", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == CSV_HEADER
        assert len(captured.out.splitlines()) == 1 + 6
        assert "epsilon 0.2: success fraction" in captured.err

    def test_summary_stays_on_stdout_with_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--epsilons", "0.2,0.1,0.05", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "success fraction" in captured.out
        assert "scaling optimal" in captured.out
        assert captured.err == ""

    def test_record_invariants_hold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(
            command="sweep",
            estimator="swap-baseline",
            k=1,
            rank=1,
            epsilons=(0.2,),
            trials=3,
            seed=7,
            output_path=str(out),
        )
        assert run(config) == 0
        for row in read_csv(out)[1:]:
            rec = dict(zip(CSV_HEADER.split(","), row))
            assert (rec["success"] == "true") == (
                float(rec["abs_error"]) <= float(rec["epsilon"])
            )
            assert int(rec["queries_U"]) > 0 and int(rec["queries_V"]) > 0


class TestSingle:
    def test_byte_identical_stdout(self, capsys):
        argv = [
            "single", "--estimator", "optimal", "--k", "1", "--rank", "2",
            "--epsilons", "0.1", "--seed", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert 0.0 <= payload["estimate"] <= 1.0
        assert payload["queries"]["V"]["controlled"] > 0

    def test_rejects_trials_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single", "--trials", "7"])
        assert exc.value.code == 2

    def test_rejects_epsilon_list(self, monkeypatch, capsys):
        forbid_sampling(monkeypatch)
        assert main(["single", "--epsilons", "0.1,0.05"]) == 2
        assert "single runs one estimate: got 2 epsilons, 1 trials" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"epsilons": [0.1, 0.05]}, {"trials": 7}])
    def test_config_file_rejects_more_than_one_estimate(self, tmp_path, monkeypatch, capsys, fields):
        forbid_sampling(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "single", **fields}))
        assert main(["--config", str(cfg)]) == 2
        assert "single runs one estimate" in capsys.readouterr().err

    def test_swap_baseline_reaches_eps_1e_4(self, capsys):
        # m = 33 is far past any 2^m outcome grid; the sampler costs O(reps)
        argv = ["single", "--estimator", "swap-baseline", "--epsilons", "1e-4", "--seed", "5"]
        start = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 33
        assert payload["grover_applications"] == 15 * ((1 << 33) - 1)
        assert 0.0 <= payload["estimate"] <= 1.0
        assert elapsed < 1.0


class TestHardInstance:
    def test_residuals_and_output(self, tmp_path, capsys):
        out = tmp_path / "hard.csv"
        config = ExperimentConfig(
            command="hard-instance",
            k=2,
            rank=3,
            epsilons=(0.05, 0.1),
            output_path=str(out),
        )
        assert run(config) == 0
        rows = read_csv(out)
        # fixed p grid x epsilons x both signs
        assert len(rows) == 1 + 3 * 2 * 2
        for row in rows[1:]:
            rec = dict(zip(rows[0], row))
            assert float(rec["fidelity_residual"]) <= 1e-12
            assert float(rec["hellinger_residual"]) <= 1e-12

    def test_csv_on_stdout_starts_with_header(self, capsys):
        assert main(["hard-instance", "--k", "2", "--rank", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == HARD_CSV_HEADER
        assert captured.err.startswith("hard-instance residuals: fidelity ")

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError, match="rank"):
            run(ExperimentConfig(command="hard-instance", k=1, rank=1))

    def test_rejects_epsilon_leaving_unit_interval(self):
        with pytest.raises(ValueError, match="leaves"):
            config = ExperimentConfig(command="hard-instance", k=1, rank=2, epsilons=(0.8,))
            run(config)

    @pytest.mark.parametrize(
        "flags,code,message",
        [
            # the family is built from k-qubit vectors; k = 23 is over the default cap of 22
            (["--k", "23"], 3, "23-qubit"),
            (["--epsilons", "0.1,0.35"], 2, "p=0.3 with epsilon=0.35 leaves"),
        ],
    )
    def test_config_fails_before_any_work(self, tmp_path, monkeypatch, capsys, flags, code, message):
        def no_instances(*args, **kwargs):
            raise AssertionError("hard_pair called before the config checks")

        monkeypatch.setattr(fidest.cli, "hard_pair", no_instances)
        out = tmp_path / "hard.csv"
        assert main(["hard-instance", *flags, "--output", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMainEntry:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "single",
                    "k": 1,
                    "rank": 2,
                    "estimator": "optimal",
                    "epsilons": [0.1],
                    "seed": 3,
                }
            )
        )
        assert main(["--config", str(cfg)]) == 0
        direct = capsys.readouterr().out
        assert main(
            ["single", "--estimator", "optimal", "--k", "1", "--rank", "2",
             "--epsilons", "0.1", "--seed", "3"]
        ) == 0
        assert capsys.readouterr().out == direct

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "single", "banana": 1}))
        assert main(["--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert main(["sweep", "--epsilons", "2.0"]) == 2
        assert "epsilons" in capsys.readouterr().err

    def test_readout_budget_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("sample_instance called before the m budget check")

        monkeypatch.setattr(fidest.cli, "sample_instance", no_synthesis)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--estimator", "swap-baseline", "--epsilons", "1e-9", "--output", str(out)]
        )
        assert code == 3
        assert "epsilon = 1e-09" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "estimator,epsilon",
        [
            ("optimal", "1e-320"),
            ("tr-rho-sigma2", "5e-324"),
            ("swap-baseline", "1e-170"),
            ("swap-baseline", "1e-320"),
        ],
    )
    def test_tiny_epsilon_exits_3_before_any_work(self, monkeypatch, capsys, estimator, epsilon):
        # pi / eps overflows, or the SWAP baseline's eps^2 / 4 underflows to 0
        def no_synthesis(*args, **kwargs):
            raise AssertionError("sample_instance called before the m budget check")

        monkeypatch.setattr(fidest.cli, "sample_instance", no_synthesis)
        assert main(["sweep", "--estimator", estimator, "--epsilons", epsilon]) == 3
        err = capsys.readouterr().err
        assert f"epsilon = {float(epsilon)}" in err and "cap is 48" in err

    def test_qubit_budget_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("sample_instance called before the qubit budget check")

        monkeypatch.setattr(fidest.cli, "sample_instance", no_synthesis)
        out = tmp_path / "sweep.csv"
        # k = 6 runs 1 + 4k = 25-qubit circuits, past the default cap of 22
        assert main(["sweep", "--k", "6", "--output", str(out)]) == 3
        assert "25-qubit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--k", str(2**70)],
            ["single", "--k", str(2**70)],
            ["verify-identities", "--k", str(2**70)],
            ["hard-instance", "--k", str(2**70)],
            ["--config", "{cfg}"],
        ],
    )
    def test_huge_k_exits_3_before_any_work(self, tmp_path, monkeypatch, capsys, argv):
        # 2^k is never built: at k = 2^70 it would not fit in memory
        forbid_sampling(monkeypatch)

        def no_instances(*args, **kwargs):
            raise AssertionError("hard_pair called before the config checks")

        monkeypatch.setattr(fidest.cli, "hard_pair", no_instances)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sweep", "k": 2**70}))
        assert main([a.format(cfg=cfg) for a in argv]) == 3
        err = capsys.readouterr().err
        assert f"k = {2**70} needs" in err and "cap is" in err

    @pytest.mark.parametrize("argv", [["sweep", "--trials", "30"], ["single"], ["hard-instance"]])
    @pytest.mark.parametrize("target", ["missing/out.csv", ".", ""])
    def test_bad_output_path_fails_before_any_work(self, tmp_path, monkeypatch, capsys, argv, target):
        forbid_sampling(monkeypatch)

        def no_instances(*args, **kwargs):
            raise AssertionError("hard_pair called before the config checks")

        monkeypatch.setattr(fidest.cli, "hard_pair", no_instances)
        assert main([*argv, "--output", target and str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "raw",
        [
            {"command": "sweep", "epsilons": 0.1},
            {"command": "sweep", "epsilons": "0.1"},
            {"command": "sweep", "epsilons": [0.1, True]},
            {"command": "sweep", "k": "2"},
            {"command": "sweep", "k": True},
            {"command": "sweep", "trials": 1.5},
            {"command": "sweep", "seed": None},
            {"command": "sweep", "estimator": 1},
            {"command": "sweep", "output_path": 7},
            {"command": None},
            {"k": 1},
        ],
    )
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, raw):
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_path": str(out), **raw}))
        assert main(["--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_hard_instance_has_no_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hard-instance", "--seed", "1"])
        assert exc.value.code == 2

    def test_env_qubit_cap_respected(self, monkeypatch, capsys):
        monkeypatch.setenv("FIDEST_QUBIT_CAP", "3")
        code = main(
            ["single", "--estimator", "optimal", "--k", "1", "--rank", "2",
             "--epsilons", "0.1", "--seed", "3"]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err
