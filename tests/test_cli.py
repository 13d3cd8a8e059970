"""Tests for the experiment harness CLI."""

import csv
import dataclasses
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fidest.cli
import fidest.fidelity
import fidest.linalg
from fidest.cli import (
    COMMANDS,
    CSV_HEADER,
    HARD_CSV_HEADER,
    IDENTITY_BOUNDS,
    ExperimentConfig,
    ExperimentRecord,
    _identity_residuals,
    build_parser,
    config_from_args,
    derive_seed,
    fit_scaling,
    main,
    run,
)
from fidest.fidelity import hard_pair, hard_pair_hellinger
from fidest.linalg import oracle_residuals, oracle_unitary
from fidest.oracles import QubitCapExceeded, synthesize_instance
from fidest.reference import unitarity_error

from conftest import generated_oracles, hard_oracles

#: each command's flags, by ExperimentConfig field: exactly the keys its config file takes
COMMAND_FLAGS = {
    "verify-identities": {"k", "seed", "trials"},
    "sweep": {"k", "seed", "trials", "rank", "estimator", "epsilons", "output_path", "format"},
    "single": {"k", "seed", "rank", "estimator", "epsilons", "output_path"},
    "hard-instance": {"k", "rank", "epsilons", "output_path", "format"},
}
CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__) - {"command"}


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


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"success": False}, "success flag inconsistent with abs_error <= epsilon"),
        ({"abs_error": 0.2}, "success flag inconsistent with abs_error <= epsilon"),
        ({"queries_U": -1}, "query and timing fields must be non-negative"),
        ({"wall_ms": -1}, "query and timing fields must be non-negative"),
    ],
)
def test_record_rejects_inconsistent_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(fake_record("optimal", 0.1, 10), **fields)


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

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"epsilons": ()}, "at least one epsilon is required"),
            ({"seed": 2**63}, "seed must be a non-negative 63-bit integer"),
            ({"format": "xml"}, "unknown format 'xml'"),
        ],
    )
    def test_out_of_range_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(command="sweep", **fields)

    def test_readout_budget_checked_per_estimator(self):
        # swap baseline: m = ceil(log2(4 pi / eps^2)) + 2; the others
        # m = ceil(log2(pi / eps)) + 1, so eps = 1e-9 fits them (m = 33)
        with pytest.raises(QubitCapExceeded, match=r"epsilon = 1e-09 for the swap-baseline .* needs m = 66 "):
            ExperimentConfig(command="sweep", estimator="swap-baseline", epsilons=(0.1, 1e-9))
        ExperimentConfig(command="sweep", estimator="optimal", epsilons=(1e-9,))
        # hard-instance runs no estimator
        ExperimentConfig(command="hard-instance", estimator="swap-baseline", epsilons=(1e-9,))

    def test_hard_instance_rejects_p_equal_to_eps(self):
        # p = 0.3 on the grid minus eps = 0.3 is exactly 0, outside (0, 1)
        with pytest.raises(ValueError, match=r"p=0\.3 with epsilon=0\.3 leaves"):
            ExperimentConfig("hard-instance", k=2, rank=2, epsilons=(0.3,))

    @pytest.mark.parametrize(
        "fields,library",
        [
            ({"command": "sweep", "k": 0}, lambda: synthesize_instance(0, 2, 0)),
            ({"command": "sweep", "k": 1, "rank": 3}, lambda: synthesize_instance(1, 3, 0)),
            ({"command": "hard-instance", "k": 2, "rank": 5}, lambda: hard_pair(0.5, 0.1, 5, 2)),
            ({"command": "hard-instance", "k": 2, "rank": 1}, lambda: hard_pair(0.5, 0.1, 1, 2)),
            (
                {"command": "hard-instance", "k": 2, "rank": 3, "epsilons": (0.35,)},
                lambda: hard_pair_hellinger(0.3, 0.35),
            ),
        ],
    )
    def test_config_and_library_raise_one_text_per_rule(self, fields, library):
        # each rule has one home, so a config and the library refuse it alike
        with pytest.raises(ValueError) as config_error:
            ExperimentConfig(**fields)
        with pytest.raises(ValueError) as library_error:
            library()
        assert str(config_error.value) == str(library_error.value)


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

    @staticmethod
    def exact_slope(pairs):
        """Least squares in Fractions over the float logs of the medians fit_scaling takes."""
        by_eps = {}
        for eps, total in pairs:
            by_eps.setdefault(eps, []).append(total)
        xs = [Fraction(math.log(eps)) for eps in by_eps]
        ys = [Fraction(math.log(statistics.median(totals))) for totals in by_eps.values()]
        x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
        return float(sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum((x - x_bar) ** 2 for x in xs))

    def test_slope_is_the_exact_fit_in_any_record_order(self):
        # 2,000 generated grids: 3-6 epsilons over 12 decades, 1-5 trials each,
        # totals on a power law of exponent -3..3 with noise
        rng = random.Random(7)
        for _ in range(2000):
            epsilons = {10 ** -rng.uniform(0.3, 12) for _ in range(rng.randint(3, 6))}
            power = rng.uniform(-3, 3)
            pairs = [
                (eps, max(1, round(rng.uniform(1, 100) * eps**power * rng.uniform(0.5, 2))))
                for eps in epsilons
                for _ in range(rng.randint(1, 5))
            ]
            slope = fit_scaling([fake_record("optimal", eps, total) for eps, total in pairs])["optimal"]
            assert abs(slope - self.exact_slope(pairs)) <= 1e-14 * max(1.0, abs(slope))
            rng.shuffle(pairs)
            assert fit_scaling([fake_record("optimal", eps, total) for eps, total in pairs])["optimal"] == slope

    def test_epsilons_with_one_log_are_one_abscissa(self):
        # 0.1 and the next two doubles up share one log: one point, not three
        near = [0.1, math.nextafter(0.1, 1.0), math.nextafter(math.nextafter(0.1, 1.0), 1.0)]
        assert len({math.log(eps) for eps in near}) == 1
        with pytest.raises(ValueError, match="3 distinct"):
            fit_scaling([fake_record("optimal", eps, 640) for eps in near])
        records = [fake_record("optimal", eps, 100 * i) for i, eps in enumerate(near, 1)]
        records += [fake_record("optimal", 0.01, 400), fake_record("optimal", 0.001, 800)]
        # median total 400 at log(0.1), then 800 and 1600: slope -log(2)/log(10)
        assert fit_scaling(records)["optimal"] == pytest.approx(-math.log10(2), abs=1e-12)


def count_sampling(monkeypatch):
    """Wrap the one instance sampler where the CLI reads it; return the list of its calls.

    A sweep and verify-identities alike synthesise their oracles with it."""
    calls = []
    original = fidest.cli.synthesize_instance

    def counting(*args, **kwargs):
        calls.append("synthesize_instance")
        return original(*args, **kwargs)

    monkeypatch.setattr(fidest.cli, "synthesize_instance", counting)
    return calls


def forbid_sampling(monkeypatch, check="the config checks"):
    """Make any call of the instance sampler fail the test."""

    def no_synthesis(*args, **kwargs):
        raise AssertionError(f"an instance was sampled before {check}")

    monkeypatch.setattr(fidest.cli, "synthesize_instance", no_synthesis)


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

    def test_checks_the_p_the_estimators_read(self, monkeypatch, capsys):
        # the encoding and SWAP-law truths are pair_traces' tr(rho sigma^2), the p a sweep
        # estimates: a shift of 1e-9 in it fails those three lines and no other
        original = fidest.cli.pair_traces

        def shifted(u, v):
            tr_sigma, tr_sigma2 = original(u, v)
            return tr_sigma, tr_sigma2 + 1e-9

        monkeypatch.setattr(fidest.cli, "pair_traces", shifted)
        assert main(["verify-identities", "--k", "2", "--trials", "4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split(":")[0] for line in lines if line.endswith("[FAIL]")]
        assert failed == [
            "encoding pure |amp^2 - <psi|rho|psi>|",
            "encoding mixed |amp^2 - tr(rho sigma^2)|",
            "swap law |Pr[C=0] - (1+F^2)/2|",
        ]
        assert lines[-1] == "verify-identities: FAILURES above"

    def test_samples_three_instances_per_trial(self, monkeypatch, capsys):
        calls = count_sampling(monkeypatch)
        assert run(ExperimentConfig(command="verify-identities", k=1, trials=4)) == 0
        assert calls == ["synthesize_instance"] * (3 * 4)

    @pytest.mark.parametrize(
        "twist,untwist",
        [
            ((1, 1j), (1, -1j)),  # row 1 times i
            ((0, -1.0), (0, -1.0)),  # row 0 times -1
            ((2, 1j), (2, -1j)),  # row 2 times i
        ],
        ids=["row 1 phase", "row 0 sign", "row 2 phase"],
    )
    def test_reconstruction_reads_the_executed_query(self, monkeypatch, twist, untwist):
        # a plain query that multiplies one row by a phase, undone by the inverse query, keeps
        # U unitary but prepares another state: the residual reads U|0...0>, not the stored column
        forward = fidest.linalg.apply_oracle

        def twisted(oracle, blocks, inverse=False):
            if inverse:
                blocks[:, untwist[0]] *= untwist[1]
            forward(oracle, blocks, inverse)
            if not inverse:
                blocks[:, twist[0]] *= twist[1]

        monkeypatch.setattr(fidest.linalg, "apply_oracle", twisted)
        config = ExperimentConfig(command="verify-identities", k=2, seed=3)
        trials = [_identity_residuals(config, trial) for trial in range(8)]
        for name in ("oracle reconstruction max|tr_B - rho|", "oracle unitarity max|U^dag U - I|"):
            worst = max(residuals[name] for residuals in trials)
            assert (worst > IDENTITY_BOUNDS[name]) == ("reconstruction" in name), (name, worst)

    def test_circuits_are_sized_by_the_rank(self, monkeypatch, capsys):
        # rank r = trial + 1 has a ceil(log2 r)-qubit ancilla and the pure state none: the
        # three encodings run on 2k + 2a qubits, the flagged one on one more, and the
        # SWAP test, whose ancillas are not widened to each other, on 1 + 2k + a
        sizes = []
        execute = fidest.linalg.execute

        def recording(circuit):
            sizes.append(circuit.layout.total_qubits)
            return execute(circuit)

        monkeypatch.setattr(fidest.linalg, "execute", recording)
        k = 3
        assert run(ExperimentConfig(command="verify-identities", k=k, trials=8)) == 0
        expected = []
        for trial in range(8):
            a = trial.bit_length()
            expected += [2 * k + 2 * a] * 3 + [1 + 2 * k + 2 * a, 1 + 2 * k + a]
        assert sizes == expected
        assert max(sizes) == 1 + 4 * k

    @pytest.mark.parametrize("trial", [0, 11])
    def test_identity_residuals_within_bounds_at_k4(self, trial):
        # one rank per trial: rank 1 runs circuits of at most 9 qubits and 16 x 16 oracles,
        # rank 12 (a 4-qubit ancilla) 17-qubit circuits and 256 x 256 oracles
        config = ExperimentConfig(command="verify-identities", k=4, seed=5)
        residuals = _identity_residuals(config, trial)
        for name, bound in IDENTITY_BOUNDS.items():
            assert residuals[name] <= bound, name


def corrupted(oracle):
    """The oracle with its Householder tau scaled by 1.5, so its U is not unitary."""
    v, tau, d = fidest.linalg._householder(oracle)
    fidest.linalg._FACTORS[oracle] = (v, 1.5 * tau, d)
    return oracle


def oracle_unitarity_residual(oracle):
    """The unitarity half of ``oracle_residuals``."""
    return oracle_residuals(oracle)[0]


class TestOracleUnitarityResidual:
    def test_matches_the_dense_residual(self):
        oracles = list(generated_oracles())
        # 42 sampled (each rank at k = 1-3, 3 seeds), 6 hard and 3 channel oracles
        assert len(oracles) == 51
        for oracle in oracles:
            dense = unitarity_error(oracle_unitary(oracle))
            assert abs(oracle_unitarity_residual(oracle) - dense) <= 1e-14

    def test_fails_a_non_unitary_oracle(self):
        oracle = corrupted(synthesize_instance(2, 2, 0))
        assert unitarity_error(oracle_unitary(oracle)) > 1e-10
        assert oracle_unitarity_residual(oracle) > 1e-10

    @staticmethod
    def with_inverse_queries(monkeypatch, inverses):
        """Patch the inverse query of each oracle in ``inverses`` (keyed by id) to
        write the given matrix's product into its blocks, in place as apply does."""
        forward = fidest.linalg.apply_oracle

        def apply(oracle, blocks, inverse=False):
            if not inverse:
                return forward(oracle, blocks)
            blocks[...] = np.einsum("ij,ajk->aik", inverses[id(oracle)], blocks)

        monkeypatch.setattr(fidest.linalg, "apply_oracle", apply)

    def test_fails_an_inverse_query_that_is_not_the_adjoint(self, monkeypatch):
        unitary = synthesize_instance(2, 2, 0)
        bad = corrupted(synthesize_instance(2, 2, 0))
        # inverse queries: U for the unitary oracle, and the exact inverse of
        # the corrupted U, which passes U^-1 U = I and is caught only as not U^dag
        wrong = {id(unitary): oracle_unitary(unitary), id(bad): np.linalg.inv(oracle_unitary(bad))}
        self.with_inverse_queries(monkeypatch, wrong)
        for oracle in (unitary, bad):
            assert oracle_unitarity_residual(oracle) > 1e-10

    def test_passes_the_same_patched_query_with_the_adjoint(self, monkeypatch):
        # the control for the test above: the patched query does reach the residual
        oracles = [synthesize_instance(2, 2, seed) for seed in (0, 1)]
        self.with_inverse_queries(monkeypatch, {id(o): oracle_unitary(o).conj().T for o in oracles})
        for oracle in oracles:
            assert oracle_unitarity_residual(oracle) <= 1e-10


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

    def test_a_rank_1_instance_is_one_pure_state_for_every_estimator(self, tmp_path, capsys):
        # an instance is a function of (k, rank, seed): at rank 1 the estimators that need pure
        # states and the one that takes any sigma draw the same pair and read the same p, so
        # their records agree in every cell but the estimator's name and wall_ms
        argv = ["sweep", "--k", "2", "--rank", "1", "--epsilons", "0.2,0.1,0.05", "--trials", "3", "--seed", "11"]
        tables = []
        for estimator in ("optimal", "tr-rho-sigma2", "pure-pure"):
            out = tmp_path / f"{estimator}.csv"
            assert main([*argv, "--estimator", estimator, "--output", str(out)]) == 0
            rows = read_csv(out)
            keep = [i for i, name in enumerate(rows[0]) if name not in ("estimator", "wall_ms")]
            tables.append([[row[i] for i in keep] for row in rows])
        assert len(tables[0]) == 1 + 9
        assert tables[0] == tables[1] == tables[2]

    def test_json_file_is_its_payload_at_indent_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--k", "2", "--format", "json", "--epsilons", "0.2,0.1,0.05", "--trials", "2"]
        assert main([*argv, "--output", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

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
        # raw states: a sweep validates no DensityMatrix
        assert calls == ["synthesize_instance"] * (2 * 3)

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

        def failing(p, once, delta, seed):
            # the optimal estimator reads its amplitude to delta = epsilon
            if seed == bad_seed and delta == 0.03:
                raise ValueError("injected failure")
            return original(p, once, delta, seed)

        monkeypatch.setattr(fidest.fidelity, "sqrt_amplitude_estimate", failing)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--epsilons", "0.1,0.03,0.01", "--trials", "3", "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "trial 1, epsilon 0.03: injected failure" in err
        assert not out.exists()

    def test_executes_each_trial_circuit_once(self, tmp_path, monkeypatch):
        # p and the true value depend only on the trial's oracle pair, not on
        # epsilon: one column contraction per trial, and no circuit is executed
        calls = []
        original = fidest.fidelity.pair_traces

        def counting(rho_oracle, second_oracle):
            calls.append(rho_oracle)
            return original(rho_oracle, second_oracle)

        def executing(circuit):
            raise AssertionError("a sweep executed a circuit")

        monkeypatch.setattr(fidest.fidelity, "pair_traces", counting)
        monkeypatch.setattr(fidest.linalg, "execute", executing)
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

    def test_csv_header_is_the_record_fields(self):
        # the public column order, and csv_row's order, both come from the fields
        assert CSV_HEADER == (
            "instance_id,estimator,epsilon,seed,true_value,estimate,abs_error,success,"
            "queries_U,queries_V,grover_applications,wall_ms"
        )
        assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(ExperimentRecord)]
        record = fake_record("optimal", 0.1, 7)
        assert dict(zip(CSV_HEADER.split(","), record.csv_row(), strict=True)) == dataclasses.asdict(record)

    def test_epsilons_with_one_log_fit_no_slope(self, capsys):
        # three epsilons but one abscissa: no line to fit, and the records still print
        argv = ["sweep", "--format", "json", "--epsilons", "0.1,0.10000000000000002,0.10000000000000003"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["records"]) == 3
        assert "scaling" not in json.loads(captured.out) and "scaling" not in captured.err

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

    def test_output_file_is_the_stdout_line(self, tmp_path, capsys):
        out = tmp_path / "single.json"
        assert main(["single", "--k", "1", "--epsilons", "0.1", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("\n") == 1 and out.read_text(encoding="utf-8") == stdout

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
        # single has no --trials flag, so its config file has no trials key
        expected = "unknown config keys ['trials']" if "trials" in fields else "single runs one estimate"
        assert expected in capsys.readouterr().err

    def test_has_no_format_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single", "--format", "json"])
        assert exc.value.code == 2

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

    def test_readout_at_pi_over_a_power_of_two(self, capsys):
        # math.pi / 8 is below pi / 8, so delta 2^3 < pi: j = 4 and m = j + 1
        assert main(["single", "--estimator", "optimal", "--k", "1", "--epsilons", "0.39269908169872414"]) == 0
        assert '"m": 5' in capsys.readouterr().out


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

    def test_hellinger_check_passes_at_tiny_epsilon(self, capsys):
        # the closed form sums two positive terms, so it cancels nothing as eps -> 0
        assert main(["hard-instance", "--k", "2", "--rank", "3", "--epsilons", "1e-6,1e-9,1e-12"]) == 0

    @pytest.mark.parametrize("k,rank", [(2, 3), (4, 3), (5, 12)])
    def test_hellinger_reads_only_the_nonzero_weights(self, monkeypatch, capsys, k, rank):
        # each member is read as its two distinct weights, whatever the rank
        lengths = []

        original = fidest.cli.summed_hellinger

        def recording(p, q, r):
            lengths.extend((len(p), len(q)))
            return original(p, q, r)

        monkeypatch.setattr(fidest.cli, "summed_hellinger", recording)
        assert main(["hard-instance", "--k", str(k), "--rank", str(rank), "--epsilons", "0.1"]) == 0
        assert lengths == [2] * (2 * 3)

    def test_builds_no_oracle(self, capsys):
        # the rows need only each instance's first weight and the closed forms:
        # no 2^k oracle column, Householder vector or zero-state target is built
        weights_nbytes = 8 << 18
        tracemalloc.start()
        try:
            assert main(["hard-instance", "--k", "18", "--rank", "3", "--epsilons", "0.1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * weights_nbytes

    def test_full_rank_at_the_cap_runs_in_a_small_process(self):
        # two weights per member: the 2^22-rank family needs no numpy and no rank-long array.
        # A small launcher runs the command, so the child's ru_maxrss does not start from
        # this process's resident set, which a fork (or vfork) and exec carry over
        command = (
            "import sys; from fidest.cli import main; "
            "assert main(['hard-instance', '--k', '22', '--rank', '4194304', '--epsilons', '0.1']) == 0; "
            "assert 'numpy' not in sys.modules"
        )
        launcher = (
            "import resource, subprocess, sys\n"
            f"proc = subprocess.run([sys.executable, '-c', {command!r}], capture_output=True, text=True)\n"
            "assert proc.returncode == 0, proc.stderr\n"
            "assert len(proc.stdout.splitlines()) == 1 + 3 * 2, proc.stdout\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(fidest.cli.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        maxrss_kib = int(proc.stdout)  # Linux reports KiB
        assert maxrss_kib < 25 * 1024

    @pytest.mark.parametrize("k,rank", [(1, 2), (2, 3), (3, 8), (5, 7), (8, 2)])
    def test_fidelity_column_is_the_oracle_amplitude(self, capsys, k, rank):
        # sqrt of the first weight is |first entry| of the oracle's column, bit for bit
        assert main(["hard-instance", "--k", str(k), "--rank", str(rank), "--epsilons", "0.03,0.1"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {row["sign"] for row in rows} == {"+", "-"}
        for row in rows:
            plus, minus = hard_oracles(float(row["p"]), float(row["epsilon"]), rank, k)
            oracle = plus if row["sign"] == "+" else minus
            assert float(row["fidelity"]) == float(abs(oracle.prepared_state[0]))

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError, match=r"^rank must be >= 2, got 1$"):
            run(ExperimentConfig(command="hard-instance", k=1, rank=1))

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("sweep --k 0", "k must be >= 1, got 0"),
            ("sweep --k 1 --rank 3", "rank 3 out of range [1, 2^1] for k=1"),
            ("hard-instance --k 1 --rank 3", "rank 3 out of range [1, 2^1] for k=1"),
            ("hard-instance --k 2 --rank 3 --epsilons 0.35", "p=0.3 with epsilon=0.35 leaves (0, 1)"),
            ("hard-instance --k 2 --rank 1", "rank must be >= 2, got 1"),
        ],
    )
    def test_instance_rules_exit_2_with_their_message(self, capsys, argv, message):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_rejects_epsilon_leaving_unit_interval(self):
        with pytest.raises(ValueError, match="leaves"):
            config = ExperimentConfig(command="hard-instance", k=1, rank=2, epsilons=(0.8,))
            run(config)

    @pytest.mark.parametrize(
        "flags,code,message",
        [
            # k = 23 is over the cap of 22, which keeps the exit-3 contract and hard_pair's float range
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
                    "output_path": None,  # null is the flag default: stdout
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

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_file_defaults_are_the_flag_defaults(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command}))
        from_file = config_from_args(build_parser().parse_args(["--config", str(cfg)]))
        assert from_file == config_from_args(build_parser().parse_args([command]))

    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command, flags in COMMAND_FLAGS.items()
            for key in sorted(CONFIG_FIELDS - flags)
        ],
    )
    def test_config_key_without_a_flag_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, key
    ):
        forbid_sampling(monkeypatch)

        def no_instances(*args, **kwargs):
            raise AssertionError("hard_pair called before the config checks")

        monkeypatch.setattr(fidest.cli, "hard_pair", no_instances)
        cfg = tmp_path / "cfg.json"
        value = ExperimentConfig.__dataclass_fields__[key].default  # a valid value
        cfg.write_text(json.dumps({"command": command, key: value}))
        assert main(["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"unknown config keys [{key!r}] for {command}" in captured.err
        assert captured.out == ""

    def test_no_command(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert main(["sweep", "--epsilons", "2.0"]) == 2
        assert "epsilons" in capsys.readouterr().err

    def test_unparsable_epsilon_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilons", "0.1,abc"])
        assert exc.value.code == 2
        assert "bad epsilon list '0.1,abc'" in capsys.readouterr().err

    def test_readout_budget_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        forbid_sampling(monkeypatch, "the m budget check")
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
        forbid_sampling(monkeypatch, "the m budget check")
        assert main(["sweep", "--estimator", estimator, "--epsilons", epsilon]) == 3
        err = capsys.readouterr().err
        assert f"epsilon = {float(epsilon)}" in err and "cap is 48" in err

    def test_qubit_budget_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        forbid_sampling(monkeypatch, "the qubit budget check")
        out = tmp_path / "sweep.csv"
        # k = 6 runs 1 + 4k = 25-qubit circuits, past the cap of 22
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
            {"command": ["sweep"]},
            {"command": "banana"},
            # too large for a float: refused before float() can overflow
            {"command": "sweep", "epsilons": [10**400]},
            {"command": "hard-instance", "epsilons": [10**400]},
            # null is no flag default where the default is not None
            {"command": "sweep", "k": None},
            {"command": "sweep", "trials": None},
            {"command": "verify-identities", "trials": None},
            # in range for JSON, out of range for a config
            {"command": "sweep", "k": 0},
            {"command": "sweep", "epsilons": []},
            {"command": "sweep", "seed": 2**63},
            {"command": "sweep", "format": "xml"},
        ],
    )
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, raw):
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        # verify-identities has no --output: an output_path key alone would exit 2
        target = {} if raw.get("command") == "verify-identities" else {"output_path": str(out)}
        cfg.write_text(json.dumps({**target, **raw}))
        assert main(["--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_holding_a_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"command": "sweep"}]))
        assert main(["--config", str(cfg)]) == 2
        assert "error: config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("typed", [["verify-identities", "--k", "2"], ["sweep"]])
    def test_config_with_a_command_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, typed):
        # the file's sweep must not run in place of the typed command, nor the typed one
        forbid_sampling(monkeypatch)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"command": "sweep", "k": 2, "epsilons": [0.1, 0.05], "trials": 2}))
        assert main(["--config", str(cfg), *typed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --config names its command: drop {typed[0]!r} from the command line\n"

    @pytest.mark.parametrize(
        "argv,raw",
        [
            (["sweep", "--epsilons", "0.1,0.1", "--trials", "2"], None),
            (["hard-instance", "--epsilons", "0.1,0.05,0.1"], None),
            (None, {"command": "sweep", "epsilons": [0.05, 0.1, 0.05]}),
            (None, {"command": "single", "epsilons": [0.1, 0.1]}),
        ],
    )
    def test_equal_epsilons_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, argv, raw):
        # one record per (epsilon, trial): an epsilon given twice would repeat its records
        forbid_sampling(monkeypatch)

        def no_instances(*args, **kwargs):
            raise AssertionError("hard_pair called before the config checks")

        monkeypatch.setattr(fidest.cli, "hard_pair", no_instances)
        if argv is None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            argv = ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilons must be distinct, got (")

    def test_hard_instance_has_no_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hard-instance", "--seed", "1"])
        assert exc.value.code == 2

    def test_cap_ignores_the_environment(self, monkeypatch, capsys):
        # the old FIDEST_QUBIT_CAP override neither lowers nor raises the cap of 22
        monkeypatch.setenv("FIDEST_QUBIT_CAP", "3")
        code = main(
            ["single", "--estimator", "optimal", "--k", "1", "--rank", "2",
             "--epsilons", "0.1", "--seed", "3"]
        )
        assert code == 0
        capsys.readouterr()
        monkeypatch.setenv("FIDEST_QUBIT_CAP", "30")
        forbid_sampling(monkeypatch, "the qubit budget check")
        assert main(["hard-instance", "--k", "23", "--rank", "3", "--epsilons", "0.1"]) == 3
        assert capsys.readouterr().err == "error: k = 23 needs 23-qubit states, cap is 22\n"
