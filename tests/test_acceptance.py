"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria cover the exact circuit identities, estimator success fractions,
the query-scaling separation, query accounting, the adversarial family,
oracle soundness, and CLI determinism, at their stated tolerances.
"""

import json
import math
import time

import numpy as np

from fidest.circuits import (
    analyze_flagged,
    build_encoding_circuit,
    build_restructured_encoding,
    build_swap_test,
    execute,
    register_zero_probability,
)
from fidest.cli import ExperimentConfig, ExperimentRecord, fit_scaling, main, run
from fidest.fidelity import (
    exact_fidelity_to_pure,
    exact_tr_rho_sigma2,
    fidelity_to_pure,
    hard_instance,
    hard_pair,
    hard_pair_hellinger,
    hellinger_distance,
    make_task,
    sqrt_tr_rho_sigma2_estimate,
    swap_test_estimate,
)
from fidest.linalg import unitarity_error
from fidest.oracles import (
    RandomInstanceSpec,
    purified_channel_oracle,
    sample_instance,
)
from fidest.reference import uhlmann_fidelity

from conftest import dense_sqrt_tr_rho_sigma2

# the identity corpus: k in {1, 2}, every rank, 17 seeds each => 102 instances
CORPUS = [
    (k, rank, 17 * (10 * k + rank) + rep)
    for k in (1, 2)
    for rank in range(1, (1 << k) + 1)
    for rep in range(17)
]

# five fixed estimator instances (criterion 4), each judged against its dense-reference
# fidelity, computed at test time from the seeded states
FIXED_INSTANCES = [
    # (k, rank, rho_seed, psi_seed)
    (1, 1, 101, 201),
    (1, 2, 102, 202),
    (2, 2, 103, 203),
    (2, 3, 104, 204),
    (2, 4, 105, 205),
]


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def corpus_pairs():
    for k, rank, seed in CORPUS:
        rho, u = sample_instance(RandomInstanceSpec(k, rank, seed, "ginibre_mixed"), "U")
        psi, v = sample_instance(RandomInstanceSpec(k, 1, seed + 1, "haar_pure"), "V")
        sigma, w = sample_instance(RandomInstanceSpec(k, rank, seed + 2, "ginibre_mixed"), "V")
        yield k, rho, u, psi, v, sigma, w


def test_criterion_1_encoding_identity_pure():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for _, rho, u, psi, v, _, _ in corpus_pairs():
        circ = build_encoding_circuit(u, v)
        amp = analyze_flagged(execute(circ), circ.layout, ("A", "B")).flagged_amplitude
        worst = max(worst, abs(amp**2 - exact_tr_rho_sigma2(rho, psi)))
        count += 1
    elapsed = time.perf_counter() - start
    _report(
        "1 encoding identity (pure)",
        count >= 100 and worst <= 1e-10 and elapsed < 10.0,
        f"instances={count} max residual={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_encoding_identity_mixed():
    start = time.perf_counter()
    worst_id = 0.0
    worst_agree = 0.0
    for _, rho, u, _, _, sigma, w in corpus_pairs():
        plain = build_encoding_circuit(u, w)
        amp = analyze_flagged(execute(plain), plain.layout, ("A", "B")).flagged_amplitude
        worst_id = max(worst_id, abs(amp**2 - exact_tr_rho_sigma2(rho, sigma)))
        restr = build_restructured_encoding(u, w)
        amp_r = analyze_flagged(execute(restr), restr.layout, ("A'", "B'")).flagged_amplitude
        worst_agree = max(worst_agree, abs(amp**2 - amp_r**2))
    elapsed = time.perf_counter() - start
    _report(
        "2 encoding identity (mixed) + circuit-form agreement",
        worst_id <= 1e-10 and worst_agree <= 1e-10 and elapsed < 10.0,
        f"max identity residual={worst_id:.2e} max form gap={worst_agree:.2e} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_3_swap_test_law():
    start = time.perf_counter()
    worst = 0.0
    for _, rho, u, psi, v, _, _ in corpus_pairs():
        circ = build_swap_test(u, v)
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        f2 = exact_tr_rho_sigma2(rho, psi)
        worst = max(worst, abs(pr0 - (1.0 + f2) / 2.0))
    elapsed = time.perf_counter() - start
    _report(
        "3 SWAP-test outcome law",
        worst <= 1e-10 and elapsed < 5.0,
        f"max residual={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_optimal_estimator_success():
    start = time.perf_counter()
    fractions = []
    for k, rank, rho_seed, psi_seed in FIXED_INSTANCES:
        rho, u = sample_instance(RandomInstanceSpec(k, rank, rho_seed, "ginibre_mixed"), "U")
        psi, v = sample_instance(RandomInstanceSpec(k, 1, psi_seed, "haar_pure"), "V")
        truth = uhlmann_fidelity(rho, psi)
        for eps in (0.1, 0.05, 0.02):
            hits = 0
            for seed in range(200):
                result = fidelity_to_pure(make_task(u, v, eps, seed))
                hits += abs(result.estimate - truth) <= eps
            fractions.append(hits / 200.0)
    elapsed = time.perf_counter() - start
    _report(
        "4 optimal estimator success fraction",
        min(fractions) >= 0.6 and elapsed < 300.0,
        f"min fraction={min(fractions):.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_quadratic_separation():
    start = time.perf_counter()
    epsilons = (0.2, 0.1, 0.05, 0.025, 0.0125)
    records = []
    for trial in range(3):
        _, u = sample_instance(RandomInstanceSpec(1, 2, 5000 + trial, "ginibre_mixed"), "U")
        _, v = sample_instance(RandomInstanceSpec(1, 1, 5100 + trial, "haar_pure"), "V")
        for eps in epsilons:
            for estimator, fn in (("optimal", fidelity_to_pure), ("swap-baseline", swap_test_estimate)):
                result = fn(make_task(u, v, eps, 6000 + trial))
                records.append(
                    ExperimentRecord(
                        instance_id=f"t{trial}",
                        estimator=estimator,
                        epsilon=eps,
                        seed=6000 + trial,
                        true_value=0.5,
                        estimate=result.estimate,
                        abs_error=abs(result.estimate - 0.5),
                        success=abs(result.estimate - 0.5) <= eps,
                        queries_U=result.total_queries("U"),
                        queries_V=result.total_queries("V"),
                        grover_applications=result.grover_applications,
                        wall_ms=0,
                    )
                )
    slopes = fit_scaling(records)
    elapsed = time.perf_counter() - start
    _report(
        "5 quadratic query-scaling separation",
        abs(slopes["optimal"] + 1.0) <= 0.15
        and abs(slopes["swap-baseline"] + 2.0) <= 0.2
        and elapsed < 600.0,
        f"slopes: optimal={slopes['optimal']:.3f} swap={slopes['swap-baseline']:.3f} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_6_query_accounting():
    ok = True
    checked = 0
    for k, rank, rho_seed, psi_seed in FIXED_INSTANCES[:3]:
        _, u = sample_instance(RandomInstanceSpec(k, rank, rho_seed, "ginibre_mixed"), "U")
        _, v = sample_instance(RandomInstanceSpec(k, 1, psi_seed, "haar_pure"), "V")
        for eps in (0.2, 0.05, 0.01):
            for seed in (0, 1):
                result = fidelity_to_pure(make_task(u, v, eps, seed))
                ok = ok and result.total_queries("V") == 2 * result.total_queries("U")
                checked += 1
    _report("6 query accounting V = 2U", ok, f"runs checked={checked}")


def test_criterion_7_sqrt_tr_rho_sigma2():
    start = time.perf_counter()
    rho, u = sample_instance(RandomInstanceSpec(1, 2, 301, "ginibre_mixed"), "U")
    sigma, sig = sample_instance(RandomInstanceSpec(1, 2, 302, "ginibre_mixed"), "V")
    truth = dense_sqrt_tr_rho_sigma2(rho, sigma)
    hits = 0
    for seed in range(200):
        result = sqrt_tr_rho_sigma2_estimate(make_task(u, sig, 0.05, seed))
        hits += abs(result.estimate - truth) <= 0.05

    _, v_pure = sample_instance(RandomInstanceSpec(1, 1, 43, "haar_pure"), "V")
    _, u2 = sample_instance(RandomInstanceSpec(1, 2, 42, "ginibre_mixed"), "U")
    identical = all(
        sqrt_tr_rho_sigma2_estimate(make_task(u2, v_pure, 0.05, seed)).to_json()
        == fidelity_to_pure(make_task(u2, v_pure, 0.05, seed)).to_json()
        for seed in range(40)
    )
    elapsed = time.perf_counter() - start
    _report(
        "7 sqrt(tr(rho sigma^2)) estimator",
        hits / 200.0 >= 0.6 and identical,
        f"success fraction={hits / 200:.3f} pure-sigma bit-identical={identical} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_8_hard_instance_family():
    worst_fid = 0.0
    worst_hell = 0.0
    for p in (0.2, 0.3, 0.5, 0.7, 0.8):
        for eps in (0.05, 0.1, 0.15):
            for r in (2, 3, 4):
                plus, minus = hard_pair(p, eps, r, k=2)
                for inst in (plus, minus):
                    fid = exact_fidelity_to_pure(inst.rho, inst.target)
                    worst_fid = max(worst_fid, abs(fid - math.sqrt(p + inst.sign * eps)))
                direct = hellinger_distance(plus.distribution, minus.distribution)
                worst_hell = max(worst_hell, abs(direct - hard_pair_hellinger(p, eps)))
    _report(
        "8 hard-instance closed forms",
        worst_fid <= 1e-12 and worst_hell <= 1e-12,
        f"max fidelity residual={worst_fid:.2e} max hellinger residual={worst_hell:.2e}",
    )


def test_criterion_9_oracle_soundness():
    worst_unitarity = 0.0
    worst_reconstruction = 0.0
    total = 0
    for _, rho, u, psi, v, sigma, w in corpus_pairs():
        for oracle, dm in ((u, rho), (v, psi), (w, sigma)):
            worst_unitarity = max(worst_unitarity, unitarity_error(oracle.unitary))
            worst_reconstruction = max(
                worst_reconstruction,
                float(np.max(np.abs(oracle.reduced_state().matrix - dm.matrix))),
            )
            total += 1
    # channel-wrapped and amplitude-loading oracles
    rng = np.random.default_rng(77)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, _ = np.linalg.qr(g)
    chan = purified_channel_oracle(q, 1)
    worst_unitarity = max(worst_unitarity, unitarity_error(chan.unitary))
    total += 1
    for sign in (1, -1):
        inst = hard_instance(0.5, 0.1, 2, sign, k=2)
        worst_unitarity = max(worst_unitarity, unitarity_error(inst.oracle.unitary))
        loaded = np.sqrt(inst.distribution)
        expected = np.outer(loaded, loaded.conj())
        worst_reconstruction = max(
            worst_reconstruction,
            float(np.max(np.abs(inst.oracle.reduced_state().matrix - expected))),
        )
        total += 1
    _report(
        "9 oracle synthesis soundness",
        worst_unitarity <= 1e-10 and worst_reconstruction <= 1e-9,
        f"oracles={total} max unitarity={worst_unitarity:.2e} "
        f"max reconstruction={worst_reconstruction:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    ok = True
    # sweep, CSV and JSON, byte-identical apart from wall_ms
    for fmt in ("csv", "json"):
        outputs = []
        for name in ("one", "two"):
            path = tmp_path / f"{name}.{fmt}"
            config = ExperimentConfig(
                command="sweep",
                estimator="optimal",
                k=1,
                rank=2,
                epsilons=(0.2, 0.1, 0.05),
                trials=5,
                seed=9,
                output_path=str(path),
                format=fmt,
            )
            assert run(config) == 0
            text = path.read_text()
            if fmt == "csv":
                rows = [line.split(",") for line in text.splitlines()]
                idx = rows[0].index("wall_ms")
                outputs.append([row[:idx] + row[idx + 1 :] for row in rows])
            else:
                payload = json.loads(text)
                for rec in payload["records"]:
                    rec.pop("wall_ms")
                outputs.append(payload)
        ok = ok and outputs[0] == outputs[1]
    capsys.readouterr()

    # single: byte-identical stdout, no wall_ms involved
    argv = [
        "single", "--estimator", "optimal", "--k", "1", "--rank", "2",
        "--epsilons", "0.1", "--seed", "3",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    ok = ok and first == capsys.readouterr().out

    # hard-instance: fully byte-identical
    texts = []
    for name in ("h1.csv", "h2.csv"):
        path = tmp_path / name
        config = ExperimentConfig(
            command="hard-instance", k=2, rank=3, epsilons=(0.1,), output_path=str(path)
        )
        assert run(config) == 0
        texts.append(path.read_text())
    capsys.readouterr()
    ok = ok and texts[0] == texts[1]
    _report("10 CLI determinism", ok)
