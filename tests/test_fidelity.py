"""Tests for the fidelity estimators, exact references, and hard instances."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import estimation
from fidest.circuits import (
    QubitCapExceeded,
    analyze_flagged,
    build_flagged_encoding,
    build_restructured_encoding,
    build_swap_test,
    execute,
)
from fidest.fidelity import (
    ESTIMATORS,
    _run_task,
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
from fidest.linalg import DensityMatrix, zero_state
from fidest.oracles import PreparationOracle, purified_channel_oracle
from fidest.reference import flag_probability, preparation_oracle, uhlmann_fidelity

from conftest import (
    dense_sqrt_tr_rho_sigma2,
    mixed_instance,
    principal_eigvec,
    pure_instance,
    resized_oracle,
    state_oracle,
)


class TestExactReferences:
    def test_fidelity_to_pure_self(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        assert abs(exact_fidelity_to_pure(rho, psi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fidelity_maximally_mixed(self, k):
        d = 1 << k
        rho = DensityMatrix(np.eye(d) / d)
        assert abs(exact_fidelity_to_pure(rho, zero_state(k)) - 2 ** (-k / 2)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_fidelity_matches_uhlmann(self, seed):
        # oracle: Uhlmann fidelity via matrix square roots
        rho, _ = mixed_instance(2, 3, 3000 + seed)
        psi_dm, _ = pure_instance(2, 3100 + seed)
        psi = principal_eigvec(psi_dm)
        assert abs(exact_fidelity_to_pure(rho, psi) - uhlmann_fidelity(rho, psi_dm)) <= 1e-9

    def test_fidelity_dim_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="dim"):
            exact_fidelity_to_pure(rho, zero_state(2))

    def test_tr_rho_sigma2_pure_second_state(self):
        rho, _ = mixed_instance(1, 2, 12)
        psi_dm, _ = pure_instance(1, 13)
        psi = principal_eigvec(psi_dm)
        lhs = exact_tr_rho_sigma2(rho, psi_dm)
        rhs = float(np.real(np.vdot(psi, rho.matrix @ psi)))
        assert abs(lhs - rhs) <= 1e-12

    def test_tr_rho_sigma2_maximally_mixed(self):
        rho, _ = mixed_instance(1, 2, 14)
        assert abs(exact_tr_rho_sigma2(rho, DensityMatrix(np.eye(2) / 2)) - 0.25) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_tr_rho_sigma2_matches_circuit(self, seed):
        # oracle: the executed restructured circuit
        rho, u = mixed_instance(2, 3, 3200 + seed)
        sigma, v = mixed_instance(2, 2, 3300 + seed)
        circ = build_restructured_encoding(u, v)
        amp = analyze_flagged(execute(circ), circ.layout, ("A'", "B'")).flagged_amplitude
        assert abs(amp**2 - exact_tr_rho_sigma2(rho, sigma)) <= 1e-10

    def test_tr_rho_sigma2_dim_mismatch(self):
        a = DensityMatrix(np.eye(2) / 2)
        b = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError, match="mismatch"):
            exact_tr_rho_sigma2(a, b)

    def test_uhlmann_self_fidelity(self):
        rho, _ = mixed_instance(2, 4, 15)
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) <= 1e-9

    def test_uhlmann_orthogonal_pure(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert uhlmann_fidelity(a, b) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_uhlmann_symmetric(self, seed):
        a, _ = mixed_instance(2, 3, 3400 + seed)
        b, _ = mixed_instance(2, 2, 3500 + seed)
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) <= 1e-9


def ancilla_rotated(oracle, seed):
    """The oracle's reduced state behind a random unitary on its ancilla: a
    purification that is not the canonical one."""
    rng = np.random.default_rng(seed)
    da = 1 << oracle.ancilla_qubits
    w, _ = np.linalg.qr(rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da)))
    m = oracle.prepared_state.reshape(-1, da) @ w
    return PreparationOracle(m.ravel(), oracle.system_qubits, oracle.ancilla_qubits, oracle.label)


def assert_flag_probability_matches(name, u, v):
    """The p bind takes for the pair, held to the executed circuit within 1e-12; returns it."""
    estimator = ESTIMATORS[name]
    estimator.bind(name, u, v)  # the pair passes the estimator's purity and size checks
    p = estimator.flag_probability(u, v)
    circuit = (build_swap_test if estimator.swap_test else build_flagged_encoding)(u, v)
    assert 0.0 <= p <= 1.0
    assert abs(p - flag_probability(circuit, "C")) <= 1e-12, name
    return p


def pure_pure_fidelity(task):
    """|<phi|psi>| for two pure states, through ESTIMATORS["pure-pure"] as the CLI runs it."""
    return _run_task("pure-pure", task)


#: each estimator's front end on a task: the package's three, and pure-pure's bind
FRONT_ENDS = {
    "swap-baseline": swap_test_estimate,
    "optimal": fidelity_to_pure,
    "tr-rho-sigma2": sqrt_tr_rho_sigma2_estimate,
    "pure-pure": pure_pure_fidelity,
}


def _no_sampling(*key):
    raise AssertionError("a bad task reached the repetition streams")


#: (epsilon, seed, qubits of the second state, the error) of each bad task
BAD_TASKS = [
    *(
        pytest.param(eps, 0, 1, f"epsilon must be in (0, 1), got {eps}", id=f"epsilon-{eps}")
        for eps in (0.0, 1.0, 1.5, math.nan)
    ),
    pytest.param(0.1, -1, 1, "seed must be non-negative, got -1", id="negative-seed"),
    pytest.param(0.1, 0, 2, "system size mismatch: 'U' has 1 qubits, 'V' has 2", id="size-mismatch"),
]


class TestTaskConstruction:
    """A task is a plain record; the estimator that runs it checks each field
    before any repetition stream is built."""

    @pytest.mark.parametrize("name", FRONT_ENDS)
    @pytest.mark.parametrize("epsilon,seed,k,message", BAD_TASKS)
    def test_front_end_rejects_before_sampling(self, monkeypatch, name, epsilon, seed, k, message):
        monkeypatch.setattr(estimation, "uniforms", _no_sampling)
        task = make_task(pure_instance(1, 20, "U")[1], pure_instance(k, 21)[1], epsilon, seed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FRONT_ENDS[name](task)

    @pytest.mark.parametrize("name", ["swap-baseline", "optimal", "pure-pure"])
    def test_purity_is_checked_first(self, monkeypatch, name):
        # invalid in every field: the purity check in bind is the first one reached
        monkeypatch.setattr(estimation, "uniforms", _no_sampling)
        _, u = pure_instance(1, 20, "U")
        _, v = mixed_instance(2, 2, 21, "V")
        with pytest.raises(ValueError, match=f"the {name} estimator requires a pure second state"):
            FRONT_ENDS[name](make_task(u, v, 1.5, -1))


class TestEstimatorTable:
    @settings(database=None, deadline=None, max_examples=25)
    @given(
        k=st.sampled_from((1, 2)),
        rank_index=st.integers(0, 3),
        seed=st.integers(0, (1 << 62) - 1),
    )
    def test_bound_estimator_matches_front_end(self, k, rank_index, seed):
        # one bind serves every epsilon with the same results, seed for seed,
        # as a front end on a fresh task
        rank = rank_index % (1 << k) + 1
        for name, estimator in ESTIMATORS.items():
            first = pure_instance(k, seed, "U") if estimator.first_pure else mixed_instance(k, rank, seed)
            second = (
                pure_instance(k, seed + 1)
                if estimator.second_pure
                else mixed_instance(k, rank, seed + 1, "V")
            )
            u, v = first[1], second[1]
            bound = estimator.bind(name, u, v)
            for eps in (0.1, 0.03, 0.01):
                result = bound(eps, seed)
                assert result.to_json() == FRONT_ENDS[name](make_task(u, v, eps, seed)).to_json()
                ratio = 1 if estimator.swap_test else 2
                assert result.total_queries("V") == ratio * result.total_queries("U")
                assert result.m == estimator.readout_qubits(eps)

    # At epsilon 0.1, 15 repetitions of 1 preparation and 2^m - 1 Grover steps:
    # the SWAP test reads delta = 0.1^2 / 4 with m = ceil(log2(pi / delta)) + 2 = 13,
    # 8191 steps; the flagged encoding reads delta = 0.1 with m = 5 + 1 = 6, 63 steps.
    # Each step is a controlled preparer and a controlled inverse preparer, so a
    # plain op of the preparer costs 15 plain, 15 (2^m - 1) controlled and as many
    # controlled_inverse queries, and the encoding's inverse V op the mirror image.
    SWAP_ONE_PLAIN = {"plain": 15, "inverse": 0, "controlled": 122865, "controlled_inverse": 122865}
    ENCODING_ONE_PLAIN = {"plain": 15, "inverse": 0, "controlled": 945, "controlled_inverse": 945}
    ENCODING_PLAIN_AND_INVERSE = {
        "plain": 15, "inverse": 15, "controlled": 1890, "controlled_inverse": 1890,
    }

    @settings(database=None, deadline=None, max_examples=30)
    @given(
        k=st.integers(1, 3),
        rank_indices=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        extra_ancillas=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, (1 << 62) - 1),
    )
    def test_flag_probability_matches_executed_circuit(self, k, rank_indices, extra_ancillas, seed):
        # the closed form from the oracle columns is the executed circuit's
        # Pr[C = 0], for ancillas as wide as each rank needs and wider, in a
        # basis where the columns' ancilla Gram matrix is complex
        for name, estimator in ESTIMATORS.items():
            oracles = []
            for pure, rank_index, extra, label, offset in zip(
                (estimator.first_pure, estimator.second_pure), rank_indices, extra_ancillas, "UV", (0, 1)
            ):
                rank = 1 if pure else rank_index % (1 << k) + 1
                dm, _ = mixed_instance(k, rank, seed + offset, label)
                oracle = resized_oracle(dm, (rank - 1).bit_length() + extra, label)
                oracles.append(ancilla_rotated(oracle, seed + offset))
            assert_flag_probability_matches(name, *oracles)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_flag_probability_at_the_clamp(self, seed, extra):
        # identical pure states flag with p = 1 and orthogonal ones with p = 0,
        # where the SWAP test reads 1 and 1/2; rounding puts the raw sums on
        # either side of those values
        dm, _ = pure_instance(2, seed, "U")
        psi = principal_eigvec(dm)
        u = resized_oracle(dm, extra, "U")
        orthogonal = principal_eigvec(pure_instance(2, seed + 10)[0])
        orthogonal -= np.vdot(psi, orthogonal) * psi
        for v, flagged, swap in (
            (resized_oracle(dm, 1 - extra, "V"), 1.0, 1.0),
            (state_oracle(orthogonal / np.linalg.norm(orthogonal), "V"), 0.0, 0.5),
        ):
            for name, estimator in ESTIMATORS.items():
                p = assert_flag_probability_matches(name, u, v)
                assert abs(p - (swap if estimator.swap_test else flagged)) <= 1e-12

    @pytest.mark.parametrize(
        "name,m,u_queries,v_queries",
        [
            ("swap-baseline", 13, SWAP_ONE_PLAIN, SWAP_ONE_PLAIN),
            ("optimal", 6, ENCODING_ONE_PLAIN, ENCODING_PLAIN_AND_INVERSE),
            ("tr-rho-sigma2", 6, ENCODING_ONE_PLAIN, ENCODING_PLAIN_AND_INVERSE),
            ("pure-pure", 6, ENCODING_ONE_PLAIN, ENCODING_PLAIN_AND_INVERSE),
        ],
    )
    def test_query_tallies_by_hand(self, name, m, u_queries, v_queries):
        _, u = pure_instance(1, 7, "U")
        _, v = pure_instance(1, 8)
        result = ESTIMATORS[name].bind(name, u, v)(0.1, 0)
        assert result.m == m
        assert result.grover_applications == 15 * ((1 << m) - 1)
        assert result.queries == {"U": u_queries, "V": v_queries}


class TestSwapTestEstimate:
    def test_perfect_fidelity(self):
        psi = np.array([0.8, 0.6j], dtype=complex)
        dm = DensityMatrix(np.outer(psi, psi.conj()))
        task = make_task(preparation_oracle(dm, "U"), preparation_oracle(dm, "V"), 0.1, 0)
        result = swap_test_estimate(task)
        assert abs(result.estimate - 1.0) <= 0.1

    def test_zero_fidelity_clamps(self):
        # p = 1/2 sits exactly on the phase grid, so the clamp fires every seed
        for seed in range(5):
            task = make_task(
                state_oracle([0.0, 1.0], "U"), state_oracle([1.0, 0.0], "V"), 0.1, seed
            )
            result = swap_test_estimate(task)
            assert result.estimate <= 0.1

    def test_zero_epsilon_is_a_bad_epsilon_not_a_cap(self):
        # eps = 0 is outside (0, 1); it must not pass on to eps^2/4 = 0 and the cap error
        with pytest.raises(ValueError, match="epsilon must be in") as info:
            ESTIMATORS["swap-baseline"].readout_qubits(0.0)
        assert not isinstance(info.value, QubitCapExceeded)

    @pytest.mark.parametrize("epsilon", [1e-170, 1e-320])
    def test_underflowing_delta_exceeds_readout_cap(self, epsilon):
        # eps^2 / 4 rounds to 0: the estimate is refused at the cap, not as a bad delta
        task = make_task(state_oracle([1.0, 0.0], "U"), state_oracle([1.0, 0.0], "V"), epsilon, 0)
        with pytest.raises(QubitCapExceeded, match="cap is 48"):
            swap_test_estimate(task)

    def test_seeded_instance_success_rate(self):
        rho, u = mixed_instance(1, 2, 42)
        psi, v = pure_instance(1, 43)
        truth = uhlmann_fidelity(rho, psi)
        hits = 0
        for seed in range(200):
            task = make_task(u, v, 0.05, seed)
            result = swap_test_estimate(task)
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 120

    def test_rejects_mixed_second_state(self):
        _, u = mixed_instance(1, 2, 23)
        _, v = mixed_instance(1, 2, 24)
        with pytest.raises(ValueError, match="pure"):
            swap_test_estimate(make_task(u, v, 0.1, 0))

    def test_delta_is_quarter_epsilon_squared(self):
        _, u = mixed_instance(1, 2, 42)
        _, v = pure_instance(1, 43)
        result = swap_test_estimate(make_task(u, v, 0.2, 0))
        assert result.delta == pytest.approx(0.01)


class TestFidelityToPure:
    def test_identical_states(self):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        dm = DensityMatrix(np.outer(psi, psi.conj()))
        task = make_task(preparation_oracle(dm, "U"), preparation_oracle(dm, "V"), 0.05, 0)
        assert abs(fidelity_to_pure(task).estimate - 1.0) <= 0.05

    def test_maximally_mixed_forced_value(self):
        # F = sqrt(1/2): the Grover phase sits exactly on the grid, so every
        # seed recovers sqrt(2)/2 exactly
        rho = DensityMatrix(np.eye(2) / 2)
        for seed in range(5):
            task = make_task(
                preparation_oracle(rho, "U"), state_oracle([1.0, 0.0], "V"), 0.05, seed
            )
            result = fidelity_to_pure(task)
            assert abs(result.estimate - math.sqrt(0.5)) <= 1e-12

    def test_seeded_k2_rank3_success_rate(self):
        rho, u = mixed_instance(2, 3, 777)
        psi, v = pure_instance(2, 778)
        truth = uhlmann_fidelity(rho, psi)
        hits = 0
        for seed in range(200):
            result = fidelity_to_pure(make_task(u, v, 0.02, seed))
            hits += abs(result.estimate - truth) <= 0.02
        assert hits >= 120

    def test_query_ratio_exact(self):
        _, u = mixed_instance(2, 3, 777)
        _, v = pure_instance(2, 778)
        for eps in (0.2, 0.05, 0.01):
            result = fidelity_to_pure(make_task(u, v, eps, 1))
            assert result.total_queries("V") == 2 * result.total_queries("U")

    def test_rejects_mixed_second_state(self):
        _, u = mixed_instance(1, 2, 23)
        _, v = mixed_instance(1, 2, 24)
        with pytest.raises(ValueError, match="pure"):
            fidelity_to_pure(make_task(u, v, 0.1, 0))

    def test_minimal_ancilla_oracle_serves_estimation(self):
        # a rank-2 state on k=2 purified with a single ancilla qubit; the
        # circuit pads the smaller ancilla register and the estimate is
        # unaffected
        rho, _ = mixed_instance(2, 2, 555)
        psi_dm, v = pure_instance(2, 556)
        u_min = resized_oracle(rho, 1, "U")
        truth = exact_fidelity_to_pure(rho, principal_eigvec(psi_dm))
        hits = 0
        for seed in range(40):
            result = fidelity_to_pure(make_task(u_min, v, 0.05, seed))
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 24


class TestSqrtTrRhoSigma2Estimate:
    def test_pure_sigma_reproduces_fidelity_to_pure(self):
        _, u = mixed_instance(1, 2, 42)
        _, v = pure_instance(1, 43)
        for seed in (0, 5, 17):
            a = sqrt_tr_rho_sigma2_estimate(make_task(u, v, 0.05, seed))
            b = fidelity_to_pure(make_task(u, v, 0.05, seed))
            assert a.estimate == b.estimate
            assert a.to_json() == b.to_json()

    def test_maximally_mixed_sigma(self):
        rho, u = mixed_instance(1, 2, 26)
        v = preparation_oracle(DensityMatrix(np.eye(2) / 2), "V")
        # sqrt(tr(rho/4)) = 1/2 exactly, and the phase is grid-aligned
        for seed in range(3):
            result = sqrt_tr_rho_sigma2_estimate(make_task(u, v, 0.05, seed))
            assert abs(result.estimate - 0.5) <= 0.05

    def test_seeded_mixed_pair_success_rate(self):
        rho, u = mixed_instance(1, 2, 301)
        sigma, v = mixed_instance(1, 2, 302)
        truth = dense_sqrt_tr_rho_sigma2(rho, sigma)
        hits = 0
        for seed in range(200):
            result = sqrt_tr_rho_sigma2_estimate(make_task(u, v, 0.05, seed))
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 120


class TestPurePureFidelity:
    def test_same_state_different_purifying_ancillas(self):
        # purified access built from a channel unitary with a redundant
        # ancilla rotation; fidelity to itself must estimate 1
        phi = np.array([0.28, 0.96j], dtype=complex)
        u_phi = state_oracle(phi).unitary
        anc1 = state_oracle(np.array([1.0, 0.0], dtype=complex)).unitary
        anc2 = state_oracle(np.array([0.6, 0.8], dtype=complex)).unitary
        o1 = purified_channel_oracle(np.kron(u_phi, anc1), 1, "U")
        o2 = purified_channel_oracle(np.kron(u_phi, anc2), 1, "V")
        result = pure_pure_fidelity(make_task(o1, o2, 0.05, 3))
        assert abs(result.estimate - 1.0) <= 0.05

    def test_orthogonal_pair(self):
        task = make_task(state_oracle([1.0, 0.0], "U"), state_oracle([0.0, 1.0], "V"), 0.05, 0)
        assert pure_pure_fidelity(task).estimate <= 0.05

    def test_seeded_haar_pair_success_rate(self):
        phi, u = pure_instance(1, 401, label="U")
        psi, v = pure_instance(1, 402)
        truth = uhlmann_fidelity(phi, psi)
        hits = 0
        for seed in range(200):
            result = pure_pure_fidelity(make_task(u, v, 0.05, seed))
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 120

    def test_rejects_mixed_first_state(self):
        _, u = mixed_instance(1, 2, 27)
        _, v = pure_instance(1, 28)
        with pytest.raises(ValueError, match="pure first"):
            pure_pure_fidelity(make_task(u, v, 0.1, 0))


class TestHardInstances:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_fidelity_closed_form(self, p, eps, r):
        for sign in (1, -1):
            inst = hard_instance(p, eps, r, sign, k=2)
            fid = exact_fidelity_to_pure(inst.rho, inst.target)
            assert abs(fid - math.sqrt(p + sign * eps)) <= 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    @pytest.mark.parametrize("r", [2, 4])
    def test_hellinger_closed_form(self, p, eps, r):
        plus, minus = hard_pair(p, eps, r, k=2)
        direct = hellinger_distance(plus.distribution, minus.distribution)
        assert abs(direct - hard_pair_hellinger(p, eps)) <= 1e-12

    @pytest.mark.parametrize(
        "k,rank,p,eps",
        [
            (k, rank, p, eps)
            for k in range(2, 6)
            for rank in range(2, min(4, 1 << k) + 1)
            for p in (0.3, 0.5, 0.7)
            for eps in (0.15, 0.1, 1e-2, 1e-3, 1e-4, 1e-5)
            if 0.0 < p - eps and p + eps < 1.0
        ],
    )
    def test_operator_distance_is_sqrt2_hellinger(self, k, rank, p, eps):
        # the Householder completions of the +/- loading columns sit at operator
        # distance sqrt(2) H, the gap the hybrid-argument lower bound takes
        # (Bennett, Bernstein, Brassard and Vazirani, quant-ph/9701001)
        plus, minus = hard_pair(p, eps, rank, k)
        distance = np.linalg.norm(plus.oracle.unitary - minus.oracle.unitary, 2)
        assert distance == pytest.approx(math.sqrt(2.0) * hard_pair_hellinger(p, eps), rel=1e-9, abs=0.0)

    def test_degenerate_limit(self):
        eps = 1e-9
        plus, minus = hard_pair(0.5, eps, 2, k=1)
        # H^2 = 2 eps^2 / (1/2 + sqrt(1/4 - eps^2)) = 2 eps^2 (1 + O(eps^2))
        assert abs(hard_pair_hellinger(0.5, eps) / (math.sqrt(2.0) * eps) - 1.0) <= 1e-12
        assert np.max(np.abs(plus.rho.matrix - minus.rho.matrix)) <= 3 * eps

    @settings(database=None, deadline=None, max_examples=200)
    @given(p=st.floats(0.05, 0.95), exponent=st.floats(-12.0, -1.31))
    def test_hellinger_closed_form_to_a_few_ulps(self, p, exponent):
        eps = 10.0**exponent  # below 0.05, so p +- eps stays in (0, 1)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            q, e = decimal.Decimal(p), decimal.Decimal(eps)
            squared = 1 - (q * q - e * e).sqrt() - ((1 - q) ** 2 - e * e).sqrt()
            want = float(squared.sqrt())
        assert abs(hard_pair_hellinger(p, eps) - want) <= 4 * math.ulp(want)

    def test_rank_exact(self):
        inst = hard_instance(0.5, 0.1, 3, 1, k=2)
        assert int(np.sum(np.linalg.eigvalsh(inst.rho.matrix) > 1e-12)) == 3

    def test_distribution_sums_to_one(self):
        inst = hard_instance(0.4, 0.2, 4, -1, k=2)
        assert abs(inst.distribution.sum() - 1.0) <= 1e-12

    def test_constraint_validation(self):
        with pytest.raises(ValueError, match=r"^rank must be >= 2, got 1$"):
            hard_instance(0.5, 0.1, 1, 1, k=1)
        with pytest.raises(ValueError, match=re.escape("rank 3 out of range [1, 2^1] for k=1")):
            hard_instance(0.5, 0.1, 3, 1, k=1)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            hard_instance(0.5, 0.1, 2, 1, k=0)
        with pytest.raises(ValueError, match=r"^p=0\.95 with epsilon=0\.1 leaves \(0, 1\)$"):
            hard_instance(0.95, 0.1, 2, 1, k=1)
        with pytest.raises(ValueError, match="sign"):
            hard_instance(0.5, 0.1, 2, 0, k=1)
        # p - eps <= 0 leaves (0, 1): refused by the family itself, not only by the CLI
        for p in (0.05, 0.1):
            with pytest.raises(ValueError, match="0, 1"):
                hard_pair(p, 0.1, 2, 2)

    def test_estimator_runs_on_hard_instance(self):
        # the loading oracle serves the estimator directly: the estimate
        # targets sqrt(p + sign * eps)
        inst = hard_instance(0.5, 0.1, 2, 1, k=1)
        target_oracle = state_oracle([1.0, 0.0], "V")
        hits = 0
        for seed in range(40):
            task = make_task(inst.oracle, target_oracle, 0.05, seed)
            result = fidelity_to_pure(task)
            hits += abs(result.estimate - math.sqrt(0.6)) <= 0.05
        assert hits >= 24

    def test_query_ratio_to_the_hybrid_lower_bound(self):
        # the hybrid argument (Bennett, Bernstein, Brassard and Vazirani, quant-ph/9701001)
        # needs T >= 1/(3 sqrt(2) H(p, eps)) queries to tell a +/- pair apart; over three
        # decades of eps the optimal estimator's queries_U stay a constant multiple of T,
        # and the SWAP baseline's grow as T/eps
        epsilons = np.logspace(-4.0, -1.0, 31)
        target = state_oracle([1.0, 0.0], "V")
        optimal_ratios = []
        for estimate, slope in ((fidelity_to_pure, 0.0), (swap_test_estimate, -1.0)):
            for p in (0.3, 0.5, 0.7):
                ratios = []
                for eps in epsilons.tolist():
                    bound = 1.0 / (3.0 * math.sqrt(2.0) * hard_pair_hellinger(p, eps))
                    queries = {
                        estimate(make_task(inst.oracle, target, eps, 0)).total_queries("U")
                        for inst in hard_pair(p, eps, 2, k=1)
                    }
                    [count] = queries  # the tally does not depend on the instance
                    ratios.append(count / bound)
                fitted = np.polyfit(np.log(epsilons), np.log(ratios), 1)[0]
                assert abs(fitted - slope) <= 0.1, (estimate.__name__, p, fitted)
                if estimate is fidelity_to_pure:
                    optimal_ratios += ratios
        print(f"optimality gap: queries_U / T in [{min(optimal_ratios):.0f}, {max(optimal_ratios):.0f}]")

    def test_hellinger_validates_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            hellinger_distance([0.5, 0.5], [1.0])
