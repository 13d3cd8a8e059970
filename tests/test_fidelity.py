"""Tests for the fidelity estimators, exact references, and hard instances."""

import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import estimation
from fidest import cli
from fidest.circuits import build_flagged_encoding, build_restructured_encoding, build_swap_test
from fidest.fidelity import ESTIMATORS, hard_pair, hard_pair_hellinger, summed_hellinger
from fidest.linalg import analyze_flagged, execute, oracle_unitary
from fidest.oracles import QubitCapExceeded
from fidest.reference import (
    DensityMatrix,
    exact_fidelity_to_pure,
    exact_tr_rho_sigma2,
    flag_probability,
    preparation_oracle,
    reduced_state,
    uhlmann_fidelity,
)

from conftest import (
    ancilla_rotated,
    channel_oracle,
    dense_hellinger,
    dense_sqrt_tr_rho_sigma2,
    hard_oracles,
    principal_eigvec,
    pure_instance,
    rank_weights,
    resized_oracle,
    sampled,
    state_oracle,
)

ZERO2 = np.eye(4)[0]  # |00>, the target the hard family's fidelity is taken to


class TestExactReferences:
    def test_fidelity_to_pure_self(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        assert abs(exact_fidelity_to_pure(rho, psi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fidelity_maximally_mixed(self, k):
        d = 1 << k
        rho = DensityMatrix(np.eye(d) / d)
        assert abs(exact_fidelity_to_pure(rho, np.eye(d)[0]) - 2 ** (-k / 2)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_fidelity_matches_uhlmann(self, seed):
        # oracle: Uhlmann fidelity via matrix square roots
        rho, _ = sampled(2, 3, 3000 + seed)
        psi_dm, _ = pure_instance(2, 3100 + seed)
        psi = principal_eigvec(psi_dm)
        assert abs(exact_fidelity_to_pure(rho, psi) - uhlmann_fidelity(rho, psi_dm)) <= 1e-9

    def test_fidelity_dim_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="dim"):
            exact_fidelity_to_pure(rho, ZERO2)

    def test_tr_rho_sigma2_pure_second_state(self):
        rho, _ = sampled(1, 2, 12)
        psi_dm, _ = pure_instance(1, 13)
        psi = principal_eigvec(psi_dm)
        lhs = exact_tr_rho_sigma2(rho, psi_dm)
        rhs = float(np.real(np.vdot(psi, rho.matrix @ psi)))
        assert abs(lhs - rhs) <= 1e-12

    def test_tr_rho_sigma2_maximally_mixed(self):
        rho, _ = sampled(1, 2, 14)
        assert abs(exact_tr_rho_sigma2(rho, DensityMatrix(np.eye(2) / 2)) - 0.25) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_tr_rho_sigma2_matches_circuit(self, seed):
        # oracle: the executed restructured circuit
        rho, u = sampled(2, 3, 3200 + seed)
        sigma, v = sampled(2, 2, 3300 + seed)
        circ = build_restructured_encoding(u, v)
        amp = analyze_flagged(execute(circ), circ.layout, ("A'", "B'")).flagged_amplitude
        assert abs(amp**2 - exact_tr_rho_sigma2(rho, sigma)) <= 1e-10

    def test_tr_rho_sigma2_dim_mismatch(self):
        a = DensityMatrix(np.eye(2) / 2)
        b = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError, match="mismatch"):
            exact_tr_rho_sigma2(a, b)

    def test_uhlmann_self_fidelity(self):
        rho, _ = sampled(2, 4, 15)
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) <= 1e-9

    def test_uhlmann_orthogonal_pure(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert uhlmann_fidelity(a, b) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_uhlmann_symmetric(self, seed):
        a, _ = sampled(2, 3, 3400 + seed)
        b, _ = sampled(2, 2, 3500 + seed)
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) <= 1e-9


def assert_flag_probability_matches(name, u, v):
    """The p bind takes for the pair, held to the executed circuit within 1e-12; returns it."""
    estimator = ESTIMATORS[name]
    p = estimator.bind(u, v).p  # the pair passes the estimator's purity and size checks
    circuit = (build_swap_test if estimator.swap_test else build_flagged_encoding)(u, v)
    assert 0.0 <= p <= 1.0
    assert abs(p - flag_probability(circuit, "C")) <= 1e-12, name
    return p


def _no_sampling(*key):
    raise AssertionError("a bad argument reached the repetition streams")


#: (epsilon, seed, qubits of the second state, the error) of each bad estimate
BAD_ARGUMENTS = [
    *(
        pytest.param(eps, 0, 1, f"epsilon must be in (0, 1), got {eps}", id=f"epsilon-{eps}")
        for eps in (0.0, 1.0, 1.5, math.nan)
    ),
    pytest.param(0.1, -1, 1, "seed must be non-negative, got -1", id="negative-seed"),
    pytest.param(0.1, 0, 2, "system size mismatch: 'U' has 1 qubits, 'V' has 2", id="size-mismatch"),
]


class TestArgumentChecks:
    """bind checks the oracle pair and each call its epsilon and seed, all
    before any repetition stream is read."""

    @pytest.mark.parametrize("name", ESTIMATORS)
    @pytest.mark.parametrize("epsilon,seed,k,message", BAD_ARGUMENTS)
    def test_estimate_rejects_before_sampling(self, monkeypatch, name, epsilon, seed, k, message):
        monkeypatch.setattr(estimation, "uniforms", _no_sampling)
        u, v = pure_instance(1, 20, "U")[1], pure_instance(k, 21)[1]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ESTIMATORS[name].bind(u, v)(epsilon, seed)

    @pytest.mark.parametrize("name", ["swap-baseline", "optimal", "pure-pure"])
    def test_purity_is_checked_first(self, monkeypatch, name):
        # invalid in every field: the purity check in bind is the first one reached
        monkeypatch.setattr(estimation, "uniforms", _no_sampling)
        _, u = pure_instance(1, 20, "U")
        _, v = sampled(2, 2, 21, "V")
        with pytest.raises(ValueError, match=f"the {name} estimator requires a pure second state"):
            ESTIMATORS[name].bind(u, v)(1.5, -1)


class TestEstimatorTable:
    @settings(database=None, deadline=None, max_examples=25)
    @given(
        k=st.sampled_from((1, 2)),
        rank_index=st.integers(0, 3),
        seed=st.integers(0, (1 << 62) - 1),
    )
    def test_one_bind_serves_every_epsilon(self, k, rank_index, seed):
        # one bind serves every epsilon with the same results, seed for seed,
        # as a fresh bind at each (epsilon, seed)
        rank = rank_index % (1 << k) + 1
        for name, estimator in ESTIMATORS.items():
            first = pure_instance(k, seed, "U") if estimator.first_pure else sampled(k, rank, seed)
            second = (
                pure_instance(k, seed + 1)
                if estimator.second_pure
                else sampled(k, rank, seed + 1, "V")
            )
            u, v = first[1], second[1]
            bound = estimator.bind(u, v)
            for eps in (0.1, 0.03, 0.01):
                result = bound(eps, seed)
                assert result.to_json() == estimator.bind(u, v)(eps, seed).to_json(), name
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
                dm, _ = sampled(k, rank, seed + offset, label)
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

    @settings(database=None, deadline=None, max_examples=30)
    @given(k=st.integers(1, 3), rank_index=st.integers(0, 7), seed=st.integers(0, (1 << 62) - 1))
    def test_sweep_truth_is_the_dense_reference(self, k, rank_index, seed):
        # a sweep's true value comes from the contraction that gives p: it is
        # tr(rho sigma^2) of the dense states within 1e-12, and sqrt(p) to the
        # bit for the flagged encoding
        for name, estimator in ESTIMATORS.items():
            rank = 1 if estimator.first_pure else rank_index % (1 << k) + 1
            config = cli.ExperimentConfig(command="sweep", estimator=name, k=k, rank=rank, seed=seed)
            [(record, _)] = cli._estimate_trial(config, 0)
            u = cli._instance(config, 0, 0, rank, "U")
            v = cli._instance(config, 0, 1, 1 if estimator.second_pure else rank, "V")
            rho, sigma = reduced_state(u), reduced_state(v)
            bound = estimator.bind(u, v)
            assert record.true_value == bound.true_value, name
            assert abs(bound.true_value**2 - exact_tr_rho_sigma2(rho, sigma)) <= 1e-12, name
            if not estimator.swap_test:
                assert bound.true_value == math.sqrt(bound.p), name

    @settings(database=None, deadline=None, max_examples=30)
    @given(
        k=st.integers(1, 3),
        rank_indices=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        extra_ancillas=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, (1 << 62) - 1),
    )
    def test_truth_of_any_purification_is_the_dense_reference(self, k, rank_indices, extra_ancillas, seed):
        # the contraction reads a pair's columns in any ancilla basis and width
        oracles = []
        for rank_index, extra, label, offset in zip(rank_indices, extra_ancillas, "UV", (0, 1)):
            rank = rank_index % (1 << k) + 1
            dm, _ = sampled(k, rank, seed + offset, label)
            oracle = resized_oracle(dm, (rank - 1).bit_length() + extra, label)
            oracles.append(ancilla_rotated(oracle, seed + offset))
        bound = ESTIMATORS["tr-rho-sigma2"].bind(*oracles)
        exact = exact_tr_rho_sigma2(*(reduced_state(oracle) for oracle in oracles))
        assert abs(bound.true_value**2 - exact) <= 1e-12
        assert bound.true_value == math.sqrt(bound.p)

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
        result = ESTIMATORS[name].bind(u, v)(0.1, 0)
        assert result.m == m
        assert result.grover_applications == 15 * ((1 << m) - 1)
        assert result.queries == {"U": u_queries, "V": v_queries}


class TestSwapTestEstimate:
    def test_perfect_fidelity(self):
        psi = np.array([0.8, 0.6j], dtype=complex)
        dm = DensityMatrix(np.outer(psi, psi.conj()))
        result = ESTIMATORS["swap-baseline"].bind(preparation_oracle(dm, "U"), preparation_oracle(dm, "V"))(0.1, 0)
        assert abs(result.estimate - 1.0) <= 0.1

    def test_zero_fidelity_clamps(self):
        # p = 1/2 sits exactly on the phase grid, so the clamp fires every seed
        bound = ESTIMATORS["swap-baseline"].bind(state_oracle([0.0, 1.0], "U"), state_oracle([1.0, 0.0], "V"))
        for seed in range(5):
            result = bound(0.1, seed)
            assert result.estimate <= 0.1

    def test_zero_epsilon_is_a_bad_epsilon_not_a_cap(self):
        # eps = 0 is outside (0, 1); it must not pass on to eps^2/4 = 0 and the cap error
        with pytest.raises(ValueError, match="epsilon must be in") as info:
            ESTIMATORS["swap-baseline"].readout_qubits(0.0)
        assert not isinstance(info.value, QubitCapExceeded)

    @pytest.mark.parametrize("epsilon", [1e-170, 1e-320])
    def test_underflowing_delta_exceeds_readout_cap(self, epsilon):
        # eps^2 / 4 rounds to 0: the estimate is refused at the cap, not as a bad delta
        bound = ESTIMATORS["swap-baseline"].bind(state_oracle([1.0, 0.0], "U"), state_oracle([1.0, 0.0], "V"))
        with pytest.raises(QubitCapExceeded, match="cap is 48"):
            bound(epsilon, 0)

    def test_seeded_instance_success_rate(self):
        rho, u = sampled(1, 2, 42)
        psi, v = pure_instance(1, 43)
        truth = uhlmann_fidelity(rho, psi)
        hits = 0
        bound = ESTIMATORS["swap-baseline"].bind(u, v)
        for seed in range(200):
            result = bound(0.05, seed)
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 120

    def test_rejects_mixed_second_state(self):
        _, u = sampled(1, 2, 23)
        _, v = sampled(1, 2, 24)
        with pytest.raises(ValueError, match="pure"):
            ESTIMATORS["swap-baseline"].bind(u, v)

    def test_delta_is_quarter_epsilon_squared(self):
        _, u = sampled(1, 2, 42)
        _, v = pure_instance(1, 43)
        result = ESTIMATORS["swap-baseline"].bind(u, v)(0.2, 0)
        assert result.delta == pytest.approx(0.01)


class TestFidelityToPure:
    def test_identical_states(self):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        dm = DensityMatrix(np.outer(psi, psi.conj()))
        result = ESTIMATORS["optimal"].bind(preparation_oracle(dm, "U"), preparation_oracle(dm, "V"))(0.05, 0)
        assert abs(result.estimate - 1.0) <= 0.05

    def test_maximally_mixed_forced_value(self):
        # F = sqrt(1/2): the Grover phase sits exactly on the grid, so every
        # seed recovers sqrt(2)/2 exactly
        rho = DensityMatrix(np.eye(2) / 2)
        bound = ESTIMATORS["optimal"].bind(preparation_oracle(rho, "U"), state_oracle([1.0, 0.0], "V"))
        for seed in range(5):
            result = bound(0.05, seed)
            assert abs(result.estimate - math.sqrt(0.5)) <= 1e-12

    def test_seeded_k2_rank3_success_rate(self):
        rho, u = sampled(2, 3, 777)
        psi, v = pure_instance(2, 778)
        truth = uhlmann_fidelity(rho, psi)
        hits = 0
        bound = ESTIMATORS["optimal"].bind(u, v)
        for seed in range(200):
            result = bound(0.02, seed)
            hits += abs(result.estimate - truth) <= 0.02
        assert hits >= 120

    def test_query_ratio_exact(self):
        _, u = sampled(2, 3, 777)
        _, v = pure_instance(2, 778)
        for eps in (0.2, 0.05, 0.01):
            result = ESTIMATORS["optimal"].bind(u, v)(eps, 1)
            assert result.total_queries("V") == 2 * result.total_queries("U")

    def test_rejects_mixed_second_state(self):
        _, u = sampled(1, 2, 23)
        _, v = sampled(1, 2, 24)
        with pytest.raises(ValueError, match="pure"):
            ESTIMATORS["optimal"].bind(u, v)

    def test_minimal_ancilla_oracle_serves_estimation(self):
        # a rank-2 state on k=2 purified with a single ancilla qubit; the
        # circuit pads the smaller ancilla register and the estimate is
        # unaffected
        rho, _ = sampled(2, 2, 555)
        psi_dm, v = pure_instance(2, 556)
        u_min = resized_oracle(rho, 1, "U")
        truth = exact_fidelity_to_pure(rho, principal_eigvec(psi_dm))
        hits = 0
        bound = ESTIMATORS["optimal"].bind(u_min, v)
        for seed in range(40):
            result = bound(0.05, seed)
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 24


class TestSqrtTrRhoSigma2Estimate:
    def test_pure_sigma_reproduces_fidelity_to_pure(self):
        _, u = sampled(1, 2, 42)
        _, v = pure_instance(1, 43)
        for seed in (0, 5, 17):
            a = ESTIMATORS["tr-rho-sigma2"].bind(u, v)(0.05, seed)
            b = ESTIMATORS["optimal"].bind(u, v)(0.05, seed)
            assert a.estimate == b.estimate
            assert a.to_json() == b.to_json()

    def test_maximally_mixed_sigma(self):
        rho, u = sampled(1, 2, 26)
        v = preparation_oracle(DensityMatrix(np.eye(2) / 2), "V")
        # sqrt(tr(rho/4)) = 1/2 exactly, and the phase is grid-aligned
        for seed in range(3):
            result = ESTIMATORS["tr-rho-sigma2"].bind(u, v)(0.05, seed)
            assert abs(result.estimate - 0.5) <= 0.05

    def test_seeded_mixed_pair_success_rate(self):
        rho, u = sampled(1, 2, 301)
        sigma, v = sampled(1, 2, 302)
        truth = dense_sqrt_tr_rho_sigma2(rho, sigma)
        hits = 0
        bound = ESTIMATORS["tr-rho-sigma2"].bind(u, v)
        for seed in range(200):
            result = bound(0.05, seed)
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 120


class TestPurePureFidelity:
    def test_same_state_different_purifying_ancillas(self):
        # purified access built from a channel unitary with a redundant
        # ancilla rotation; fidelity to itself must estimate 1
        phi = np.array([0.28, 0.96j], dtype=complex)
        u_phi = oracle_unitary(state_oracle(phi))
        anc1 = oracle_unitary(state_oracle(np.array([1.0, 0.0], dtype=complex)))
        anc2 = oracle_unitary(state_oracle(np.array([0.6, 0.8], dtype=complex)))
        o1 = channel_oracle(np.kron(u_phi, anc1), 1, "U")
        o2 = channel_oracle(np.kron(u_phi, anc2), 1, "V")
        result = ESTIMATORS["pure-pure"].bind(o1, o2)(0.05, 3)
        assert abs(result.estimate - 1.0) <= 0.05

    def test_orthogonal_pair(self):
        result = ESTIMATORS["pure-pure"].bind(state_oracle([1.0, 0.0], "U"), state_oracle([0.0, 1.0], "V"))(0.05, 0)
        assert result.estimate <= 0.05

    def test_seeded_haar_pair_success_rate(self):
        phi, u = pure_instance(1, 401, label="U")
        psi, v = pure_instance(1, 402)
        truth = uhlmann_fidelity(phi, psi)
        hits = 0
        bound = ESTIMATORS["pure-pure"].bind(u, v)
        for seed in range(200):
            result = bound(0.05, seed)
            hits += abs(result.estimate - truth) <= 0.05
        assert hits >= 120

    def test_rejects_mixed_first_state(self):
        _, u = sampled(1, 2, 27)
        _, v = pure_instance(1, 28)
        with pytest.raises(ValueError, match="pure first"):
            ESTIMATORS["pure-pure"].bind(u, v)


class TestHardInstances:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_fidelity_closed_form(self, p, eps, r):
        for sign, member in zip((1, -1), hard_pair(p, eps, r, k=2)):
            rho = DensityMatrix(np.diag(rank_weights(member, r, 4)))
            fid = exact_fidelity_to_pure(rho, ZERO2)
            assert abs(fid - math.sqrt(p + sign * eps)) <= 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    @pytest.mark.parametrize("r", [2, 4])
    def test_hellinger_closed_form(self, p, eps, r):
        plus, minus = (rank_weights(member, r, 4) for member in hard_pair(p, eps, r, k=2))
        direct = dense_hellinger(plus, minus)
        assert abs(direct - hard_pair_hellinger(p, eps)) <= 1e-12

    @staticmethod
    def family(data, max_rank):
        """(p, eps, rank) of a hard-family member drawn by hypothesis: p +- eps in (0, 1)."""
        p = data.draw(st.floats(0.01, 0.99), label="p")
        eps = 0.999 * min(p, 1.0 - p) * 10.0 ** data.draw(st.floats(-12.0, 0.0), label="log10 eps share")
        return p, eps, data.draw(st.integers(2, max_rank), label="rank")

    @settings(database=None, deadline=None, max_examples=500)
    @given(data=st.data())
    def test_summed_hellinger_is_the_exact_sum_rounded_once(self, data):
        # the rank-long sum in Fraction: the first term once, the tail term rank - 1 times,
        # halved, rounded to a float once, then sqrt
        p, eps, rank = self.family(data, 1 << 22)
        plus, minus = hard_pair(p, eps, rank, k=22)
        first, tail = (Fraction((math.sqrt(a) - math.sqrt(b)) ** 2) for a, b in zip(plus, minus))
        assert summed_hellinger(plus, minus, rank) == math.sqrt(float((first + (rank - 1) * tail) / 2))

    @settings(database=None, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_summed_hellinger_matches_the_rank_long_sum(self, data):
        # numpy's pairwise sum over the rank-long vectors, the reference, to 1e-15
        p, eps, rank = self.family(data, 1 << 22)
        plus, minus = hard_pair(p, eps, rank, k=22)
        direct = dense_hellinger(rank_weights(plus, rank), rank_weights(minus, rank))
        assert abs(summed_hellinger(plus, minus, rank) - direct) <= 1e-15

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
        plus, minus = hard_oracles(p, eps, rank, k)
        distance = np.linalg.norm(oracle_unitary(plus) - oracle_unitary(minus), 2)
        assert distance == pytest.approx(math.sqrt(2.0) * hard_pair_hellinger(p, eps), rel=1e-9, abs=0.0)

    def test_degenerate_limit(self):
        eps = 1e-9
        plus, minus = hard_pair(0.5, eps, 2, k=1)
        # H^2 = 2 eps^2 / (1/2 + sqrt(1/4 - eps^2)) = 2 eps^2 (1 + O(eps^2))
        assert abs(hard_pair_hellinger(0.5, eps) / (math.sqrt(2.0) * eps) - 1.0) <= 1e-12
        assert max(abs(a - b) for a, b in zip(plus, minus)) <= 3 * eps  # the diagonal states' entries

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
        plus, _ = hard_pair(0.5, 0.1, 3, k=2)
        rho = DensityMatrix(np.diag(rank_weights(plus, 3, 4)))
        assert int(np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-12)) == 3

    @pytest.mark.parametrize("p,eps,rank", [(0.5, 0.1, 2), (0.3, 0.05, 3), (0.7, 0.1, 5), (0.2, 0.15, 8)])
    def test_members_are_their_two_weights(self, p, eps, rank):
        # w[0] = p +- eps and the other rank - 1 weights share 1 - p -+ eps, bit for bit
        for sign, member in zip((1, -1), hard_pair(p, eps, rank, k=3)):
            assert member == (p + sign * eps, (1.0 - p - sign * eps) / (rank - 1))
            assert abs(math.fsum(rank_weights(member, rank)) - 1.0) <= 1e-15

    def test_distribution_sums_to_one(self):
        _, minus = hard_pair(0.4, 0.2, 4, k=2)
        assert abs(rank_weights(minus, 4).sum() - 1.0) <= 1e-12

    def test_constraint_validation(self):
        with pytest.raises(ValueError, match=r"^rank must be >= 2, got 1$"):
            hard_pair(0.5, 0.1, 1, k=1)
        with pytest.raises(ValueError, match=re.escape("rank 3 out of range [1, 2^1] for k=1")):
            hard_pair(0.5, 0.1, 3, k=1)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            hard_pair(0.5, 0.1, 2, k=0)
        with pytest.raises(ValueError, match=r"^p=0\.95 with epsilon=0\.1 leaves \(0, 1\)$"):
            hard_pair(0.95, 0.1, 2, k=1)
        # p - eps <= 0 leaves (0, 1): refused by the family itself, not only by the CLI
        for p in (0.05, 0.1):
            with pytest.raises(ValueError, match="0, 1"):
                hard_pair(p, 0.1, 2, 2)

    def test_estimator_runs_on_hard_instance(self):
        # the loading oracle serves the estimator directly: the estimate
        # targets sqrt(p + sign * eps)
        plus, _ = hard_oracles(0.5, 0.1, 2, k=1)
        target_oracle = state_oracle([1.0, 0.0], "V")
        hits = 0
        bound = ESTIMATORS["optimal"].bind(plus, target_oracle)
        for seed in range(40):
            result = bound(0.05, seed)
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
        for name, slope in (("optimal", 0.0), ("swap-baseline", -1.0)):
            for p in (0.3, 0.5, 0.7):
                ratios = []
                for eps in epsilons.tolist():
                    bound = 1.0 / (3.0 * math.sqrt(2.0) * hard_pair_hellinger(p, eps))
                    queries = {
                        ESTIMATORS[name].bind(oracle, target)(eps, 0).total_queries("U")
                        for oracle in hard_oracles(p, eps, 2, k=1)
                    }
                    [count] = queries  # the tally does not depend on the instance
                    ratios.append(count / bound)
                fitted = np.polyfit(np.log(epsilons), np.log(ratios), 1)[0]
                assert abs(fitted - slope) <= 0.1, (name, p, fitted)
                if name == "optimal":
                    optimal_ratios += ratios
        print(f"optimality gap: queries_U / T in [{min(optimal_ratios):.0f}, {max(optimal_ratios):.0f}]")
