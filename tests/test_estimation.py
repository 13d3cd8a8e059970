"""Tests for the amplitude/phase estimation engine."""

import math

import numpy as np
import pytest
import scipy.stats

from fidest.circuits import (
    Circuit,
    OracleOp,
    QubitCapExceeded,
    RegisterLayout,
    build_flagged_encoding,
)
from fidest.estimation import (
    _WINDOW,
    DEFAULT_REPETITIONS,
    ESTIMATOR_MAX_M,
    AmplitudeProblem,
    _kernel,
    _KernelSampler,
    _query_tally,
    amplitude_estimate,
    flag_probability,
    readout_qubits,
    sqrt_amplitude_estimate,
)
from fidest.linalg import unitarity_error
from fidest.oracles import PreparationOracle
from fidest.reference import circuit_unitary, grover_operator, qpe_distribution, qpe_grid_distribution

from conftest import mixed_instance, pure_instance

# sqrt of the flagged probability of the (k=1, rank 2, seeds 42/43) instance,
# computed with the dense reference sqrt(tr(rho |psi><psi|))
INSTANCE_SQRT_P = 0.5965038883615562


def flag_problem(p):
    """One-qubit amplitude problem with flagged probability exactly p."""
    col = np.array([math.sqrt(p), math.sqrt(1.0 - p)], dtype=complex)
    oracle = PreparationOracle(col, 1, 0, "U")
    prep = Circuit(RegisterLayout(("C",), (1,)), (OracleOp(oracle, "plain", ("C",)),))
    return AmplitudeProblem(prep, "C")


def instance_problem(seed_u=42, seed_v=43):
    _, u = mixed_instance(1, 2, seed_u)
    _, v = pure_instance(1, seed_v)
    return AmplitudeProblem(build_flagged_encoding(u, v), "C")


class TestAmplitudeProblem:
    def test_rejects_missing_flag_register(self):
        prep = Circuit(RegisterLayout(("A",), (1,)), ())
        with pytest.raises(ValueError, match="flag register"):
            AmplitudeProblem(prep, "C")

    def test_rejects_wide_flag_register(self):
        prep = Circuit(RegisterLayout(("C",), (2,)), ())
        with pytest.raises(ValueError, match="one qubit"):
            AmplitudeProblem(prep, "C")

    def test_flag_probability(self):
        assert abs(flag_probability(flag_problem(0.3)) - 0.3) <= 1e-12


class TestGroverOperator:
    def test_p_zero_fixes_prepared_state(self):
        problem = flag_problem(0.0)
        q = grover_operator(problem)
        init = circuit_unitary(problem.preparer)[:, 0]
        assert np.max(np.abs(q @ init - init)) <= 1e-10

    def test_p_one_gives_phase_pi(self):
        problem = flag_problem(1.0)
        q = grover_operator(problem)
        init = circuit_unitary(problem.preparer)[:, 0]
        assert np.max(np.abs(q @ init + init)) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenphases_on_invariant_plane(self, seed):
        # oracle: dense eigendecomposition of Q projected onto the plane
        # spanned by the prepared state and its flagged component
        problem = instance_problem(2000 + seed, 2100 + seed)
        p = flag_probability(problem)
        theta = math.asin(math.sqrt(p))
        q = grover_operator(problem)
        assert unitarity_error(q) <= 1e-10
        layout = problem.preparer.layout
        n = layout.total_qubits
        state = circuit_unitary(problem.preparer)[:, 0]
        fq = layout.qubits("C")[0]
        mask = ((np.arange(1 << n) >> (n - 1 - fq)) & 1) == 0
        good = state * mask
        good /= np.linalg.norm(good)
        bad = state - (good.conj() @ state) * good
        bad /= np.linalg.norm(bad)
        basis = np.stack([good, bad], axis=1)
        phases = np.sort(np.angle(np.linalg.eigvals(basis.conj().T @ q @ basis)))
        assert np.max(np.abs(phases - [-2 * theta, 2 * theta])) <= 1e-8

    def test_qubit_cap(self):
        problem = instance_problem()
        with pytest.raises(QubitCapExceeded):
            grover_operator(problem, max_qubits=3)


class TestPhaseEstimate:
    def test_exactly_representable_phase(self):
        q = np.diag([1.0, np.exp(2j * np.pi * 3 / 8)])
        init = np.array([0.0, 1.0], dtype=complex)
        probs = qpe_distribution(q, init, 3)
        assert abs(probs[3] - 1.0) <= 1e-12

    def test_identity_operator(self):
        probs = qpe_distribution(np.eye(2), np.array([1.0, 0.0]), 4)
        assert abs(probs[0] - 1.0) <= 1e-12

    def test_third_phase_concentration(self):
        # standard QPE bound: mass within one grid unit of the phase >= 8/pi^2
        q = np.diag([np.exp(2j * np.pi / 3), 1.0])
        init = np.array([1.0, 0.0], dtype=complex)
        probs = qpe_distribution(q, init, 6)
        target = 64 / 3
        near = [y for y in range(64) if min(abs(y - target), 64 - abs(y - target)) <= 1.0]
        assert sum(probs[y] for y in near) >= 8 / np.pi**2

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            qpe_distribution(np.ones((2, 2)), np.array([1.0, 0.0]), 3)

    def test_grid_distribution_normalized_mixture(self):
        probs = qpe_grid_distribution([0.2, 0.8], [0.5, 0.5], 7)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs >= 0.0)

    def test_analytic_matches_dense_distribution(self):
        # dual route: closed-form two-phase mixture vs Schur-decomposed
        # Grover operator fed through the generic QPE distribution
        problem = instance_problem()
        p = flag_probability(problem)
        omega = math.asin(math.sqrt(p)) / math.pi
        analytic = qpe_grid_distribution([omega, 1.0 - omega], [0.5, 0.5], 6)
        q = grover_operator(problem)
        init = circuit_unitary(problem.preparer)[:, 0]
        dense = qpe_distribution(q, init, 6)
        assert np.max(np.abs(analytic - dense)) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_controlled_power_simulation(self, seed):
        # oracle: simulate the readout register explicitly (Hadamards,
        # controlled powers Q^t, inverse Fourier transform) and marginalize
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(g)
        init = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        init /= np.linalg.norm(init)
        m = 5
        M = 1 << m
        state = np.repeat(init[np.newaxis, :], M, axis=0) / math.sqrt(M)
        power = np.eye(8, dtype=complex)
        for t in range(M):
            state[t] = power @ state[t]
            power = q @ power
        grid = np.arange(M)
        inv_fourier = np.exp(-2j * np.pi * np.outer(grid, grid) / M) / math.sqrt(M)
        brute = np.sum(np.abs(inv_fourier @ state) ** 2, axis=1)
        assert np.max(np.abs(qpe_distribution(q, init, m) - brute)) <= 1e-10


def pooled_chisquare_pvalue(observed, expected):
    """Chi-square p-value with the bins expecting fewer than 5 counts pooled.

    The pool takes the sparsest bins, and more of the next-sparsest if
    needed, until it too expects at least 5.
    """
    order = np.argsort(expected)
    pooled = int(np.sum(expected < 5.0))
    if pooled:
        pooled = max(pooled, int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1)
    keep, pool = order[pooled:], order[:pooled]
    obs = np.append(observed[keep], observed[pool].sum())
    exp = np.append(expected[keep], expected[pool].sum())
    if not pooled:
        obs, exp = obs[:-1], exp[:-1]
    return scipy.stats.chisquare(obs, exp).pvalue


def period_offsets(M):
    """One period of offsets d, matching the sampler's split into window and tails."""
    return np.arange(1 - M // 2, M // 2 + 1)


class TestKernelSampler:
    GENERIC_PHASES = (0.123456789, 0.3, 0.7071, 0.987654321)

    @pytest.mark.parametrize("m", range(1, 15))
    def test_kernel_matches_grid_entry_by_entry(self, m):
        M = 1 << m
        phases = (0.0, 0.5, 1 / M, (M - 1) / M, (5 * M // 7) / M, 1 - 1e-9, *self.GENERIC_PHASES)
        for omega in phases:
            grid = qpe_grid_distribution([omega], [1.0], m)
            sampler = _KernelSampler(omega, m)
            if sampler.f == 0.0:
                # on-grid phase: a point mass at a, drawn without randomness
                assert abs(grid[sampler.a % M] - 1.0) <= 1e-12
                assert sampler.offset(np.random.default_rng(0)) == 0
                continue
            d = period_offsets(M)
            kern = _kernel(sampler.f, d, M)
            assert np.max(np.abs(kern - grid[(sampler.a + d) % M])) <= 1e-12
            in_window = np.isin(d, sampler.window)
            if sampler.tail_bins <= 0:
                assert in_window.all()
                continue
            assert abs(sampler.cum[-1] - kern[in_window].sum()) <= 1e-12
            # the rejection envelope dominates K on every tail bin, and each
            # side's closed-form mass is the sum of its bins
            tail = d[~in_window]
            z = np.abs(sampler.f - tail)
            envelope = sampler.scale / (z * (z - 1.0))
            assert np.all(kern[~in_window] <= envelope)
            for (_, _, mass), side in zip(sampler.sides, (tail > 0, tail < 0)):
                assert abs(mass - np.sum(1.0 / (z[side] * (z[side] - 1.0)))) <= 1e-12 * mass

    @pytest.mark.parametrize("m", [1, 2])
    def test_small_m_window_is_whole_period(self, m):
        M = 1 << m
        for omega in self.GENERIC_PHASES:
            sampler = _KernelSampler(omega, m)
            assert sampler.tail_bins <= 0
            assert sorted((sampler.a + sampler.window) % M) == list(range(M))
            grid = qpe_grid_distribution([omega], [1.0], m)
            probs = np.diff([0.0, *sampler.cum])
            assert np.max(np.abs(probs - grid[(sampler.a + sampler.window) % M])) <= 1e-12
            rng = np.random.default_rng(m)
            assert all(sampler.offset(rng) in sampler.window for _ in range(1000))

    @pytest.mark.parametrize("m", [4, 8, 10])
    def test_draws_fit_two_branch_grid(self, m):
        omega = 0.3
        sampler = _KernelSampler(omega, m)
        rng = np.random.default_rng(1000 + m)
        draws = np.array([sampler.draw(rng) for _ in range(200_000)])
        expected = qpe_grid_distribution([omega, 1.0 - omega], [0.5, 0.5], m) * draws.size
        observed = np.bincount(draws, minlength=1 << m)
        assert pooled_chisquare_pvalue(observed, expected) >= 1e-3

    @pytest.mark.parametrize("m", [4, 8, 10])
    def test_tail_path_rate_and_shape(self, m):
        M = 1 << m
        omega = (int(0.3 * M) + 0.37) / M  # f = 0.37: a heavy, asymmetric tail
        sampler = _KernelSampler(omega, m)
        d = period_offsets(M)
        tail = d[~np.isin(d, sampler.window)]
        tail_probs = qpe_grid_distribution([omega], [1.0], m)[(sampler.a + tail) % M]
        tail_mass = tail_probs.sum()
        rng = np.random.default_rng(2000 + m)
        n = 50_000
        offsets = np.array([sampler.offset(rng) for _ in range(n)])
        assert np.all((offsets >= 1 - M // 2) & (offsets <= M // 2))
        drawn_tail = offsets[~np.isin(offsets, sampler.window)]
        rate = drawn_tail.size / n
        assert abs(rate - tail_mass) <= 5.0 * math.sqrt(tail_mass * (1.0 - tail_mass) / n)
        # shape of the tail draws, bucketed by side and octave of |d|
        def bucket(x):
            return np.sign(x) * np.floor(np.log2(np.abs(x)))

        keys, inverse = np.unique(bucket(tail), return_inverse=True)
        expected = np.bincount(inverse, weights=tail_probs) / tail_mass * drawn_tail.size
        observed = np.array([np.sum(bucket(drawn_tail) == k) for k in keys])
        assert observed.sum() == drawn_tail.size
        assert pooled_chisquare_pvalue(observed, expected) >= 1e-3


class TestAmplitudeEstimate:
    def test_p_zero(self):
        result = amplitude_estimate(flag_problem(0.0), 0.1, seed=0)
        assert result.estimate == 0.0

    def test_p_one(self):
        result = amplitude_estimate(flag_problem(1.0), 0.1, seed=0)
        assert result.estimate == 1.0

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_grid_aligned_phase_recovers_exactly(self, seed):
        p = math.sin(math.pi * 5 / 32) ** 2
        result = amplitude_estimate(flag_problem(p), 0.05, seed=seed)
        assert result.m >= 5
        assert abs(result.estimate - p) <= 1e-12

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError, match="delta"):
            amplitude_estimate(flag_problem(0.5), 1.5, seed=0)

    def test_m_formula(self):
        result = amplitude_estimate(flag_problem(0.5), 0.05, seed=0)
        assert result.m == math.ceil(math.log2(math.pi / 0.05)) + 2

    def test_readout_cap(self):
        # delta = pi / 2^46 needs exactly m = 48; a smaller delta needs 49
        problem = flag_problem(0.37)
        p = flag_probability(problem)
        delta = math.pi / 2.0**46
        result = amplitude_estimate(problem, delta, seed=0)
        assert result.m == ESTIMATOR_MAX_M == 48
        assert abs(result.estimate - p) <= delta
        with pytest.raises(QubitCapExceeded, match="m = 49"):
            amplitude_estimate(problem, delta / 1.5, seed=0)

    @pytest.mark.parametrize("estimate", [amplitude_estimate, sqrt_amplitude_estimate])
    @pytest.mark.parametrize("delta", [1e-320, 5e-324, 1e-300])
    def test_tiny_delta_exceeds_readout_cap(self, estimate, delta):
        # pi / delta overflows below ~1e-308; m is then taken in logs, not lost to inf
        with pytest.raises(QubitCapExceeded, match=f"cap is {ESTIMATOR_MAX_M}"):
            estimate(flag_problem(0.37), delta, seed=0)

    def test_m_formula_kept_where_pi_over_delta_is_finite(self):
        deltas = np.geomspace(1e-2, 5e-324, 400)
        for square in (True, False):
            ms = [readout_qubits(float(d), square) for d in deltas]
            assert ms == sorted(ms)  # monotone across the overflow boundary
            for d, m in zip(deltas.tolist(), ms):
                if math.pi / d < math.inf:
                    assert m == math.ceil(math.log2(math.pi / d)) + (2 if square else 1)


class TestSqrtAmplitudeEstimate:
    def test_half_is_exact(self):
        result = sqrt_amplitude_estimate(flag_problem(0.5), 0.05, seed=0)
        assert abs(result.estimate - math.sqrt(0.5)) <= 1e-12

    def test_p_zero(self):
        result = sqrt_amplitude_estimate(flag_problem(0.0), 0.1, seed=0)
        assert result.estimate == 0.0

    def test_seeded_instance_success_rate(self):
        # truth frozen from the dense oracle; per-seed success should be
        # well above the nominal 2/3
        problem = instance_problem()
        hits = 0
        for seed in range(200):
            result = sqrt_amplitude_estimate(problem, 0.02, seed=seed)
            hits += abs(result.estimate - INSTANCE_SQRT_P) <= 0.02
        assert hits >= 120

    def test_agrees_with_amplitude_estimate(self):
        problem = instance_problem()
        delta = 0.05
        sq = sqrt_amplitude_estimate(problem, delta, seed=11)
        am = amplitude_estimate(problem, delta, seed=11)
        assert abs(sq.estimate**2 - am.estimate) <= 2 * delta

    def test_deterministic(self):
        problem = instance_problem()
        a = sqrt_amplitude_estimate(problem, 0.03, seed=5)
        b = sqrt_amplitude_estimate(problem, 0.03, seed=5)
        assert a.estimate == b.estimate
        assert a.queries == b.queries

    def test_estimate_in_unit_interval(self):
        for seed in range(10):
            result = sqrt_amplitude_estimate(instance_problem(), 0.2, seed=seed)
            assert 0.0 <= result.estimate <= 1.0


class TestQueryAccounting:
    def test_closed_form_counts(self):
        problem = instance_problem()
        reps = DEFAULT_REPETITIONS
        result = sqrt_amplitude_estimate(problem, 0.1, seed=0)
        grover = (1 << result.m) - 1
        u = result.queries["U"]
        v = result.queries["V"]
        assert u == {
            "plain": reps,
            "inverse": 0,
            "controlled": reps * grover,
            "controlled_inverse": reps * grover,
        }
        # the encoding circuit costs two second-oracle queries per application
        assert sum(v.values()) == 2 * sum(u.values())
        assert result.grover_applications == reps * grover

    def test_oracle_counters_accumulate(self):
        # a run's tallies are a value: equal for every run on a problem, and one
        # preparer execution's queries times a run's 1 + 2 (2^m - 1) per repetition
        _, u = mixed_instance(1, 2, 42)
        _, v = pure_instance(1, 43)
        problem = AmplitudeProblem(build_flagged_encoding(u, v), "C")
        result = sqrt_amplitude_estimate(problem, 0.1, seed=0)
        assert sqrt_amplitude_estimate(problem, 0.1, seed=1).queries == result.queries
        per_query = DEFAULT_REPETITIONS * (1 + 2 * ((1 << result.m) - 1))
        for label, once in problem.preparer.queries().items():
            assert result.total_queries(label) == per_query * sum(once.values())

    def test_tally_of_a_preparer_with_every_kind(self):
        # one execution: U plain x2, inverse, controlled, controlled_inverse;
        # V controlled_inverse.  m = 2 and 3 repetitions give 9 Grover steps,
        # each adding the execution's query total to both controlled kinds.
        _, u = pure_instance(1, 3, "U")
        _, v = pure_instance(1, 4, "V")
        layout = RegisterLayout(("C", "A"), (1, 2))
        ops = [OracleOp(u, kind, ("A",)) for kind in ("plain", "plain", "inverse")]
        ops += [OracleOp(u, kind, ("C", "A")) for kind in ("controlled", "controlled_inverse")]
        ops.append(OracleOp(v, "controlled_inverse", ("C", "A")))
        problem = AmplitudeProblem(Circuit(layout, ops), "C")
        assert _query_tally(problem, 2, 3) == {
            "U": {"plain": 6, "inverse": 3, "controlled": 48, "controlled_inverse": 48},
            "V": {"plain": 0, "inverse": 0, "controlled": 9, "controlled_inverse": 12},
        }

    def test_query_count_scaling_law(self):
        # log-log slope of Grover applications vs 1/delta is 1.0 +- 0.1
        problem = flag_problem(0.37)
        deltas = [2.0**-t for t in range(3, 9)]
        counts = [
            sqrt_amplitude_estimate(problem, d, seed=0).grover_applications for d in deltas
        ]
        slope = np.polyfit(np.log(1.0 / np.array(deltas)), np.log(counts), 1)[0]
        assert abs(slope - 1.0) <= 0.1


class TestEstimationResult:
    def test_json_schema_and_determinism(self):
        problem = instance_problem()
        result = sqrt_amplitude_estimate(problem, 0.1, seed=3)
        import json

        payload = json.loads(result.to_json())
        assert set(payload) == {
            "estimate", "delta", "m", "reps", "seed", "queries", "grover_applications",
        }
        assert set(payload["queries"]) == {"U", "V"}
        assert set(payload["queries"]["U"]) == {
            "plain", "inverse", "controlled", "controlled_inverse",
        }
        again = sqrt_amplitude_estimate(instance_problem(), 0.1, seed=3)
        assert result.to_json() == again.to_json()
