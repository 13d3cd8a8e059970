"""Tests for the amplitude/phase estimation engine."""

import decimal
import functools
import math
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidest import estimation
from fidest.circuits import (
    Circuit,
    OracleOp,
    QubitCapExceeded,
    RegisterLayout,
    build_flagged_encoding,
    build_swap_test,
)
from fidest.cli import main
from fidest.estimation import (
    _WINDOW,
    DEFAULT_REPETITIONS,
    ESTIMATOR_MAX_M,
    _kernel,
    _KernelSampler,
    _query_tally,
    _tail_uniforms,
    amplitude_estimate,
    readout_qubits,
    sqrt_amplitude_estimate,
)
from fidest.fidelity import ESTIMATORS
from fidest.oracles import PreparationOracle
from fidest.reference import (
    executed_qpe_distribution,
    flag_probability,
    qpe_grid_distribution,
    uhlmann_fidelity,
)
from fidest.streams import derive_seed, uniforms

from conftest import mixed_instance, pure_instance

PI_80_DIGITS = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862090"


#: Query tallies of one execution of a preparer that queries U once, plainly.
ONE_PLAIN_U = {"U": {"plain": 1, "inverse": 0, "controlled": 0, "controlled_inverse": 0}}


def flag_preparer(p):
    """One-qubit preparer whose flag C = 0 has probability exactly p."""
    col = np.array([math.sqrt(p), math.sqrt(1.0 - p)], dtype=complex)
    oracle = PreparationOracle(col, 1, 0, "U")
    return Circuit(RegisterLayout(("C",), (1,)), (OracleOp(oracle, "plain", ("C",)),))


def instance_preparer(seed_u=42, seed_v=43):
    _, u = mixed_instance(1, 2, seed_u)
    _, v = pure_instance(1, seed_v)
    return build_flagged_encoding(u, v)


def instance_problem(seed_u=42, seed_v=43):
    """(p, one execution's tallies) of the flagged encoding of instance_preparer."""
    preparer = instance_preparer(seed_u, seed_v)
    return flag_probability(preparer, "C"), preparer.queries()


def two_phase_law(p, m):
    """The readout law the sampler draws from: eigenphases +-asin(sqrt(p))/pi, half the weight each."""
    omega = math.asin(math.sqrt(p)) / math.pi
    return qpe_grid_distribution([omega, 1.0 - omega], [0.5, 0.5], m)


class TestGroverOperator:
    def test_flag_probability(self):
        assert abs(flag_probability(flag_preparer(0.3), "C") - 0.3) <= 1e-12
        assert flag_preparer(0.3).queries() == ONE_PLAIN_U

    @settings(database=None, deadline=None, max_examples=24)
    @given(
        data=st.data(),
        k=st.sampled_from((1, 2)),
        build=st.sampled_from((build_flagged_encoding, build_swap_test)),
        m=st.sampled_from((3, 4)),
    )
    def test_executed_steps_follow_the_sampled_law(self, data, k, build, m):
        # the 2^m - 1 Grover steps, executed, read out with the kernel mixture the
        # sampler draws from (a sign slip in Q moves every eigenphase by 1/2),
        # and apply each oracle as often as _query_tally counts it
        rank, seed = st.integers(1, 1 << k), st.integers(0, 2**32 - 1)
        _, u = mixed_instance(k, data.draw(rank, label="rank U"), data.draw(seed, label="seed U"))
        _, v = mixed_instance(k, data.draw(rank, label="rank V"), data.draw(seed, label="seed V"), "V")
        preparer = build(u, v)
        applied = []
        apply = PreparationOracle.apply

        def counting(oracle, blocks, inverse=False):
            applied.append(oracle.label)
            apply(oracle, blocks, inverse)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PreparationOracle, "apply", counting)
            executed = executed_qpe_distribution(preparer, "C", m)
        expected = two_phase_law(flag_probability(preparer, "C"), m)
        assert 0.5 * np.sum(np.abs(executed - expected)) <= 1e-12
        tally = _query_tally(preparer.queries(), (1 << m) - 1, 1)
        assert Counter(applied) == {label: sum(counts.values()) for label, counts in tally.items()}

    @pytest.mark.parametrize("m", (3, 4))
    @pytest.mark.parametrize("p, outcome", [(0.0, 0), (1.0, 0.5)])
    def test_certain_flags_read_out_exactly(self, p, outcome, m):
        # p = 0: Q fixes the prepared state; p = 1: Q negates it (phase 1/2)
        probs = executed_qpe_distribution(flag_preparer(p), "C", m)
        assert abs(probs[int(outcome * (1 << m))] - 1.0) <= 1e-12

    def test_instance_law_at_six_readout_qubits(self):
        preparer = instance_preparer()
        executed = executed_qpe_distribution(preparer, "C", 6)
        expected = two_phase_law(flag_probability(preparer, "C"), 6)
        assert np.max(np.abs(executed - expected)) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenphases_on_invariant_plane(self, seed):
        # Q acts on the plane of the prepared state and its flagged component
        # with eigenphases +-2 arcsin(sqrt(p)), half the prepared state's
        # weight on each: the executed readout at m = 6 is that mixture's law
        preparer = instance_preparer(2000 + seed, 2100 + seed)
        executed = executed_qpe_distribution(preparer, "C", 6)
        expected = two_phase_law(flag_probability(preparer, "C"), 6)
        assert np.max(np.abs(executed - expected)) <= 1e-10

    @pytest.mark.parametrize("build", (build_flagged_encoding, build_swap_test))
    def test_one_readout_qubit_reads_p(self, build):
        # M = 2: the inverse QFT is one Hadamard, so Pr[y = 1] is
        # |(A|0> - Q A|0>) / 2|^2 = (1 - cos 2 theta) / 2 = p, without the kernel
        _, u = mixed_instance(1, 2, 3000)
        _, v = mixed_instance(1, 2, 3001, "V")
        preparer = build(u, v)
        p = flag_probability(preparer, "C")
        executed = executed_qpe_distribution(preparer, "C", 1)
        assert np.max(np.abs(executed - [1.0 - p, p])) <= 1e-12


class TestPhaseEstimate:
    @pytest.mark.parametrize(
        "omega, m, target, within, mass",
        [
            (3 / 8, 3, 3, 0.0, 1.0 - 1e-12),  # exactly representable phase
            (0.0, 4, 0, 0.0, 1.0 - 1e-12),  # the identity's phase
            (1 / 3, 6, 64 / 3, 1.0, 8 / math.pi**2),  # standard QPE bound
        ],
    )
    def test_kernel_concentrates_on_the_phase(self, omega, m, target, within, mass):
        M = 1 << m
        probs = qpe_grid_distribution([omega], [1.0], m)
        near = [y for y in range(M) if min(abs(y - target), M - abs(y - target)) <= within]
        assert sum(probs[y] for y in near) >= mass

    def test_grid_distribution_normalized_mixture(self):
        probs = qpe_grid_distribution([0.2, 0.8], [0.5, 0.5], 7)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs >= 0.0)

    @pytest.mark.parametrize("r", [1e-10, -1e-10, 1e-13, -1e-13])
    def test_the_peak_keeps_its_mass_just_off_the_grid(self, r):
        # M omega = 5 + r: the peak bin holds sin^2(pi r) / (M sin(pi r / M))^2 = 1 - O(r^2)
        # on both sides of the grid point, so sin(pi r) must keep its digits for r < 0 too;
        # the on-grid second phase keeps the normalisation from hiding a lost digit
        probs = qpe_grid_distribution([(5 + r) / 64, 0.5], [0.5, 0.5], 6)
        assert probs[5] == pytest.approx(0.5, rel=0.0, abs=1e-13)


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


def unmirrored_offset(sampler, rng):
    """One offset d of the branch at omega, recovered from its outcome y = (a + d) mod M.

    The branch uniform 0.75 keeps the branch unmirrored; the window and the
    tail read on from rng.
    """
    M = sampler.M
    uniform = iter(rng.random, None)  # endless: random() never returns None
    y = sampler.draw(0.75, next(uniform), uniform)
    return (y - sampler.a - 1 + M // 2) % M + 1 - M // 2


class TestKernelSampler:
    GENERIC_PHASES = (0.123456789, 0.3, 0.7071, 0.987654321)
    # the offsets the sampler draws by inverse CDF; the rest of the period is its tail
    WINDOW = np.arange(1 - _WINDOW, _WINDOW + 1)

    @pytest.mark.parametrize("m", range(1, 15))
    def test_kernel_matches_grid_entry_by_entry(self, m):
        M = 1 << m
        phases = (0.0, 0.5, 1 / M, (M - 1) / M, (5 * M // 7) / M, 1 - 1e-9, *self.GENERIC_PHASES)
        for omega in phases:
            grid = qpe_grid_distribution([omega], [1.0], m)
            a = math.floor(M * omega)
            f = M * omega - a
            if f == 0.0:
                # on-grid phase: a point mass at a, drawn without randomness
                assert abs(grid[a % M] - 1.0) <= 1e-12
                assert unmirrored_offset(_KernelSampler(omega, m), np.random.default_rng(0)) == 0
                continue
            d = period_offsets(M)
            kern = np.array([_kernel(f, offset, M) for offset in d.tolist()])
            assert np.max(np.abs(kern - grid[(a + d) % M])) <= 1e-12
            if m < 3:  # readout_qubits never gives m < 3; the window needs m >= 3
                continue
            sampler = _KernelSampler(omega, m)
            assert (sampler.a, sampler.f) == (a, f)
            in_window = np.isin(d, self.WINDOW)
            assert abs(sampler.cum[-1] - kern[in_window].sum()) <= 1e-12
            # the rejection envelope dominates K on every tail bin, and each
            # side's closed-form mass is the sum of its bins
            tail = d[~in_window]
            z = np.abs(sampler.f - tail)
            envelope = sampler.scale / (z * (z - 1.0))
            assert np.all(kern[~in_window] <= envelope)
            for (_, _, mass), side in zip(sampler.sides, (tail > 0, tail < 0)):
                assert abs(mass - np.sum(1.0 / (z[side] * (z[side] - 1.0)))) <= 1e-12 * mass

    @pytest.mark.parametrize("m", [4, 8, 10])
    def test_draws_fit_two_branch_grid(self, m):
        omega = 0.3
        sampler = _KernelSampler(omega, m)
        uniform = iter(np.random.default_rng(1000 + m).random, None)
        draws = np.array([sampler.draw(next(uniform), next(uniform), uniform) for _ in range(200_000)])
        expected = qpe_grid_distribution([omega, 1.0 - omega], [0.5, 0.5], m) * draws.size
        observed = np.bincount(draws, minlength=1 << m)
        assert pooled_chisquare_pvalue(observed, expected) >= 1e-3

    @pytest.mark.parametrize("m", [4, 8, 10])
    def test_tail_path_rate_and_shape(self, m, monkeypatch):
        M = 1 << m
        omega = (int(0.3 * M) + 0.37) / M  # f = 0.37: a heavy, asymmetric tail
        sampler = _KernelSampler(omega, m)
        d = period_offsets(M)
        tail = d[~np.isin(d, self.WINDOW)]
        tail_probs = qpe_grid_distribution([omega], [1.0], m)[(sampler.a + tail) % M]
        tail_mass = tail_probs.sum()
        # the tail's offsets as it returns them, before draw reduces a + d mod M
        raw_tail, tail_offset = [], _KernelSampler._tail_offset

        def recording_tail(self, uniforms):
            raw_tail.append(tail_offset(self, uniforms))
            return raw_tail[-1]

        monkeypatch.setattr(_KernelSampler, "_tail_offset", recording_tail)
        rng = np.random.default_rng(2000 + m)
        n = 50_000
        offsets = np.array([unmirrored_offset(sampler, rng) for _ in range(n)])
        raw_tail = np.array(raw_tail)
        assert np.all((raw_tail >= 1 - M // 2) & (raw_tail <= M // 2))
        drawn_tail = offsets[~np.isin(offsets, self.WINDOW)]
        assert np.array_equal(drawn_tail, raw_tail)
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

    def test_tail_acceptance_is_bounded_at_every_m(self):
        # a tail round accepts with probability tail mass / envelope mass; at
        # least 0.28 (0.3645 at m = 3, about 0.281 from m = 12 on) keeps a tail
        # draw under 3.6 expected rounds at any m.  f stays off 0 and 1, where
        # 1 - cum[-1] cancels
        fractions = np.linspace(1e-3, 1.0 - 1e-3, 199).tolist()
        for m in range(3, ESTIMATOR_MAX_M + 1):
            for f in fractions:
                s = _KernelSampler(f / 2**m, m)
                acceptance = (1.0 - s.cum[-1]) / (s.scale * (s.sides[0][2] + s.sides[1][2]))
                assert acceptance >= 0.28, (m, f)


class TestAmplitudeEstimate:
    def test_p_zero(self):
        result = amplitude_estimate(0.0, ONE_PLAIN_U, 0.1, seed=0)
        assert result.estimate == 0.0

    def test_p_one(self):
        result = amplitude_estimate(1.0, ONE_PLAIN_U, 0.1, seed=0)
        assert result.estimate == 1.0

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_grid_aligned_phase_recovers_exactly(self, seed):
        p = math.sin(math.pi * 5 / 32) ** 2
        result = amplitude_estimate(p, ONE_PLAIN_U, 0.05, seed=seed)
        assert result.m >= 5
        assert abs(result.estimate - p) <= 1e-12

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError, match="delta"):
            amplitude_estimate(0.5, ONE_PLAIN_U, 1.5, seed=0)

    def test_m_formula(self):
        result = amplitude_estimate(0.5, ONE_PLAIN_U, 0.05, seed=0)
        assert result.m == math.ceil(math.log2(math.pi / 0.05)) + 2

    def test_readout_cap(self):
        # a delta just above pi 2^-46 needs exactly m = 48; math.pi 2^-46 is below
        # pi 2^-46, so it needs j = 47 and m = 49
        delta = math.ldexp(math.nextafter(math.pi, math.inf), -46)
        result = amplitude_estimate(0.37, ONE_PLAIN_U, delta, seed=0)
        assert result.m == ESTIMATOR_MAX_M == 48
        assert abs(result.estimate - 0.37) <= delta
        with pytest.raises(QubitCapExceeded, match="m = 49 readout qubits, cap is 48"):
            amplitude_estimate(0.37, ONE_PLAIN_U, math.ldexp(math.pi, -46), seed=0)

    @pytest.mark.parametrize("estimate", [amplitude_estimate, sqrt_amplitude_estimate])
    @pytest.mark.parametrize("delta", [1e-320, 5e-324, 1e-300])
    def test_tiny_delta_exceeds_readout_cap(self, estimate, delta):
        # subnormal deltas included: m comes from the exponent, never from pi / delta
        with pytest.raises(QubitCapExceeded, match=f"cap is {ESTIMATOR_MAX_M}"):
            estimate(0.37, ONE_PLAIN_U, delta, seed=0)

    @pytest.mark.parametrize("estimate", [amplitude_estimate, sqrt_amplitude_estimate])
    def test_negative_seed(self, estimate):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            estimate(0.37, ONE_PLAIN_U, 0.1, seed=-1)

    def test_m_is_exact_against_decimal_pi(self):
        # the least j with delta 2^j >= pi, checked with pi to 80 digits; at
        # math.pi 2^-j and its neighbours a float log2(math.pi / delta) is off by one
        pi = decimal.Decimal(PI_80_DIGITS)
        probes = [math.ldexp(math.pi, -j) for j in range(2, 1074)]
        probes += [math.nextafter(x, to) for x in probes for to in (0.0, 1.0)]
        rng = np.random.default_rng(5)
        probes += np.ldexp(rng.uniform(0.5, 1.0, 4000), rng.integers(-1073, 1, 4000)).tolist()
        probes += [5e-324, math.nextafter(1.0, 0.0)]
        with decimal.localcontext() as context:
            context.prec = 120  # delta 2^j is within 1e-100 relative, pi within 1e-79
            for delta in sorted(set(probes)):
                exact = decimal.Decimal(delta)  # exact: a double is a dyadic rational
                for square in (True, False):
                    try:
                        m = readout_qubits(delta, square)
                    except QubitCapExceeded as exc:
                        m = int(re.search(r"needs m = (\d+) ", str(exc))[1])
                        assert m > ESTIMATOR_MAX_M, (delta, square)
                    j = m - (2 if square else 1)
                    assert exact * 2**j >= pi > exact * 2 ** (j - 1), (delta, square, m)

    def test_readout_never_below_three_qubits(self):
        # the precondition of _KernelSampler's fixed window: a tail on both sides
        deltas = [*np.linspace(1e-3, 0.999, 1000).tolist(), 1.0 - 2.0**-53]
        for square in (True, False):
            for delta in deltas:
                m = readout_qubits(delta, square)
                assert m >= 3 and (1 << m) // 2 > _WINDOW, (delta, square)


class TestSqrtAmplitudeEstimate:
    def test_half_is_exact(self):
        result = sqrt_amplitude_estimate(0.5, ONE_PLAIN_U, 0.05, seed=0)
        assert abs(result.estimate - math.sqrt(0.5)) <= 1e-12

    def test_p_zero(self):
        result = sqrt_amplitude_estimate(0.0, ONE_PLAIN_U, 0.1, seed=0)
        assert result.estimate == 0.0

    def test_seeded_instance_success_rate(self):
        # truth from the dense reference, sqrt(p) = F(rho, psi) for the pure psi;
        # per-seed success should be well above the nominal 2/3
        problem = instance_problem()
        truth = uhlmann_fidelity(mixed_instance(1, 2, 42)[0], pure_instance(1, 43)[0])
        hits = 0
        for seed in range(200):
            result = sqrt_amplitude_estimate(*problem, 0.02, seed=seed)
            hits += abs(result.estimate - truth) <= 0.02
        assert hits >= 120

    def test_agrees_with_amplitude_estimate(self):
        problem = instance_problem()
        delta = 0.05
        sq = sqrt_amplitude_estimate(*problem, delta, seed=11)
        am = amplitude_estimate(*problem, delta, seed=11)
        assert abs(sq.estimate**2 - am.estimate) <= 2 * delta

    def test_deterministic(self):
        problem = instance_problem()
        a = sqrt_amplitude_estimate(*problem, 0.03, seed=5)
        b = sqrt_amplitude_estimate(*problem, 0.03, seed=5)
        assert a.estimate == b.estimate
        assert a.queries == b.queries

    def test_estimate_in_unit_interval(self):
        for seed in range(10):
            result = sqrt_amplitude_estimate(*instance_problem(), 0.2, seed=seed)
            assert 0.0 <= result.estimate <= 1.0


def hit_probability(p, m, square, target, tolerance, back_transform=None):
    """Exact per-repetition probability that the readout of p on m qubits, sin^2(pi y/M) if
    ``square`` else sin(pi y/M), then ``back_transform`` if given, lands within ``tolerance``
    of ``target``: the two-branch grid law summed over the outcomes y that do."""
    amp = np.sin(np.pi * np.arange(1 << m) / (1 << m))
    value = amp * amp if square else amp
    if back_transform is not None:
        value = back_transform(value)
    return math.fsum(two_phase_law(p, m)[np.abs(value - target) <= tolerance])


def median_success(q):
    """Pr[Bin(R, q) >= R // 2 + 1] for R = DEFAULT_REPETITIONS: a lower bound on the
    probability that the lower median of R readouts hits, since it hits whenever a
    majority of them do."""
    r = DEFAULT_REPETITIONS
    return math.fsum(math.comb(r, j) * q**j * (1.0 - q) ** (r - j) for j in range(r // 2 + 1, r + 1))


class TestExactSuccessGuarantee:
    """The documented guarantees, at least 8/pi^2 per repetition and 2/3 per estimate,
    computed from the exact readout law rather than observed on sampled estimates."""

    @settings(database=None, deadline=None, max_examples=200)
    @given(
        p=st.floats(1e-6, 1.0 - 1e-6, exclude_min=True, exclude_max=True),
        delta=st.floats(1e-3, 0.3),
    )
    def test_both_readouts_meet_the_guarantee(self, p, delta):
        # m <= 14 here, so the whole 2^m grid is cheap
        for square, target in ((True, p), (False, math.sqrt(p))):
            q = hit_probability(p, readout_qubits(delta, square), square, target, delta)
            assert q >= 8.0 / math.pi**2, (square, q)
            assert median_success(q) >= 2.0 / 3.0, (square, q)

    @pytest.mark.parametrize("epsilon", [0.2, 0.1, 0.05])
    def test_swap_back_transform_meets_the_guarantee(self, epsilon):
        # the SWAP baseline reads p = (1 + F^2)/2 to eps^2/4 and clamps its back-transform
        # at zero: near F = 0, where 2p - 1 can go negative, is its documented weak spot,
        # so F runs in even steps over [0, 1] and in log steps down to 1e-4
        def back_transform(p_hat):
            return np.minimum(np.sqrt(np.maximum(2.0 * p_hat - 1.0, 0.0)), 1.0)

        m = ESTIMATORS["swap-baseline"].readout_qubits(epsilon)
        for fidelity in np.concatenate([np.linspace(0.0, 1.0, 41), np.geomspace(1e-4, 0.3, 60)]):
            p = (1.0 + fidelity * fidelity) / 2.0
            q = hit_probability(p, m, True, fidelity, epsilon, back_transform)
            assert q >= 8.0 / math.pi**2, (fidelity, q)
            assert median_success(q) >= 2.0 / 3.0, (fidelity, q)


def long_tail(seed, rep):
    """Repetition rep's tail as one read of 300 uniforms (100 rounds, each accepting
    with probability at least 0.28), taken on the first next()."""
    yield from uniforms(b"tail", (seed, rep), 300)


def stream_estimate(p, delta, seed, square):
    """The estimate rebuilt from the stream definition: branch and window uniforms
    2 rep and 2 rep + 1 of one b"head" read, and each repetition's tail from one
    long b"tail" read instead of the estimator's doubling chunks."""
    m = readout_qubits(delta, square)
    sampler = _KernelSampler(math.asin(math.sqrt(p)) / math.pi, m)
    head = uniforms(b"head", (seed,), 2 * DEFAULT_REPETITIONS)
    values = []
    for rep in range(DEFAULT_REPETITIONS):
        y = sampler.draw(head[2 * rep], head[2 * rep + 1], long_tail(seed, rep))
        amp = math.sin(math.pi * y / (1 << m))
        values.append(amp * amp if square else amp)
    return sorted(values)[(DEFAULT_REPETITIONS - 1) // 2]


# neither increasing nor decreasing, so an estimate follows both a smaller and a larger m
STREAM_DELTAS = (0.01, 0.1, 1e-5, 0.003, 0.05)


def assert_estimates_follow_the_streams(p, seeds):
    for seed in seeds:
        for delta in STREAM_DELTAS:
            for estimate, square in ((sqrt_amplitude_estimate, False), (amplitude_estimate, True)):
                got = estimate(p, ONE_PLAIN_U, delta, seed).estimate
                assert got == stream_estimate(p, delta, seed, square), (seed, delta, square)


#: Flagged probability whose phase sits at M omega = 100.37 for M = 2^10
#: (sqrt readout at delta 0.01): f = 0.37 puts 8.4% of each draw in the tail.
HEAVY_TAIL_P = math.sin(math.pi * 100.37 / 1024) ** 2

#: Seeds at the 32- and 64-bit word boundaries, where a key's part grows a byte.
EDGE_SEEDS = (0, 1, 255, 256, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64)


class TestStreams:
    @settings(database=None, deadline=None, max_examples=40)
    @given(
        parts=st.lists(st.integers(0, 2**70), max_size=3),
        n=st.integers(1, 64),
        extra=st.integers(0, 64),
    )
    def test_a_longer_read_extends_a_shorter_one(self, parts, n, extra):
        short = uniforms(b"head", tuple(parts), n)
        assert uniforms(b"head", tuple(parts), n + extra)[:n] == short
        assert all(0.0 <= u < 1.0 and (u * 2**53).is_integer() for u in short)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_tail_chunks_read_one_stream(self, seed):
        # the doubling chunks (6, 12, 24, ...) join into the one long read
        tail = _tail_uniforms(seed, 3)
        assert [next(tail) for _ in range(200)] == uniforms(b"tail", (seed, 3), 200)

    def test_domains_and_parts_are_separated(self):
        # the length prefixes keep every (domain, parts) key distinct: parts that
        # concatenate to the same bytes, a zero part and no part, each domain
        keys = [
            (domain, parts)
            for domain in (b"head", b"tail", b"inst", b"seed", b"hea", b"headd")
            for parts in ((), (0,), (0, 0), (1, 2), (513,), (2, 1), (1, 2, 0), (2**64,), (2**64 - 1,))
        ]
        heads = {tuple(uniforms(domain, parts, 4)) for domain, parts in keys}
        assert len(heads) == len(keys)
        assert len({uniforms(b"head", (seed,), 1)[0] for seed in EDGE_SEEDS}) == len(EDGE_SEEDS)

    def test_stream_key_parts_are_non_negative(self):
        with pytest.raises(ValueError, match="non-negative integers, got -1"):
            uniforms(b"head", (3, -1), 2)
        with pytest.raises(ValueError, match="non-negative integers, got -1"):
            derive_seed(0, -1)

    @settings(database=None, deadline=None, max_examples=30)
    @given(parts=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=3))
    def test_a_derived_seed_is_the_first_word_of_its_stream(self, parts):
        seed = derive_seed(*parts)
        assert 0 <= seed < 2**64
        assert (seed >> 11) * 2.0**-53 == uniforms(b"seed", tuple(parts), 1)[0]


class TestEstimateStreams:
    @settings(database=None, deadline=None, max_examples=30)
    @given(
        p=st.floats(0.0, 1.0),
        seed_a=st.integers(0, 2**64 - 1),
        seed_b=st.integers(0, 2**64 - 1),
    )
    def test_an_estimate_follows_its_streams_whatever_ran_before(self, p, seed_a, seed_b):
        # seed_a again after seed_b and every delta: nothing carries between estimates
        assert_estimates_follow_the_streams(p, (seed_a, seed_b, seed_a))

    @pytest.mark.parametrize(
        "p",
        [math.sin(math.pi * 5 / 32) ** 2, 0.0, 1.0],
        ids=["grid-aligned", "p0", "p1"],
    )
    def test_point_masses_follow_the_streams(self, p):
        assert_estimates_follow_the_streams(p, (3, 8, 3))

    def test_heavy_tail_estimates_follow_the_streams(self):
        assert_estimates_follow_the_streams(HEAVY_TAIL_P, EDGE_SEEDS)

    def test_the_tail_is_read_only_when_the_window_misses(self, monkeypatch):
        reads = []

        def counting(domain, parts, n):
            reads.append((domain, parts, n))
            return uniforms(domain, parts, n)

        monkeypatch.setattr(estimation, "uniforms", counting)
        # p = 0 is a point mass (f = 0): the head is read once, the tail never
        sqrt_amplitude_estimate(0.0, ONE_PLAIN_U, 0.1, 3)
        assert reads == [(b"head", (3,), 2 * DEFAULT_REPETITIONS)]
        tailed = 0
        for seed in range(10):
            reads.clear()
            sqrt_amplitude_estimate(HEAVY_TAIL_P, ONE_PLAIN_U, 0.01, seed)
            head, *tails = reads
            assert head == (b"head", (seed,), 2 * DEFAULT_REPETITIONS)
            # each missed window reads its own repetition's tail, in chunks of 6, 12, 24, ...
            chunks = {}
            for domain, parts, n in tails:
                assert domain == b"tail" and parts[0] == seed
                chunks.setdefault(parts, []).append(n)
            assert len(chunks) < DEFAULT_REPETITIONS
            assert all(n == [6 << i for i in range(len(n))] for n in chunks.values())
            tailed += bool(chunks)
        assert tailed > 0

    def test_estimates_from_threads_equal_sequential_ones(self):
        # nothing is cached or shared: four threads give the sequential estimates
        jobs = [
            (estimate, p, delta, seed)
            for estimate in (sqrt_amplitude_estimate, amplitude_estimate)
            for p in (HEAVY_TAIL_P, 0.37, 0.9)
            for delta in (0.1, 0.01, 0.003)
            for seed in range(8)
        ]

        def run(job):
            estimate, p, delta, seed = job
            return estimate(p, ONE_PLAIN_U, delta, seed).estimate

        sequential = [run(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(run, jobs * 4, timeout=120)) == sequential * 4
        finally:
            sys.setswitchinterval(interval)

    def test_a_sweep_reads_one_head_per_estimate(self, monkeypatch, capsys):
        heads = []

        def counting(domain, parts, n):
            if domain == b"head":
                heads.append(parts)
            return uniforms(domain, parts, n)

        monkeypatch.setattr(estimation, "uniforms", counting)
        argv = ["sweep", "--estimator", "optimal", "--k", "2", "--trials", "2"]
        assert main([*argv, "--epsilons", "0.1,0.05,0.03,0.02,0.01"]) == 0
        # 2 trials x 5 epsilons, each estimate keyed by its trial's seed
        assert sorted(heads) == sorted([(derive_seed(0, trial, 2),) for trial in range(2)] * 5)


def scripted_outcome(sampler, branch, window, *tail):
    """The production draw's outcome y on scripted uniforms, or None where it reads past them."""
    try:
        return sampler.draw(branch, window, iter(tail))
    except StopIteration:  # the window missed, or a tail round rejected
        return None


def snapped(g, e):
    """The float where g steps, if it steps within 63 floats of e; else e."""
    if g(math.nextafter(e, 0.0)) != g(e):
        return e
    ends = {0.0: e, 1.0: e}  # per direction, the furthest float still valued g(e)
    for k in range(6):
        for toward, near in ends.items():
            far = near
            for _ in range(1 << k):  # 1, 2, 4, ... floats further out
                far = math.nextafter(far, toward)
            if g(far) != g(e):
                while math.nextafter(near, toward) != far:  # bisect to the adjacent pair
                    mid = (near + far) / 2.0
                    near, far = (mid, far) if g(mid) == g(e) else (near, mid)
                return max(near, far)
            ends[toward] = far
    return e


def step_pieces(g, edges):
    """[(u, measure)] of the intervals of [0, 1) on which g is constant, u each one's start.

    g is a step function whose every value holds on one interval.  ``edges``
    are its closed-form steps, each moved to where g steps within a few
    floats of it.  An interval between two edges is one piece if g agrees at
    its first float and its last, so each edge is probed on both sides, and is
    bisected down to the step if not: the pieces are g's own wherever it steps.
    """
    g = functools.cache(g)
    pieces = []

    def split(lo, hi):
        if g(lo) == g(math.nextafter(hi, 0.0)):
            pieces.append((lo, hi - lo))
            return
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            mid = math.nextafter(lo, 1.0)
        split(lo, mid)
        split(mid, hi)

    points = sorted({0.0, 1.0, *(snapped(g, e) for e in edges if 0.0 < e < 1.0)})
    for lo, hi in zip(points, points[1:]):
        split(lo, hi)
    return pieces


def executed_sampler_law(omega, m):
    """The exact law of _KernelSampler(omega, m).draw, computed by running it on scripted uniforms.

    Every uniform draw reads is cut into step_pieces at its closed-form edges:
    the branch at 1/2, the window at the edges of cum, and in a tail round the
    side at right_share, the bin where 1/z crosses a bin edge, and acceptance
    at K(d) / envelope(d).  A piece weighs its length.  A window miss passes
    its weight to the tail, whose rounds are independent: the tail draws d
    with probability prop(d) acc(d) / sum prop acc (Devroye, Non-Uniform Random
    Variate Generation, 1986, II.3).
    """
    sampler = _KernelSampler(omega, m)
    M, f = sampler.M, sampler.f
    law = np.zeros(M)
    # the branch shows in the outcomes of two window offsets, which no mirror maps to themselves
    probes = [0.0] if f == 0.0 else [0.0, sampler.cum[0]]
    branches = step_pieces(lambda u: tuple(scripted_outcome(sampler, u, w) for w in probes), [0.5])
    for branch, w_branch in branches:
        windows = step_pieces(lambda u: scripted_outcome(sampler, branch, u), getattr(sampler, "cum", []))
        for window, w_window in windows:
            y = scripted_outcome(sampler, branch, window)
            if y is not None:
                law[y] += w_branch * w_window
                continue
            rounds = tail_round_law(
                sampler, branch < 0.5, lambda *tail: scripted_outcome(sampler, branch, window, *tail)
            )
            total = math.fsum(rounds.values())
            for y, weight in rounds.items():
                law[y] += w_branch * w_window * weight / total
    return law


def tail_round_law(sampler, mirrored, outcome):
    """{y: probability that one tail round accepts y}, outcome(side, bin, accept)
    running the draw on the round's three uniforms; accept = 0.0 always accepts.
    The acceptance edges take y as mirrored or not, as the branch uniform says."""
    M, f, a, scale = sampler.M, sampler.f, sampler.a, sampler.scale
    accepted = Counter()
    for side, w_side in step_pieces(lambda u: outcome(u, 0.0, 0.0), [sampler.right_share]):
        c, inv_far, mass = sampler.sides[0 if side < sampler.right_share else 1]
        bin_edges = [(1.0 / (c + j) - inv_far) / mass for j in range(sampler.tail_bins)]
        for bin_u, w_bin in step_pieces(lambda u: outcome(side, u, 0.0), bin_edges):
            y = outcome(side, bin_u, 0.0)
            # the offset d of y, and its acceptance edge K(d) z (z - 1) / scale with z = |d - f|;
            # a scale that underflows to 0 (f below about 1e-154) accepts every round
            d = ((M - y if mirrored else y) - a - 1 + M // 2) % M + 1 - M // 2
            z = abs(d - f)
            edge = _kernel(f, d, M) * z * (z - 1.0) / scale if scale else math.inf
            for accept, w_accept in step_pieces(lambda u: outcome(side, bin_u, u), [edge]):
                if outcome(side, bin_u, accept) is not None:
                    accepted[y] += w_side * w_bin * w_accept
    return accepted


class TestExecutedSamplerLaw:
    """The sampler's law, computed exactly from the production draw on scripted
    uniforms, equals the two-branch grid law bin by bin; the chi-square tests
    above sample the same law."""

    @staticmethod
    def assert_law(omega, m):
        grid = qpe_grid_distribution([omega, 1.0 - omega], [0.5, 0.5], m)
        np.testing.assert_allclose(executed_sampler_law(omega, m), grid, rtol=1e-9, atol=1e-13)

    @settings(database=None, deadline=None, max_examples=4)
    @given(f=st.floats(0.0, 1.0, exclude_max=True), a=st.integers(0, 2**9))
    @example(f=0.37, a=100)  # a heavy, asymmetric tail
    @example(f=1e-10, a=1)  # just off the grid: each branch's mass is nearly all in one bin
    @example(f=5e-324, a=3)  # the envelope's scale underflows to 0, so every tail round accepts
    def test_law_equals_the_grid_law(self, f, a):
        for m in range(3, 11):
            self.assert_law(((a % (1 << (m - 1))) + f) / (1 << m), m)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_law_on_the_grid(self, m):
        # f = 0: a point mass on each branch, read from no window or tail uniform
        M = 1 << m
        for a in (0, 1, M // 5, M // 2 - 1, M // 2):
            self.assert_law(a / M, m)


class TestQueryAccounting:
    def test_closed_form_counts(self):
        reps = DEFAULT_REPETITIONS
        result = sqrt_amplitude_estimate(*instance_problem(), 0.1, seed=0)
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
        # a run's tallies are a value: equal for every run on a preparer, and one
        # preparer execution's queries times a run's 1 + 2 (2^m - 1) per repetition
        p, once = instance_problem()
        result = sqrt_amplitude_estimate(p, once, 0.1, seed=0)
        assert sqrt_amplitude_estimate(p, once, 0.1, seed=1).queries == result.queries
        per_query = DEFAULT_REPETITIONS * (1 + 2 * ((1 << result.m) - 1))
        for label, counts in once.items():
            assert result.total_queries(label) == per_query * sum(counts.values())

    def test_tally_of_a_preparer_with_every_kind(self):
        # one execution: U plain x2, inverse, controlled, controlled_inverse;
        # V controlled_inverse.  m = 2 and 3 repetitions give 9 Grover steps,
        # each adding the execution's query total to both controlled kinds.
        once = {
            "U": {"plain": 2, "inverse": 1, "controlled": 1, "controlled_inverse": 1},
            "V": {"plain": 0, "inverse": 0, "controlled": 0, "controlled_inverse": 1},
        }
        assert _query_tally(once, 9, 3) == {
            "U": {"plain": 6, "inverse": 3, "controlled": 48, "controlled_inverse": 48},
            "V": {"plain": 0, "inverse": 0, "controlled": 9, "controlled_inverse": 12},
        }

    def test_query_count_scaling_law(self):
        # log-log slope of Grover applications vs 1/delta is 1.0 +- 0.1
        deltas = [2.0**-t for t in range(3, 9)]
        counts = [
            sqrt_amplitude_estimate(0.37, ONE_PLAIN_U, d, seed=0).grover_applications for d in deltas
        ]
        slope = np.polyfit(np.log(1.0 / np.array(deltas)), np.log(counts), 1)[0]
        assert abs(slope - 1.0) <= 0.1


class TestEstimationResult:
    def test_json_schema_and_determinism(self):
        result = sqrt_amplitude_estimate(*instance_problem(), 0.1, seed=3)
        import json

        payload = json.loads(result.to_json())
        assert set(payload) == {
            "estimate", "delta", "m", "reps", "seed", "queries", "grover_applications",
        }
        assert set(payload["queries"]) == {"U", "V"}
        assert set(payload["queries"]["U"]) == {
            "plain", "inverse", "controlled", "controlled_inverse",
        }
        again = sqrt_amplitude_estimate(*instance_problem(), 0.1, seed=3)
        assert result.to_json() == again.to_json()
