"""Tests for state construction and oracle synthesis."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fidest.circuits import (
    Circuit,
    OracleOp,
    RegisterLayout,
    analyze_flagged,
    build_encoding_circuit,
    execute,
)
from fidest.linalg import PURITY_ATOL, DensityMatrix, unitarity_error, zero_state
from fidest.oracles import (
    INSTANCE_KINDS,
    PreparationOracle,
    RandomInstanceSpec,
    check_instance_size,
    complex_gaussians,
    purified_channel_oracle,
    sample_instance,
    synthesize_instance,
)
from fidest.reference import circuit_unitary, partial_trace, preparation_oracle, purify

from conftest import generated_oracles, mixed_instance, pure_instance, resized_oracle, state_oracle


def reduced_system_state(col, system_qubits):
    """System matrix of a purification column: trace the ancilla out of its projector."""
    outer = np.outer(col, col.conj())
    return partial_trace(outer, [1 << system_qubits, col.size >> system_qubits], keep=[0])


class TestPurify:
    def test_pure_state_purifies_to_zero_ancilla_state(self):
        col = purify(DensityMatrix(np.diag([1.0, 0.0])))
        # |0>_A |0>_B up to global phase
        assert abs(abs(col[0]) - 1.0) <= 1e-10
        assert np.linalg.norm(col[1:]) <= 1e-10

    def test_maximally_mixed(self):
        col = purify(DensityMatrix(np.eye(2) / 2))
        reduced = reduced_system_state(col, 1)
        assert np.max(np.abs(reduced - np.eye(2) / 2)) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_reduced_state_matches_source(self, seed):
        # oracle: partial trace of the purification projector
        dm, _ = mixed_instance(2, 3, 400 + seed)
        col = purify(dm)
        assert np.max(np.abs(reduced_system_state(col, 2) - dm.matrix)) <= 1e-9


#: Householder edge cases, fed to the completion and invocation tests beside random columns
EDGE_COLUMNS = {
    "e0": [1, 0, 0, 0],
    "-e0": [-1, 0, 0, 0],
    "zero-first-entry": [0, 0.6j, 0, -0.8],
    "largest-entry-not-first": [0.1, -0.2j, 0.9, 0.3 - 0.1j],
}


def unit_column(case, dim=8):
    """The edge column named ``case``, or a random unit column of length ``dim`` seeded by it."""
    if case in EDGE_COLUMNS:
        col = np.asarray(EDGE_COLUMNS[case], dtype=complex)
    else:
        rng = np.random.default_rng(case)
        col = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return col / np.linalg.norm(col)


class TestCompleteToUnitary:
    def test_zero_column_gives_identity(self):
        assert np.array_equal(state_oracle(zero_state(1)).unitary, np.eye(2))

    def test_plus_state(self):
        col = np.array([1, 1], dtype=complex) / np.sqrt(2)
        u = state_oracle(col).unitary
        assert unitarity_error(u) <= 1e-10
        assert np.max(np.abs(u[:, 0] - col)) <= 1e-12

    @pytest.mark.parametrize("seed", [*range(8), *EDGE_COLUMNS])
    def test_random_columns_are_unitary_with_exact_first_column(self, seed):
        col = unit_column(seed)
        u = state_oracle(col).unitary
        assert unitarity_error(u) <= 1e-10
        assert np.max(np.abs(u[:, 0] - col)) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        col /= np.linalg.norm(col)
        assert np.array_equal(state_oracle(col).unitary, state_oracle(col).unitary)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            state_oracle(np.array([1.0, 1.0])).unitary

    def test_negative_basis_column(self):
        u = state_oracle(np.array([-1.0, 0.0], dtype=complex)).unitary
        assert np.max(np.abs(u[:, 0] - [-1.0, 0.0])) <= 1e-12
        assert unitarity_error(u) <= 1e-10


@pytest.mark.parametrize("case", [*EDGE_COLUMNS, "mixed"])
def test_apply_acts_on_axis_1(case):
    if case == "mixed":
        oracle = mixed_instance(2, 3, 12)[1]
    else:
        oracle = PreparationOracle(unit_column(case), 2, 0, case)
    u = oracle.unitary
    assert unitarity_error(u) <= 1e-10
    assert np.max(np.abs(u[:, 0] - oracle.prepared_state)) <= 1e-12
    rng = np.random.default_rng(13)
    for pre, post in ((1, 1), (1, 5), (4, 1), (3, 2)):
        shape = (pre, u.shape[0], post)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for inverse, op in ((False, u), (True, u.conj().T)):
            out = x.copy()
            assert oracle.apply(out, inverse) is None
            assert np.max(np.abs(out - np.einsum("ij,ajk->aik", op, x))) <= 1e-12


@settings(database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_completion_of_generated_columns(data):
    # U e0 = col and U unitary for every column, the reflection's edges included:
    # col[0] = 0 (d = -1) and col = e^{i theta} e0 (v = 2 e0 up to rounding)
    n = data.draw(st.integers(1, 4), label="qubits")
    kind = data.draw(st.sampled_from(["entries", "zero-first-entry", "phased-e0"]), label="kind")
    if kind == "phased-e0":
        col = np.zeros(1 << n, dtype=complex)
        col[0] = np.exp(1j * data.draw(st.floats(-np.pi, np.pi), label="theta"))
    else:
        part = st.floats(-1.0, 1.0, allow_subnormal=False)
        parts = data.draw(st.lists(part, min_size=2 << n, max_size=2 << n), label="parts")
        col = np.array(parts[::2]) + 1j * np.array(parts[1::2])
        if kind == "zero-first-entry":
            col[0] = 0.0
        assume(np.linalg.norm(col) >= 1e-3)
        col /= np.linalg.norm(col)
    u = PreparationOracle(col, n, 0, kind).unitary
    assert np.max(np.abs(u[:, 0] - col)) <= 1e-15
    assert unitarity_error(u) <= 1e-14


def test_queries_keep_rows_off_the_column_support():
    # a haar_pure column lives on its ancilla-0 entries; the reflection and the
    # scale of row 0 write only those rows, so every other row is kept bit for bit
    _, oracle = sample_instance(RandomInstanceSpec(2, 1, 21, "haar_pure"))
    off = oracle.prepared_state == 0
    assert off.sum() == 12
    rng = np.random.default_rng(22)
    for pre, post in ((1, 1), (1, 5), (4, 1), (3, 2)):
        shape = (pre, off.size, post)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for inverse in (False, True):
            out = x.copy()
            oracle.apply(out, inverse)
            assert np.array_equal(out[:, off], x[:, off]), (pre, post, inverse)
            assert not np.array_equal(out[:, ~off], x[:, ~off])


def test_apply_allocates_less_than_two_inputs():
    # apply writes into its input: the rank-one update's temporary on half the
    # rows, with numpy's broadcast buffer, is all it allocates; a whole-size
    # product freed at the heap top let glibc trim the heap and fault it back
    # in on every circuit op
    oracle = mixed_instance(3, 3, 12)[1]
    x = np.ones((2, 1 << oracle.num_qubits, 64), dtype=complex)
    for inverse in (False, True):
        tracemalloc.start()
        try:
            oracle.apply(x, inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes, inverse


class TestControlledAndInverse:
    """Oracle invocation kinds, read off the dense unitary of a one-op circuit and
    held to the dense completion of the oracle's column."""

    @staticmethod
    def cases():
        """(oracle, pad): a mixed instance, the edge columns, and a random column
        whose ops span two padding qubits beyond the oracle."""
        _, mixed = mixed_instance(1, 2, 5)
        edges = [(PreparationOracle(unit_column(name), 2, 0, name), 0) for name in EDGE_COLUMNS]
        return [(mixed, 0), *edges, (PreparationOracle(unit_column(3), 3, 0, "padded"), 2)]

    @staticmethod
    def unitary_of(oracle, *kinds, pad=0):
        """Dense unitary of the ops of these kinds on layout (C, A, B, P); C is idle,
        and every op spans the ``pad`` trailing qubits of P."""
        sizes = (1, oracle.system_qubits, oracle.ancilla_qubits, pad)
        ops = [OracleOp(oracle, k, ("A", "B", "P")) for k in kinds]
        return circuit_unitary(Circuit(RegisterLayout(("C", "A", "B", "P"), sizes), ops))

    def test_control_on_prepares_state(self):
        for oracle, pad in self.cases():
            u = np.kron(oracle.unitary, np.eye(1 << pad))
            zero = np.zeros(u.shape)
            for kind, on in (("plain", u), ("inverse", u.conj().T)):
                expected = np.block([[on, zero], [zero, on]])  # C is idle
                assert np.max(np.abs(self.unitary_of(oracle, kind, pad=pad) - expected)) <= 1e-12

    def test_inverse_times_forward_is_identity(self):
        for oracle, pad in [(mixed_instance(2, 4, 6)[1], 0), *self.cases()]:
            prod = self.unitary_of(oracle, "plain", "inverse", pad=pad)
            assert np.max(np.abs(prod - np.eye(prod.shape[0]))) <= 1e-10, oracle.label


class TestPurifiedChannelOracle:
    def test_identity_channel(self):
        oracle = purified_channel_oracle(np.eye(4), 1)
        assert np.allclose(oracle.prepared_state, zero_state(2))
        assert np.max(np.abs(oracle.reduced_state().matrix - np.diag([1.0, 0.0]))) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_unitary(self, bad):
        u = np.eye(4, dtype=complex)
        u[1, 1] = bad
        with pytest.raises(ValueError, match="not unitary"):
            purified_channel_oracle(u, 1)

    @pytest.mark.parametrize(
        "unitary,system_qubits,message",
        [
            (np.eye(3), 1, "dimension 3 is not a power of two"),
            (np.eye(4), 0, "system_qubits 0 invalid for a 2-qubit unitary"),
            (np.eye(4), 3, "system_qubits 3 invalid for a 2-qubit unitary"),
        ],
    )
    def test_rejects_a_bad_dimension_or_split(self, unitary, system_qubits, message):
        with pytest.raises(ValueError, match=message):
            purified_channel_oracle(unitary, system_qubits)

    def test_pure_state_channel_with_redundant_ancilla(self):
        # U_phi (x) I serves purified access to the pure state phi
        phi = np.array([0.6, 0.8j], dtype=complex)
        u_phi = state_oracle(phi).unitary
        oracle = purified_channel_oracle(np.kron(u_phi, np.eye(2)), 1)
        assert np.max(np.abs(oracle.reduced_state().matrix - np.outer(phi, phi.conj()))) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_channel_reduces_to_valid_state(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        oracle = purified_channel_oracle(q, 1)
        oracle.reduced_state()  # DensityMatrix validation is the assertion

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            purified_channel_oracle(np.ones((4, 4)), 1)

    def test_encoding_amplitude_matches_raw_unitary(self):
        # the oracle keeps only q's first column; the encoding reads no other
        rng = np.random.default_rng(78)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        dm, _ = mixed_instance(1, 2, 79)
        u = resized_oracle(dm, 2, "U")
        circuit = build_encoding_circuit(u, purified_channel_oracle(q, 1, "V"))
        amp = analyze_flagged(execute(circuit), circuit.layout, ("A", "B")).flagged_amplitude
        # inline with the raw q: U|0> V|0> on (A, B, A', B'), swap B and B', q^dag on A, B
        state = np.kron(u.prepared_state, q[:, 0]).reshape(2, 4, 2, 4).transpose(0, 3, 2, 1)
        inline = np.linalg.norm((q.conj().T @ state.reshape(8, 8))[0])
        assert abs(amp - inline) <= 1e-12


class TestSampleInstance:
    def test_deterministic_in_seed(self):
        spec = RandomInstanceSpec(1, 1, 7, "haar_pure")
        dm1, or1 = sample_instance(spec)
        dm2, or2 = sample_instance(spec)
        assert np.array_equal(dm1.matrix, dm2.matrix)
        assert np.array_equal(or1.unitary, or2.unitary)

    def test_rank_one_is_pure(self):
        dm, _ = sample_instance(RandomInstanceSpec(2, 1, 11, "ginibre_mixed"))
        assert abs(np.trace(dm.matrix @ dm.matrix).real - 1.0) <= 1e-10

    def test_full_rank_spectrum(self):
        dm, _ = sample_instance(RandomInstanceSpec(2, 4, 12, "ginibre_mixed"))
        w = np.linalg.eigvalsh(dm.matrix)
        assert w[0] >= -1e-12
        assert abs(np.sum(w) - 1.0) <= 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("rank 3 out of range [1, 2^1] for k=1")):
            RandomInstanceSpec(1, 3, 0, "ginibre_mixed")
        with pytest.raises(ValueError, match=re.escape("rank 0 out of range [1, 2^1] for k=1")):
            RandomInstanceSpec(1, 0, 0, "ginibre_mixed")

    def test_size_check_never_builds_two_to_the_k(self):
        # a spec far over the qubit cap is only a recipe: it is checked, never drawn
        assert RandomInstanceSpec(2**70, 2, 0, "ginibre_mixed").k == 2**70
        check_instance_size(64, 2**64)
        with pytest.raises(ValueError, match=re.escape(f"rank {2**64 + 1} out of range [1, 2^64] for k=64")):
            check_instance_size(64, 2**64 + 1)
        for k in range(1, 70):
            check_instance_size(k, 1 << k)
            with pytest.raises(ValueError, match="out of range"):
                check_instance_size(k, (1 << k) + 1)

    def test_seed_is_a_64_bit_unsigned_integer(self):
        RandomInstanceSpec(1, 1, 2**64 - 1, "haar_pure")
        with pytest.raises(ValueError, match="64-bit"):
            RandomInstanceSpec(1, 1, 2**64, "haar_pure")

    @pytest.mark.parametrize(
        "k,kind,message",
        [(0, "haar_pure", "k must be >= 1, got 0"), (1, "wishart", "kind 'wishart' not in")],
    )
    def test_rejects_bad_k_or_kind(self, k, kind, message):
        with pytest.raises(ValueError, match=message):
            RandomInstanceSpec(k, 1, 0, kind)

    def test_haar_pure_requires_rank_one(self):
        with pytest.raises(ValueError, match="rank 1"):
            RandomInstanceSpec(2, 2, 0, "haar_pure")

    @pytest.mark.parametrize(
        "kind,rank", [("haar_pure", 1), ("ginibre_mixed", 2), ("ginibre_mixed", 4)]
    )
    def test_oracle_soundness(self, kind, rank):
        # every synthesized oracle: unitary, its column the instance's Gaussian
        # factor on the first ``rank`` ancilla states and exactly zero on the
        # rest, reduced state reproducing the source
        dm, oracle = sample_instance(RandomInstanceSpec(2, rank, 99, kind))
        assert unitarity_error(oracle.unitary) <= 1e-10
        m = oracle.prepared_state.reshape(4, 4)
        assert not np.any(m[:, rank:])
        assert np.max(np.abs(oracle.reduced_state().matrix - dm.matrix)) <= 1e-12

    @settings(database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_specs_are_deterministic_and_sound(self, data):
        k = data.draw(st.integers(1, 3), label="k")
        kind = data.draw(st.sampled_from(INSTANCE_KINDS), label="kind")
        rank = 1 if kind == "haar_pure" else data.draw(st.integers(1, 1 << k), label="rank")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        spec = RandomInstanceSpec(k, rank, seed, kind)
        dm, oracle = sample_instance(spec)
        dm2, oracle2 = sample_instance(spec)
        assert np.array_equal(dm2.matrix, dm.matrix)
        assert np.array_equal(oracle2.prepared_state, oracle.prepared_state)
        assert np.max(np.abs(oracle.reduced_state().matrix - dm.matrix)) <= 1e-9


    @settings(database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_synthesized_state_is_a_valid_density_matrix(self, data):
        # the sweep takes rho raw; the DensityMatrix checks it skips hold for every spec
        k = data.draw(st.integers(1, 4), label="k")
        kind = data.draw(st.sampled_from(INSTANCE_KINDS), label="kind")
        rank = 1 if kind == "haar_pure" else data.draw(st.integers(1, 1 << k), label="rank")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        spec = RandomInstanceSpec(k, rank, seed, kind)
        rho, oracle = synthesize_instance(spec)
        dm, sampled = sample_instance(spec)
        assert not rho.flags.writeable
        assert rho.tobytes() == dm.matrix.tobytes()
        assert sampled.prepared_state.tobytes() == oracle.prepared_state.tobytes()
        DensityMatrix(rho)  # validation is the assertion


class TestComplexGaussians:
    """The Box-Muller draws behind every instance, checked against their laws."""

    DRAWS = complex_gaussians(2024, 20_000)

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_each_part_is_normal_with_variance_one_half(self, part):
        values = [getattr(z, part) for z in self.DRAWS]
        assert scipy.stats.kstest(values, scipy.stats.norm(scale=math.sqrt(0.5)).cdf).pvalue >= 1e-3

    def test_squared_modulus_is_exponential(self):
        values = [abs(z) ** 2 for z in self.DRAWS]
        assert scipy.stats.kstest(values, scipy.stats.expon.cdf).pvalue >= 1e-3

    def test_parts_are_uncorrelated(self):
        # independent parts: Re z Im z has mean 0 and variance 1/4, so n draws average within 5 sd
        mean = math.fsum(z.real * z.imag for z in self.DRAWS) / len(self.DRAWS)
        assert abs(mean) <= 5.0 * 0.5 / math.sqrt(len(self.DRAWS))

    def test_a_longer_draw_extends_a_shorter_one(self):
        assert complex_gaussians(2024, 100) == self.DRAWS[:100]


class TestColumnPurity:
    def test_matches_the_reduced_state(self):
        pure = 0
        for oracle in generated_oracles():
            reduced = oracle.reduced_state().matrix
            dense = np.trace(reduced @ reduced).real  # tr(rho^2), the dense reference
            assert abs(oracle.purity() - dense) <= 1e-14
            assert (oracle.purity() >= 1.0 - PURITY_ATOL) == (dense >= 1.0 - PURITY_ATOL)
            pure += dense >= 1.0 - PURITY_ATOL
        # both classes are covered: haar_pure, rank 1 and hard instances are pure
        assert 0 < pure < 60

    def test_each_rank_at_k3(self):
        for rank in range(1, 9):
            dm, oracle = mixed_instance(3, rank, 40 + rank)
            assert abs(oracle.purity() - np.trace(dm.matrix @ dm.matrix).real) <= 1e-14
            assert (oracle.purity() >= 1.0 - PURITY_ATOL) == (rank == 1)


def test_householder_factors_are_built_on_first_apply():
    _, oracle = mixed_instance(2, 3, 8)
    assert "_householder" not in vars(oracle)
    oracle.purity()
    oracle.reduced_state()
    assert "_householder" not in vars(oracle)
    u = oracle.unitary
    assert "_householder" in vars(oracle)
    assert unitarity_error(u) <= 1e-10
    assert np.allclose(u[:, 0], oracle.prepared_state, rtol=0.0, atol=1e-12)


class TestQueryCounter:
    def test_rejects_unknown_kind(self):
        _, oracle = pure_instance(1, 3)
        with pytest.raises(ValueError, match="kind"):
            OracleOp(oracle, "sideways", ("A", "B"))


def test_preparation_oracle_validates_shape():
    with pytest.raises(ValueError, match="shape"):
        PreparationOracle(np.eye(4), 1, 2, "U")


@pytest.mark.parametrize("column", [[1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]])
def test_preparation_oracle_rejects_non_unit_column(column):
    with pytest.raises(ValueError, match="norm"):
        PreparationOracle(np.array(column), 1, 0, "U")


def test_preparation_oracle_first_column_matches_purification():
    dm, _ = mixed_instance(1, 2, 55)
    oracle = preparation_oracle(dm, "U")
    assert np.max(np.abs(oracle.prepared_state - purify(dm))) <= 1e-10


def test_preparation_oracle_is_frozen():
    _, oracle = pure_instance(1, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        oracle.label = "W"
