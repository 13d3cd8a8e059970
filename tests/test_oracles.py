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

from fidest import linalg
from fidest.circuits import Circuit, OracleOp, RegisterLayout, build_encoding_circuit
from fidest.fidelity import PURITY_ATOL
from fidest.linalg import analyze_flagged, apply_oracle, execute, oracle_residuals, oracle_unitary
from fidest import oracles
from fidest.oracles import (
    PreparationOracle,
    check_instance_size,
    complex_gaussians,
    synthesize_instance,
)
from fidest.reference import (
    DensityMatrix,
    circuit_unitary,
    partial_trace,
    preparation_oracle,
    purify,
    reduced_state,
    unitarity_error,
)

from conftest import (
    ancilla_rotated,
    channel_oracle,
    generated_oracles,
    padded_oracle,
    pure_instance,
    resized_oracle,
    sampled,
    state_oracle,
)


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
        dm, _ = sampled(2, 3, 400 + seed)
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
        assert np.array_equal(oracle_unitary(state_oracle(np.eye(2)[0])), np.eye(2))

    def test_plus_state(self):
        col = np.array([1, 1], dtype=complex) / np.sqrt(2)
        u = oracle_unitary(state_oracle(col))
        assert unitarity_error(u) <= 1e-10
        assert np.max(np.abs(u[:, 0] - col)) <= 1e-12

    @pytest.mark.parametrize("seed", [*range(8), *EDGE_COLUMNS])
    def test_random_columns_are_unitary_with_exact_first_column(self, seed):
        col = unit_column(seed)
        u = oracle_unitary(state_oracle(col))
        assert unitarity_error(u) <= 1e-10
        assert np.max(np.abs(u[:, 0] - col)) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        col /= np.linalg.norm(col)
        assert np.array_equal(oracle_unitary(state_oracle(col)), oracle_unitary(state_oracle(col)))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            oracle_unitary(state_oracle(np.array([1.0, 1.0])))

    def test_negative_basis_column(self):
        u = oracle_unitary(state_oracle(np.array([-1.0, 0.0], dtype=complex)))
        assert np.max(np.abs(u[:, 0] - [-1.0, 0.0])) <= 1e-12
        assert unitarity_error(u) <= 1e-10


@pytest.mark.parametrize("case", [*EDGE_COLUMNS, "mixed"])
def test_apply_acts_on_axis_1(case):
    if case == "mixed":
        oracle = sampled(2, 3, 12)[1]
    else:
        oracle = PreparationOracle(unit_column(case), 2, 0, case)
    u = oracle_unitary(oracle)
    assert unitarity_error(u) <= 1e-10
    assert np.max(np.abs(u[:, 0] - oracle.prepared_state)) <= 1e-12
    rng = np.random.default_rng(13)
    for pre, post in ((1, 1), (1, 5), (4, 1), (3, 2)):
        shape = (pre, u.shape[0], post)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for inverse, op in ((False, u), (True, u.conj().T)):
            out = x.copy()
            assert apply_oracle(oracle, out, inverse) is None
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
    u = oracle_unitary(PreparationOracle(col, n, 0, kind))
    assert np.max(np.abs(u[:, 0] - col)) <= 1e-15
    assert unitarity_error(u) <= 1e-14


def test_queries_keep_rows_off_the_column_support():
    # a psi (x) |0> column lives on its ancilla-0 entries; the reflection and the
    # scale of row 0 write only those rows, so every other row is kept bit for bit
    oracle = padded_oracle(synthesize_instance(2, 1, 21))
    off = np.array(oracle.prepared_state) == 0
    assert off.sum() == 12
    rng = np.random.default_rng(22)
    for pre, post in ((1, 1), (1, 5), (4, 1), (3, 2)):
        shape = (pre, off.size, post)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for inverse in (False, True):
            out = x.copy()
            apply_oracle(oracle, out, inverse)
            assert np.array_equal(out[:, off], x[:, off]), (pre, post, inverse)
            assert not np.array_equal(out[:, ~off], x[:, ~off])


def test_apply_allocates_less_than_two_inputs():
    # apply writes into its input: the rank-one update's temporary on half the
    # rows, with numpy's broadcast buffer, is all it allocates; a whole-size
    # product freed at the heap top let glibc trim the heap and fault it back
    # in on every circuit op
    oracle = sampled(3, 3, 12)[1]
    x = np.ones((2, 1 << oracle.num_qubits, 64), dtype=complex)
    for inverse in (False, True):
        tracemalloc.start()
        try:
            apply_oracle(oracle, x, inverse)
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
        _, mixed = sampled(1, 2, 5)
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
            u = np.kron(oracle_unitary(oracle), np.eye(1 << pad))
            zero = np.zeros(u.shape)
            for kind, on in (("plain", u), ("inverse", u.conj().T)):
                expected = np.block([[on, zero], [zero, on]])  # C is idle
                assert np.max(np.abs(self.unitary_of(oracle, kind, pad=pad) - expected)) <= 1e-12

    def test_inverse_times_forward_is_identity(self):
        for oracle, pad in [(sampled(2, 4, 6)[1], 0), *self.cases()]:
            prod = self.unitary_of(oracle, "plain", "inverse", pad=pad)
            assert np.max(np.abs(prod - np.eye(prod.shape[0]))) <= 1e-10, oracle.label


class TestPurifiedChannelOracle:
    def test_identity_channel(self):
        oracle = channel_oracle(np.eye(4), 1)
        assert np.allclose(oracle.prepared_state, np.eye(4)[0])
        assert np.max(np.abs(reduced_state(oracle).matrix - np.diag([1.0, 0.0]))) <= 1e-10

    def test_pure_state_channel_with_redundant_ancilla(self):
        # U_phi (x) I serves purified access to the pure state phi
        phi = np.array([0.6, 0.8j], dtype=complex)
        u_phi = oracle_unitary(state_oracle(phi))
        oracle = channel_oracle(np.kron(u_phi, np.eye(2)), 1)
        assert np.max(np.abs(reduced_state(oracle).matrix - np.outer(phi, phi.conj()))) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_channel_reduces_to_valid_state(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        oracle = channel_oracle(q, 1)
        reduced_state(oracle)  # DensityMatrix validation is the assertion

    def test_encoding_amplitude_matches_raw_unitary(self):
        # the oracle keeps only q's first column; the encoding reads no other
        rng = np.random.default_rng(78)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        dm, _ = sampled(1, 2, 79)
        u = resized_oracle(dm, 2, "U")
        circuit = build_encoding_circuit(u, channel_oracle(q, 1, "V"))
        amp = analyze_flagged(execute(circuit), circuit.layout, ("A", "B")).flagged_amplitude
        # inline with the raw q: U|0> V|0> on (A, B, A', B'), swap B and B', q^dag on A, B
        state = np.kron(u.prepared_state, q[:, 0]).reshape(2, 4, 2, 4).transpose(0, 3, 2, 1)
        inline = np.linalg.norm((q.conj().T @ state.reshape(8, 8))[0])
        assert abs(amp - inline) <= 1e-12


class TestSampleInstance:
    def test_deterministic_in_seed(self):
        dm1, or1 = sampled(1, 1, 7)
        dm2, or2 = sampled(1, 1, 7)
        assert np.array_equal(dm1.matrix, dm2.matrix)
        assert np.array_equal(oracle_unitary(or1), oracle_unitary(or2))

    def test_rank_one_is_pure(self):
        dm, _ = sampled(2, 1, 11)
        assert abs(np.trace(dm.matrix @ dm.matrix).real - 1.0) <= 1e-10

    def test_full_rank_spectrum(self):
        dm, _ = sampled(2, 4, 12)
        w = np.linalg.eigvalsh(dm.matrix)
        assert w[0] >= -1e-12
        assert abs(np.sum(w) - 1.0) <= 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("rank 3 out of range [1, 2^1] for k=1")):
            synthesize_instance(1, 3, 0)
        with pytest.raises(ValueError, match=re.escape("rank 0 out of range [1, 2^1] for k=1")):
            synthesize_instance(1, 0, 0)

    def test_size_check_never_builds_two_to_the_k(self):
        # a k far over the qubit cap is checked in O(1): a bad rank or seed is refused, not drawn
        with pytest.raises(ValueError, match=re.escape(f"rank 0 out of range [1, 2^{2**70}]")):
            synthesize_instance(2**70, 0, 0)
        with pytest.raises(ValueError, match="64-bit"):
            synthesize_instance(2**70, 2, -1)
        check_instance_size(64, 2**64)
        with pytest.raises(ValueError, match=re.escape(f"rank {2**64 + 1} out of range [1, 2^64] for k=64")):
            check_instance_size(64, 2**64 + 1)
        for k in range(1, 70):
            check_instance_size(k, 1 << k)
            with pytest.raises(ValueError, match="out of range"):
                check_instance_size(k, (1 << k) + 1)

    def test_seed_is_a_64_bit_unsigned_integer(self):
        synthesize_instance(1, 1, 2**64 - 1)
        with pytest.raises(ValueError, match="64-bit"):
            synthesize_instance(1, 1, 2**64)

    @pytest.mark.parametrize(
        "k,rank,seed,message",
        [(0, 1, 0, "k must be >= 1, got 0"), (1, 3, 0, "out of range"), (1, 1, -1, "64-bit"), (1, 1, 2**64, "64-bit")],
    )
    def test_rejects_a_bad_size_or_seed_before_reading_a_uniform(self, monkeypatch, k, rank, seed, message):
        def no_draw(*args):
            raise AssertionError("an instance read a uniform before its arguments were checked")

        monkeypatch.setattr(oracles, "uniforms", no_draw)
        with pytest.raises(ValueError, match=message):
            synthesize_instance(k, rank, seed)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_oracle_soundness(self, rank):
        # every synthesized oracle: unitary, its column the instance's Gaussian
        # factor on the first ``rank`` of its 2^ancilla states and exactly zero on
        # the rest, the executed query reproducing the source
        oracle = synthesize_instance(2, rank, 99)
        assert unitarity_error(oracle_unitary(oracle)) <= 1e-10
        m = np.array(oracle.prepared_state).reshape(4, 1 << oracle.ancilla_qubits)
        assert np.all(np.any(m[:, :rank], axis=0))
        assert not np.any(m[:, rank:])
        unitarity, reconstruction = oracle_residuals(oracle)
        assert unitarity <= 1e-10 and reconstruction <= 1e-12

    @pytest.mark.parametrize("rank", [1, 3])
    def test_reconstruction_error_sees_another_state(self, monkeypatch, rank):
        # the reconstruction residual compares the executed query with the stored column:
        # a query that prepares another seed's state is far off while U stays unitary,
        # and reading it leaves the oracle's column as it was
        oracle = synthesize_instance(2, rank, 5)
        other = synthesize_instance(2, rank, 6)
        column = np.array(oracle.prepared_state)
        unitarity, own = oracle_residuals(oracle)
        assert unitarity <= 1e-10 and own <= 1e-12
        monkeypatch.setitem(linalg._FACTORS, oracle, linalg._householder(other))
        again, reconstruction = oracle_residuals(oracle)
        assert reconstruction > 1e-2 and again <= 1e-10
        assert np.array(oracle.prepared_state).tobytes() == column.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ancilla_is_the_least_that_holds_the_rank(self, k):
        # a rank-r instance has ceil(log2 r) ancilla qubits (a pure one none), and the
        # ancilla columns a sweep reads are those of g zero-padded to a k-qubit ancilla
        for rank in range(1, (1 << k) + 1):
            oracle = synthesize_instance(k, rank, 40 + rank)
            assert oracle.ancilla_qubits == (rank - 1).bit_length(), rank
            wide = padded_oracle(oracle)
            assert wide.ancilla_qubits == k
            assert wide._columns == oracle._columns
            assert len(oracle._columns) == rank

    @settings(database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_specs_are_deterministic_and_sound(self, data):
        k = data.draw(st.integers(1, 3), label="k")
        rank = data.draw(st.integers(1, 1 << k), label="rank")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        dm, oracle = sampled(k, rank, seed)
        dm2, oracle2 = sampled(k, rank, seed)
        assert np.array_equal(dm2.matrix, dm.matrix)
        assert np.array_equal(oracle2.prepared_state, oracle.prepared_state)
        assert oracle_residuals(oracle)[1] <= 1e-9


    @settings(database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_synthesized_state_is_a_valid_density_matrix(self, data):
        # a sweep builds no state; verify-identities reads the validated one from
        # synthesize_instance's column, which is the same on every draw, to the bit
        k = data.draw(st.integers(1, 4), label="k")
        rank = data.draw(st.integers(1, 1 << k), label="rank")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        oracle = synthesize_instance(k, rank, seed)
        dm = reduced_state(oracle)
        assert not dm.matrix.flags.writeable
        column = np.array(oracle.prepared_state)
        assert np.array(synthesize_instance(k, rank, seed).prepared_state).tobytes() == column.tobytes()
        assert np.max(np.abs(reduced_system_state(column, k) - dm.matrix)) <= 1e-12


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
        pure = total = 0
        for oracle in generated_oracles():
            total += 1
            reduced = reduced_state(oracle).matrix
            dense = np.trace(reduced @ reduced).real  # tr(rho^2), the dense reference
            assert abs(oracle.purity() - dense) <= 1e-14
            assert (oracle.purity() >= 1.0 - PURITY_ATOL) == (dense >= 1.0 - PURITY_ATOL)
            pure += dense >= 1.0 - PURITY_ATOL
        # both classes are covered: rank-1 and hard instances are pure
        assert 0 < pure < total

    @settings(database=None, deadline=None, max_examples=40)
    @given(
        k=st.integers(1, 3),
        rank_index=st.integers(0, 7),
        extra=st.integers(0, 2),
        seed=st.integers(0, (1 << 62) - 1),
    )
    def test_generated_columns_match_the_dense_purity(self, k, rank_index, extra, seed):
        # the synthesized column, and the same state's purification in a wider,
        # rotated ancilla basis, both give the dense tr(rho^2) within 1e-12
        rank = rank_index % (1 << k) + 1
        dm, oracle = sampled(k, rank, seed)
        rotated = ancilla_rotated(resized_oracle(dm, (rank - 1).bit_length() + extra), seed)
        dense = np.trace(dm.matrix @ dm.matrix).real
        for column in (oracle, rotated):
            assert abs(column.purity() - dense) <= 1e-12

    def test_each_rank_at_k3(self):
        for rank in range(1, 9):
            dm, oracle = sampled(3, rank, 40 + rank)
            assert abs(oracle.purity() - np.trace(dm.matrix @ dm.matrix).real) <= 1e-14
            assert (oracle.purity() >= 1.0 - PURITY_ATOL) == (rank == 1)


def test_householder_factors_are_built_on_first_apply():
    _, oracle = sampled(2, 3, 8)
    assert oracle not in linalg._FACTORS
    oracle.purity()
    reduced_state(oracle)
    assert oracle not in linalg._FACTORS
    u = oracle_unitary(oracle)
    factors = linalg._FACTORS[oracle]
    oracle_unitary(oracle)
    assert linalg._FACTORS[oracle] is factors  # built once per oracle, not once per apply
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
    with pytest.raises(ValueError, match="shape"):  # a (2^n, 1) column is not flattened
        PreparationOracle(np.ones((8, 1)) / math.sqrt(8.0), 1, 2, "U")
    with pytest.raises(ValueError, match="length 4 != 8"):
        PreparationOracle(np.ones(4) / 2, 1, 2, "U")


@pytest.mark.parametrize("column", [[1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]])
def test_preparation_oracle_rejects_non_unit_column(column):
    with pytest.raises(ValueError, match="norm"):
        PreparationOracle(np.array(column), 1, 0, "U")


def test_preparation_oracle_first_column_matches_purification():
    dm, _ = sampled(1, 2, 55)
    oracle = preparation_oracle(dm, "U")
    assert np.max(np.abs(oracle.prepared_state - purify(dm))) <= 1e-10


def test_preparation_oracle_is_frozen():
    _, oracle = pure_instance(1, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        oracle.label = "W"
