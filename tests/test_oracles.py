"""Tests for state construction and oracle synthesis."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest.circuits import (
    Circuit,
    OracleOp,
    RegisterLayout,
    analyze_flagged,
    build_encoding_circuit,
    execute,
)
from fidest.linalg import DensityMatrix, unitarity_error, zero_state
from fidest.oracles import (
    INSTANCE_KINDS,
    PreparationOracle,
    RandomInstanceSpec,
    preparation_oracle,
    purified_channel_oracle,
    purify,
    sample_instance,
)
from fidest.reference import circuit_unitary, partial_trace

from conftest import mixed_instance, pure_instance, state_oracle


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

    def test_minimal_ancilla(self):
        # a rank-2 state on two qubits fits a one-qubit ancilla
        dm, _ = mixed_instance(2, 2, 410)
        col = purify(dm, ancilla_qubits=1)
        assert col.size == 4 * 2
        assert np.max(np.abs(reduced_system_state(col, 2) - dm.matrix)) <= 1e-9

    def test_minimal_ancilla_must_cover_rank(self):
        dm, _ = mixed_instance(2, 3, 411)
        with pytest.raises(ValueError, match="cannot purify"):
            purify(dm, ancilla_qubits=1)

    def test_oversized_ancilla(self):
        dm, _ = mixed_instance(1, 2, 412)
        col = purify(dm, ancilla_qubits=3)
        assert col.size == 2 * 8
        assert np.max(np.abs(reduced_system_state(col, 1) - dm.matrix)) <= 1e-9


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
        """Dense unitary of the ops of these kinds on layout (C, A, B, P); C controls,
        and every op spans the ``pad`` trailing qubits of P."""
        sizes = (1, oracle.system_qubits, oracle.ancilla_qubits, pad)
        ops = [
            OracleOp(oracle, k, ("C", "A", "B", "P") if k.startswith("controlled") else ("A", "B", "P"))
            for k in kinds
        ]
        return circuit_unitary(Circuit(RegisterLayout(("C", "A", "B", "P"), sizes), ops))

    def test_control_off_is_identity(self):
        for oracle, pad in self.cases():
            dim = 1 << (oracle.num_qubits + pad)
            for kind in ("controlled", "controlled_inverse"):
                cu = self.unitary_of(oracle, kind, pad=pad)
                # control clear: rows [I, 0] and column block [I; 0], bit for bit
                assert np.array_equal(cu[:dim], np.eye(dim, 2 * dim)), oracle.label
                assert np.array_equal(cu[:, :dim], np.eye(2 * dim, dim)), oracle.label

    def test_control_on_prepares_state(self):
        for oracle, pad in self.cases():
            u = np.kron(oracle.unitary, np.eye(1 << pad))
            dim, zero = u.shape[0], np.zeros(u.shape)
            for kind, on in (("plain", u), ("inverse", u.conj().T)):
                expected = np.block([[on, zero], [zero, on]])  # C is idle
                assert np.max(np.abs(self.unitary_of(oracle, kind, pad=pad) - expected)) <= 1e-12
            for kind, on in (("controlled", u), ("controlled_inverse", u.conj().T)):
                expected = np.block([[np.eye(dim), zero], [zero, on]])
                assert np.max(np.abs(self.unitary_of(oracle, kind, pad=pad) - expected)) <= 1e-12
            loaded = np.kron(oracle.prepared_state, zero_state(pad))
            expected = np.concatenate([np.zeros(dim), loaded])  # |1>|0...0> in
            assert np.max(np.abs(self.unitary_of(oracle, "controlled", pad=pad)[:, dim] - expected)) <= 1e-12

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
        u = preparation_oracle(dm, "U", ancilla_qubits=2)
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
        assert abs(dm.purity() - 1.0) <= 1e-10

    def test_full_rank_spectrum(self):
        dm, _ = sample_instance(RandomInstanceSpec(2, 4, 12, "ginibre_mixed"))
        w = np.linalg.eigvalsh(dm.matrix)
        assert w[0] >= -1e-12
        assert abs(np.sum(w) - 1.0) <= 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank"):
            RandomInstanceSpec(1, 3, 0, "ginibre_mixed")

    def test_haar_pure_requires_rank_one(self):
        with pytest.raises(ValueError, match="rank 1"):
            RandomInstanceSpec(2, 2, 0, "haar_pure")

    @pytest.mark.parametrize(
        "kind,rank", [("haar_pure", 1), ("ginibre_mixed", 2), ("ginibre_mixed", 4)]
    )
    def test_oracle_soundness(self, kind, rank):
        # every synthesized oracle: unitary, first column the purification,
        # reduced state reproducing the source
        dm, oracle = sample_instance(RandomInstanceSpec(2, rank, 99, kind))
        assert unitarity_error(oracle.unitary) <= 1e-10
        assert np.max(np.abs(purify(dm) - oracle.prepared_state)) <= 1e-10
        assert np.max(np.abs(oracle.reduced_state().matrix - dm.matrix)) <= 1e-9

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
