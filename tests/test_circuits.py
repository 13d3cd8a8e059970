"""Tests for circuit construction, execution, and flagged-amplitude analysis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import linalg
from fidest.circuits import (
    Circuit,
    FlagOnNonzero,
    Hadamard,
    OracleOp,
    RegisterLayout,
    RegisterSwap,
    build_encoding_circuit,
    build_flagged_encoding,
    build_restructured_encoding,
    build_swap_test,
)
from fidest.linalg import (
    DensityMatrix,
    _apply_op,
    analyze_flagged,
    execute,
    oracle_unitary,
    register_zero_probability,
)
from fidest.oracles import QubitCapExceeded
from fidest.reference import preparation_oracle
from fidest.reference import circuit_unitary

from conftest import mixed_instance, padded_oracle, pure_instance, resized_oracle, state_oracle


class TestRegisterLayout:
    def test_qubit_indexing(self):
        layout = RegisterLayout(("C", "A", "B"), (1, 2, 3))
        assert layout.total_qubits == 6
        assert layout.qubits("C") == [0]
        assert layout.qubits("A") == [1, 2]
        assert layout.qubits("B") == [3, 4, 5]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegisterLayout(("A", "A"), (1, 1))

    def test_rejects_a_size_per_name_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            RegisterLayout(("A",), (1, 2))

    def test_rejects_a_negative_size(self):
        with pytest.raises(ValueError, match=r"non-negative, got \(1, -1\)"):
            RegisterLayout(("A", "B"), (1, -1))

    def test_unknown_register(self):
        layout = RegisterLayout(("A",), (1,))
        with pytest.raises(ValueError, match="unknown register"):
            layout.qubits("B")


class TestExecute:
    def test_empty_circuit(self):
        circ = Circuit(RegisterLayout(("A",), (2,)), ())
        assert np.array_equal(execute(circ), np.eye(4)[0])

    def test_single_hadamard(self):
        circ = Circuit(RegisterLayout(("A",), (1,)), (Hadamard("A"),))
        assert np.allclose(execute(circ), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_qubit_cap(self):
        # checked before the 128 MiB state of 23 qubits is allocated
        circ = Circuit(RegisterLayout(("A",), (23,)), ())
        tracemalloc.start()
        try:
            with pytest.raises(QubitCapExceeded, match="23 qubits, cap is 22"):
                execute(circ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_ignores_the_environment(self, monkeypatch):
        # the cap is a constant: the old FIDEST_QUBIT_CAP override moves it neither way
        monkeypatch.setenv("FIDEST_QUBIT_CAP", "3")
        assert np.allclose(execute(Circuit(RegisterLayout(("A",), (4,)), ()))[0], 1.0)
        monkeypatch.setenv("FIDEST_QUBIT_CAP", "30")
        with pytest.raises(QubitCapExceeded, match="23 qubits, cap is 22$"):
            execute(Circuit(RegisterLayout(("A",), (23,)), ()))

    @pytest.mark.parametrize("kind", ["controlled", "controlled_inverse", "adjoint"])
    def test_oracle_op_is_plain_or_inverse(self, kind):
        # controlled kinds are tallies of a run's Grover steps, never executed ops
        _, u = pure_instance(1, 62)
        with pytest.raises(ValueError, match=f"plain or inverse, got '{kind}'"):
            OracleOp(u, kind, ("A", "B"))

    def test_unknown_op_raises(self):
        with pytest.raises(TypeError, match="unknown circuit op"):
            execute(Circuit(RegisterLayout(("A",), (1,)), (object(),)))

    def test_norm_drift_raises(self, monkeypatch):
        apply = linalg.apply_oracle

        def doubling(oracle, blocks, inverse=False):
            apply(oracle, blocks, inverse)
            blocks *= 2.0

        monkeypatch.setattr(linalg, "apply_oracle", doubling)
        u = state_oracle([0.6, 0.8])
        circ = Circuit(RegisterLayout(("A",), (1,)), (OracleOp(u, "plain", ("A",)),))
        with pytest.raises(RuntimeError, match="executed state norm drifted to ") as info:
            execute(circ)
        assert float(str(info.value).split()[-1]) == pytest.approx(2.0)

    def test_oracle_counters_match_shadow_count(self):
        _, u = mixed_instance(1, 2, 60)
        _, v = pure_instance(1, 61)
        circ = build_encoding_circuit(u, v)
        counted = sum(sum(kinds.values()) for kinds in circ.queries().values())
        assert counted == sum(isinstance(op, OracleOp) for op in circ.ops) == 3


class TestRegisterBlocks:
    """Ops address adjacent registers as one qubit block of the flat state."""

    @pytest.mark.parametrize(
        "layout,op",
        [
            (("A", "B", "A'", "B'"), lambda u: OracleOp(u, "plain", ("A", "A'"))),
            (("A", "B", "A'", "B'"), lambda u: OracleOp(u, "plain", ("B", "A"))),
            (("C", "A", "B"), lambda u: FlagOnNonzero("C", ("B",))),
            (("A", "C", "B"), lambda u: FlagOnNonzero("C", ("A", "B"))),
        ],
    )
    def test_non_adjacent_registers_raise(self, layout, op):
        _, u = mixed_instance(1, 2, 63)
        circ = Circuit(RegisterLayout(layout, (1,) * len(layout)), (op(u),))
        with pytest.raises(ValueError, match="adjacent"):
            execute(circ)

    def test_registers_narrower_than_oracle_raise(self):
        _, u = mixed_instance(1, 2, 64)  # one system and one ancilla qubit
        circ = Circuit(RegisterLayout(("A", "B"), (1, 1)), (OracleOp(u, "plain", ("A",)),))
        with pytest.raises(ValueError, match="too few"):
            execute(circ)

    @pytest.mark.parametrize("zero_ancilla,b", [(False, 1), (False, 3), (True, 0), (True, 2)])
    def test_padded_oracle_op_is_kron_with_identity(self, zero_ancilla, b):
        u = state_oracle([0.6, 0.8j], "U") if zero_ancilla else mixed_instance(1, 2, 65)[1]
        circ = Circuit(RegisterLayout(("A", "B"), (1, b)), (OracleOp(u, "plain", ("A", "B")),))
        pad = 1 + b - u.num_qubits
        expected = np.kron(oracle_unitary(u), np.eye(1 << pad))
        assert np.max(np.abs(circuit_unitary(circ) - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "names,sizes,swap",
        [
            (("C", "A", "A'"), (1, 2, 2), ("C", "A", "A'")),
            (("A", "C", "A'"), (1, 1, 1), ("C", "A", "A'")),  # control between the two
            (("A", "B", "C", "A'"), (2, 1, 1, 2), ("C", "A'", "A")),
            (("C", "A"), (1, 2), ("C", "A", "A")),  # a register swapped with itself
            (("A", "A'", "C"), (1, 1, 1), ("C", "A", "A'")),  # control after both
            (("A", "B", "A'", "B'"), (1, 2, 1, 2), (None, "B", "B'")),  # the encoding's, across A'
            (("C", "A", "B", "A'", "B'"), (1, 1, 0, 1, 0), (None, "B", "B'")),  # zero width
        ],
    )
    def test_register_swap_is_dense_permutation(self, names, sizes, swap):
        layout = RegisterLayout(names, sizes)
        control, first, second = swap
        n = layout.total_qubits
        expected = np.zeros((1 << n, 1 << n))
        for x in range(1 << n):
            bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
            if control is None or bits[layout.qubits(control)[0]]:
                for qa, qb in zip(layout.qubits(first), layout.qubits(second)):
                    bits[qa], bits[qb] = bits[qb], bits[qa]
            expected[int("".join(map(str, bits)), 2), x] = 1.0
        circ = Circuit(layout, (RegisterSwap(first, second, control),))
        assert np.array_equal(circuit_unitary(circ), expected)

    def test_swap_of_unequal_registers_raises(self):
        circ = Circuit(RegisterLayout(("A", "A'"), (1, 2)), (RegisterSwap("A", "A'"),))
        with pytest.raises(ValueError, match="cannot swap"):
            execute(circ)

    @pytest.mark.parametrize(
        "swap",
        [RegisterSwap("C", "A", control="C"), RegisterSwap("A", "A", control="A")],
        ids=["with-another", "with-itself"],
    )
    def test_controlled_swap_of_its_own_control_raises(self, swap):
        circ = Circuit(RegisterLayout(("C", "A"), (1, 1)), (swap,))
        with pytest.raises(ValueError, match="also swapped"):
            execute(circ)

    @pytest.mark.parametrize("register", ["A", "C"])
    def test_hadamard_is_kron_with_identity(self, register):
        layout = RegisterLayout(("A", "B", "C"), (1, 2, 1))
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        sizes = dict(zip(layout.names, layout.sizes))
        a, b, c = (h if name == register else np.eye(1 << sizes[name]) for name in layout.names)
        expected = np.kron(np.kron(a, b), c)
        circ = Circuit(layout, (Hadamard(register),))
        assert np.max(np.abs(circuit_unitary(circ) - expected)) <= 1e-15

    def test_hadamard_on_a_wide_register_raises(self):
        circ = Circuit(RegisterLayout(("A", "B", "C"), (1, 2, 1)), (Hadamard("B"),))
        with pytest.raises(ValueError, match="one qubit"):
            execute(circ)


class TestSwapTest:
    def test_identical_pure_states(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        circ = build_swap_test(state_oracle(psi, "U"), state_oracle(psi, "V"))
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        assert abs(pr0 - 1.0) <= 1e-10

    def test_orthogonal_states(self):
        circ = build_swap_test(
            state_oracle([0.0, 1.0], "U"), state_oracle([1.0, 0.0], "V")
        )
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        assert abs(pr0 - 0.5) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_outcome_law(self, seed):
        # Pr[x=0] = (1 + <psi|rho|psi>) / 2, checked against the dense oracle
        rho, u = mixed_instance(2, 3, 700 + seed)
        psi_dm, v = pure_instance(2, 800 + seed)
        circ = build_swap_test(u, v)
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        overlap = float(np.trace(rho.matrix @ psi_dm.matrix).real)
        assert abs(pr0 - (1.0 + overlap) / 2.0) <= 1e-10

    def test_size_mismatch(self):
        _, u = mixed_instance(1, 2, 1)
        _, v = pure_instance(2, 2)
        with pytest.raises(ValueError, match="mismatch"):
            build_swap_test(u, v)

    def test_query_cost_one_each(self):
        _, u = mixed_instance(1, 2, 1)
        _, v = pure_instance(1, 2)
        circ = build_swap_test(u, v)
        assert circ.queries() == {
            "U": {"plain": 1, "inverse": 0, "controlled": 0, "controlled_inverse": 0},
            "V": {"plain": 1, "inverse": 0, "controlled": 0, "controlled_inverse": 0},
        }


class TestEncodingCircuit:
    def test_identical_pure_states_flag_amplitude_one(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        dm = DensityMatrix(np.outer(psi, psi.conj()))
        circ = build_encoding_circuit(preparation_oracle(dm, "U"), preparation_oracle(dm, "V"))
        split = analyze_flagged(execute(circ), circ.layout, ("A", "B"))
        assert abs(split.flagged_amplitude - 1.0) <= 1e-10

    @pytest.mark.parametrize("k,seed", [(1, 0), (1, 3), (2, 1), (2, 4)])
    def test_pure_case_identity(self, k, seed):
        rho, u = mixed_instance(k, 2, 900 + seed)
        psi_dm, v = pure_instance(k, 950 + seed)
        circ = build_encoding_circuit(u, v)
        split = analyze_flagged(execute(circ), circ.layout, ("A", "B"))
        truth = float(np.trace(rho.matrix @ psi_dm.matrix).real)
        assert abs(split.flagged_amplitude**2 - truth) <= 1e-10

    def test_query_tally_one_u_two_v(self):
        _, u = mixed_instance(1, 2, 5)
        _, v = pure_instance(1, 6)
        circ = build_encoding_circuit(u, v)
        assert circ.queries() == {
            "U": {"plain": 1, "inverse": 0, "controlled": 0, "controlled_inverse": 0},
            "V": {"plain": 1, "inverse": 1, "controlled": 0, "controlled_inverse": 0},
        }

    def test_decomposition_consistency(self):
        rho, u = mixed_instance(2, 4, 33)
        _, v = pure_instance(2, 34)
        circ = build_encoding_circuit(u, v)
        state = execute(circ)
        split = analyze_flagged(state, circ.layout, ("A", "B"))
        assert abs(split.flagged_amplitude**2 + split.residual_norm**2 - 1.0) <= 1e-10
        # the residual component carries no weight in the good subspace
        n = circ.layout.total_qubits
        zq = circ.layout.qubits("A") + circ.layout.qubits("B")
        tens = state.reshape((2,) * n)
        moved = np.moveaxis(tens, zq, range(len(zq))).copy()
        flat = moved.reshape(1 << len(zq), -1)
        flat[0] = 0.0  # remove the flagged component
        residual = np.moveaxis(moved, range(len(zq)), zq).reshape(-1)
        re_split = analyze_flagged(residual, circ.layout, ("A", "B"))
        assert re_split.flagged_amplitude <= 1e-10

    def test_mismatched_ancillas_are_padded(self):
        rho, u = mixed_instance(1, 2, 44)  # one ancilla qubit
        v = state_oracle([1.0, 0.0], "V")  # zero ancilla qubits
        circ = build_encoding_circuit(u, v)
        assert len(circ.layout.qubits("B")) == len(circ.layout.qubits("B'")) == 1
        split = analyze_flagged(execute(circ), circ.layout, ("A", "B"))
        truth = float(rho.matrix[0, 0].real)  # <0|rho|0>
        assert abs(split.flagged_amplitude**2 - truth) <= 1e-10

    @settings(database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_identities_hold_for_any_ancilla_sizes(self, data):
        # each oracle's ancilla is rank-minimal, k-sized or oversized, chosen per side
        k = data.draw(st.integers(1, 2), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        def oracle(dm, rank, label):
            size = data.draw(st.sampled_from(("minimal", "k", "oversized")), label=f"{label} ancilla")
            a = {"minimal": (rank - 1).bit_length(), "k": k, "oversized": k + 1}[size]
            return resized_oracle(dm, a, label)

        r = data.draw(st.integers(1, 1 << k), label="rank rho")
        s = data.draw(st.integers(1, 1 << k), label="rank sigma")
        rho, sigma = mixed_instance(k, r, seed)[0], mixed_instance(k, s, seed + 1)[0]
        psi = pure_instance(k, seed + 2)[0]
        u, v, w = oracle(rho, r, "U"), oracle(psi, 1, "V"), oracle(sigma, s, "W")

        def amp2(circuit, registers=("A", "B")):
            return analyze_flagged(execute(circuit), circuit.layout, registers).flagged_amplitude ** 2

        pure = amp2(build_encoding_circuit(u, v))
        mixed = amp2(build_encoding_circuit(u, w))
        flagged = build_flagged_encoding(u, v)
        assert abs(pure - np.trace(rho.matrix @ psi.matrix).real) <= 1e-10
        assert abs(mixed - np.trace(rho.matrix @ sigma.matrix @ sigma.matrix).real) <= 1e-10
        assert abs(mixed - amp2(build_restructured_encoding(u, w), ("A'", "B'"))) <= 1e-10
        assert abs(register_zero_probability(execute(flagged), flagged.layout, ("C",)) - pure) <= 1e-10


class TestFlaggedEncoding:
    @pytest.mark.parametrize("seed", range(4))
    def test_flag_probability_equals_fidelity_squared(self, seed):
        rho, u = mixed_instance(2, 3, 1000 + seed)
        psi_dm, v = pure_instance(2, 1100 + seed)
        circ = build_flagged_encoding(u, v)
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        truth = float(np.trace(rho.matrix @ psi_dm.matrix).real)
        assert abs(pr0 - truth) <= 1e-10

    def test_perfect_fidelity_deterministic_flag(self):
        psi = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        dm = DensityMatrix(np.outer(psi, psi.conj()))
        circ = build_flagged_encoding(preparation_oracle(dm, "U"), preparation_oracle(dm, "V"))
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        assert abs(pr0 - 1.0) <= 1e-10

    def test_zero_fidelity_deterministic_flag(self):
        circ = build_flagged_encoding(
            state_oracle([0.0, 1.0], "U"), state_oracle([1.0, 0.0], "V")
        )
        pr0 = register_zero_probability(execute(circ), circ.layout, ("C",))
        assert pr0 <= 1e-10

    def test_two_bit_and_flag_views_agree(self):
        rho, u = mixed_instance(1, 2, 77)
        _, v = pure_instance(1, 78)
        plain = build_encoding_circuit(u, v)
        amp2 = analyze_flagged(execute(plain), plain.layout, ("A", "B")).flagged_amplitude ** 2
        flagged = build_flagged_encoding(u, v)
        pr0 = register_zero_probability(execute(flagged), flagged.layout, ("C",))
        assert abs(amp2 - pr0) <= 1e-10


def traced_peak(call):
    """Peak bytes the Python allocator holds during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def state_ratios(circ, kinds):
    """Run the circuit op by op on its flat state; each op of a listed type is
    applied once under tracemalloc.  Returns (op, peak / state bytes) pairs."""
    state = np.zeros((1 << circ.layout.total_qubits, 1), dtype=complex)
    state[0, 0] = 1.0
    ratios = []
    for op in circ.ops:
        if isinstance(op, kinds):
            ratios.append((op, traced_peak(lambda: _apply_op(op, state, circ.layout)) / state.nbytes))
        else:
            _apply_op(op, state, circ.layout)
    return ratios


def test_oracle_ops_write_into_the_state():
    # an oracle op acts on a view of the flat state: one rank-1 update
    # temporary on half the rows is its only state-sized allocation
    u, v = padded_oracle(mixed_instance(4, 3, 90)[1]), padded_oracle(pure_instance(4, 91)[1])
    ratios = state_ratios(build_flagged_encoding(u, v), OracleOp)  # 17 qubits, a 2 MiB state
    assert len(ratios) == 3
    for op, ratio in ratios:
        assert ratio <= 0.7, (op.kind, ratio)


def test_swap_test_gates_write_into_the_state():
    # H is an in-place butterfly on the two halves, and the controlled swap
    # writes into the control = 1 view from numpy's copy of that half
    u, v = padded_oracle(mixed_instance(4, 3, 92)[1]), padded_oracle(pure_instance(4, 93)[1])
    bounds = {Hadamard: 0.01, RegisterSwap: 0.51}
    ratios = state_ratios(build_swap_test(u, v), tuple(bounds))  # 17 qubits, a 2 MiB state
    assert [type(op) for op, _ in ratios] == [Hadamard, RegisterSwap, Hadamard]
    for op, ratio in ratios:
        assert ratio <= bounds[type(op)], (op, ratio)


def test_execute_holds_one_state():
    # the state and numpy's copy of an overlapping source (the uncontrolled
    # swap's or the flag fold's) are all execute holds at once
    u, v = padded_oracle(mixed_instance(4, 3, 90)[1]), padded_oracle(pure_instance(4, 91)[1])
    circ = build_flagged_encoding(u, v)
    assert circ.layout.total_qubits == 17
    peak = traced_peak(lambda: execute(circ))
    assert peak <= 2.05 * (16 << circ.layout.total_qubits), peak


class TestRestructuredEncoding:
    def test_maximally_mixed_second_state(self):
        rho, u = mixed_instance(1, 2, 88)
        half = DensityMatrix(np.eye(2) / 2)
        v = preparation_oracle(half, "V")
        circ = build_restructured_encoding(u, v)
        split = analyze_flagged(execute(circ), circ.layout, ("A'", "B'"))
        assert abs(split.flagged_amplitude**2 - 0.25) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_plain_encoding(self, seed):
        rho, u = mixed_instance(2, 3, 1200 + seed)
        sigma, v = mixed_instance(2, 2, 1300 + seed)
        plain = build_encoding_circuit(u, v)
        amp_plain = analyze_flagged(execute(plain), plain.layout, ("A", "B")).flagged_amplitude
        restr = build_restructured_encoding(u, v)
        amp_restr = analyze_flagged(execute(restr), restr.layout, ("A'", "B'")).flagged_amplitude
        assert abs(amp_plain**2 - amp_restr**2) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_case_identity(self, seed):
        rho, u = mixed_instance(2, 4, 1400 + seed)
        sigma, v = mixed_instance(2, 3, 1500 + seed)
        circ = build_restructured_encoding(u, v)
        split = analyze_flagged(execute(circ), circ.layout, ("A'", "B'"))
        truth = float(np.trace(rho.matrix @ sigma.matrix @ sigma.matrix).real)
        assert abs(split.flagged_amplitude**2 - truth) <= 1e-10


class TestAnalyzeFlagged:
    def test_identity_projector(self):
        layout = RegisterLayout(("A",), (2,))
        state = np.full(4, 0.5, dtype=complex)
        split = analyze_flagged(state, layout, ())
        assert abs(split.flagged_amplitude - 1.0) <= 1e-12
        assert split.residual_norm == 0.0

    def test_single_register_projection(self):
        layout = RegisterLayout(("A", "B"), (1, 1))
        state = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        split = analyze_flagged(state, layout, ("A",))
        assert abs(split.flagged_amplitude - np.sqrt(0.5)) <= 1e-12


@pytest.mark.parametrize(
    "build",
    [build_swap_test, build_encoding_circuit, build_flagged_encoding, build_restructured_encoding],
    ids=lambda build: build.__name__,
)
def test_circuit_unitary_matches_execution(build):
    _, u = mixed_instance(1, 2, 91)
    _, v = pure_instance(1, 92)
    circ = build(u, v)
    mat = circuit_unitary(circ)
    state = execute(circ)
    assert state.shape == (1 << circ.layout.total_qubits,)
    assert np.max(np.abs(mat[:, 0] - state)) <= 1e-12
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) <= 1e-10


def test_circuit_unitary_qubit_cap():
    # checked before the 4^n matrix is allocated
    with pytest.raises(QubitCapExceeded, match="13 qubits, cap is 12"):
        circuit_unitary(Circuit(RegisterLayout(("A",), (13,)), ()))
