"""Named-register circuits executed on exact statevectors.

Registers are laid out most-significant first in a fixed order, typically
(C, A, B, A', B'): A and A' hold the two system states, B and B' their
purifying ancillas, C a one-qubit control/flag.  Circuits are immutable op
lists; ``execute`` runs them on |0...0>, and ``Circuit.queries`` reads the
oracle queries of one run off the op list.

The state is one flat (2^n, columns) array.  Every op acts on adjacent
registers of it, as one reshape to (2^first, 2^width, rest); identity
padding and control come from that block view, not from dense matrices.
An oracle op hands its (2^n_oracle, rest) block to the oracle's own
O(2^n_oracle)-per-column Householder apply; no oracle matrix is ever read.

Two circuit families matter here.  The encoding circuit applies both
oracles side by side, swaps the ancilla registers, then undoes the second
oracle on the first pair; the squared amplitude left on the all-zeros A,B
subspace is <psi|rho|psi> when the second state is pure and tr(rho sigma^2)
in general.  The flagged variant folds "A,B all zeros" onto a single flag
qubit C with one projector-conditioned bit flip, giving the standard
amplitude-estimation interface.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_STRUCT
from .oracles import QUERY_KINDS, PreparationOracle

DEFAULT_QUBIT_CAP = 22
QUBIT_CAP_ENV = "FIDEST_QUBIT_CAP"

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_GATES_1Q = {
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
}


class QubitCapExceeded(ValueError):
    """A circuit or operator would exceed the configured qubit cap."""


def qubit_cap() -> int:
    """Statevector qubit cap; override with the FIDEST_QUBIT_CAP env var."""
    raw = os.environ.get(QUBIT_CAP_ENV)
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{QUBIT_CAP_ENV}={raw!r} is not an integer") from exc


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; earlier registers are more significant."""

    names: tuple
    sizes: tuple

    def __post_init__(self):
        names = tuple(self.names)
        sizes = tuple(int(s) for s in self.sizes)
        if len(names) != len(sizes):
            raise ValueError("names and sizes differ in length")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        if any(s < 0 for s in sizes):
            raise ValueError(f"register sizes must be non-negative, got {sizes}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "sizes", sizes)

    @property
    def total_qubits(self) -> int:
        return sum(self.sizes)

    def size(self, name: str) -> int:
        return self.sizes[self.names.index(name)]

    def qubits(self, name: str) -> list:
        """Global qubit indices of a register (qubit 0 = most significant)."""
        if name not in self.names:
            raise ValueError(f"unknown register {name!r}; layout has {self.names}")
        i = self.names.index(name)
        offset = sum(self.sizes[:i])
        return list(range(offset, offset + self.sizes[i]))


@dataclass(frozen=True, eq=False)
class OracleOp:
    """One oracle invocation on adjacent registers in layout order (a one-qubit
    control register first for controlled kinds).  They may be wider than the
    oracle, which then leaves the extra trailing qubits untouched."""

    oracle: PreparationOracle
    kind: str
    registers: tuple

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")
        object.__setattr__(self, "registers", tuple(self.registers))


@dataclass(frozen=True)
class RegisterSwap:
    first: str
    second: str


@dataclass(frozen=True)
class ControlledRegisterSwap:
    control: str
    first: str
    second: str


@dataclass(frozen=True)
class Gate1Q:
    gate: str
    register: str

    def __post_init__(self):
        if self.gate not in _GATES_1Q:
            raise ValueError(f"unsupported gate {self.gate!r}")


@dataclass(frozen=True)
class FlagOnNonzero:
    """Flip the flag qubit on every basis state where the zero registers
    are not all zero: I (x) |0><0| + X (x) (I - |0><0|)."""

    flag_register: str
    zero_registers: tuple

    def __post_init__(self):
        object.__setattr__(self, "zero_registers", tuple(self.zero_registers))


@dataclass(frozen=True, eq=False)
class Circuit:
    layout: RegisterLayout
    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    def queries(self) -> dict:
        """{oracle label: {kind: count}} of one execution: each OracleOp is one query."""
        tally: dict = {}
        for op in self.ops:
            if isinstance(op, OracleOp):
                tally.setdefault(op.oracle.label, dict.fromkeys(QUERY_KINDS, 0))[op.kind] += 1
        return tally


@dataclass(frozen=True)
class FlaggedAmplitudeAnalysis:
    """Split of a state into its good-subspace component and the rest."""

    flagged_amplitude: float
    residual_norm: float


def _block(layout: RegisterLayout, names) -> tuple:
    """(first qubit, width) of registers that sit next to each other in layout order."""
    for name in names:
        layout.qubits(name)  # raises on an unknown register
    positions = [layout.names.index(name) for name in names]
    start, stop = positions[0], positions[0] + len(positions)
    if positions != list(range(start, stop)):
        raise ValueError(f"registers {tuple(names)} are not adjacent in layout order {layout.names}")
    return sum(layout.sizes[:start]), sum(layout.sizes[start:stop])


def _apply_block(state: np.ndarray, first: int, d: int, apply) -> np.ndarray:
    """``apply`` to the (d, rest) block of the qubits that start at ``first`` of a flat state."""
    block = state.reshape(1 << first, d, -1).swapaxes(0, 1).reshape(d, -1)
    return apply(block).reshape(d, 1 << first, -1).swapaxes(0, 1).reshape(state.shape)


def _controlled(state: np.ndarray, applied: np.ndarray, control: int) -> np.ndarray:
    """``state`` where qubit ``control`` is 0, ``applied`` where it is 1."""
    shape = (1 << control, 2, -1)
    on = np.array([False, True])[:, np.newaxis]
    return np.where(on, applied.reshape(shape), state.reshape(shape)).reshape(state.shape)


def _one_qubit(layout: RegisterLayout, name: str, role: str) -> int:
    first, width = _block(layout, (name,))
    if width != 1:
        raise ValueError(f"{role} register {name!r} must be one qubit")
    return first


def _swap(state: np.ndarray, layout: RegisterLayout, first: str, second: str) -> np.ndarray:
    (a, wa), (b, wb) = sorted((_block(layout, (first,)), _block(layout, (second,))))
    if first == second:
        return state
    if wa != wb:
        raise ValueError(f"cannot swap registers {first!r} and {second!r} of unequal size")
    d = 1 << wa
    parts = state.reshape(1 << a, d, 1 << (b - a - wa), d, -1)
    return parts.swapaxes(1, 3).reshape(state.shape)


def _apply_op(op, state, layout):
    if isinstance(op, OracleOp):
        first, width = _block(layout, op.registers)
        control = op.kind in ("controlled", "controlled_inverse")
        if control:
            _one_qubit(layout, op.registers[0], "control")
        if width - control < op.oracle.num_qubits:
            raise ValueError(
                f"oracle op on {op.registers} spans {width} qubits, too few for its oracle"
            )
        inverse = op.kind in ("inverse", "controlled_inverse")
        d = 1 << op.oracle.num_qubits
        applied = _apply_block(state, first + control, d, lambda block: op.oracle.apply(block, inverse))
        return _controlled(state, applied, first) if control else applied
    if isinstance(op, Gate1Q):
        first = _one_qubit(layout, op.register, "gate")
        return _apply_block(state, first, 2, lambda block: _GATES_1Q[op.gate] @ block)
    if isinstance(op, RegisterSwap):
        return _swap(state, layout, op.first, op.second)
    if isinstance(op, ControlledRegisterSwap):
        control = _one_qubit(layout, op.control, "control")
        return _controlled(state, _swap(state, layout, op.first, op.second), control)
    if isinstance(op, FlagOnNonzero):
        _one_qubit(layout, op.flag_register, "flag")
        first, width = _block(layout, (op.flag_register,) + op.zero_registers)
        # (flag, zero...) block: flip the flag on every nonzero zero-register value
        parts = state.reshape(1 << first, 2, 1 << (width - 1), -1)
        out = parts.copy()
        out[:, :, 1:] = parts[:, ::-1, 1:]
        return out.reshape(state.shape)
    raise TypeError(f"unknown circuit op {op!r}")


def execute(circuit: Circuit) -> np.ndarray:
    """Exact final statevector of the circuit from |0...0>."""
    n = circuit.layout.total_qubits
    cap = qubit_cap()
    if n > cap:
        raise QubitCapExceeded(f"circuit needs {n} qubits, cap is {cap} (override with {QUBIT_CAP_ENV})")
    state = np.zeros((1 << n, 1), dtype=complex)
    state[0, 0] = 1.0
    for op in circuit.ops:
        state = _apply_op(op, state, circuit.layout)
    state = state.reshape(-1)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > ATOL_STRUCT:
        raise RuntimeError(f"executed state norm drifted to {norm}")
    return state


def analyze_flagged(state: np.ndarray, layout: RegisterLayout, zero_registers) -> FlaggedAmplitudeAnalysis:
    """Norm split against the projector "these registers are all zero".

    An empty register list means the identity projector.  The flagged
    amplitude is the norm of the projected component, so for the encoding
    circuit with zero_registers=("A", "B") it equals the encoded overlap.
    The registers must sit next to each other in layout order.
    """
    zero_registers = tuple(zero_registers)
    first, width = _block(layout, zero_registers) if zero_registers else (0, 0)
    blocks = np.asarray(state, dtype=complex).reshape(1 << first, 1 << width, -1)
    # rows: the zero registers' value; columns: the other qubits in order
    rows = blocks.swapaxes(0, 1).reshape(1 << width, -1)
    flagged = float(np.linalg.norm(rows[0]))
    residual = float(np.linalg.norm(rows[1:]))
    return FlaggedAmplitudeAnalysis(flagged, residual)


def register_zero_probability(state, layout, registers) -> float:
    """Probability that measuring the given registers yields all zeros."""
    return analyze_flagged(state, layout, registers).flagged_amplitude ** 2


def _check_system_match(u: PreparationOracle, v: PreparationOracle) -> int:
    if u.system_qubits != v.system_qubits:
        raise ValueError(
            f"system size mismatch: {u.label!r} has {u.system_qubits} qubits, "
            f"{v.label!r} has {v.system_qubits}"
        )
    return u.system_qubits


def build_swap_test(rho_oracle: PreparationOracle, psi_oracle: PreparationOracle) -> Circuit:
    """SWAP test between the two prepared system states.

    One query to each oracle prepares the inputs; Hadamard, a controlled
    swap of the system registers, and a closing Hadamard leave
    Pr[C = 0] = (1 + tr(rho sigma)) / 2 on the control qubit.
    """
    k = _check_system_match(rho_oracle, psi_oracle)
    layout = RegisterLayout(
        ("C", "A", "B", "A'", "B'"),
        (1, k, rho_oracle.ancilla_qubits, k, psi_oracle.ancilla_qubits),
    )
    ops = (
        OracleOp(rho_oracle, "plain", ("A", "B")),
        OracleOp(psi_oracle, "plain", ("A'", "B'")),
        Gate1Q("H", "C"),
        ControlledRegisterSwap("C", "A", "A'"),
        Gate1Q("H", "C"),
    )
    return Circuit(layout, ops)


def _encoding(u: PreparationOracle, v: PreparationOracle, *tail) -> Circuit:
    """U on AB and V on A'B', both ancillas as wide as the larger one, then ``tail``."""
    k = _check_system_match(u, v)
    b = max(u.ancilla_qubits, v.ancilla_qubits)
    layout = RegisterLayout(("A", "B", "A'", "B'"), (k, b, k, b))
    prepare = (OracleOp(u, "plain", ("A", "B")), OracleOp(v, "plain", ("A'", "B'")))
    return Circuit(layout, prepare + tail)


def build_encoding_circuit(u: PreparationOracle, v: PreparationOracle) -> Circuit:
    """Amplitude-encoding circuit: (V^dag on AB) . SWAP_BB' . (U on AB, V on A'B').

    Costs one query to u and two to v per application.  The amplitude on
    the all-zeros A,B subspace squares to <psi|rho|psi> for a pure second
    state and to tr(rho sigma^2) in general.
    """
    return _encoding(u, v, RegisterSwap("B", "B'"), OracleOp(v, "inverse", ("A", "B")))


def build_flagged_encoding(u: PreparationOracle, v: PreparationOracle) -> Circuit:
    """Encoding circuit plus a flag step folding "A,B all zero" onto qubit C.

    The final state is amp |0>_C |0>_AB |phi> + sqrt(1 - amp^2) |1>_C |rest>,
    the single-flag-qubit form amplitude estimation consumes.
    """
    base = build_encoding_circuit(u, v)
    layout = RegisterLayout(("C",) + base.layout.names, (1,) + base.layout.sizes)
    ops = base.ops + (FlagOnNonzero("C", ("A", "B")),)
    return Circuit(layout, ops)


def build_restructured_encoding(u: PreparationOracle, v: PreparationOracle) -> Circuit:
    """Equivalent encoding that conjugates a system swap by the second oracle.

    V, SWAP_AA', V^dag returns A'B' to |0...0> on the good branch and leaves
    the second state's density operator applied to the first purification;
    post-selecting A'B' = 0 therefore flags the same squared amplitude as
    the plain encoding circuit.
    """
    return _encoding(u, v, RegisterSwap("A", "A'"), OracleOp(v, "inverse", ("A'", "B'")))
