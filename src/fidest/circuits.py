"""Named-register circuits executed on exact statevectors.

Registers are laid out most-significant first in a fixed order, typically
(C, A, B, A', B'): A and A' hold the two system states, B and B' their
purifying ancillas, C a one-qubit control/flag.  Circuits are immutable op
lists; ``execute`` runs them on |0...0> and tallies every oracle op on the
oracle it invokes.

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
from .oracles import QUERY_KINDS, PreparationOracle, invocation_unitary

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
    """One oracle invocation on the listed registers (control register first
    for controlled kinds); pad_qubits widens the ancilla by identity."""

    oracle: PreparationOracle
    kind: str
    registers: tuple
    pad_qubits: int = 0

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
    qubit: int = 0

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

    def oracle_op_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, OracleOp))


@dataclass(frozen=True)
class FlaggedAmplitudeAnalysis:
    """Split of a state into its good-subspace component and the rest."""

    flagged_amplitude: float
    residual_norm: float
    zero_registers: tuple


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, qubits: list) -> np.ndarray:
    m = len(qubits)
    moved = np.moveaxis(tensor, qubits, range(m))
    shape = moved.shape
    flat = moved.reshape(1 << m, -1)
    flat = mat @ flat
    return np.moveaxis(flat.reshape(shape), range(m), qubits)


def _apply_register_swap(tensor, layout, first, second):
    qa, qb = layout.qubits(first), layout.qubits(second)
    if len(qa) != len(qb):
        raise ValueError(f"cannot swap registers {first!r} ({len(qa)}q) and {second!r} ({len(qb)}q)")
    perm = list(range(tensor.ndim))
    for x, y in zip(qa, qb):
        perm[x], perm[y] = perm[y], perm[x]
    return tensor.transpose(perm)


def _apply_controlled_swap(tensor, layout, control, first, second):
    cq = layout.qubits(control)
    if len(cq) != 1:
        raise ValueError(f"control register {control!r} must be one qubit")
    cq = cq[0]
    qa, qb = layout.qubits(first), layout.qubits(second)
    if len(qa) != len(qb):
        raise ValueError(f"cannot swap registers {first!r} and {second!r} of unequal size")
    tensor = tensor.copy()
    idx = [slice(None)] * tensor.ndim
    idx[cq] = 1
    sub = tensor[tuple(idx)]
    adj = lambda q: q - 1 if q > cq else q
    perm = list(range(sub.ndim))
    for x, y in zip(qa, qb):
        x, y = adj(x), adj(y)
        perm[x], perm[y] = perm[y], perm[x]
    tensor[tuple(idx)] = sub.transpose(perm).copy()
    return tensor


def _apply_flag(tensor, layout, flag_register, zero_registers):
    fq = layout.qubits(flag_register)
    if len(fq) != 1:
        raise ValueError(f"flag register {flag_register!r} must be one qubit")
    zq = [q for name in zero_registers for q in layout.qubits(name)]
    front = fq + zq
    moved = np.moveaxis(tensor, front, range(len(front)))
    shape = moved.shape
    arr = moved.reshape(2, 1 << len(zq), -1).copy()
    swap = arr[0, 1:, :].copy()
    arr[0, 1:, :] = arr[1, 1:, :]
    arr[1, 1:, :] = swap
    return np.moveaxis(arr.reshape(shape), range(len(front)), front)


def _apply_op(op, tensor, layout, count_queries):
    if isinstance(op, OracleOp):
        qubits = [q for name in op.registers for q in layout.qubits(name)]
        mat = invocation_unitary(op.oracle, op.kind, op.pad_qubits)
        if (1 << len(qubits)) != mat.shape[0]:
            raise ValueError(
                f"oracle op on registers {op.registers} spans {len(qubits)} qubits "
                f"but its matrix is {mat.shape[0]}x{mat.shape[0]}"
            )
        if count_queries:
            op.oracle.record(op.kind)
        return _apply_matrix(tensor, mat, qubits)
    if isinstance(op, Gate1Q):
        q = layout.qubits(op.register)[op.qubit]
        return _apply_matrix(tensor, _GATES_1Q[op.gate], [q])
    if isinstance(op, RegisterSwap):
        return _apply_register_swap(tensor, layout, op.first, op.second)
    if isinstance(op, ControlledRegisterSwap):
        return _apply_controlled_swap(tensor, layout, op.control, op.first, op.second)
    if isinstance(op, FlagOnNonzero):
        return _apply_flag(tensor, layout, op.flag_register, op.zero_registers)
    raise TypeError(f"unknown circuit op {op!r}")


def execute(circuit: Circuit, count_queries: bool = True) -> np.ndarray:
    """Exact final statevector of the circuit from |0...0>.

    Every OracleOp executed increments the matching kind on its oracle's
    query counter unless ``count_queries`` is False (analysis-only runs).
    """
    n = circuit.layout.total_qubits
    cap = qubit_cap()
    if n > cap:
        raise QubitCapExceeded(f"circuit needs {n} qubits, cap is {cap} (override with {QUBIT_CAP_ENV})")
    tensor = np.zeros((1 << n, 1), dtype=complex).reshape((2,) * n + (1,))
    tensor[(0,) * n + (0,)] = 1.0
    for op in circuit.ops:
        tensor = _apply_op(op, tensor, circuit.layout, count_queries)
    state = tensor.reshape(-1)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > ATOL_STRUCT:
        raise RuntimeError(f"executed state norm drifted to {norm}")
    return state


def analyze_flagged(state: np.ndarray, layout: RegisterLayout, zero_registers) -> FlaggedAmplitudeAnalysis:
    """Norm split against the projector "these registers are all zero".

    An empty register list means the identity projector.  The flagged
    amplitude is the norm of the projected component, so for the encoding
    circuit with zero_registers=("A", "B") it equals the encoded overlap.
    """
    zero_registers = tuple(zero_registers)
    n = layout.total_qubits
    state = np.asarray(state, dtype=complex).reshape((2,) * n)
    zq = [q for name in zero_registers for q in layout.qubits(name)]
    if not zq:
        total = float(np.linalg.norm(state))
        return FlaggedAmplitudeAnalysis(total, 0.0, zero_registers)
    moved = np.moveaxis(state, zq, range(len(zq))).reshape(1 << len(zq), -1)
    flagged = float(np.linalg.norm(moved[0]))
    residual = float(np.linalg.norm(moved[1:]))
    return FlaggedAmplitudeAnalysis(flagged, residual, zero_registers)


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


def build_encoding_circuit(u: PreparationOracle, v: PreparationOracle) -> Circuit:
    """Amplitude-encoding circuit: (V^dag on AB) . SWAP_BB' . (U on AB, V on A'B').

    Costs one query to u and two to v per application.  The amplitude on
    the all-zeros A,B subspace squares to <psi|rho|psi> for a pure second
    state and to tr(rho sigma^2) in general.
    """
    k = _check_system_match(u, v)
    b = max(u.ancilla_qubits, v.ancilla_qubits)
    layout = RegisterLayout(("A", "B", "A'", "B'"), (k, b, k, b))
    ops = (
        OracleOp(u, "plain", ("A", "B"), pad_qubits=b - u.ancilla_qubits),
        OracleOp(v, "plain", ("A'", "B'"), pad_qubits=b - v.ancilla_qubits),
        RegisterSwap("B", "B'"),
        OracleOp(v, "inverse", ("A", "B"), pad_qubits=b - v.ancilla_qubits),
    )
    return Circuit(layout, ops)


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
    k = _check_system_match(u, v)
    b = max(u.ancilla_qubits, v.ancilla_qubits)
    layout = RegisterLayout(("A", "B", "A'", "B'"), (k, b, k, b))
    ops = (
        OracleOp(u, "plain", ("A", "B"), pad_qubits=b - u.ancilla_qubits),
        OracleOp(v, "plain", ("A'", "B'"), pad_qubits=b - v.ancilla_qubits),
        RegisterSwap("A", "A'"),
        OracleOp(v, "inverse", ("A'", "B'"), pad_qubits=b - v.ancilla_qubits),
    )
    return Circuit(layout, ops)
