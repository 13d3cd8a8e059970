"""Named-register circuits executed on exact statevectors.

Registers are laid out most-significant first in a fixed order, typically
(C, A, B, A', B'): A and A' hold the two system states, B and B' their
purifying ancillas, C a one-qubit control/flag.  Circuits are immutable op
lists; ``execute`` runs them on |0...0>, and ``Circuit.queries`` reads the
oracle queries of one run off the op list.

``execute`` holds one 1-D state of 2^n amplitudes and every op writes into
it; each op's view ends in a -1 axis, so the ops also act on a (2^n, columns)
array.  H, oracle and flag ops reshape it to (2^first, 2^width, rest) around
adjacent registers, so identity padding comes from that block view, not from
dense matrices; an oracle op calls the oracle plain or inverse, by its
O(2^n_oracle)-per-column Householder apply (controlled queries are only
tallies, which ``fidest.estimation._query_tally`` fills).  A register swap
views the state with one axis per register and exchanges two of them, under
a control on the control = 1 half only, by one path for every swap.  Each op
is one or two elementwise passes, and no op makes a BLAS call, which OpenBLAS
would thread on a large state.

Two circuit families matter here.  The encoding circuit applies both
oracles side by side, swaps the ancilla registers, then undoes the second
oracle on the first pair; the squared amplitude left on the all-zeros A,B
subspace is <psi|rho|psi> when the second state is pure and tr(rho sigma^2)
in general.  The flagged variant folds "A,B all zeros" onto a single flag
qubit C with one projector-conditioned bit flip, giving the standard
amplitude-estimation interface.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_STRUCT
from .oracles import QUERY_KINDS, PreparationOracle

QUBIT_CAP = 22  # a 22-qubit statevector is 64 MiB

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _hadamard(parts: np.ndarray) -> None:
    """H on axis 1 of a (pre, 2, post) array, in place: the butterfly (a +- b)/sqrt(2).

    a + b is exact to rounding; b becomes (a + b) - 2b, which is a - b to
    one more rounding."""
    a, b = parts[:, 0], parts[:, 1]
    a += b
    b *= -2.0
    b += a
    parts *= _SQRT_HALF


class QubitCapExceeded(ValueError):
    """A circuit or operator would exceed its qubit cap."""


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

    def qubits(self, name: str) -> list:
        """Global qubit indices of a register (qubit 0 = most significant)."""
        if name not in self.names:
            raise ValueError(f"unknown register {name!r}; layout has {self.names}")
        i = self.names.index(name)
        offset = sum(self.sizes[:i])
        return list(range(offset, offset + self.sizes[i]))


@dataclass(frozen=True, eq=False)
class OracleOp:
    """One plain or inverse oracle invocation on adjacent registers in layout order.
    They may be wider than the oracle, which then leaves the extra trailing qubits
    untouched.  No op is a controlled query: the controlled ``QUERY_KINDS`` tally a
    run's Grover steps, which only ``fidest.estimation._query_tally`` counts."""

    oracle: PreparationOracle
    kind: str
    registers: tuple

    def __post_init__(self):
        if self.kind not in ("plain", "inverse"):
            raise ValueError(f"oracle op kind must be plain or inverse, got {self.kind!r}")
        object.__setattr__(self, "registers", tuple(self.registers))


@dataclass(frozen=True)
class RegisterSwap:
    """Swap two equal-size registers; with a one-qubit control register, on its
    control = 1 half only."""

    first: str
    second: str
    control: str | None = None


@dataclass(frozen=True)
class Hadamard:
    register: str


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


@functools.lru_cache
def _block(layout: RegisterLayout, names: tuple) -> tuple:
    """(first qubit, width) of registers that sit next to each other in layout order.

    Cached: a layout and a register tuple are frozen values, so each op's
    geometry is resolved once; a failed check raises again on every call."""
    for name in names:
        layout.qubits(name)  # raises on an unknown register
    positions = [layout.names.index(name) for name in names]
    start, stop = positions[0], positions[0] + len(positions)
    if positions != list(range(start, stop)):
        raise ValueError(f"registers {tuple(names)} are not adjacent in layout order {layout.names}")
    return sum(layout.sizes[:start]), sum(layout.sizes[start:stop])


def _one_qubit(layout: RegisterLayout, name: str, role: str) -> int:
    first, width = _block(layout, (name,))
    if width != 1:
        raise ValueError(f"{role} register {name!r} must be one qubit")
    return first


@functools.lru_cache
def _swap_geometry(layout: RegisterLayout, first: str, second: str, control=None):
    """A register swap's view of the state, ``(shape, axis, axis, on)``: one axis per
    register and then the rest, and ``on`` indexes the half where a one-qubit
    control is 1 (``()`` without one).  Swapping a register with itself, or two
    zero-width registers (length-1 axes), leaves the state as it was."""
    if control is not None:
        _one_qubit(layout, control, "control")
    (_, width), (_, other) = _block(layout, (first,)), _block(layout, (second,))
    if width != other:
        raise ValueError(f"cannot swap registers {first!r} and {second!r} of unequal size")
    if control in (first, second):
        raise ValueError(f"control register {control!r} is also swapped")
    shape = tuple(1 << size for size in layout.sizes) + (-1,)
    on = () if control is None else (slice(None),) * layout.names.index(control) + (1,)
    return shape, layout.names.index(first), layout.names.index(second), on


def _apply_op(op, state, layout) -> None:
    """Apply one op in place to the state: 2^n amplitudes, or a (2^n, columns) array."""
    if isinstance(op, OracleOp):
        first, width = _block(layout, op.registers)
        n = op.oracle.num_qubits
        if width < n:
            raise ValueError(
                f"oracle op on {op.registers} spans {width} qubits, too few for its oracle"
            )
        op.oracle.apply(state.reshape(1 << first, 1 << n, -1), op.kind == "inverse")
    elif isinstance(op, Hadamard):
        first = _one_qubit(layout, op.register, "gate")
        _hadamard(state.reshape(1 << first, 2, -1))
    elif isinstance(op, RegisterSwap):
        shape, a, b, on = _swap_geometry(layout, op.first, op.second, op.control)
        parts = state.reshape(shape)
        # numpy copies the overlapping swapped source before it writes
        parts[on] = parts.swapaxes(a, b)[on]
    elif isinstance(op, FlagOnNonzero):
        _one_qubit(layout, op.flag_register, "flag")
        first, width = _block(layout, (op.flag_register,) + op.zero_registers)
        # (flag, zero...) block: flip the flag on every nonzero zero-register value
        parts = state.reshape(1 << first, 2, 1 << (width - 1), -1)
        parts[:, :, 1:] = parts[:, ::-1, 1:]
    else:
        raise TypeError(f"unknown circuit op {op!r}")


def _norm(x: np.ndarray) -> float:
    """2-norm of a complex array with a contiguous last axis, as an einsum over
    its real view: np.linalg.norm is a BLAS dot, which OpenBLAS threads on a
    large state (see fidest.linalg)."""
    r = x.view(np.float64)
    axes = list(range(r.ndim))
    return math.sqrt(np.einsum(r, axes, r, axes, []))


def execute(circuit: Circuit) -> np.ndarray:
    """Exact final statevector of the circuit from |0...0>."""
    n = circuit.layout.total_qubits
    if n > QUBIT_CAP:
        raise QubitCapExceeded(f"circuit needs {n} qubits, cap is {QUBIT_CAP}")
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for op in circuit.ops:
        _apply_op(op, state, circuit.layout)
    norm = _norm(state)
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
    # axis 1 holds the zero registers' value
    blocks = np.ascontiguousarray(state, dtype=complex).reshape(1 << first, 1 << width, -1)
    flagged = _norm(blocks[:, 0])
    residual = _norm(blocks[:, 1:])
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
        Hadamard("C"),
        RegisterSwap("A", "A'", control="C"),
        Hadamard("C"),
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
