"""Named-register circuits: immutable descriptions that ``fidest.linalg`` executes.

Registers are laid out most-significant first in a fixed order, typically
(C, A, B, A', B'): A and A' hold the two system states, B and B' their
purifying ancillas, C a one-qubit control/flag.  Circuits are immutable op
lists, and ``Circuit.queries`` reads the oracle queries of one run off the
op list: it is the one place a run's queries are counted, and it is what an
estimate's tallies start from.  This module imports no numpy, so a sweep
builds its circuits (for their checks and tallies) without loading it;
``fidest.linalg.execute`` runs a circuit on an exact statevector, for
verify-identities and the tests.

Two circuit families matter here.  The encoding circuit applies both
oracles side by side, swaps the ancilla registers, then undoes the second
oracle on the first pair; the squared amplitude left on the all-zeros A,B
subspace is <psi|rho|psi> when the second state is pure and tr(rho sigma^2)
in general.  The flagged variant folds "A,B all zeros" onto a single flag
qubit C with one projector-conditioned bit flip, giving the standard
amplitude-estimation interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracles import QUERY_KINDS, PreparationOracle


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
