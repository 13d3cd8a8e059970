"""The package's numpy side: dense states and operators, and exact statevector execution.

Conventions, fixed package-wide:

- Big-endian qubit order: qubit 0 is the most significant bit of a basis
  index, so register order matches Kronecker-product order (first factor
  most significant).
- Matrices are row-major; statevectors are 1-D complex arrays.
- Structural invariants (norm, Hermiticity, unitarity, trace, positivity)
  are held to ``ATOL_STRUCT`` (``fidest.oracles``), written as
  ``not x <= tol`` so that a NaN or infinite entry fails them too.

The tolerance leaves ample double-precision headroom at the scales this
package targets (statevectors up to 2**22 entries, operator matrices up to
a few thousand rows).

This is the one production module that imports numpy.  It holds
``DensityMatrix``, the circuit executor (``execute``: each op acts in place
on the one 1-D state), an oracle's Householder completion (``apply_oracle``,
``oracle_unitary``) and reduced state (``reduced_state``, the one rule that
turns a column into its state), the dense references verify-identities checks
against, and the whole hard family: its input rule (``check_hard_family``),
its rank weights (``hard_pair``) and its closed-form Hellinger distance.  verify-identities and
hard-instance (whose config is checked by ``check_hard_family``) import it
when they run; ``sweep`` and ``single`` never load it, so their outputs rest on
SHAKE-128, libm and ``math.fsum`` alone.

No BLAS on an output path.  A sweep's and a single estimate's outputs never
reach numpy.  Executed circuit ops and ``apply_oracle`` make no BLAS product
(``@``, ``matmul``, ``dot``, ``tensordot``) and no level-1 BLAS call over a
whole state (``norm``, ``vdot``): OpenBLAS hands even small products, and dots
over a large state, to threads that spin on the shared cores; per-column
``np.vecdot`` stays on one thread below ~10^4 entries.  verify-identities
still reads BLAS or LAPACK on k-qubit matrices, which can move the last
digits of its printed residuals from one BLAS kernel to another:
``_system_matrix`` (in ``reduced_state`` and ``oracle_residuals``),
``exact_tr_rho_sigma2``, the Householder factors' ``vdot`` and ``DensityMatrix``.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, FlagOnNonzero, Hadamard, OracleOp, RegisterLayout, RegisterSwap
from .oracles import (
    ATOL_STRUCT,
    QUBIT_CAP,
    PreparationOracle,
    QubitCapExceeded,
    check_instance_size,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _hermiticity_error(mat: np.ndarray) -> float:
    """Max-entry deviation of M from M^dag; NaN or inf for a non-finite or
    overflowing M, without a warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(mat - mat.conj().T)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, PSD, power-of-two dim."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 1 or dim & (dim - 1):
            raise ValueError(f"density matrix dimension {dim} is not a power of two")
        herm = _hermiticity_error(mat)
        if not herm <= ATOL_STRUCT:
            raise ValueError(f"density matrix not Hermitian (max deviation {herm:.3e})")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= ATOL_STRUCT:
            raise ValueError(f"density matrix trace {tr} is not 1")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if not wmin >= -ATOL_STRUCT:
            raise ValueError(f"density matrix not PSD (min eigenvalue {wmin:.3e})")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __array__(self, dtype=None, copy=None):
        """The validated matrix, so numpy reads a DensityMatrix as its array."""
        return np.array(self.matrix, dtype=dtype, copy=copy)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1


#: oracle -> its Householder factors (v, tau, d), built on the oracle's first application
_FACTORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _householder(oracle: PreparationOracle) -> tuple:
    """(v, tau, d) of U = (I - tau v v^dag) diag(d, 1, ...) (Golub and Van Loan,
    Matrix Computations, 5.1.3): v = e0 - conj(d) col maps d e0 to col, and
    d = -col[0]/|col[0]| (-1 if 0) makes v[0] = 1 + |col[0]| >= 1, so tau needs
    no guard.  tau = 2/||v||^2, not 1/(1 + |col[0]|), keeps H an exact
    reflection for any column norm within ATOL_STRUCT of 1.  Built once per oracle."""
    factors = _FACTORS.get(oracle)
    if factors is None:
        col = np.array(oracle.prepared_state, dtype=complex)
        r = abs(col[0])
        d = -col[0] / r if r else complex(-1.0)
        v = -np.conj(d) * col
        v[0] += 1.0
        tau = 2.0 / float(np.vdot(v, v).real)
        v.flags.writeable = False
        factors = _FACTORS[oracle] = (v, tau, d)
    return factors


def apply_oracle(oracle: PreparationOracle, blocks: np.ndarray, inverse: bool = False) -> None:
    """U (or U^dag) along axis 1 of a (pre, 2^num_qubits, post) array, in place,
    as one dot pass and one update pass, after a scale of row 0 by d (or
    before one by conj(d), for U^dag)."""
    v, tau, d = _householder(oracle)
    if not inverse:
        blocks[:, 0] *= d
    # v^dag x per column: one short dot each, never a BLAS product
    w = np.vecdot(v, blocks.swapaxes(1, 2))[:, np.newaxis]
    tv = (tau * v)[:, np.newaxis]
    # the rank-one update runs on two contiguous halves (of the leading
    # axis, or of the rows if that axis has length 1): a whole-size
    # product, with numpy's broadcast buffers, is freed at the top of the
    # heap, where glibc trims it and faults it back in on the next op
    h = len(blocks) // 2
    if h:
        for a in (slice(None, h), slice(h, None)):
            blocks[a] -= tv * w[a]
    else:
        h = len(v) // 2
        for i in (slice(None, h), slice(h, None)):
            blocks[:, i] -= tv[i] * w
    if inverse:
        blocks[:, 0] *= np.conj(d)


def oracle_unitary(oracle: PreparationOracle) -> np.ndarray:
    """Dense U, built on request: the oracle applied in place to the identity."""
    u = np.eye(1 << oracle.num_qubits, dtype=complex)
    apply_oracle(oracle, u[np.newaxis])
    return u


def _system_matrix(column: np.ndarray, system_qubits: int) -> np.ndarray:
    """tr_B|c><c| = M M^dag of a column c read as M, 2^system rows by 2^ancilla columns, made
    exactly Hermitian: the one rule that turns a column into its system state."""
    m = column.reshape(1 << system_qubits, -1)
    rho = m @ m.conj().T
    return 0.5 * (rho + rho.conj().T)


def reduced_state(oracle: PreparationOracle) -> DensityMatrix:
    """Density matrix of the system register of the oracle's prepared state."""
    return DensityMatrix(_system_matrix(np.array(oracle.prepared_state, dtype=complex), oracle.system_qubits))


def _hadamard(parts: np.ndarray) -> None:
    """H on axis 1 of a (pre, 2, post) array, in place: the butterfly (a +- b)/sqrt(2).

    a + b is exact to rounding; b becomes (a + b) - 2b, which is a - b to
    one more rounding."""
    a, b = parts[:, 0], parts[:, 1]
    a += b
    b *= -2.0
    b += a
    parts *= _SQRT_HALF


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
        apply_oracle(op.oracle, state.reshape(1 << first, 1 << n, -1), op.kind == "inverse")
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
    large state (see the module docstring)."""
    r = x.view(np.float64)
    axes = list(range(r.ndim))
    return math.sqrt(np.einsum(r, axes, r, axes, []))


def execute(circuit: Circuit) -> np.ndarray:
    """Exact final statevector of the circuit from |0...0>.

    One 1-D state of 2^n amplitudes is held and every op writes into it; each
    op's view ends in a -1 axis, so the ops also act on a (2^n, columns) array.
    H, oracle and flag ops reshape it to (2^first, 2^width, rest) around
    adjacent registers, so identity padding comes from that block view, not
    from dense matrices; an oracle op calls ``apply_oracle`` plain or inverse,
    O(2^n_oracle) per column (controlled queries are only tallies, which
    ``fidest.estimation._query_tally`` fills).  A register swap views the state
    with one axis per register and exchanges two of them, under a control on
    the control = 1 half only, by one path for every swap.  Each op is one or
    two elementwise passes, and no op makes a BLAS call, which OpenBLAS would
    thread on a large state.
    """
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


@dataclass(frozen=True)
class FlaggedAmplitudeAnalysis:
    """Split of a state into its good-subspace component and the rest."""

    flagged_amplitude: float
    residual_norm: float


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


def oracle_residuals(oracle: PreparationOracle, state: DensityMatrix) -> tuple:
    """(max|U^dag U - I|, max|tr_B(U|0><0|U^dag) - rho|) of the dense U, taken through the
    oracle's own queries, against the state it should prepare.

    U is the plain query applied to the identity, so its column 0 is the executed
    U|0...0>, not the stored column, and the reconstruction residual is read from it
    before the inverse query overwrites U.  The inverse query applied to U gives
    U^dag U, and the inverse query is checked against U's conjugate transpose; the
    unitarity residual is the larger of the two deviations, so a non-unitary U fails
    even if the inverse query compensated for it.  Each query acts in place, in
    O(4^n), on U or on one n-qubit identity buffer; no BLAS product.
    """
    u = oracle_unitary(oracle)
    rho = _system_matrix(u[:, 0], oracle.system_qubits)
    reconstruction = float(np.max(np.abs(rho - state.matrix)))
    work = np.eye(len(u), dtype=complex)
    apply_oracle(oracle, work[np.newaxis], inverse=True)
    np.conjugate(work, out=work)
    work -= u.T  # the conjugate of (inverse query) - U^dag
    adjoint = float(np.max(np.abs(work)))
    apply_oracle(oracle, u[np.newaxis], inverse=True)
    u.reshape(-1)[:: len(u) + 1] -= 1.0  # U^dag U - I
    return max(float(np.max(np.abs(u))), adjoint), reconstruction


def exact_tr_rho_sigma2(rho, sigma) -> float:
    """tr(rho sigma^2) from the dense matrices, clamped to [0, 1]; equals <psi|rho|psi> when
    sigma is pure.  The reference the column contraction ``fidest.oracles.pair_traces`` is
    checked against; rho and sigma are DensityMatrix values or arrays."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if len(rho) != len(sigma):
        raise ValueError(f"dimension mismatch: {len(rho)} vs {len(sigma)}")
    val = float(np.trace(rho @ sigma @ sigma).real)
    return min(max(val, 0.0), 1.0)


def hellinger_distance(p, q) -> float:
    """sqrt(1/2 sum_j (sqrt(p_j) - sqrt(q_j))^2) for two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return math.sqrt(0.5 * float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def _check_hard_pair_weights(p: float, eps: float) -> None:
    if not (0.0 < p + eps < 1.0 and 0.0 < p - eps < 1.0):
        raise ValueError(f"p={p} with epsilon={eps} leaves (0, 1)")


def check_hard_family(p: float, eps: float, rank: int, k: int) -> None:
    """The one check of a hard-family member: its size, rank >= 2 and first weights p +- eps in (0, 1)."""
    check_instance_size(k, rank)
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    _check_hard_pair_weights(p, eps)


def hard_pair_hellinger(p: float, eps: float) -> float:
    """Closed-form Hellinger distance between the +/- loading distributions.

    H^2 = 1 - sqrt(p^2 - eps^2) - sqrt((1-p)^2 - eps^2), independent of rank,
    summed as x - sqrt(x^2 - eps^2) = eps^2 / (x + sqrt(x^2 - eps^2)) over
    x = p and 1 - p: two positive terms, so nothing cancels as eps -> 0.
    """
    _check_hard_pair_weights(p, eps)
    squared = sum(eps * eps / (x + math.sqrt((x - eps) * (x + eps))) for x in (p, 1.0 - p))
    return math.sqrt(squared)


def hard_pair(p: float, eps: float, rank: int, k: int) -> tuple:
    """The +/- members' weights, each ``rank`` long, of the rank-r adversarial family against
    |0> on k qubits (check_hard_family): w[0] = p +- eps, and the other rank - 1 share the rest.

    A member's oracle loads sqrt(w) directly (zero-size ancilla), so its fidelity to |0> is
    sqrt(w[0]) = sqrt(p +- eps) exactly, while the pair's loading distributions sit at
    Hellinger distance O(eps); every later weight of the 2^k outcomes is zero in both.
    """
    check_hard_family(p, eps, rank, k)
    pair = []
    for sign in (1, -1):
        weights = np.empty(rank)
        weights[0] = p + sign * eps
        weights[1:] = (1.0 - p - sign * eps) / (rank - 1)
        pair.append(weights)
    return tuple(pair)
