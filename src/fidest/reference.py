"""Brute-force dense references that the tests check the production path against.

Nothing in the estimators or the CLI imports this module: the executed
flag probability, the dense circuit unitary, the full 2^m phase-estimation
outcome grid, closed-form and executed through the Grover steps, the
partial trace of a dense matrix, Uhlmann fidelity and the eigh purification
cost time and memory that grow with the state, the operator or 2^m.  The
dense unitarity residual and the fidelity to a pure state are references the
tests compare against too.  It is the only module of the package that calls
``eigh``.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, OracleOp
from .linalg import DensityMatrix, _apply_op, _hermiticity_error, execute, register_zero_probability
from .oracles import ATOL_STRUCT, PreparationOracle, QubitCapExceeded

#: Qubit cap for materializing a dense circuit unitary (a 4^n matrix).
UNITARY_MAX_QUBITS = 12


def unitarity_error(u: np.ndarray) -> float:
    """Max-entry deviation of U^dag U from the identity."""
    u = np.asarray(u, dtype=complex)
    # a non-finite or overflowing U reads NaN or inf, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def exact_fidelity_to_pure(rho: DensityMatrix, psi: np.ndarray) -> float:
    """sqrt(<psi|rho|psi>), the fidelity of rho to the pure state psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != rho.dim:
        raise ValueError(f"state length {psi.size} != density matrix dim {rho.dim}")
    val = float(np.real(np.vdot(psi, rho.matrix @ psi)))
    return math.sqrt(min(max(val, 0.0), 1.0))


def herm_eig(mat: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as columns, so ``mat = V @ diag(w) @ V.conj().T``.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dev = _hermiticity_error(mat)
    if not dev <= ATOL_STRUCT:
        raise ValueError(f"matrix is not Hermitian (max |M - M^dag| = {dev:.3e})")
    return np.linalg.eigh(mat)


def purify(rho: DensityMatrix) -> np.ndarray:
    """Unit column of the canonical purification of ``rho`` (system qubits most
    significant, then an ancilla of the system's size): eigenvectors paired
    with ancilla basis states in descending eigenvalue order, so a pure input
    purifies to |psi>|0>."""
    w, v = herm_eig(rho.matrix)
    w = np.clip(w[::-1], 0.0, None)
    return (v[:, ::-1] * np.sqrt(w)).ravel()


def preparation_oracle(rho: DensityMatrix, label: str = "U") -> PreparationOracle:
    """Synthesize a preparation oracle for ``rho`` (ancilla = system size)."""
    return PreparationOracle(purify(rho), rho.num_qubits, rho.num_qubits, label)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (analysis only)."""
    n = circuit.layout.total_qubits
    if n > UNITARY_MAX_QUBITS:
        raise QubitCapExceeded(f"circuit unitary needs {n} qubits, cap is {UNITARY_MAX_QUBITS}")
    state = np.eye(1 << n, dtype=complex)
    for op in circuit.ops:
        _apply_op(op, state, circuit.layout)
    return state


def flag_probability(preparer: Circuit, flag_register: str) -> float:
    """Pr[flag = 0] of the executed preparer; Estimator.bind takes it in closed form from the columns."""
    p = register_zero_probability(execute(preparer), preparer.layout, (flag_register,))
    return min(max(p, 0.0), 1.0)


def qpe_grid_distribution(phases, weights, m: int) -> np.ndarray:
    """Exact QPE outcome distribution for a weighted mixture of eigenphases.

    ``phases`` are eigenphase fractions in [0, 1); ``weights`` their
    (non-negative) probabilities.  Returns the length-2^m probability
    vector of the readout register.
    """
    M = 1 << m
    y = np.arange(M, dtype=float)
    probs = np.zeros(M, dtype=float)
    for omega, w in zip(np.atleast_1d(phases), np.atleast_1d(weights)):
        # r = M omega - y reduced to [-M/2, M/2].  Near the peak, where the
        # kernel is most sensitive to r, the subtraction and the reduction
        # are both exact; omega - y/M, or a reduction into [0, M), would
        # round there.
        r = M * float(omega) - y
        r -= M * np.round(r / M)
        # sin(pi r) is evaluated at r reduced to [-1, 1] by an even integer, which
        # is exact and keeps a small |r| small: r mod 2 would turn r = -1e-10
        # into 2 - 1e-10 and lose six digits of sin(pi r) to rounding.
        num = np.sin(np.pi * (r - 2.0 * np.round(r / 2.0)))
        den = M * np.sin(np.pi * r / M)
        on_grid = r == 0.0
        den[on_grid] = 1.0
        kern = (num / den) ** 2
        kern[on_grid] = 1.0
        probs += float(w) * kern
    total = probs.sum()
    if not total > 0.0:
        raise ValueError("QPE distribution has zero mass; check phases/weights")
    return probs / total


def executed_qpe_distribution(preparer: Circuit, flag_register: str, m: int) -> np.ndarray:
    """QPE readout law of the Grover operator Q = A S0 A^dag S_good, executed step by step.

    S_good = I - 2 Pi negates the flag = 0 half and S0 = 2|0><0| - I
    reflects about the all-zeros input (Brassard-Hoyer-Mosca-Tapp), so the
    eigenphases on the prepared-state plane are +-2 arcsin(sqrt(p)).  H on
    every readout qubit and the controlled Q^(2^j) leave
    sum_t |t> Q^t A|0> / sqrt(M): the 2^m - 1 steps run through the
    executor, and the inverse QFT on the readout is an FFT over t.
    """
    layout = preparer.layout
    (flag,) = layout.qubits(flag_register)
    # A^dag: A's ops reversed, each query inverted; H, register swaps and the
    # flag fold are their own inverses
    adjoint = [
        OracleOp(op.oracle, "plain" if op.kind == "inverse" else "inverse", op.registers)
        if isinstance(op, OracleOp)
        else op
        for op in reversed(preparer.ops)
    ]
    M = 1 << m
    state = execute(preparer).reshape(-1, 1)
    rows = np.empty((M, state.shape[0]), dtype=complex)
    rows[0] = state[:, 0]
    for t in range(1, M):
        state.reshape(1 << flag, 2, -1)[:, 0] *= -1.0  # S_good
        for op in adjoint:
            _apply_op(op, state, layout)
        state[1:] *= -1.0  # S0
        for op in preparer.ops:
            _apply_op(op, state, layout)
        rows[t] = state[:, 0]
    amplitudes = np.fft.fft(rows, axis=0) / M
    return np.sum(np.abs(amplitudes) ** 2, axis=1)


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``mat`` must be square on the tensor product of subsystems with
    dimensions ``dims`` (in register order).  The result lives on the kept
    subsystems, ordered as in ``keep``, and has the same trace as ``mat``.
    """
    mat = np.asarray(mat, dtype=complex)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dims must be positive, got {dims}")
    n = len(dims)
    total = int(np.prod(dims))
    if mat.ndim != 2 or mat.shape != (total, total):
        raise ValueError(
            f"matrix shape {mat.shape} does not match subsystem dims {dims} "
            f"(expected {total}x{total})"
        )
    keep = [int(i) for i in keep]
    if len(set(keep)) != len(keep) or any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} invalid for {n} subsystems")

    keep_set = set(keep)
    tensor = mat.reshape(dims + dims)
    row_labels = list(range(n))
    # traced subsystems share the row label so einsum contracts them
    col_labels = [i if i not in keep_set else n + i for i in range(n)]
    out_labels = keep + [n + i for i in keep]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(dk, dk)


def _sqrt_eigenvalues_floored(mat: np.ndarray) -> np.ndarray:
    # eigenvalues below the eigh noise floor are rank-deficiency artifacts;
    # sqrt would amplify them to ~1e-8, so zero them first
    w, v = herm_eig(mat)
    w = np.clip(w, 0.0, None)
    w[w < 1e-14] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr sqrt(sqrt(sigma) rho sqrt(sigma)); cross-check reference only."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    s = _sqrt_eigenvalues_floored(sigma.matrix)
    inner = s @ rho.matrix @ s
    w, _ = herm_eig(0.5 * (inner + inner.conj().T))
    w = np.clip(w, 0.0, None)
    w[w < 1e-14] = 0.0
    return float(min(np.sum(np.sqrt(w)), 1.0))
