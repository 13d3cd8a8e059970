"""Brute-force dense references that the tests check the production path against.

Nothing in the estimators or the CLI imports this module: the dense
circuit unitary, the dense Grover operator, the full 2^m phase-estimation
outcome grid (closed-form and Schur-based), the partial trace of a dense
matrix and Uhlmann fidelity cost time and memory that grow with operator
size or 2^m.  It is the only module of the package that imports scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .circuits import Circuit, QubitCapExceeded, _apply_op
from .estimation import AmplitudeProblem
from .linalg import DensityMatrix, herm_eig, require_unitary

#: Qubit cap for materializing a dense Grover operator.
GROVER_MAX_QUBITS = 12


def circuit_unitary(circuit: Circuit, cap: int = 12) -> np.ndarray:
    """Dense unitary of the whole circuit (analysis only)."""
    n = circuit.layout.total_qubits
    if n > cap:
        raise QubitCapExceeded(f"circuit unitary needs {n} qubits, cap is {cap}")
    state = np.eye(1 << n, dtype=complex)
    for op in circuit.ops:
        state = _apply_op(op, state, circuit.layout)
    return state


def grover_operator(problem: AmplitudeProblem, max_qubits: int = GROVER_MAX_QUBITS) -> np.ndarray:
    """Dense Grover operator A S0 A^dag S_good of an amplitude problem.

    S0 = 2|0><0| - I reflects about the all-zeros input, S_good = I - 2 Pi
    about the flag = 0 subspace; with that sign convention the eigenphases
    on the prepared-state plane are exactly +-2 arcsin(sqrt(p)).
    """
    n = problem.total_qubits
    if n > max_qubits:
        raise QubitCapExceeded(f"Grover operator needs {n} qubits, cap is {max_qubits}")
    ua = circuit_unitary(problem.preparer, cap=max_qubits)
    dim = ua.shape[0]
    s0 = -np.eye(dim, dtype=complex)
    s0[0, 0] = 1.0
    flag_qubit = problem.preparer.layout.qubits(problem.flag_register)[0]
    flag_bit = (np.arange(dim) >> (n - 1 - flag_qubit)) & 1
    s_good = np.where(flag_bit == 0, -1.0, 1.0)
    return (ua @ s0 @ ua.conj().T) * s_good[np.newaxis, :]


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
        # sin(pi r) evaluated as sin(pi (r mod 2)) avoids large-argument error.
        num = np.sin(np.pi * np.mod(r, 2.0))
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


def qpe_distribution(q: np.ndarray, initial: np.ndarray, m: int) -> np.ndarray:
    """Exact QPE outcome distribution for a dense unitary and initial state.

    The unitary is spectrally decomposed (Schur form; exact for normal
    matrices up to roundoff) and the initial state's weights on each
    eigenvector feed the kernel mixture.
    """
    q = np.asarray(q, dtype=complex)
    require_unitary(q, what="phase-estimation unitary")
    initial = np.asarray(initial, dtype=complex).ravel()
    if initial.size != q.shape[0]:
        raise ValueError(f"initial state length {initial.size} != matrix dim {q.shape[0]}")
    t, z = scipy.linalg.schur(q, output="complex")
    offdiag = float(np.max(np.abs(t - np.diag(np.diag(t))))) if t.shape[0] > 1 else 0.0
    if offdiag > 1e-8:
        raise ValueError(f"matrix is not normal (Schur off-diagonal {offdiag:.3e})")
    omega = (np.angle(np.diag(t)) / (2.0 * np.pi)) % 1.0
    weights = np.abs(z.conj().T @ initial) ** 2
    keep = weights > 1e-15
    return qpe_grid_distribution(omega[keep], weights[keep], m)


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
