"""Dense complex linear algebra for small quantum systems.

Conventions, fixed package-wide:

- Big-endian qubit order: qubit 0 is the most significant bit of a basis
  index, so register order matches Kronecker-product order (first factor
  most significant).
- Matrices are row-major; statevectors are 1-D complex arrays.
- Structural invariants (norm, Hermiticity, unitarity, trace, positivity)
  are held to ``ATOL_STRUCT``, written as ``not x <= tol`` so that a NaN
  or infinite entry fails them too.

The tolerance leaves ample double-precision headroom at the scales this
package targets (statevectors up to 2**22 entries, operator matrices up to
a few thousand rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Tolerance for structural invariants (unitarity, Hermiticity, norms, trace).
ATOL_STRUCT = 1e-10

#: A state counts as pure when tr(rho^2) >= 1 - PURITY_ATOL.
PURITY_ATOL = 1e-9


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros basis state |0...0> on ``num_qubits`` qubits."""
    if num_qubits < 0:
        raise ValueError("num_qubits must be non-negative")
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _hermiticity_error(mat: np.ndarray) -> float:
    """Max-entry deviation of M from M^dag; NaN or inf for a non-finite or
    overflowing M, without a warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(mat - mat.conj().T)))


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


def unitarity_error(u: np.ndarray) -> float:
    """Max-entry deviation of U^dag U from the identity."""
    u = np.asarray(u, dtype=complex)
    # a non-finite or overflowing U reads NaN or inf, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def require_unitary(u: np.ndarray, what: str = "matrix") -> None:
    err = unitarity_error(u)
    if not err <= ATOL_STRUCT:
        raise ValueError(f"{what} is not unitary (max |U^dag U - I| = {err:.3e})")


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self) -> bool:
        return self.purity() >= 1.0 - PURITY_ATOL

