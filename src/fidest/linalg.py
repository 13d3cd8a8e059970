"""Dense complex linear algebra for small quantum systems.

Conventions, fixed package-wide:

- Big-endian qubit order: qubit 0 is the most significant bit of a basis
  index, so register order matches Kronecker-product order (first factor
  most significant).
- Matrices are row-major; statevectors are 1-D complex arrays.
- Structural invariants (norm, Hermiticity, unitarity, trace, positivity)
  are held to ``ATOL_STRUCT``.

The tolerance leaves ample double-precision headroom at the scales this
package targets (statevectors up to 2**22 entries, operator matrices up to
a few thousand rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

#: Tolerance for structural invariants (unitarity, Hermiticity, norms, trace).
ATOL_STRUCT = 1e-10


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, first factor most significant."""
    if not factors:
        raise ValueError("kron requires at least one factor")
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros basis state |0...0> on ``num_qubits`` qubits."""
    if num_qubits < 0:
        raise ValueError("num_qubits must be non-negative")
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


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


def herm_eig(mat: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as columns, so ``mat = V @ diag(w) @ V.conj().T``.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > ATOL_STRUCT:
        raise ValueError(f"matrix is not Hermitian (max |M - M^dag| = {dev:.3e})")
    return np.linalg.eigh(mat)


def matrix_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-ATOL_STRUCT, 0) are treated as roundoff and clamped to
    zero; anything below that window is an error.
    """
    w, v = herm_eig(mat)
    if w[0] < -ATOL_STRUCT:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def unitarity_error(u: np.ndarray) -> float:
    """Max-entry deviation of U^dag U from the identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def require_unitary(u: np.ndarray, what: str = "matrix") -> None:
    err = unitarity_error(u)
    if err > ATOL_STRUCT:
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
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > ATOL_STRUCT:
            raise ValueError(f"density matrix not Hermitian (max deviation {herm:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL_STRUCT:
            raise ValueError(f"density matrix trace {tr} is not 1")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if wmin < -ATOL_STRUCT:
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

    def is_pure(self, atol: float = 1e-9) -> bool:
        return self.purity() >= 1.0 - atol


def matrix_to_json(mat: np.ndarray) -> dict:
    """Serialize a complex matrix to the shared row-major JSON schema."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {mat.ndim}")
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "re": mat.real.ravel().tolist(),
        "im": mat.imag.ravel().tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse a matrix from the shared JSON schema, validating shape."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix JSON has non-positive shape {rows}x{cols}")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError(
            f"matrix JSON entry count mismatch: {rows}x{cols} vs {len(re)} re / {len(im)} im"
        )
    return (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(rows, cols)
