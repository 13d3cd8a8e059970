"""Preparation oracles: unitaries that load a target state from |0...0>.

A mixed state is served through a unitary on a system register plus an
ancilla register; applied to the all-zeros input it yields a pure state
whose reduced system matrix is the target.  An oracle is held as that
prepared column alone: its unitary is the column's Householder completion
U = (I - tau v v^dag) diag(d, 1, ...), applied in place along axis 1 of a
(pre, 2^n, post) view as two passes and a row scale, built densely on request.
The Householder factors are built on the first application, and the reduced
state's purity is read from the column, so an oracle that is only read
builds neither them nor a density matrix.  A random instance's column is the
Gaussian factor its state is drawn from (``synthesize_instance``); the eigh
purification of a given state is a reference (``fidest.reference``).
Oracles are immutable values.  A circuit invokes an oracle plain or inverse
and says how often, per kind (``Circuit.queries``); the estimators derive a
whole run's tallies from that in closed form, and its controlled and
controlled_inverse kinds come only from ``fidest.estimation._query_tally``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_STRUCT, DensityMatrix, require_unitary
from .streams import uniforms

QUERY_KINDS = ("plain", "inverse", "controlled", "controlled_inverse")

INSTANCE_KINDS = ("haar_pure", "ginibre_mixed")


@dataclass(frozen=True, eq=False)
class PreparationOracle:
    """State-preparation oracle held as its prepared column.

    ``prepared_state`` (system qubits most significant, then ancilla) is
    U|0...0>; U is its Householder completion, applied by ``apply``.  The
    column is checked on construction; the Householder factors are built on
    the first ``apply``, so an oracle that is only read (a sweep's) builds none.
    """

    prepared_state: np.ndarray
    system_qubits: int
    ancilla_qubits: int
    label: str

    def __post_init__(self):
        col = np.array(self.prepared_state, dtype=complex)
        dim = 1 << self.num_qubits
        if col.shape != (dim,):
            raise ValueError(
                f"oracle column shape {col.shape} != ({dim},) for "
                f"{self.system_qubits}+{self.ancilla_qubits} qubits"
            )
        norm = float(np.linalg.norm(col))
        if not abs(norm - 1.0) <= ATOL_STRUCT:  # also rejects a non-finite column
            raise ValueError(f"oracle {self.label!r} column norm {norm} is not 1")
        col.flags.writeable = False
        object.__setattr__(self, "prepared_state", col)

    @functools.cached_property
    def _householder(self) -> tuple:
        """(v, tau, d) of U = (I - tau v v^dag) diag(d, 1, ...) (Golub and Van Loan,
        Matrix Computations, 5.1.3): v = e0 - conj(d) col maps d e0 to col, and
        d = -col[0]/|col[0]| (-1 if 0) makes v[0] = 1 + |col[0]| >= 1, so tau needs
        no guard.  tau = 2/||v||^2, not 1/(1 + |col[0]|), keeps H an exact
        reflection for any column norm within ATOL_STRUCT of 1."""
        col = self.prepared_state
        r = abs(col[0])
        d = -col[0] / r if r else complex(-1.0)
        v = -np.conj(d) * col
        v[0] += 1.0
        tau = 2.0 / float(np.vdot(v, v).real)
        v.flags.writeable = False
        return v, tau, d

    def apply(self, blocks: np.ndarray, inverse: bool = False) -> None:
        """U (or U^dag) along axis 1 of a (pre, 2^num_qubits, post) array, in place,
        as one dot pass and one update pass, after a scale of row 0 by d (or
        before one by conj(d), for U^dag)."""
        v, tau, d = self._householder
        if not inverse:
            blocks[:, 0] *= d
        # v^dag x per column: one short dot each, never a BLAS product (see fidest.linalg)
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

    @property
    def num_qubits(self) -> int:
        return self.system_qubits + self.ancilla_qubits

    @property
    def unitary(self) -> np.ndarray:
        """Dense U, built on request: the oracle applied in place to the identity."""
        u = np.eye(1 << self.num_qubits, dtype=complex)
        self.apply(u[np.newaxis])
        return u

    def purity(self) -> float:
        """tr(rho^2) of the reduced system state rho = M M^dag, read from the
        column M (2^system x 2^ancilla) as ||M^dag M||_F^2: an einsum, no BLAS
        product (see fidest.linalg) and no density matrix."""
        m = self.prepared_state.reshape(1 << self.system_qubits, 1 << self.ancilla_qubits)
        gram = np.einsum("ia,ib->ab", m.conj(), m)
        return float(np.vdot(gram, gram).real)

    def reduced_state(self) -> DensityMatrix:
        """Density matrix of the system register of the prepared state."""
        m = self.prepared_state.reshape(1 << self.system_qubits, 1 << self.ancilla_qubits)
        rho = m @ m.conj().T
        return DensityMatrix(0.5 * (rho + rho.conj().T))


def purified_channel_oracle(
    channel_unitary: np.ndarray, system_qubits: int, label: str = "U"
) -> PreparationOracle:
    """Wrap a purified channel unitary as a preparation oracle.

    The unitary acts on system plus ancilla; run on |0>|0> it prepares
    a purification of the channel's output on the all-zeros input, so it
    serves as purified access to that state.  Only its first column is kept:
    the oracle is that column's completion, which agrees with the input on
    every quantity read from U|0...0>.
    """
    u = np.asarray(channel_unitary, dtype=complex)
    require_unitary(u, what="channel unitary")
    dim = u.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"channel unitary dimension {dim} is not a power of two")
    if system_qubits < 1 or system_qubits > n:
        raise ValueError(f"system_qubits {system_qubits} invalid for a {n}-qubit unitary")
    return PreparationOracle(u[:, 0], system_qubits, n - system_qubits, label)


def check_instance_size(k: int, rank: int) -> None:
    """The one check of an instance's size, k >= 1 and 1 <= rank <= 2^k; the rank is tested by
    bit length, so 2^k is never built and a k far over the qubit cap is checked in O(1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rank < 1 or (rank - 1).bit_length() > k:
        raise ValueError(f"rank {rank} out of range [1, 2^{k}] for k={k}")


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Seed-deterministic recipe for a random state instance; k and rank meet check_instance_size."""

    k: int
    rank: int
    seed: int
    kind: str

    def __post_init__(self):
        check_instance_size(self.k, self.rank)
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed {self.seed} is not a 64-bit unsigned integer")
        if self.kind not in INSTANCE_KINDS:
            raise ValueError(f"kind {self.kind!r} not in {INSTANCE_KINDS}")
        if self.kind == "haar_pure" and self.rank != 1:
            raise ValueError("haar_pure instances must have rank 1")


def complex_gaussians(seed: int, n: int) -> list:
    """n standard complex Gaussians (Re and Im each N(0, 1/2), so |z|^2 is Exp(1)),
    by Box-Muller in scalar math from the stream uniforms(b"inst", (seed,), 2n).

    The uniform pair (u, v) gives sqrt(-log(1 - u)) e^(2 pi i v); 1 - u is exact
    and at least 2^-53, so the log is finite.
    """
    u = uniforms(b"inst", (seed,), 2 * n)
    out = []
    for r, t in zip(u[::2], u[1::2]):
        radius, angle = math.sqrt(-math.log(1.0 - r)), math.tau * t
        out.append(complex(radius * math.cos(angle), radius * math.sin(angle)))
    return out


def synthesize_instance(spec: RandomInstanceSpec, label: str = "U"):
    """Draw ``(rho, PreparationOracle)`` deterministically from a spec; rho is a
    read-only array.

    Both kinds draw g, a normalized complex-Gaussian d x rank matrix
    (``complex_gaussians`` of the spec's seed, row by row): a
    Haar-random pure state whose reduced system state is rho = g g^dag (the
    induced measure), so the oracle's column is g itself, zero-padded to a
    d x d ancilla (psi (x) |0> for haar_pure, whose rho is psi psi^dag).
    rho, a Gram matrix symmetrised and divided by its trace, is Hermitian,
    unit-trace and PSD by construction, so it is not re-validated here;
    ``sample_instance`` wraps it in a checked ``DensityMatrix``.
    """
    d = 1 << spec.k
    parts = np.array(complex_gaussians(spec.seed, d * spec.rank)).view(float)  # Re, Im interleaved
    # a math.fsum norm and elementwise float ops: the column rests on libm, not on a BLAS kernel
    g = (parts / math.sqrt(math.fsum((parts * parts).tolist()))).view(complex).reshape(d, spec.rank)
    rho = np.outer(g, g.conj()) if spec.kind == "haar_pure" else g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    rho.flags.writeable = False
    column = np.zeros((d, d), dtype=complex)
    column[:, : spec.rank] = g
    return rho, PreparationOracle(column.ravel(), spec.k, spec.k, label)


def sample_instance(spec: RandomInstanceSpec, label: str = "U"):
    """``synthesize_instance`` with its state as a validated ``DensityMatrix``."""
    rho, oracle = synthesize_instance(spec, label)
    return DensityMatrix(rho), oracle
