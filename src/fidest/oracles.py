"""Preparation oracles: unitaries that load a target state from |0...0>.

A mixed state is served through a unitary on a system register plus an
ancilla register; applied to the all-zeros input it yields a pure state
whose reduced system matrix is the target.  An oracle is held as that
prepared column alone: its unitary is the column's Householder completion
U = phase H diag(c, 1, ...), applied to a block in O(2^n) per column and
built densely only on request.  Oracles are immutable values.  Invocations
come in four kinds (plain, inverse, controlled, controlled_inverse); a
circuit says how often it invokes each oracle, per kind (``Circuit.queries``),
and the estimators derive a whole run's tallies from that in closed form
(``fidest.estimation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_STRUCT, DensityMatrix, herm_eig, require_unitary

QUERY_KINDS = ("plain", "inverse", "controlled", "controlled_inverse")

INSTANCE_KINDS = ("haar_pure", "ginibre_mixed")


@dataclass(frozen=True, eq=False)
class PreparationOracle:
    """State-preparation oracle held as its prepared column.

    ``prepared_state`` (system qubits most significant, then ancilla) is
    U|0...0>; U is its Householder completion, applied by ``apply``.
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
        # divide out the phase of the largest-magnitude entry (a well-conditioned
        # choice); H = I - tau v v^dag then maps c e0 to that rotated column
        j = int(np.argmax(np.abs(col)))
        phase = col[j] / abs(col[j])
        v = col / phase
        c = v[0] / abs(v[0]) if abs(v[0]) > 0.0 else 1.0 + 0.0j
        v[0] -= c
        vnorm2 = float(np.real(np.vdot(v, v)))
        tau = 2.0 / vnorm2 if vnorm2 >= 1e-24 else 0.0
        v.flags.writeable = False
        object.__setattr__(self, "_householder", (v, tau, c, phase))

    def apply(self, block: np.ndarray, inverse: bool = False) -> np.ndarray:
        """U (or U^dag) times a (2^num_qubits, rest) block, U = phase (I - tau v v^dag) diag(c, 1, ...)."""
        v, tau, c, phase = self._householder
        if inverse:
            c, phase = np.conj(c), np.conj(phase)
        out = block * phase
        if not inverse:
            out[0] *= c
        if tau:
            # einsum, not a BLAS product: OpenBLAS hands even small products to
            # worker threads, whose wake-ups stall on shared cores
            out -= np.outer(tau * v, np.einsum("i,ij->j", v.conj(), out))
        if inverse:
            out[0] *= c
        return out

    @property
    def num_qubits(self) -> int:
        return self.system_qubits + self.ancilla_qubits

    @property
    def unitary(self) -> np.ndarray:
        """Dense U, built on request by applying the oracle to the identity."""
        return self.apply(np.eye(1 << self.num_qubits, dtype=complex))

    def reduced_state(self) -> DensityMatrix:
        """Density matrix of the system register of the prepared state."""
        m = self.prepared_state.reshape(1 << self.system_qubits, 1 << self.ancilla_qubits)
        rho = m @ m.conj().T
        return DensityMatrix(0.5 * (rho + rho.conj().T))


def purify(rho: DensityMatrix, ancilla_qubits: int | None = None) -> np.ndarray:
    """Unit column of the canonical purification of ``rho`` (system qubits most
    significant, then ancilla), ancilla size equal to the system.

    Eigenvectors are paired with ancilla basis states in descending
    eigenvalue order, so pure inputs purify to |psi>|0>.  Passing
    ``ancilla_qubits`` overrides the register size; it must still cover the
    state's rank (so minimal, rank-sized ancillas are allowed).
    """
    w, v = herm_eig(rho.matrix)
    w = np.clip(w[::-1], 0.0, None)
    v = v[:, ::-1]
    if ancilla_qubits is None:
        ancilla_qubits = rho.num_qubits
    if ancilla_qubits < 0:
        raise ValueError(f"ancilla_qubits must be non-negative, got {ancilla_qubits}")
    da = 1 << ancilla_qubits
    if da < rho.dim:
        tail = float(np.sum(w[da:]))
        if tail > 1e-12:
            raise ValueError(
                f"{ancilla_qubits} ancilla qubits cannot purify a state with "
                f"weight {tail:.3e} beyond rank {da}"
            )
        w = w[:da]
        v = v[:, :da]
    m = v * np.sqrt(w)
    if da > rho.dim:
        m = np.concatenate([m, np.zeros((rho.dim, da - rho.dim), dtype=complex)], axis=1)
    return m.ravel()


def preparation_oracle(
    rho: DensityMatrix, label: str = "U", ancilla_qubits: int | None = None
) -> PreparationOracle:
    """Synthesize a preparation oracle for ``rho`` (ancilla = system size)."""
    col = purify(rho, ancilla_qubits)
    n = col.size.bit_length() - 1
    return PreparationOracle(col, rho.num_qubits, n - rho.num_qubits, label)


def purified_channel_oracle(
    channel_unitary: np.ndarray, system_qubits: int, label: str = "U"
) -> PreparationOracle:
    """Wrap a purified channel unitary as a preparation oracle.

    The unitary acts on system plus environment; run on |0>|0> it prepares
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


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Seed-deterministic recipe for a random state instance."""

    k: int
    rank: int
    seed: int
    kind: str

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 1 <= self.rank <= (1 << self.k):
            raise ValueError(f"rank {self.rank} out of range [1, {1 << self.k}]")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed {self.seed} is not a 64-bit unsigned integer")
        if self.kind not in INSTANCE_KINDS:
            raise ValueError(f"kind {self.kind!r} not in {INSTANCE_KINDS}")
        if self.kind == "haar_pure" and self.rank != 1:
            raise ValueError("haar_pure instances must have rank 1")


def _haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sample_instance(spec: RandomInstanceSpec, label: str = "U"):
    """Draw ``(DensityMatrix, PreparationOracle)`` deterministically from a spec.

    haar_pure normalizes a complex-Gaussian vector; ginibre_mixed traces an
    ancilla of dimension ``rank`` out of a Haar-random bipartite pure state.
    """
    rng = np.random.default_rng(spec.seed)
    d = 1 << spec.k
    if spec.kind == "haar_pure":
        psi = _haar_vector(rng, d)
        rho = np.outer(psi, psi.conj())
    else:
        g = _haar_vector(rng, d * spec.rank).reshape(d, spec.rank)
        rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    dm = DensityMatrix(rho)
    return dm, preparation_oracle(dm, label)

