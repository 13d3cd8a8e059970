import numpy as np

from fidest.oracles import PreparationOracle, RandomInstanceSpec, sample_instance
from fidest.reference import purify


def mixed_instance(k, rank, seed, label="U"):
    return sample_instance(RandomInstanceSpec(k, rank, seed, "ginibre_mixed"), label)


def pure_instance(k, seed, label="V"):
    return sample_instance(RandomInstanceSpec(k, 1, seed, "haar_pure"), label)


def state_oracle(vec, label="U"):
    """Zero-ancilla oracle preparing a given pure state; its ``unitary`` is the
    dense completion U with U|0...0> = vec."""
    vec = np.asarray(vec, dtype=complex)
    return PreparationOracle(vec, vec.size.bit_length() - 1, 0, label)


def resized_oracle(dm, ancilla_qubits, label="U"):
    """Oracle for ``dm`` with an ``ancilla_qubits``-qubit ancilla: the columns of
    purify(dm), one per ancilla state, cut to the first 2^ancilla_qubits or
    zero-padded to them.  A cut must keep the state's rank."""
    m = purify(dm).reshape(dm.dim, dm.dim)
    da = 1 << ancilla_qubits
    m = m[:, :da] if da <= dm.dim else np.pad(m, ((0, 0), (0, da - dm.dim)))
    return PreparationOracle(m.ravel(), dm.num_qubits, ancilla_qubits, label)


def principal_eigvec(dm):
    """Unit eigenvector of the largest eigenvalue (the pure state of a rank-1 dm)."""
    _, vecs = np.linalg.eigh(dm.matrix)
    return vecs[:, -1]


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)
