import numpy as np

from fidest.oracles import PreparationOracle, RandomInstanceSpec, sample_instance


def mixed_instance(k, rank, seed, label="U"):
    return sample_instance(RandomInstanceSpec(k, rank, seed, "ginibre_mixed"), label)


def pure_instance(k, seed, label="V"):
    return sample_instance(RandomInstanceSpec(k, 1, seed, "haar_pure"), label)


def state_oracle(vec, label="U"):
    """Zero-ancilla oracle preparing a given pure state; its ``unitary`` is the
    dense completion U with U|0...0> = vec."""
    vec = np.asarray(vec, dtype=complex)
    return PreparationOracle(vec, vec.size.bit_length() - 1, 0, label)


def principal_eigvec(dm):
    """Unit eigenvector of the largest eigenvalue (the pure state of a rank-1 dm)."""
    _, vecs = np.linalg.eigh(dm.matrix)
    return vecs[:, -1]


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)
