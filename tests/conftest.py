import math

import numpy as np

from fidest.fidelity import hard_pair
from fidest.oracles import (
    PreparationOracle,
    RandomInstanceSpec,
    purified_channel_oracle,
    sample_instance,
)
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


def dense_sqrt_tr_rho_sigma2(rho, sigma):
    """sqrt(tr(rho sigma^2)) of two DensityMatrix values, from their dense matrices."""
    return math.sqrt(np.trace(rho.matrix @ sigma.matrix @ sigma.matrix).real)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def generated_oracles():
    """Oracles of every kind verify-identities and the tests build: sampled
    instances at k = 1-3 (every rank), hard instances (zero ancilla) and
    purified channels."""
    for k in (1, 2, 3):
        specs = [(1, "haar_pure")] + [(r, "ginibre_mixed") for r in range(1, (1 << k) + 1)]
        for seed in range(3):
            for rank, kind in specs:
                yield sample_instance(RandomInstanceSpec(k, rank, seed, kind))[1]
    for k, rank in ((1, 2), (2, 3), (3, 5)):
        yield from (inst.oracle for inst in hard_pair(0.5, 0.1, rank, k))
    rng = np.random.default_rng(3)
    for n, system in ((2, 1), (3, 1), (4, 2)):
        g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        yield purified_channel_oracle(np.linalg.qr(g)[0], system)
