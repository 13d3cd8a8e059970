import math

import numpy as np

from fidest.fidelity import hard_pair
from fidest.oracles import PreparationOracle, synthesize_instance
from fidest.reference import purify, reduced_state


def sampled(k, rank, seed, label="U"):
    """``(DensityMatrix, PreparationOracle)`` of a random instance: its oracle and the state it prepares."""
    oracle = synthesize_instance(k, rank, seed, label)
    return reduced_state(oracle), oracle


def pure_instance(k, seed, label="V"):
    return sampled(k, 1, seed, label)


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


def padded_oracle(oracle):
    """The oracle with its column zero-padded to an ancilla as wide as its system: the
    psi (x) |0> or d x d form, whose circuits run on 2^(4k) amplitudes whatever the rank."""
    m = np.array(oracle.prepared_state).reshape(1 << oracle.system_qubits, -1)
    m = np.pad(m, ((0, 0), (0, (1 << oracle.system_qubits) - m.shape[1])))
    return PreparationOracle(m.ravel(), oracle.system_qubits, oracle.system_qubits, oracle.label)


def channel_oracle(q, system, label="U"):
    """The oracle of a purified channel unitary q on ``system`` qubits plus an ancilla: q run
    on |0...0> prepares a purification of the channel's output, so its first column serves as
    purified access to that state."""
    n = len(q).bit_length() - 1
    return PreparationOracle(q[:, 0], system, n - system, label)


def rank_weights(member, rank, size=None):
    """A hard_pair member's weight vector: its first weight, then its tail weight rank - 1
    times, zero-padded to ``size`` entries (``rank`` by default)."""
    first, tail = member
    weights = np.zeros(rank if size is None else size)
    weights[0], weights[1:rank] = first, tail
    return weights


def dense_hellinger(p, q):
    """sqrt(1/2 sum_j (sqrt(p_j) - sqrt(q_j))^2) of two weight vectors, as numpy's pairwise sum."""
    return math.sqrt(0.5 * float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def hard_oracles(p, eps, rank, k, label="U"):
    """The +/- members' oracles of the hard family: each loads the zero-padded sqrt of its
    rank weights on k qubits, with zero ancilla qubits."""
    return tuple(
        PreparationOracle(np.sqrt(rank_weights(member, rank, 1 << k)), k, 0, label)
        for member in hard_pair(p, eps, rank, k)
    )


def ancilla_rotated(oracle, seed):
    """The oracle's reduced state behind a random unitary on its ancilla: a
    purification that is not the canonical one."""
    rng = np.random.default_rng(seed)
    da = 1 << oracle.ancilla_qubits
    w, _ = np.linalg.qr(rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da)))
    m = np.array(oracle.prepared_state).reshape(-1, da) @ w
    return PreparationOracle(m.ravel(), oracle.system_qubits, oracle.ancilla_qubits, oracle.label)


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
        for seed in range(3):
            for rank in range(1, (1 << k) + 1):
                yield synthesize_instance(k, rank, seed)
    for k, rank in ((1, 2), (2, 3), (3, 5)):
        yield from hard_oracles(0.5, 0.1, rank, k)
    rng = np.random.default_rng(3)
    for n, system in ((2, 1), (3, 1), (4, 2)):
        g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        yield channel_oracle(np.linalg.qr(g)[0], system)
