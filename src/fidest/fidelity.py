"""Fidelity estimators, exact classical references, and adversarial instances."""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import QubitCapExceeded, build_flagged_encoding, build_swap_test
from .estimation import (
    ESTIMATOR_MAX_M,
    EstimationResult,
    amplitude_estimate,
    readout_qubits,
    sqrt_amplitude_estimate,
)
from .linalg import PURITY_ATOL, DensityMatrix, zero_state
from .oracles import PreparationOracle, check_instance_size


def exact_fidelity_to_pure(rho: DensityMatrix, psi: np.ndarray) -> float:
    """sqrt(<psi|rho|psi>), the fidelity of rho to the pure state psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != rho.dim:
        raise ValueError(f"state length {psi.size} != density matrix dim {rho.dim}")
    val = float(np.real(np.vdot(psi, rho.matrix @ psi)))
    return math.sqrt(min(max(val, 0.0), 1.0))


def exact_tr_rho_sigma2(rho, sigma) -> float:
    """tr(rho sigma^2); equals <psi|rho|psi> when sigma is pure.

    rho and sigma are DensityMatrix values or the raw states a sweep synthesises.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if len(rho) != len(sigma):
        raise ValueError(f"dimension mismatch: {len(rho)} vs {len(sigma)}")
    val = float(np.trace(rho @ sigma @ sigma).real)
    return min(max(val, 0.0), 1.0)


def hellinger_distance(p, q) -> float:
    """sqrt(1/2 sum_j (sqrt(p_j) - sqrt(q_j))^2) for two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return math.sqrt(0.5 * float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


@dataclass(frozen=True, eq=False)
class FidelityTask:
    """One estimation job, a plain record; the estimator that runs it checks each field before
    sampling: purities and system sizes in ``bind``, epsilon in ``delta``, the seed in ``_estimate``."""

    rho_oracle: PreparationOracle
    second_oracle: PreparationOracle
    epsilon: float
    seed: int


def make_task(rho_oracle, second_oracle, epsilon: float, seed: int) -> FidelityTask:
    """Build a task; the front end that runs it checks every argument (see FidelityTask)."""
    return FidelityTask(rho_oracle, second_oracle, epsilon, seed)


@dataclass(frozen=True)
class Estimator:
    """Which circuit an estimator runs and which of its two states must be pure.

    The SWAP test reads (1 + F^2)/2 to eps^2/4 (Theta(1/eps^2) queries); the
    flagged encoding reads sqrt(tr(rho sigma^2)) to eps (Theta(1/eps) queries,
    two V queries per U query).
    """

    swap_test: bool
    first_pure: bool
    second_pure: bool

    def delta(self, epsilon: float) -> float:
        """The error delta the readout must reach for target error epsilon: eps^2/4 on the
        SWAP test's p, else eps on the flagged amplitude."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if not self.swap_test:
            return epsilon
        # Pr[C=0] = (1 + F^2)/2 to within eps^2/4 gives F to within eps/sqrt(2),
        # since |sqrt(x) - sqrt(y)| <= sqrt(|x - y|)
        delta = epsilon**2 / 4.0
        if delta == 0.0:  # underflow, below eps ~ 3e-162
            raise QubitCapExceeded(
                f"delta = eps^2/4 underflows to 0: it needs m over 1000 readout qubits, "
                f"cap is {ESTIMATOR_MAX_M}"
            )
        return delta

    def readout_qubits(self, epsilon: float) -> int:
        """Readout qubits m this estimator uses at target error epsilon; the SWAP test reads p."""
        return readout_qubits(self.delta(epsilon), square=self.swap_test)

    def flag_probability(self, rho_oracle: PreparationOracle, second_oracle: PreparationOracle):
        """Pr[C = 0] of this estimator's circuit on the pair, from the two prepared columns.

        With M_u, M_v the columns as 2^k x 2^ancilla matrices (rho = M_u M_u^dag,
        sigma = M_v M_v^dag), the flagged encoding has p = tr(rho sigma^2) =
        ||M_v M_v^dag M_u||_F^2 and the SWAP test p = (1 + ||M_u^dag M_v||_F^2)/2.
        """
        mu = rho_oracle.prepared_state.reshape(1 << rho_oracle.system_qubits, -1)
        mv = second_oracle.prepared_state.reshape(1 << second_oracle.system_qubits, -1)
        # einsum, not a BLAS product (see fidest.linalg)
        overlap = np.einsum("ia,ib->ab", mu.conj(), mv)
        if self.swap_test:
            p = (1.0 + float(np.vdot(overlap, overlap).real)) / 2.0
        else:
            flagged = np.einsum("ib,ab->ia", mv, overlap.conj())
            p = float(np.vdot(flagged, flagged).real)
        return min(max(p, 0.0), 1.0)

    def bind(self, name: str, rho_oracle: PreparationOracle, second_oracle: PreparationOracle):
        """Check the required purities and build the circuit once for an oracle pair.

        Returns estimate(epsilon, seed) -> EstimationResult; every call shares
        the pair's p, taken once from the columns, and the circuit is never executed.
        """
        if self.second_pure and not second_oracle.purity() >= 1.0 - PURITY_ATOL:
            raise ValueError(f"the {name} estimator requires a pure second state")
        if self.first_pure and not rho_oracle.purity() >= 1.0 - PURITY_ATOL:
            raise ValueError(f"the {name} estimator requires a pure first state")
        build = build_swap_test if self.swap_test else build_flagged_encoding
        once = build(rho_oracle, second_oracle).queries()  # building checks the pair
        p = self.flag_probability(rho_oracle, second_oracle)
        if not self.swap_test:
            return lambda epsilon, seed: sqrt_amplitude_estimate(p, once, self.delta(epsilon), seed)

        def estimate(epsilon: float, seed: int) -> EstimationResult:
            inner = amplitude_estimate(p, once, self.delta(epsilon), seed)
            # near F = 0 the back-transform 2p - 1 can go negative; clamping
            # it at zero inflates the worst-case error there
            value = math.sqrt(max(2.0 * inner.estimate - 1.0, 0.0))
            return dataclasses.replace(inner, estimate=min(value, 1.0))

        return estimate


#: estimator name -> Estimator; the CLI's --estimator choices, in this order
ESTIMATORS = {
    "swap-baseline": Estimator(swap_test=True, first_pure=False, second_pure=True),
    "optimal": Estimator(swap_test=False, first_pure=False, second_pure=True),
    "tr-rho-sigma2": Estimator(swap_test=False, first_pure=False, second_pure=False),
    "pure-pure": Estimator(swap_test=False, first_pure=True, second_pure=True),
}


def _run_task(name: str, task: FidelityTask) -> EstimationResult:
    estimate = ESTIMATORS[name].bind(name, task.rho_oracle, task.second_oracle)
    return estimate(task.epsilon, task.seed)


def swap_test_estimate(task: FidelityTask) -> EstimationResult:
    """SWAP-test baseline: F via Pr[C=0] = (1 + F^2)/2, Theta(1/eps^2) queries."""
    return _run_task("swap-baseline", task)


def fidelity_to_pure(task: FidelityTask) -> EstimationResult:
    """F(rho, |psi>) to within epsilon with O(1/eps) queries; the second state must be pure."""
    return _run_task("optimal", task)


def sqrt_tr_rho_sigma2_estimate(task: FidelityTask) -> EstimationResult:
    """sqrt(tr(rho sigma^2)) for any sigma; reduces to fidelity_to_pure, seed for seed."""
    return _run_task("tr-rho-sigma2", task)


@dataclass(frozen=True, eq=False)
class HardInstance:
    """One member of the rank-r adversarial family against |0>.

    The oracle loads sqrt(weights) amplitudes directly (zero-size ancilla);
    its fidelity to |0> is sqrt(p + sign*eps) exactly, while the +/- pair's
    loading distributions sit at Hellinger distance O(eps).  An instance holds
    only its weights; ``oracle``, ``target`` (the state |0...0> the fidelity
    is taken to) and ``rho`` (the dense diagonal state) are built on first read.
    """

    p: float
    eps: float
    rank: int
    sign: int
    distribution: np.ndarray

    @functools.cached_property
    def oracle(self) -> PreparationOracle:
        k = self.distribution.size.bit_length() - 1
        return PreparationOracle(np.sqrt(self.distribution), k, 0, "U")

    @functools.cached_property
    def target(self) -> np.ndarray:
        return zero_state(self.oracle.system_qubits)

    @functools.cached_property
    def rho(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.distribution).astype(complex))


def _check_hard_pair_weights(p: float, eps: float) -> None:
    if not (0.0 < p + eps < 1.0 and 0.0 < p - eps < 1.0):
        raise ValueError(f"p={p} with epsilon={eps} leaves (0, 1)")


def check_hard_family(p: float, eps: float, rank: int, k: int) -> None:
    """The one check of a hard-family member: its size, rank >= 2 and first weights p +- eps in (0, 1)."""
    check_instance_size(k, rank)
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    _check_hard_pair_weights(p, eps)


def hard_instance(p: float, eps: float, rank: int, sign: int, k: int) -> HardInstance:
    """Build the rank-``rank`` instance with first weight p + sign*eps on 2^k outcomes (check_hard_family)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    check_hard_family(p, eps, rank, k)
    weights = np.zeros(1 << k)
    weights[0] = p + sign * eps
    weights[1:rank] = (1.0 - p - sign * eps) / (rank - 1)
    return HardInstance(p, eps, rank, sign, weights)


def hard_pair(p: float, eps: float, rank: int, k: int):
    """The +/- instance pair sharing (p, eps, rank)."""
    return hard_instance(p, eps, rank, 1, k), hard_instance(p, eps, rank, -1, k)


def hard_pair_hellinger(p: float, eps: float) -> float:
    """Closed-form Hellinger distance between the +/- loading distributions.

    H^2 = 1 - sqrt(p^2 - eps^2) - sqrt((1-p)^2 - eps^2), independent of rank,
    summed as x - sqrt(x^2 - eps^2) = eps^2 / (x + sqrt(x^2 - eps^2)) over
    x = p and 1 - p: two positive terms, so nothing cancels as eps -> 0.
    """
    _check_hard_pair_weights(p, eps)
    squared = sum(eps * eps / (x + math.sqrt((x - eps) * (x + eps))) for x in (p, 1.0 - p))
    return math.sqrt(squared)
