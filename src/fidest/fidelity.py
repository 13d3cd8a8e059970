"""Fidelity estimators, exact classical references, and adversarial instances."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .circuits import build_flagged_encoding, build_swap_test
from .estimation import (
    AmplitudeProblem,
    EstimationResult,
    amplitude_estimate,
    readout_qubits,
    sqrt_amplitude_estimate,
)
from .linalg import DensityMatrix, zero_state
from .oracles import PreparationOracle, complete_to_unitary

#: A state counts as pure when tr(rho^2) >= 1 - PURITY_ATOL.
PURITY_ATOL = 1e-9


def exact_fidelity_to_pure(rho: DensityMatrix, psi: np.ndarray) -> float:
    """sqrt(<psi|rho|psi>), the fidelity of rho to the pure state psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != rho.dim:
        raise ValueError(f"state length {psi.size} != density matrix dim {rho.dim}")
    val = float(np.real(np.vdot(psi, rho.matrix @ psi)))
    return math.sqrt(min(max(val, 0.0), 1.0))


def exact_tr_rho_sigma2(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr(rho sigma^2); equals <psi|rho|psi> when sigma is pure."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    val = float(np.trace(rho.matrix @ sigma.matrix @ sigma.matrix).real)
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
    """One estimation job: two oracles, a target error, and a seed."""

    rho_oracle: PreparationOracle
    second_oracle: PreparationOracle
    second_is_pure: bool
    epsilon: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.rho_oracle.system_qubits != self.second_oracle.system_qubits:
            raise ValueError(
                f"system size mismatch: {self.rho_oracle.system_qubits} vs "
                f"{self.second_oracle.system_qubits}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def make_task(
    rho_oracle: PreparationOracle,
    second_oracle: PreparationOracle,
    epsilon: float,
    seed: int,
) -> FidelityTask:
    """Build a task, detecting second-state purity from its reduced state.

    The purity flag only gates which estimators accept the task; the
    quantum circuits never consume it.
    """
    pure = second_oracle.reduced_state().is_pure(PURITY_ATOL)
    return FidelityTask(rho_oracle, second_oracle, pure, epsilon, seed)


def _swap_delta(epsilon: float) -> float:
    # Pr[C=0] = (1 + F^2)/2 to within eps^2/4 gives F to within eps/sqrt(2),
    # since |sqrt(x) - sqrt(y)| <= sqrt(|x - y|)
    return epsilon**2 / 4.0


def estimator_readout_qubits(epsilon: float, swap_baseline: bool) -> int:
    """Readout qubits m a fidelity estimator uses at target error epsilon.

    The SWAP baseline estimates a probability to eps^2/4; the flagged
    encoding estimators estimate an amplitude to eps.
    """
    if swap_baseline:
        return readout_qubits(_swap_delta(epsilon), square=True)
    return readout_qubits(epsilon, square=False)


def _flagged_sqrt_estimate(task: FidelityTask) -> EstimationResult:
    circuit = build_flagged_encoding(task.rho_oracle, task.second_oracle)
    problem = AmplitudeProblem(circuit, "C")
    return sqrt_amplitude_estimate(problem, task.epsilon, task.seed)


def swap_test_estimate(task: FidelityTask) -> EstimationResult:
    """SWAP-test baseline: estimates F via Pr[C=0] = (1 + F^2)/2.

    Needs delta = eps^2/4 on the probability, hence Theta(1/eps^2) queries.
    Near F = 0 the back-transform 2p - 1 can go negative; it is clamped at
    zero, which inflates worst-case error there.
    """
    if not task.second_is_pure:
        raise ValueError("the SWAP-test baseline requires a pure second state")
    circuit = build_swap_test(task.rho_oracle, task.second_oracle)
    problem = AmplitudeProblem(circuit, "C")
    inner = amplitude_estimate(problem, _swap_delta(task.epsilon), task.seed)
    estimate = math.sqrt(max(2.0 * inner.estimate - 1.0, 0.0))
    return dataclasses.replace(inner, estimate=min(estimate, 1.0))


def fidelity_to_pure(task: FidelityTask) -> EstimationResult:
    """Estimate F(rho, |psi>) to within epsilon using O(1/eps) oracle queries.

    Runs sqrt-amplitude estimation on the flagged encoding circuit; each
    application costs one rho-oracle query and two second-oracle queries,
    so reported tallies always satisfy queries(V) = 2 queries(U).
    """
    if not task.second_is_pure:
        raise ValueError("fidelity_to_pure requires a pure second state")
    return _flagged_sqrt_estimate(task)


def sqrt_tr_rho_sigma2_estimate(task: FidelityTask) -> EstimationResult:
    """Estimate sqrt(tr(rho sigma^2)) for arbitrary mixed sigma, O(1/eps) queries.

    Identical pipeline to fidelity_to_pure (to which it reduces when sigma
    is pure, seed for seed).
    """
    return _flagged_sqrt_estimate(task)


def pure_pure_fidelity(task: FidelityTask) -> EstimationResult:
    """Estimate |<phi|psi>| for two pure states served through purified access.

    Both oracles may carry redundant ancilla qubits; either side can play
    the mixed-state role, so this simply delegates to fidelity_to_pure.
    """
    if not task.second_is_pure:
        raise ValueError("pure_pure_fidelity requires a pure second state")
    if not task.rho_oracle.reduced_state().is_pure(PURITY_ATOL):
        raise ValueError("pure_pure_fidelity requires a pure first state")
    return _flagged_sqrt_estimate(task)


@dataclass(frozen=True, eq=False)
class HardInstance:
    """One member of the rank-r adversarial family against |0>.

    The oracle loads sqrt(weights) amplitudes directly (zero-size ancilla);
    its fidelity to |0> is sqrt(p + sign*eps) exactly, while the +/- pair's
    loading distributions sit at Hellinger distance O(eps).
    """

    p: float
    eps: float
    rank: int
    sign: int
    distribution: np.ndarray
    rho: DensityMatrix
    oracle: PreparationOracle
    target: np.ndarray


def hard_instance(p: float, eps: float, rank: int, sign: int, k: int, label: str = "U") -> HardInstance:
    """Build the rank-``rank`` instance with first weight p + sign*eps on 2^k outcomes."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    if rank > (1 << k):
        raise ValueError(f"rank {rank} exceeds 2^{k}")
    if not (0.0 < p + eps < 1.0 and 0.0 < p - eps < 1.0):
        raise ValueError(f"p +- eps must stay in (0, 1), got p={p}, eps={eps}")
    d = 1 << k
    weights = np.zeros(d, dtype=float)
    weights[0] = p + sign * eps
    weights[1:rank] = (1.0 - p - sign * eps) / (rank - 1)
    rho = DensityMatrix(np.diag(weights).astype(complex))
    amplitudes = np.sqrt(weights).astype(complex)
    oracle = PreparationOracle(complete_to_unitary(amplitudes), k, 0, label)
    return HardInstance(p, eps, rank, sign, weights, rho, oracle, zero_state(k))


def hard_pair(p: float, eps: float, rank: int, k: int):
    """The +/- instance pair sharing (p, eps, rank)."""
    return hard_instance(p, eps, rank, 1, k), hard_instance(p, eps, rank, -1, k)


def hard_pair_hellinger(p: float, eps: float) -> float:
    """Closed-form Hellinger distance between the +/- loading distributions.

    sqrt(1 - sqrt(p^2 - eps^2) - sqrt((1-p)^2 - eps^2)); independent of rank.
    """
    if not (0.0 < p + eps < 1.0 and 0.0 < p - eps < 1.0):
        raise ValueError(f"p +- eps must stay in (0, 1), got p={p}, eps={eps}")
    inner = 1.0 - math.sqrt(p * p - eps * eps) - math.sqrt((1.0 - p) ** 2 - eps * eps)
    return math.sqrt(max(inner, 0.0))
