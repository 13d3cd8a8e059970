"""Fidelity estimators.

An estimate of a pair reads only the two prepared columns: ``Estimator.bind``
takes the pair's flag probability p and true value from one ``math.fsum``
contraction of them (``fidest.oracles.pair_traces``), so this module imports
no numpy.  The dense references and the hard family are in ``fidest.linalg``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .circuits import build_flagged_encoding, build_swap_test
from .estimation import (
    ESTIMATOR_MAX_M,
    EstimationResult,
    amplitude_estimate,
    readout_qubits,
    sqrt_amplitude_estimate,
)
from .oracles import PreparationOracle, QubitCapExceeded, pair_traces

#: A state counts as pure when tr(rho^2) >= 1 - PURITY_ATOL; compared in ``Estimator.bind`` alone.
PURITY_ATOL = 1e-9


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

    def bind(self, name: str, rho_oracle: PreparationOracle, second_oracle: PreparationOracle):
        """Check the required purities and build the circuit once for an oracle pair.

        Returns the ``BoundEstimator`` of the pair: its p and true value come
        from one contraction of the two columns, and the circuit is never executed.
        """
        if self.second_pure and not second_oracle.purity() >= 1.0 - PURITY_ATOL:
            raise ValueError(f"the {name} estimator requires a pure second state")
        if self.first_pure and not rho_oracle.purity() >= 1.0 - PURITY_ATOL:
            raise ValueError(f"the {name} estimator requires a pure first state")
        build = build_swap_test if self.swap_test else build_flagged_encoding
        once = build(rho_oracle, second_oracle).queries()  # building checks the pair
        tr_sigma, tr_sigma2 = pair_traces(rho_oracle, second_oracle)
        p = _unit((1.0 + tr_sigma) / 2.0 if self.swap_test else tr_sigma2)
        return BoundEstimator(self, p, math.sqrt(_unit(tr_sigma2)), once)


def _unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class BoundEstimator:
    """An estimator bound to one checked oracle pair (``Estimator.bind``).

    With M_u, M_v the prepared columns as 2^k x 2^ancilla matrices (rho =
    M_u M_u^dag, sigma = M_v M_v^dag), ``p`` is Pr[C = 0] of the estimator's
    circuit: tr(rho sigma^2) = ||M_v M_v^dag M_u||_F^2 for the flagged
    encoding and (1 + ||M_u^dag M_v||_F^2)/2 for the SWAP test.
    ``true_value`` is sqrt(tr(rho sigma^2)) from the same contraction, so for
    the flagged encoding it is sqrt(p) to the bit.  A call estimates at
    (epsilon, seed); every call shares p.
    """

    estimator: Estimator
    p: float
    true_value: float
    once: dict

    def __call__(self, epsilon: float, seed: int) -> EstimationResult:
        delta = self.estimator.delta(epsilon)
        if not self.estimator.swap_test:
            return sqrt_amplitude_estimate(self.p, self.once, delta, seed)
        inner = amplitude_estimate(self.p, self.once, delta, seed)
        # near F = 0 the back-transform 2p - 1 can go negative; clamping
        # it at zero inflates the worst-case error there
        value = math.sqrt(max(2.0 * inner.estimate - 1.0, 0.0))
        return dataclasses.replace(inner, estimate=min(value, 1.0))


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
