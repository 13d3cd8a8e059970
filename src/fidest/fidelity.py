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


@dataclass(frozen=True)
class Estimator:
    """Which circuit an estimator runs and which of its two states must be pure.

    The SWAP test reads (1 + F^2)/2 to eps^2/4 (Theta(1/eps^2) queries); the
    flagged encoding reads sqrt(tr(rho sigma^2)) to eps (Theta(1/eps) queries,
    two V queries per U query).  ``bind(u, v)(epsilon, seed)`` runs it.
    """

    name: str
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

    def bind(self, rho_oracle: PreparationOracle, second_oracle: PreparationOracle):
        """Check the required purities and build the circuit once for an oracle pair.

        Returns the ``BoundEstimator`` of the pair: its p and true value come
        from one contraction of the two columns, and the circuit is never executed.
        The purities are checked first, then the system sizes (by the build);
        epsilon (``delta``) and the seed (``fidest.estimation``) are checked by
        each call, before any sampling.
        """
        if self.second_pure and not second_oracle.purity() >= 1.0 - PURITY_ATOL:
            raise ValueError(f"the {self.name} estimator requires a pure second state")
        if self.first_pure and not rho_oracle.purity() >= 1.0 - PURITY_ATOL:
            raise ValueError(f"the {self.name} estimator requires a pure first state")
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
    e.name: e
    for e in (
        # F via Pr[C=0] = (1 + F^2)/2, Theta(1/eps^2) queries
        Estimator("swap-baseline", swap_test=True, first_pure=False, second_pure=True),
        # F(rho, |psi>) with O(1/eps) queries
        Estimator("optimal", swap_test=False, first_pure=False, second_pure=True),
        # sqrt(tr(rho sigma^2)) for any sigma; equals optimal, seed for seed, on a pure sigma
        Estimator("tr-rho-sigma2", swap_test=False, first_pure=False, second_pure=False),
        # |<phi|psi>| for two pure states
        Estimator("pure-pure", swap_test=False, first_pure=True, second_pure=True),
    )
}
