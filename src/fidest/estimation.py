"""Amplitude estimation by exact sampling of the phase-estimation readout.

Phase estimation with m readout qubits on a unitary Q applied to a state
with weight w_l on the eigenphase fraction omega_l (Q|v_l> = e^{2 pi i
omega_l}|v_l>) yields outcome y in [0, 2^m) with probability

    Pr[y] = sum_l w_l * sin^2(pi(M omega_l - y)) / (M^2 sin^2(pi(omega_l - y/M))),

the squared Dirichlet (Fejer) kernel with M = 2^m.  For the Grover operator
of a state preparer whose flagged probability is p = sin^2(theta), the
prepared state splits with weight exactly 1/2 onto each of the two
eigenphases omega = theta/pi and 1 - omega, so its outcome law is an equal
kernel mixture.  The estimators draw each outcome exactly at O(1) cost,
never touching the 2^m grid: pick a branch with probability 1/2, write
M omega = a + f with a an integer and 0 <= f < 1, and draw the offset
d = y - a (mod M), whose law is

    K(d) = sin^2(pi f) / (M^2 sin^2(pi (f - d) / M)).

When f = 0 the outcome is a.  Otherwise the offsets -1..2 nearest the peak
are drawn by inverse CDF and the rest of the period, the tail, by rejection
against the envelope sin^2(pi f) / (4 (f - d)^2), which dominates K because
|sin(pi t)| >= 2|t| for |t| <= 1/2 (Brassard, Hoyer, Mosca and Tapp,
quant-ph/0005055, Thm 11).  The envelope at each bin is bounded by its
integral over the unit interval between that bin and the peak, and those
integrals telescope, so the proposal's inverse CDF is closed-form.

The estimators read out sin^2(pi y / M) (for p) or sin(pi y / M) (for
sqrt(p)) and take the lower median of 15 repetitions, each drawn from its
own generator default_rng([seed, rep]).  With M >= 4 pi / delta
(respectively 2 pi / delta) a single repetition lands within delta with
probability at least 8/pi^2, and the median amplifies that well past 2/3.
fidest.reference.qpe_grid_distribution builds the whole 2^m grid; it is the
reference the sampler is tested against.

Query accounting is closed-form, from the tallies of one preparer execution
(``Circuit.queries``).  Each repetition runs the preparer once, so every
query of it counts once per repetition with its own kind.  It then runs
2^m - 1 Grover steps Q = -A S_0 A^dag S_chi under a readout control, and a
step runs the preparer A once forward and once inverted, so every preparer
query, of whatever kind, adds one controlled and one controlled_inverse
query per step.  The tallies are returned with the run's result.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, QubitCapExceeded, analyze_flagged, execute
from .oracles import QUERY_KINDS

#: Repetitions whose lower median is reported.
DEFAULT_REPETITIONS = 15

#: Readout-register cap for the amplitude estimators.  Sampling costs O(1)
#: per outcome at any m; the cap is float64 resolution: at M = 2^48, M omega
#: keeps only 5 fractional bits of a phase near 1/2, and y/M is exact.
ESTIMATOR_MAX_M = 48

#: Offsets d in [1 - _WINDOW, _WINDOW] around the kernel peak are drawn by
#: inverse CDF, the rest of the period by rejection.
_WINDOW = 2


@dataclass(frozen=True, eq=False)
class AmplitudeProblem:
    """A state preparer whose flag register carries the amplitude of interest.

    The good subspace is flag = |0>: the preparer maps |0...0> to
    sqrt(p)|0>_flag|phi0> + sqrt(1-p)|1>_flag|phi1>.
    """

    preparer: Circuit
    flag_register: str

    def __post_init__(self):
        if self.flag_register not in self.preparer.layout.names:
            raise ValueError(f"flag register {self.flag_register!r} not in layout")
        if self.preparer.layout.size(self.flag_register) != 1:
            raise ValueError(f"flag register {self.flag_register!r} must be one qubit")

    @property
    def total_qubits(self) -> int:
        return self.preparer.layout.total_qubits

    @functools.cached_property
    def p(self) -> float:
        """flag_probability(self), computed once: the circuit and its oracles are frozen."""
        return flag_probability(self)


@dataclass(eq=False)
class EstimationResult:
    """One estimator run: the estimate plus everything needed to reproduce it."""

    estimate: float
    delta: float
    m: int
    repetitions: int
    seed: int
    queries: dict
    grover_applications: int

    def total_queries(self, label: str) -> int:
        return sum(self.queries.get(label, {}).values())

    def to_json(self) -> str:
        payload = {
            "estimate": self.estimate,
            "delta": self.delta,
            "m": self.m,
            "reps": self.repetitions,
            "seed": self.seed,
            "queries": {
                label: {kind: self.queries[label][kind] for kind in QUERY_KINDS}
                for label in sorted(self.queries)
            },
            "grover_applications": self.grover_applications,
        }
        return json.dumps(payload)


def flag_probability(problem: AmplitudeProblem) -> float:
    """Exact probability of flag = 0 after the preparer."""
    state = execute(problem.preparer)
    amp = analyze_flagged(state, problem.preparer.layout, (problem.flag_register,))
    return min(max(amp.flagged_amplitude**2, 0.0), 1.0)


def _kernel(f: float, d, M: int):
    """K(d) = sin^2(pi f) / (M^2 sin^2(pi (f - d) / M)) for 0 < f < 1 and offsets d.

    The probability that the readout lands at a + d when M omega = a + f.
    sin(pi f) is taken on min(f, 1 - f), which is exact (1 - f is, for
    f >= 1/2), so K keeps full relative precision when f is near 0 or 1.
    """
    num = math.sin(math.pi * min(f, 1.0 - f))
    return (num / (M * np.sin(np.pi * (f - d) / M))) ** 2


class _KernelSampler:
    """Exact O(1) sampler of the two-branch QPE readout law (see module docstring)."""

    def __init__(self, omega: float, m: int):
        self.M = M = 1 << m
        scaled = M * omega  # exact: M is a power of two
        self.a = math.floor(scaled)
        self.f = f = scaled - self.a
        if f == 0.0:
            return
        half = M // 2
        self.window = np.arange(max(1 - _WINDOW, 1 - half), min(_WINDOW, half) + 1)
        cum = np.cumsum(_kernel(f, self.window, M))
        self.tail_bins = n = half - _WINDOW
        if n <= 0:  # the window is the whole period; absorb rounding
            self.cum = (cum / cum[-1]).tolist()
            return
        self.cum = cum.tolist()  # the tail holds the remaining mass 1 - cum[-1]
        # Tail bin j on a side sits at distance z = c + j from f: d = _WINDOW + 1 + j
        # on the right (c = _WINDOW + 1 - f), d = -_WINDOW - j on the left
        # (c = _WINDOW + f).  Its envelope, over sin^2(pi f) / 4, is bounded by
        # 1/(z-1) - 1/z = 1/(z (z-1)); a side's n bins sum to n/((c-1)(c+n-1)).
        self.sides = [
            (c, 1.0 / (c + n - 1.0), n / ((c - 1.0) * (c + n - 1.0)))
            for c in (_WINDOW + 1 - f, _WINDOW + f)
        ]
        self.right_share = self.sides[0][2] / (self.sides[0][2] + self.sides[1][2])
        self.scale = math.sin(math.pi * min(f, 1.0 - f)) ** 2 / 4.0

    def offset(self, rng: np.random.Generator) -> int:
        """One offset d of the branch at omega, so the outcome is (a + d) mod M."""
        if self.f == 0.0:
            return 0
        i = bisect.bisect_right(self.cum, rng.random())
        if i < len(self.cum):
            return int(self.window[i])
        # Tail: pick a side with probability proportional to its envelope
        # mass, then a bin by inverse CDF (1/z is uniform between the side's
        # ends), and accept with probability K(d) / envelope(d).
        while True:
            right = rng.random() < self.right_share
            c, inv_far, mass = self.sides[0 if right else 1]
            z = 1.0 / (inv_far + rng.random() * mass)
            j = min(max(math.ceil(z - c), 0), self.tail_bins - 1)
            d = _WINDOW + 1 + j if right else -_WINDOW - j
            z = c + j
            if rng.random() * self.scale / (z * (z - 1.0)) <= _kernel(self.f, d, self.M):
                return d

    def draw(self, rng: np.random.Generator) -> int:
        """One outcome y in [0, M): branch omega or 1 - omega with probability 1/2 each."""
        mirrored = rng.random() < 0.5
        y = (self.a + self.offset(rng)) % self.M
        # Pr_{1-omega}[y] = Pr_omega[M - y]: mirror instead of rounding 1 - omega
        return (self.M - y) % self.M if mirrored else y


def readout_qubits(delta: float, square: bool) -> int:
    """Readout qubits for error delta: ceil(log2(pi/delta)) + 2 for p, + 1 for sqrt(p).

    Where pi/delta overflows (delta below ~2e-308) the logarithm is taken
    term by term; that m is far past ESTIMATOR_MAX_M.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    ratio = math.pi / delta
    bits = math.log2(ratio) if ratio < math.inf else math.log2(math.pi) - math.log2(delta)
    return math.ceil(bits) + (2 if square else 1)


def _query_tally(problem: AmplitudeProblem, m: int, repetitions: int) -> dict:
    """Closed-form per-oracle tallies of one estimator run, built from one preparer execution's."""
    grover_steps = ((1 << m) - 1) * repetitions
    tally: dict = {}
    for label, once in problem.preparer.queries().items():
        per_oracle = tally[label] = {kind: count * repetitions for kind, count in once.items()}
        for kind in ("controlled", "controlled_inverse"):
            per_oracle[kind] += sum(once.values()) * grover_steps
    return tally


def _estimate(problem, delta, seed, square):
    m = readout_qubits(delta, square)
    if m > ESTIMATOR_MAX_M:
        raise QubitCapExceeded(
            f"delta = {delta} needs m = {m} readout qubits, cap is {ESTIMATOR_MAX_M}"
        )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    sampler = _KernelSampler(math.asin(math.sqrt(problem.p)) / math.pi, m)
    M = 1 << m
    values = []
    for rep in range(DEFAULT_REPETITIONS):
        y = sampler.draw(np.random.default_rng([seed, rep]))
        amp = math.sin(math.pi * y / M)
        values.append(amp * amp if square else amp)
    estimate = sorted(values)[(DEFAULT_REPETITIONS - 1) // 2]
    queries = _query_tally(problem, m, DEFAULT_REPETITIONS)
    return EstimationResult(
        estimate=float(estimate),
        delta=float(delta),
        m=m,
        repetitions=DEFAULT_REPETITIONS,
        seed=seed,
        queries=queries,
        grover_applications=((1 << m) - 1) * DEFAULT_REPETITIONS,
    )


def amplitude_estimate(problem: AmplitudeProblem, delta: float, seed: int) -> EstimationResult:
    """Estimate the flagged probability p to within delta (prob >= 2/3).

    Uses m = ceil(log2(pi/delta)) + 2 readout qubits and O(1/delta) preparer
    queries; deterministic given (problem, delta, seed).
    """
    return _estimate(problem, delta, seed, True)


def sqrt_amplitude_estimate(problem: AmplitudeProblem, delta: float, seed: int) -> EstimationResult:
    """Estimate the flagged amplitude sqrt(p) to within delta (prob >= 2/3).

    Same machinery as amplitude_estimate with a sin readout and
    m = ceil(log2(pi/delta)) + 1: since |sin(pi y/M) - sin(pi omega)| <=
    pi |y/M - omega|, the QPE grid guarantee transfers to sqrt(p) directly.
    """
    return _estimate(problem, delta, seed, False)
