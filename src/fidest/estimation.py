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
integrals telescope, so the proposal's inverse CDF is closed-form.  Each
outcome probability is one scalar float expression, K at one offset, and the
sampler builds no arrays and calls no numpy.

The estimators read out sin^2(pi y / M) (for p) or sin(pi y / M) (for
sqrt(p)) and take the lower median of 15 repetitions.  Their uniforms come
from fidest.streams, SHAKE-128 keyed by the seed: repetition rep's branch and
window uniforms are entries 2 rep and 2 rep + 1 of uniforms(b"head", (seed,),
30), read once per seed (the last seed's tuple is kept, so a sweep trial's
estimates share one read), and a repetition whose window misses reads its
tail rounds from uniforms(b"tail", (seed, rep), n), read on in chunks that
double.  An estimate is a function of its arguments alone: it does not
depend on which seed or delta ran before it, or on the thread it runs in.

With M >= 4 pi / delta (respectively 2 pi / delta) a single repetition lands
within delta with probability at least 8/pi^2, and the median amplifies that
well past 2/3.  fidest.reference.qpe_grid_distribution builds the whole 2^m
grid; it is the reference the sampler is tested against.

An estimate is a function of the flagged probability p, the tallies of one
preparer execution (``Circuit.queries``), delta and the seed; nothing here
runs a circuit.  Query accounting is closed-form, from those tallies.  Each
repetition runs the preparer once, so every query of it counts once per
repetition with its own kind.  It then runs 2^m - 1 Grover steps
Q = -A S_0 A^dag S_chi under a readout control, and a step runs the
preparer A once forward and once inverted, so every preparer query, of
whatever kind, adds one controlled and one controlled_inverse query per
step.  The tallies are returned with the run's result.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass

from .oracles import QUERY_KINDS, QubitCapExceeded
from .streams import uniforms

#: Repetitions whose lower median is reported.
DEFAULT_REPETITIONS = 15

#: Readout-register cap for the amplitude estimators.  Sampling costs O(1)
#: per outcome at any m; the cap is float64 resolution: at M = 2^48, M omega
#: keeps only 5 fractional bits of a phase near 1/2, and y/M is exact.
ESTIMATOR_MAX_M = 48

#: Offsets d in [1 - _WINDOW, _WINDOW] around the kernel peak are drawn by
#: inverse CDF, the rest of the period by rejection.
_WINDOW = 2


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


def _kernel(f: float, d: int, M: int) -> float:
    """K(d) = sin^2(pi f) / (M^2 sin^2(pi (f - d) / M)) for 0 < f < 1 and one integer offset d.

    The probability that the readout lands at a + d when M omega = a + f.
    sin(pi f) is taken on min(f, 1 - f), which is exact (1 - f is, for
    f >= 1/2), so K keeps full relative precision when f is near 0 or 1.
    Below M * 2^-1022, f / M is subnormal and the ratio would lose bits; there
    K(0) = 1 - O(f^2) rounds to 1.
    """
    if d == 0 and f < M * 2.0**-1022:
        return 1.0
    t = math.sin(math.pi * min(f, 1.0 - f)) / (M * math.sin(math.pi * (f - d) / M))
    return t * t


class _KernelSampler:
    """Exact O(1) sampler of the two-branch QPE readout law (see module docstring).

    Needs m >= 3, which follows from readout_qubits: delta < 1 has exponent
    e <= 0, so j >= 2.  The period then holds the window and at least two
    tail bins on each side.
    """

    def __init__(self, omega: float, m: int):
        self.M = M = 1 << m
        scaled = M * omega  # exact: M is a power of two
        self.a = math.floor(scaled)
        self.f = f = scaled - self.a
        if f == 0.0:
            return
        # the tail holds the remaining mass 1 - cum[-1]
        window = range(1 - _WINDOW, _WINDOW + 1)
        self.cum = list(itertools.accumulate(_kernel(f, d, M) for d in window))
        self.tail_bins = n = M // 2 - _WINDOW
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

    def draw(self, branch: float, window: float, tail) -> int:
        """One outcome y in [0, M) from two uniforms and an iterator of more.

        branch < 1/2 picks the branch at 1 - omega, window the offset in the
        window; only on a miss does the tail read from ``tail``.
        """
        M = self.M
        if self.f == 0.0:
            y = self.a % M
        else:
            i = bisect.bisect_right(self.cum, window)
            d = i + 1 - _WINDOW if i < len(self.cum) else self._tail_offset(tail)
            y = (self.a + d) % M
        # Pr_{1-omega}[y] = Pr_omega[M - y]: mirror instead of rounding 1 - omega
        return (M - y) % M if branch < 0.5 else y

    def _tail_offset(self, tail) -> int:
        """One offset drawn from the tail, the period outside the window."""
        # Pick a side with probability proportional to its envelope mass, then
        # a bin by inverse CDF (1/z is uniform between the side's ends), and
        # accept with probability K(d) / envelope(d).
        while True:
            right = next(tail) < self.right_share
            c, inv_far, mass = self.sides[0 if right else 1]
            z = 1.0 / (inv_far + next(tail) * mass)
            j = min(max(math.ceil(z - c), 0), self.tail_bins - 1)
            d = _WINDOW + 1 + j if right else -_WINDOW - j
            z = c + j
            if next(tail) * self.scale / (z * (z - 1.0)) <= _kernel(self.f, d, self.M):
                return d


def _tail_uniforms(seed: int, rep: int):
    """Repetition rep's tail uniforms, uniforms(b"tail", (seed, rep), n) read on in
    chunks that double; each read extends the last (see fidest.streams)."""
    start, n = 0, 6
    while True:
        yield from uniforms(b"tail", (seed, rep), n)[start:]
        start, n = n, 2 * n


def readout_qubits(delta: float, square: bool) -> int:
    """Readout qubits m for error delta: j + 2 for p, j + 1 for sqrt(p), where j
    is the least integer with delta 2^j >= pi.  The one place m meets ESTIMATOR_MAX_M.

    With delta = f 2^e (1/2 <= f < 1), delta 2^(2-e) = 4f lies in [2, 4) and
    is exact, so j is 2 - e or 3 - e; and since math.pi < pi <
    nextafter(math.pi, inf), a double is >= pi exactly when it is > math.pi.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    e = math.frexp(delta)[1]
    m = (2 - e if math.ldexp(delta, 2 - e) > math.pi else 3 - e) + (2 if square else 1)
    if m > ESTIMATOR_MAX_M:
        raise QubitCapExceeded(f"delta = {delta} needs m = {m} readout qubits, cap is {ESTIMATOR_MAX_M}")
    return m


def _query_tally(once: dict, grover_steps: int, repetitions: int) -> dict:
    """Closed-form per-oracle tallies of one estimator run, from one preparer execution's."""
    tally: dict = {}
    for label, counts in once.items():
        per_oracle = tally[label] = {kind: count * repetitions for kind, count in counts.items()}
        for kind in ("controlled", "controlled_inverse"):
            per_oracle[kind] += sum(counts.values()) * grover_steps
    return tally


@functools.lru_cache(maxsize=1)
def _head_uniforms(seed: int) -> tuple:
    """The branch and window uniforms of an estimate, uniforms(b"head", (seed,), 2 R) as a
    tuple: the estimates of a sweep trial share its seed, so they read it once."""
    return tuple(uniforms(b"head", (seed,), 2 * DEFAULT_REPETITIONS))


def _estimate(p, once, delta, seed, square):
    m = readout_qubits(delta, square)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    sampler = _KernelSampler(math.asin(math.sqrt(p)) / math.pi, m)
    grover_steps = ((1 << m) - 1) * DEFAULT_REPETITIONS
    head = _head_uniforms(seed)
    values = []
    for rep in range(DEFAULT_REPETITIONS):
        y = sampler.draw(head[2 * rep], head[2 * rep + 1], _tail_uniforms(seed, rep))
        amp = math.sin(math.pi * y / sampler.M)
        values.append(amp * amp if square else amp)
    return EstimationResult(
        estimate=sorted(values)[(DEFAULT_REPETITIONS - 1) // 2],
        delta=float(delta),
        m=m,
        repetitions=DEFAULT_REPETITIONS,
        seed=seed,
        queries=_query_tally(once, grover_steps, DEFAULT_REPETITIONS),
        grover_applications=grover_steps,
    )


def amplitude_estimate(p: float, once: dict, delta: float, seed: int) -> EstimationResult:
    """Estimate the flagged probability p of a preparer that queries ``once`` to within delta.

    Succeeds with probability >= 2/3, using readout_qubits(delta, True)
    readout qubits and O(1/delta) preparer queries.
    """
    return _estimate(p, once, delta, seed, True)


def sqrt_amplitude_estimate(p: float, once: dict, delta: float, seed: int) -> EstimationResult:
    """Estimate the flagged amplitude sqrt(p) to within delta (prob >= 2/3).

    Same machinery as amplitude_estimate with a sin readout and one readout
    qubit fewer: since |sin(pi y/M) - sin(pi omega)| <= pi |y/M - omega|,
    the QPE grid guarantee transfers to sqrt(p) directly.
    """
    return _estimate(p, once, delta, seed, False)
