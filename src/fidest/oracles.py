"""Preparation oracles: unitaries that load a target state from |0...0>.

A mixed state is served through a unitary on a system register plus an
ancilla register; applied to the all-zeros input it yields a pure state
whose reduced system matrix is the target.  An oracle is held as that
prepared column alone, a tuple of Python complex: its unitary is the
column's Householder completion, which ``fidest.linalg`` applies and builds.
Everything a sweep reads of an oracle pair is a ``math.fsum`` contraction of
the two columns over the ancilla columns that hold a nonzero entry: the
reduced state's purity (``PreparationOracle.purity``) and the traces
tr(rho sigma) and tr(rho sigma^2) (``pair_traces``), so a rank-r_u, rank-r_v
pair costs O(2^k r_v (r_u + r_v)) products and rests on no BLAS kernel.  A
random instance's column is the Gaussian factor its state is drawn from
(``synthesize_instance``); the eigh purification of a given state is a
reference (``fidest.reference``).  Oracles are immutable values.  A circuit
invokes an oracle plain or inverse and says how often, per kind
(``Circuit.queries``); the estimators derive a whole run's tallies from that
in closed form, and its controlled and controlled_inverse kinds come only
from ``fidest.estimation._query_tally``.

This module imports no numpy: with ``fidest.streams``, ``fidest.circuits``,
``fidest.estimation`` and ``fidest.fidelity`` it is the whole of what a sweep
or a single estimate runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

from .streams import uniforms

QUERY_KINDS = ("plain", "inverse", "controlled", "controlled_inverse")

INSTANCE_KINDS = ("haar_pure", "ginibre_mixed")

#: Tolerance for structural invariants (unitarity, Hermiticity, norms, trace).
ATOL_STRUCT = 1e-10

#: Qubit cap of an executed statevector: a 22-qubit state is 64 MiB.
QUBIT_CAP = 22


class QubitCapExceeded(ValueError):
    """A circuit, an operator or a readout register would exceed its qubit cap."""


def _dot(x, y) -> float:
    """sum_i x_i y_i as one math.fsum of the rounded products: the exact sum, rounded once."""
    return math.fsum(map(operator.mul, x, y))


@dataclass(frozen=True, eq=False)
class PreparationOracle:
    """State-preparation oracle held as its prepared column.

    ``prepared_state`` (system qubits most significant, then ancilla) is
    U|0...0>, held as a tuple of Python complex; on construction its entries
    must be scalars (a nested or 2-D column is refused, not flattened) and its
    norm is checked by a ``math.fsum``.  U is the column's Householder
    completion (``fidest.linalg.apply_oracle``).
    """

    prepared_state: tuple
    system_qubits: int
    ancilla_qubits: int
    label: str

    def __post_init__(self):
        entries = tuple(self.prepared_state)
        if not all(issubclass(t, numbers.Number) for t in set(map(type, entries))):
            raise ValueError(f"oracle {self.label!r} column shape: its entries must be scalars")
        col = tuple(map(complex, entries))
        dim = 1 << self.num_qubits
        if len(col) != dim:
            raise ValueError(
                f"oracle column length {len(col)} != {dim} for "
                f"{self.system_qubits}+{self.ancilla_qubits} qubits"
            )
        try:
            norm = math.sqrt(_dot(map(abs, col), map(abs, col)))
        except OverflowError:  # finite squares whose sum overflows
            norm = math.inf
        if not abs(norm - 1.0) <= ATOL_STRUCT:  # also rejects a non-finite column
            raise ValueError(f"oracle {self.label!r} column norm {norm} is not 1")
        object.__setattr__(self, "prepared_state", col)

    @property
    def num_qubits(self) -> int:
        return self.system_qubits + self.ancilla_qubits

    @functools.cached_property
    def _columns(self) -> list:
        """The ancilla columns of M (the column as a 2^system x 2^ancilla matrix) that hold a
        nonzero entry, each as its 2^system real parts followed by its 2^system imaginary parts."""
        width = 1 << self.ancilla_qubits
        columns = (self.prepared_state[a::width] for a in range(width))
        return [[z.real for z in col] + [z.imag for z in col] for col in columns if any(col)]

    def purity(self) -> float:
        """tr(rho^2) of the reduced system state rho = M M^dag, read from the column
        M (2^system x 2^ancilla) as ||M^dag M||_F^2, a math.fsum contraction: no density matrix."""
        return _frobenius2(_overlap(self._columns, self._columns))


def _turned(column: list) -> list:
    """(Im, -Re) of a column held as (Re, Im), so that <x|y> = x . y + i x . turned(y)."""
    d = len(column) // 2
    return column[d:] + [-x for x in column[:d]]


def _overlap(xs: list, ys: list) -> list:
    """X^dag Y of two lists of columns, each held as its real parts then its imaginary parts:
    row a holds the real parts of <x_a|y_b> over b, then their imaginary parts, each a
    math.fsum of its rounded products."""
    turned = [_turned(y) for y in ys]
    return [[_dot(x, y) for y in ys] + [_dot(x, t) for t in turned] for x in xs]


def _frobenius2(rows: list) -> float:
    """The squared Frobenius norm of a matrix in ``_overlap``'s layout, one math.fsum."""
    return math.fsum(x * x for row in rows for x in row)


def pair_traces(u: PreparationOracle, v: PreparationOracle) -> tuple:
    """(tr(rho sigma), tr(rho sigma^2)) of the states rho = M_u M_u^dag and sigma = M_v M_v^dag the
    oracles prepare, from one contraction of their columns.  With O = M_u^dag M_v, Z = O^dag O and
    the Gram matrix G = M_v^dag M_v, tr(rho sigma) = ||O||_F^2 and tr(rho sigma^2) = tr(Z G), the
    real inner product of the two Hermitian matrices.  Each entry is a math.fsum of its rounded
    real products, so the traces rest on IEEE arithmetic alone, on no BLAS kernel.  Only the
    ancilla columns that hold a nonzero entry are read: a rank-r_u, rank-r_v pair costs
    4 r_v (2^k (r_u + r_v) + r_u r_v) real products, so a pure sigma (r_v = 1) costs O(2^k r_u)."""
    if u.system_qubits != v.system_qubits:
        raise ValueError(f"system size mismatch: {u.system_qubits} vs {v.system_qubits} qubits")
    overlap = _overlap(u._columns, v._columns)
    r = len(v._columns)
    columns = [[row[b] for row in overlap] + [row[r + b] for row in overlap] for b in range(r)]
    z, g = _overlap(columns, columns), _overlap(v._columns, v._columns)
    return _frobenius2(overlap), _dot(itertools.chain(*z), itertools.chain(*g))


def check_instance_size(k: int, rank: int) -> None:
    """The one check of an instance's size, k >= 1 and 1 <= rank <= 2^k; the rank is tested by
    bit length, so 2^k is never built and a k far over the qubit cap is checked in O(1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rank < 1 or (rank - 1).bit_length() > k:
        raise ValueError(f"rank {rank} out of range [1, 2^{k}] for k={k}")


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Seed-deterministic recipe for a random state instance; k and rank meet check_instance_size."""

    k: int
    rank: int
    seed: int
    kind: str

    def __post_init__(self):
        check_instance_size(self.k, self.rank)
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed {self.seed} is not a 64-bit unsigned integer")
        if self.kind not in INSTANCE_KINDS:
            raise ValueError(f"kind {self.kind!r} not in {INSTANCE_KINDS}")
        if self.kind == "haar_pure" and self.rank != 1:
            raise ValueError("haar_pure instances must have rank 1")


def complex_gaussians(seed: int, n: int) -> list:
    """n standard complex Gaussians (Re and Im each N(0, 1/2), so |z|^2 is Exp(1)),
    by Box-Muller in scalar math from the stream uniforms(b"inst", (seed,), 2n).

    The uniform pair (u, v) gives sqrt(-log(1 - u)) e^(2 pi i v); 1 - u is exact
    and at least 2^-53, so the log is finite.
    """
    u = uniforms(b"inst", (seed,), 2 * n)
    out = []
    for r, t in zip(u[::2], u[1::2]):
        radius, angle = math.sqrt(-math.log(1.0 - r)), math.tau * t
        out.append(complex(radius * math.cos(angle), radius * math.sin(angle)))
    return out


def synthesize_instance(spec: RandomInstanceSpec, label: str = "U") -> PreparationOracle:
    """The oracle of a spec's random state, drawn deterministically from its seed.

    Both kinds draw g, a normalized complex-Gaussian d x rank matrix
    (``complex_gaussians`` of the spec's seed, row by row): a Haar-random
    pure state whose reduced system state is rho = g g^dag (the induced
    measure), so the oracle's column is g itself, zero-padded to the
    smallest ancilla that holds rank columns, ceil(log2 rank) qubits (none
    for haar_pure, whose column is psi itself).  g is normalised entry by
    entry by a math.fsum norm, so the column rests on libm alone.
    ``fidest.linalg.reduced_state`` reads the dense rho from the column.
    """
    d, ancilla = 1 << spec.k, (spec.rank - 1).bit_length()
    gaussians = complex_gaussians(spec.seed, d * spec.rank)
    re, im = [z.real for z in gaussians], [z.imag for z in gaussians]
    norm = math.sqrt(_dot(re + im, re + im))
    g = [complex(a / norm, b / norm) for a, b in zip(re, im)]
    pad = [0j] * ((1 << ancilla) - spec.rank)
    column = [z for i in range(0, d * spec.rank, spec.rank) for z in g[i : i + spec.rank] + pad]
    return PreparationOracle(column, spec.k, ancilla, label)
