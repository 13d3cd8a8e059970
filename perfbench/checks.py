"""Output checks for one ``fidest.cli.main`` call of a workload.

A record is one sweep row (one ``(epsilon, trial)`` estimate) or one
``verify-identities`` trial.  A run-level failure (non-zero exit, wrong
header or row count, wrong printed summary, a line that is not PASS) fails
every record of the call; a row-level failure fails that row.  The
per-epsilon success fraction is judged over a whole benchmark run by
``success_shortfall``, since one call holds too few trials per epsilon.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = (
    "instance_id,estimator,epsilon,seed,true_value,estimate,abs_error,success,"
    "queries_U,queries_V,grover_applications,wall_ms"
)
REPETITIONS = 15
#: The documented per-estimate success guarantee.
MIN_SUCCESS_FRACTION = 2.0 / 3.0

_SLOPE_LINE = re.compile(r"^scaling (\S+): log-log slope (\S+)$")
_SUCCESS_LINE = re.compile(r"^epsilon (\S+): success fraction (\S+) \((\d+)/(\d+)\)$")


@dataclass
class CallCheck:
    records: int
    failed: int = 0
    errors: list = field(default_factory=list)
    #: epsilon -> [successes, rows], for the run-level success fraction
    successes: dict = field(default_factory=dict)
    digest: str = ""

    def fail_all(self, message: str) -> "CallCheck":
        self.failed = self.records
        self.errors.append(message)
        return self


def expected_m(estimator: str, epsilon: float) -> int:
    """Readout qubits the estimator must use for ``epsilon``."""
    if estimator == "swap-baseline":
        return math.ceil(math.log2(math.pi / (epsilon**2 / 4.0))) + 2
    return math.ceil(math.log2(math.pi / epsilon)) + 1


def expected_tallies(estimator: str, epsilon: float) -> tuple:
    """Closed-form ``(queries_U, queries_V, grover_applications)`` of one estimate."""
    m = expected_m(estimator, epsilon)
    grover = REPETITIONS * ((1 << m) - 1)
    queries_u = REPETITIONS * ((1 << (m + 1)) - 1)
    queries_v = queries_u if estimator == "swap-baseline" else 2 * queries_u
    return queries_u, queries_v, grover


def refit_slope(rows) -> float:
    """Least-squares log-log slope of median total queries against epsilon."""
    by_eps: dict = {}
    for row in rows:
        by_eps.setdefault(float(row["epsilon"]), []).append(
            int(row["queries_U"]) + int(row["queries_V"])
        )
    eps = sorted(by_eps)
    medians = [float(np.median(by_eps[e])) for e in eps]
    return float(np.polyfit(np.log(eps), np.log(medians), 1)[0])


def digest_without_wall_ms(csv_text: str) -> str:
    """sha256 of a sweep CSV with its last column (``wall_ms``) dropped."""
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())
    return hashlib.sha256(stripped.encode()).hexdigest()


def check_sweep(workload, exit_code, stdout: str, csv_text: str) -> CallCheck:
    estimator = workload.estimator
    epsilons = workload.epsilons
    check = CallCheck(records=workload.records_per_call)
    if exit_code != 0:
        return check.fail_all(f"exit code {exit_code}")
    check.digest = digest_without_wall_ms(csv_text)
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return check.fail_all(f"CSV header {lines[:1]!r} differs from the contract")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != check.records:
        return check.fail_all(f"{len(rows)} rows, expected {check.records}")

    printed_slopes = {}
    printed_fractions = {}
    for line in stdout.splitlines():
        if match := _SLOPE_LINE.match(line):
            printed_slopes[match.group(1)] = match.group(2)
        elif match := _SUCCESS_LINE.match(line):
            printed_fractions[float(match.group(1))] = (int(match.group(3)), int(match.group(4)))

    if len(set(epsilons)) >= 3:
        slope = refit_slope(rows)
        if printed_slopes != {estimator: f"{slope:.3f}"}:
            return check.fail_all(f"printed slopes {printed_slopes} != refit {slope:.3f}")
        toward, away = (-2.0, -1.0) if estimator == "swap-baseline" else (-1.0, -2.0)
        if not abs(slope - toward) < abs(slope - away):
            return check.fail_all(f"slope {slope:.3f} is not nearer {toward} than {away}")

    for row in rows:
        eps = float(row["epsilon"])
        tally = (int(row["queries_U"]), int(row["queries_V"]), int(row["grover_applications"]))
        success = row["success"] == "true"
        row_ok = (
            row["estimator"] == estimator
            and eps in epsilons
            and tally == expected_tallies(estimator, eps)
            and row["success"] in ("true", "false")
            and success == (float(row["abs_error"]) <= eps)
        )
        if not row_ok:
            check.failed += 1
            check.errors.append(f"row failed its checks: {row}")
        counts = check.successes.setdefault(eps, [0, 0])
        counts[0] += success
        counts[1] += 1

    if printed_fractions != {eps: tuple(c) for eps, c in check.successes.items()}:
        return check.fail_all(f"printed success fractions {printed_fractions} disagree with the CSV")
    return check


def check_verify(workload, exit_code, stdout: str) -> CallCheck:
    check = CallCheck(records=workload.trials)
    check.digest = hashlib.sha256(stdout.encode()).hexdigest()
    if exit_code != 0:
        return check.fail_all(f"exit code {exit_code}")
    lines = stdout.splitlines()
    residuals = [line for line in lines if ": max residual " in line]
    if not residuals or any(not line.endswith("[PASS]") for line in residuals):
        return check.fail_all("an identity line does not read PASS")
    if lines[-1:] != ["verify-identities: all identities hold"]:
        return check.fail_all(f"final line {lines[-1:]!r} does not confirm the identities")
    return check


def success_shortfall(successes: dict) -> dict:
    """Epsilon groups whose run-level success fraction is below 2/3, with their row counts."""
    return {
        eps: rows for eps, (hits, rows) in successes.items() if hits < MIN_SUCCESS_FRACTION * rows
    }
