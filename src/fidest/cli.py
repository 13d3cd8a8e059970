"""Experiment harness: identity suites, estimator sweeps, adversarial diagnostics.

All commands are deterministic given their config (wall_ms excepted); sweep
records are buffered and written sorted by (epsilon, seed) so output files
are byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .circuits import (
    QUBIT_CAP,
    QubitCapExceeded,
    analyze_flagged,
    build_encoding_circuit,
    build_flagged_encoding,
    build_restructured_encoding,
    build_swap_test,
    execute,
    register_zero_probability,
)
from .fidelity import (
    ESTIMATORS,
    check_hard_family,
    exact_tr_rho_sigma2,
    hard_pair,
    hard_pair_hellinger,
    hellinger_distance,
)
from .oracles import RandomInstanceSpec, check_instance_size, sample_instance, synthesize_instance
from .streams import derive_seed

COMMANDS = ("verify-identities", "sweep", "hard-instance", "single")
FORMATS = ("csv", "json")

HARD_CSV_HEADER = (
    "p,epsilon,rank,k,sign,fidelity,expected_fidelity,fidelity_residual,"
    "hellinger,expected_hellinger,hellinger_residual"
)

# fixed p grid for the hard-instance command (config carries eps and rank)
HARD_P_GRID = (0.3, 0.5, 0.7)

#: verify-identities residual name -> its bound, in print order
IDENTITY_BOUNDS = {
    "encoding pure |amp^2 - <psi|rho|psi>|": 1e-10,
    "encoding mixed |amp^2 - tr(rho sigma^2)|": 1e-10,
    "encoding vs restructured |amp^2 - amp^2|": 1e-10,
    "flag fold |Pr[C=0] - amp^2|": 1e-10,
    "decomposition |amp^2 + residual^2 - 1|": 1e-10,
    "swap law |Pr[C=0] - (1+F^2)/2|": 1e-10,
    "oracle unitarity max|U^dag U - I|": 1e-10,
    "oracle reconstruction max|tr_B - rho|": 1e-9,
}


def _is_number(value, types) -> bool:
    """isinstance(value, types), except that a bool is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """A command's settings, checked before any work; instances by check_instance_size, check_hard_family."""

    command: str
    k: int | None = None  # None: the command's flag default
    rank: int = 2
    estimator: str = "optimal"
    epsilons: tuple = (0.1,)
    trials: int | None = None  # None: the command's flag default, or 1 without the flag
    seed: int = 0
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.k is None or self.trials is None:
            flags = vars(build_parser().parse_args([self.command]))
            for name in ("k", "trials"):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, flags.get(name, 1))
        # a --config file reaches here unparsed, so check types before values
        for name in ("k", "rank", "trials", "seed"):
            if not _is_number(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("estimator", "format"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.output_path is not None:
            if not isinstance(self.output_path, str):
                raise ValueError(f"output_path must be a string, got {self.output_path!r}")
            # an unwritable path fails here, before any work, not after the last trial
            folder = os.path.dirname(self.output_path) or "."
            if not self.output_path or os.path.isdir(self.output_path) or not os.path.isdir(folder):
                raise ValueError(
                    f"output path {self.output_path!r} is not a file in an existing directory"
                )
        if not isinstance(self.epsilons, (list, tuple)) or not all(
            _is_number(e, (int, float)) for e in self.epsilons
        ):
            raise ValueError(f"epsilons must be a list of numbers, got {self.epsilons!r}")
        check_instance_size(self.k, self.rank)
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {tuple(ESTIMATORS)}"
            )
        if not self.epsilons:
            raise ValueError("at least one epsilon is required")
        # compared before float(): an integer too large for a float is out of range, not an overflow
        if any(not 0.0 < e < 1.0 for e in self.epsilons):
            raise ValueError(f"epsilons must lie in (0, 1), got {tuple(self.epsilons)}")
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < (1 << 63):
            raise ValueError(f"seed must be a non-negative 63-bit integer, got {self.seed}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        if ESTIMATORS[self.estimator].first_pure and self.rank != 1:
            raise ValueError(f"the {self.estimator} estimator needs rank 1 instances")
        if self.command == "single" and (len(eps) != 1 or self.trials != 1):
            raise ValueError(f"single runs one estimate: got {len(eps)} epsilons, {self.trials} trials")
        if self.command == "hard-instance":
            for p in HARD_P_GRID:
                for e in eps:
                    check_hard_family(p, e, self.rank, self.k)
            # the family is built from k-qubit weight and amplitude vectors
            n, what = self.k, "states"
        else:
            # every circuit these commands run has 1 + 4k qubits: a flag or
            # control qubit, two k-qubit systems and their k-qubit ancillas
            n, what = 1 + 4 * self.k, "circuits"
        if n > QUBIT_CAP:
            raise QubitCapExceeded(f"k = {self.k} needs {n}-qubit {what}, cap is {QUBIT_CAP}")
        if self.command in ("sweep", "single"):
            for e in eps:
                try:
                    ESTIMATORS[self.estimator].readout_qubits(e)
                except QubitCapExceeded as exc:
                    raise QubitCapExceeded(f"epsilon = {e} for the {self.estimator} estimator: {exc}") from exc


@dataclass(frozen=True)
class ExperimentRecord:
    instance_id: str
    estimator: str
    epsilon: float
    seed: int
    true_value: float
    estimate: float
    abs_error: float
    success: bool
    queries_U: int
    queries_V: int
    grover_applications: int
    wall_ms: int

    def __post_init__(self):
        if self.success != (self.abs_error <= self.epsilon):
            raise ValueError("success flag inconsistent with abs_error <= epsilon")
        if min(self.queries_U, self.queries_V, self.grover_applications, self.wall_ms) < 0:
            raise ValueError("query and timing fields must be non-negative")

    def csv_row(self) -> list:
        """The record's fields in CSV_HEADER order."""
        return [getattr(self, f.name) for f in dataclasses.fields(self)]


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ExperimentRecord))


def fit_scaling(records) -> dict:
    """Least-squares slope of log(median total queries) vs log(epsilon), per estimator.

    The closed form sum(dx dy) / sum(dx^2), each sum a math.fsum: it rests on libm alone, not on
    LAPACK, SIMD or record order.  Epsilons sharing a log are one x, so 3 xs make sum(dx^2) > 0.
    """
    groups: dict = {}
    for rec in records:
        by_x = groups.setdefault(rec.estimator, {})
        by_x.setdefault(math.log(rec.epsilon), []).append(rec.queries_U + rec.queries_V)
    slopes = {}
    for estimator, by_x in groups.items():
        if len(by_x) < 3:
            raise ValueError(f"need >= 3 distinct log(epsilon) values for a fit, {estimator!r} has {len(by_x)}")
        xs = list(by_x)
        # each median is the mean of the middle two sorted totals, or of the middle one twice
        ys = [math.log((t[(len(t) - 1) // 2] + t[len(t) // 2]) / 2) for t in map(sorted, by_x.values())]
        x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        dx = [x - x_bar for x in xs]
        slopes[estimator] = math.fsum(d * (y - y_bar) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
    return slopes


def _spec(config: ExperimentConfig, trial: int, stream: int, kind: str, rank: int):
    """The seeded instance spec of one trial's instance stream."""
    return RandomInstanceSpec(config.k, rank, derive_seed(config.seed, trial, stream), kind)


def _estimate_trial(config: ExperimentConfig, trial: int) -> list:
    """Sample one trial's instance pair, bind the estimator to it once, and
    estimate it at each epsilon with the trial's seed derive_seed(seed, trial, 2).

    Returns a (record, result) pair per epsilon. A ValueError is re-raised as
    the same type (so the exit code holds) naming the trial and epsilon that
    raised it; a failed bind names the first epsilon.
    """
    estimator = ESTIMATORS[config.estimator]
    kinds = {True: ("haar_pure", 1), False: ("ginibre_mixed", config.rank)}
    first, second = kinds[estimator.first_pure], kinds[estimator.second_pure]
    rho, rho_oracle = synthesize_instance(_spec(config, trial, 0, *first), "U")
    sigma, second_oracle = synthesize_instance(_spec(config, trial, 1, *second), "V")
    truth = math.sqrt(exact_tr_rho_sigma2(rho, sigma))
    seed = derive_seed(config.seed, trial, 2)
    out = []
    epsilon = config.epsilons[0]
    try:
        estimate = estimator.bind(config.estimator, rho_oracle, second_oracle)
        for epsilon in config.epsilons:
            start = time.perf_counter()
            result = estimate(epsilon, seed)
            wall_ms = int(round((time.perf_counter() - start) * 1000.0))
            abs_error = abs(result.estimate - truth)
            record = ExperimentRecord(
                instance_id=f"k{config.k}-r{config.rank}-t{trial}",
                estimator=config.estimator,
                epsilon=epsilon,
                seed=seed,
                true_value=truth,
                estimate=result.estimate,
                abs_error=abs_error,
                success=abs_error <= epsilon,
                queries_U=result.total_queries("U"),
                queries_V=result.total_queries("V"),
                grover_applications=result.grover_applications,
                wall_ms=wall_ms,
            )
            out.append((record, result))
    except ValueError as exc:
        raise type(exc)(f"trial {trial}, epsilon {epsilon:g}: {exc}") from exc
    return out


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: str, rows) -> str:
    """CSV under one cell rule: bools become true/false; csv writes every other
    value with str, which for a float is its shortest round-trip repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    for row in rows:
        writer.writerow([("true" if v else "false") if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


def _run_sweep(config: ExperimentConfig) -> int:
    records = [
        record
        for trial in range(config.trials)
        for record, _ in _estimate_trial(config, trial)
    ]
    records.sort(key=lambda r: (r.epsilon, r.seed, r.instance_id))
    summary = sys.stderr if config.output_path is None else sys.stdout  # keep data on stdout clean
    for epsilon in sorted(set(config.epsilons)):
        subset = [r for r in records if r.epsilon == epsilon]
        hits = sum(r.success for r in subset)
        print(
            f"epsilon {epsilon:g}: success fraction {hits / len(subset):.3f} ({hits}/{len(subset)})",
            file=summary,
        )

    slopes = None
    if len({math.log(e) for e in config.epsilons}) >= 3:
        slopes = fit_scaling(records)
        for estimator, slope in sorted(slopes.items()):
            print(f"scaling {estimator}: log-log slope {slope:.3f}", file=summary)

    if config.format == "csv":
        _write_text(config.output_path, _csv_text(CSV_HEADER, (r.csv_row() for r in records)))
    else:
        payload = {"records": [dataclasses.asdict(r) for r in records]}
        if slopes is not None:
            payload["scaling"] = slopes
        _write_text(config.output_path, json.dumps(payload, indent=2) + "\n")
    return 0


def _run_single(config: ExperimentConfig) -> int:
    [(_, result)] = _estimate_trial(config, 0)
    text = result.to_json() + "\n"
    sys.stdout.write(text)
    if config.output_path is not None:
        _write_text(config.output_path, text)
    return 0


def _run_hard_instance(config: ExperimentConfig) -> int:
    rows = []
    support = slice(config.rank)  # every later weight is zero in both members of a pair
    for p in HARD_P_GRID:
        for eps in config.epsilons:
            plus, minus = hard_pair(p, eps, config.rank, config.k)
            hell = hellinger_distance(plus.distribution[support], minus.distribution[support])
            hell_closed = hard_pair_hellinger(p, eps)
            for inst in (plus, minus):
                # |first entry| of the oracle's column, sqrt(w0): no 2^k oracle is built
                fid = math.sqrt(inst.distribution[0])
                expected = math.sqrt(p + inst.sign * eps)
                values = (
                    p, eps, config.rank, config.k, "+" if inst.sign > 0 else "-",
                    fid, expected, abs(fid - expected), hell, hell_closed, abs(hell - hell_closed),
                )
                rows.append(dict(zip(HARD_CSV_HEADER.split(","), values, strict=True)))
    worst_fid = max(r["fidelity_residual"] for r in rows)
    worst_hell = max(r["hellinger_residual"] for r in rows)
    summary = sys.stderr if config.output_path is None else sys.stdout
    print(f"hard-instance residuals: fidelity {worst_fid:.3e}, hellinger {worst_hell:.3e}", file=summary)

    if config.format == "csv":
        _write_text(config.output_path, _csv_text(HARD_CSV_HEADER, (r.values() for r in rows)))
    else:
        _write_text(config.output_path, json.dumps({"rows": rows}, indent=2) + "\n")
    return 0 if max(worst_fid, worst_hell) <= 1e-12 else 1


def _oracle_unitarity_residual(oracle) -> float:
    """max|U^dag U - I| of the dense U, taken through the oracle's own queries.

    The inverse query applied to U gives U^dag U, and the inverse query is
    checked against U's conjugate transpose; the residual is the larger of the
    two deviations, so a non-unitary U fails even if the inverse query
    compensated for it.  Each query acts in place, in O(4^n), on U or on one
    n-qubit identity buffer; no BLAS product (see ``fidest.linalg``).
    """
    u = oracle.unitary
    work = np.eye(len(u), dtype=complex)
    oracle.apply(work[np.newaxis], inverse=True)
    np.conjugate(work, out=work)
    work -= u.T  # the conjugate of (inverse query) - U^dag
    adjoint = float(np.max(np.abs(work)))
    oracle.apply(u[np.newaxis], inverse=True)
    u.reshape(-1)[:: len(u) + 1] -= 1.0  # U^dag U - I
    return max(float(np.max(np.abs(u))), adjoint)


def _identity_residuals(config: ExperimentConfig, trial: int) -> dict:
    """Every IDENTITY_BOUNDS residual on one trial's seeded instances."""
    rank = trial % (1 << config.k) + 1
    rho_dm, rho_oracle = sample_instance(_spec(config, trial, 0, "ginibre_mixed", rank), "U")
    psi_dm, psi_oracle = sample_instance(_spec(config, trial, 1, "haar_pure", 1), "V")
    sigma_dm, sigma_oracle = sample_instance(_spec(config, trial, 2, "ginibre_mixed", rank), "V")
    pure_truth = exact_tr_rho_sigma2(rho_dm, psi_dm)

    def split(circuit, registers=("A", "B")):
        return analyze_flagged(execute(circuit), circuit.layout, registers)

    def pr_zero(circuit):
        return register_zero_probability(execute(circuit), circuit.layout, ("C",))

    pure = split(build_encoding_circuit(rho_oracle, psi_oracle))
    amp2 = pure.flagged_amplitude**2
    amp2_mixed = split(build_encoding_circuit(rho_oracle, sigma_oracle)).flagged_amplitude**2
    amp2_restr = split(
        build_restructured_encoding(rho_oracle, sigma_oracle), ("A'", "B'")
    ).flagged_amplitude**2
    pairs = ((rho_oracle, rho_dm), (psi_oracle, psi_dm), (sigma_oracle, sigma_dm))
    values = (  # in IDENTITY_BOUNDS order
        abs(amp2 - pure_truth),
        abs(amp2_mixed - exact_tr_rho_sigma2(rho_dm, sigma_dm)),
        abs(amp2_mixed - amp2_restr),
        abs(pr_zero(build_flagged_encoding(rho_oracle, psi_oracle)) - amp2),
        abs(amp2 + pure.residual_norm**2 - 1.0),
        abs(pr_zero(build_swap_test(rho_oracle, psi_oracle)) - (1.0 + pure_truth) / 2.0),
        max(_oracle_unitarity_residual(oracle) for oracle, _ in pairs),
        max(float(np.max(np.abs(o.reduced_state().matrix - dm.matrix))) for o, dm in pairs),
    )
    return dict(zip(IDENTITY_BOUNDS, values, strict=True))


def _run_verify_identities(config: ExperimentConfig) -> int:
    """Execute the exact-identity suites on seeded instances; print max residuals."""
    trials = [_identity_residuals(config, trial) for trial in range(config.trials)]
    ok = True
    for name, bound in IDENTITY_BOUNDS.items():
        value = max(residuals[name] for residuals in trials)
        passed = value <= bound
        ok = ok and passed
        print(f"{name}: max residual {value:.3e} [{'PASS' if passed else 'FAIL'}]")
    print(f"verify-identities: {'all identities hold' if ok else 'FAILURES above'}")
    return 0 if ok else 1


def run(config: ExperimentConfig) -> int:
    """Dispatch one experiment command; returns a process exit code."""
    if config.command == "sweep":
        return _run_sweep(config)
    if config.command == "single":
        return _run_single(config)
    if config.command == "hard-instance":
        return _run_hard_instance(config)
    return _run_verify_identities(config)


def _epsilons_arg(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}: {exc}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidest",
        description=(
            "Experiment harness for fidelity estimation under purified "
            "state-preparation access."
        ),
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file of a command and its flags' fields; replaces subcommand flags",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, trials_default):
        p.add_argument("--k", type=int, default=1, help="system qubits")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        if trials_default is not None:
            p.add_argument("--trials", type=int, default=trials_default, help="trials per epsilon")

    p = sub.add_parser("verify-identities", help="run the exact-identity suites")
    add_common(p, trials_default=20)

    for name, help_text, trials_default in (
        ("sweep", "run an estimator over an epsilon grid, one record per (epsilon, trial)", 1),
        ("single", "run one estimation at one epsilon and print its JSON result", None),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p, trials_default)
        p.add_argument("--rank", type=int, default=2, help="instance rank")
        p.add_argument("--estimator", choices=ESTIMATORS, default="optimal")
        p.add_argument("--epsilons", type=_epsilons_arg, default=(0.1,), help="comma-separated")
        p.add_argument("--output", dest="output_path", help="output file (default stdout)")
        if name == "sweep":
            p.add_argument("--format", choices=FORMATS, default="csv")

    p = sub.add_parser("hard-instance", help="emit the adversarial-family diagnostics")
    p.add_argument("--k", type=int, default=2, help="system qubits")
    p.add_argument("--rank", type=int, default=2, help="instance rank r >= 2")
    p.add_argument("--epsilons", type=_epsilons_arg, default=(0.1,), help="comma-separated")
    p.add_argument("--output", dest="output_path", help="output file (default stdout)")
    p.add_argument("--format", choices=FORMATS, default="csv")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        if raw.get("command") not in COMMANDS:
            raise ValueError(f"config file must name a command in {COMMANDS}, got {raw.get('command')!r}")
        # a config file takes exactly its command's flags, with the same defaults
        args = build_parser().parse_args([raw["command"]])
    if not args.command:
        raise ValueError("a command or --config is required (see --help)")
    # every subcommand flag is named after its ExperimentConfig field
    fields = {name: value for name, value in vars(args).items() if name != "config"}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)} for {args.command}")
    # null means a flag's default only where that default is None (output_path: stdout)
    nulls = sorted(name for name, value in raw.items() if value is None and fields[name] is not None)
    if nulls:
        raise ValueError(f"config keys {nulls} must not be null for {args.command}")
    return ExperimentConfig(**{**fields, **raw})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except QubitCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
