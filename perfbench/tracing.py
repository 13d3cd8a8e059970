"""Spans around the calls into each fidest layer, recorded from outside the program.

``Tracer.install`` wraps the public functions named in ``HOOKS`` in every
``fidest.*`` module namespace that binds them (modules use ``from .x import
y``) and then imports ``fidest.cli``: the CLI captures the estimator front
ends in a dict at import.  Spans are kept in memory as
``(span id, parent id, name, start ns, end ns)`` and summarised per CLI call.
A name nested inside a span of the same name is not recorded again, so
``busy`` (inclusive) never double counts; ``self`` is ``busy`` minus the
traced child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

#: (span name, home module, attribute); one span name may cover several functions.
HOOKS = (
    ("fidelity.estimate", "fidest.fidelity", "swap_test_estimate"),
    ("fidelity.estimate", "fidest.fidelity", "fidelity_to_pure"),
    ("fidelity.estimate", "fidest.fidelity", "sqrt_tr_rho_sigma2_estimate"),
    ("fidelity.estimate", "fidest.fidelity", "pure_pure_fidelity"),
    ("fidelity.make_task", "fidest.fidelity", "make_task"),
    ("fidelity.exact_reference", "fidest.fidelity", "exact_tr_rho_sigma2"),
    ("estimation.estimate", "fidest.estimation", "amplitude_estimate"),
    ("estimation.estimate", "fidest.estimation", "sqrt_amplitude_estimate"),
    ("estimation.flag_probability", "fidest.estimation", "flag_probability"),
    ("estimation.qpe_grid_distribution", "fidest.estimation", "qpe_grid_distribution"),
    ("circuits.execute", "fidest.circuits", "execute"),
    ("circuits.analyze_flagged", "fidest.circuits", "analyze_flagged"),
    ("oracles.sample_instance", "fidest.oracles", "sample_instance"),
    ("oracles.complete_to_unitary", "fidest.oracles", "complete_to_unitary"),
    ("oracles.purify", "fidest.oracles", "purify"),
    ("oracles.invocation_unitary", "fidest.oracles", "invocation_unitary"),
    ("linalg.unitarity_error", "fidest.linalg", "unitarity_error"),
    ("linalg.herm_eig", "fidest.linalg", "herm_eig"),
)

#: Methods, wrapped on their class: (span name, module, class, method).
METHOD_HOOKS = (
    ("linalg.DensityMatrix", "fidest.linalg", "DensityMatrix", "__post_init__"),
    ("cli.csv_row", "fidest.cli", "ExperimentRecord", "csv_row"),
)

ROOT = "cli.main"
QUERY_KINDS = ("plain", "inverse", "controlled", "controlled_inverse")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, name, start ns, end ns)
        self.counters = defaultdict(float)  # (root span id, counter name) -> value
        self.missing = []
        self._stack = []  # (span id, name)
        self._active = defaultdict(int)
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def _root(self):
        return self._stack[0][0] if self._stack else -1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self._root(), name)] += value

    def maximum(self, name: str, value: float) -> None:
        key = (self._root(), name)
        self.counters[key] = max(self.counters.get(key, value), value)

    def span(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        if self._active[name]:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((span_id, name))
        self._active[name] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._active[name] -= 1
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters recorded at the same boundaries ----------------------------

    def _after_qpe(self, args, kwargs, result):
        m = int(_arg(args, kwargs, 2, "m"))
        self.count("estimation.grid_points", float(1 << m))
        self.maximum("estimation.m_max", m)

    def _after_estimate(self, args, kwargs, result):
        self.count("estimation.grover_applications", getattr(result, "grover_applications", 0))

    def _after_execute(self, args, kwargs, result):
        n = _arg(args, kwargs, 0, "circuit").layout.total_qubits
        self.maximum("circuits.execute.qubits_max", n)
        self.count("circuits.execute.state_mib", 16.0 * (1 << n) / 2**20)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every hook, then import fidest.cli and return it.

        Functions are wrapped before the import, because the CLI binds them
        at import; methods are wrapped on their classes after it.
        """
        if "fidest.cli" in sys.modules:
            raise RuntimeError("install the tracer before importing fidest.cli")
        importlib.import_module("fidest")
        after = {
            "estimation.qpe_grid_distribution": self._after_qpe,
            "estimation.estimate": self._after_estimate,
            "circuits.execute": self._after_execute,
        }
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "fidest"]
        for name, module_name, attr in HOOKS:
            # a function moved out of its home module is still found where it is bound
            homes = [sys.modules.get(module_name)] + modules
            original = next((getattr(m, attr) for m in homes if hasattr(m, attr)), None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        cli = importlib.import_module("fidest.cli")
        for name, module_name, cls_name, method in METHOD_HOOKS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = getattr(cls, method, None)
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{method}")
                continue
            setattr(cls, method, self._wrap(name, original))
        self._install_record_counter()
        return cli

    def _install_record_counter(self) -> None:
        # every query tally, counted or closed-form, goes through PreparationOracle.record
        cls = getattr(sys.modules.get("fidest.oracles"), "PreparationOracle", None)
        original = getattr(cls, "record", None)
        if original is None:
            self.missing.append("fidest.oracles.PreparationOracle.record")
            return

        @functools.wraps(original)
        def record(oracle, kind, count=1):
            self.count(f"oracles.queries.{kind}", count)
            return original(oracle, kind, count)

        cls.record = record

    # -- summary -------------------------------------------------------------

    def per_call(self) -> list:
        """Per CLI call: {"spans": {name: [ms]}, "self": {name: ms}, "counters": {name: value}}."""
        children = defaultdict(int)
        root_of = {}
        by_id = {}
        for span_id, parent, name, start, end in self.spans:
            by_id[span_id] = (parent, name, end - start)
            if parent >= 0:
                children[parent] += end - start
        calls = {}
        for span_id in sorted(by_id):
            parent, name, dur = by_id[span_id]
            root = span_id if parent < 0 else root_of[parent]
            root_of[span_id] = root
            if by_id[root][1] != ROOT:
                continue
            entry = calls.setdefault(
                root, {"spans": defaultdict(list), "self": defaultdict(float), "counters": {}}
            )
            entry["spans"][name].append(dur / 1e6)
            entry["self"][name] += (dur - children[span_id]) / 1e6
        for (root, name), value in self.counters.items():
            if root in calls:
                calls[root]["counters"][name] = value
        return [calls[root] for root in sorted(calls)]

    def write_spans(self, path: str, workload: str, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,workload,span_id,parent_id,name,start_ns,end_ns\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{run_id},{workload},{span_id},{parent},{name},{start},{end}\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(per_call: list) -> dict:
    """Per-layer values for one CLI call of the workload: medians over calls, counts exact."""

    def med(kind, name):
        if kind == "self":
            return _median([call["self"].get(name, 0.0) for call in per_call])
        reduce = sum if kind == "busy" else len
        return _median([reduce(call["spans"].get(name, ())) for call in per_call])

    def counter(name):
        return _median([call["counters"].get(name, 0.0) for call in per_call])

    estimate_spans = [ms for call in per_call for ms in call["spans"].get("fidelity.estimate", [])]
    metrics = {
        "cli.main.busy_ms": med("busy", ROOT),
        "cli.self_ms": med("self", ROOT),
        "cli.csv_row.calls": med("calls", "cli.csv_row"),
        "cli.csv_row.busy_ms": med("busy", "cli.csv_row"),
        "fidelity.estimate.calls": med("calls", "fidelity.estimate"),
        "fidelity.estimate.busy_ms": med("busy", "fidelity.estimate"),
        "fidelity.estimate.p50_ms": _quantile(estimate_spans, 0.5),
        "fidelity.estimate.p90_ms": _quantile(estimate_spans, 0.9),
        "fidelity.make_task.busy_ms": med("busy", "fidelity.make_task"),
        "fidelity.exact_reference.busy_ms": med("busy", "fidelity.exact_reference"),
        "estimation.estimate.self_ms": med("self", "estimation.estimate"),
        "estimation.flag_probability.calls": med("calls", "estimation.flag_probability"),
        "estimation.flag_probability.busy_ms": med("busy", "estimation.flag_probability"),
        "estimation.qpe_grid_distribution.calls": med("calls", "estimation.qpe_grid_distribution"),
        "estimation.qpe_grid_distribution.busy_ms": med("busy", "estimation.qpe_grid_distribution"),
        "estimation.qpe_grid_distribution.grid_points": counter("estimation.grid_points"),
        "estimation.m_max": counter("estimation.m_max"),
        "estimation.grover_applications": counter("estimation.grover_applications"),
        "circuits.execute.calls": med("calls", "circuits.execute"),
        "circuits.execute.busy_ms": med("busy", "circuits.execute"),
        "circuits.execute.self_ms": med("self", "circuits.execute"),
        "circuits.execute.qubits_max": counter("circuits.execute.qubits_max"),
        "circuits.execute.state_mib": counter("circuits.execute.state_mib"),
        "circuits.analyze_flagged.busy_ms": med("busy", "circuits.analyze_flagged"),
        "oracles.sample_instance.calls": med("calls", "oracles.sample_instance"),
        "oracles.sample_instance.busy_ms": med("busy", "oracles.sample_instance"),
        "oracles.sample_instance.self_ms": med("self", "oracles.sample_instance"),
        "oracles.complete_to_unitary.busy_ms": med("busy", "oracles.complete_to_unitary"),
        "oracles.purify.busy_ms": med("busy", "oracles.purify"),
        "oracles.invocation_unitary.calls": med("calls", "oracles.invocation_unitary"),
        "oracles.invocation_unitary.busy_ms": med("busy", "oracles.invocation_unitary"),
        "linalg.unitarity_error.calls": med("calls", "linalg.unitarity_error"),
        "linalg.unitarity_error.busy_ms": med("busy", "linalg.unitarity_error"),
        "linalg.herm_eig.busy_ms": med("busy", "linalg.herm_eig"),
        "linalg.DensityMatrix.calls": med("calls", "linalg.DensityMatrix"),
        "linalg.DensityMatrix.busy_ms": med("busy", "linalg.DensityMatrix"),
    }
    for kind in QUERY_KINDS:
        metrics[f"oracles.queries.{kind}"] = counter(f"oracles.queries.{kind}")
    return metrics


def layer_shares(per_call: list) -> dict:
    """Median busy time of each span name as a share of the median CLI call."""
    def busy(call, name):
        return sum(call["spans"].get(name, ()))

    total = _median([busy(call, ROOT) for call in per_call])
    names = sorted({name for call in per_call for name in call["spans"]})
    return {
        name: _median([busy(call, name) for call in per_call]) / total
        for name in names
        if total > 0
    }
