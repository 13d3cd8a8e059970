"""Run one workload closed-loop in this process and write its measurements as JSON.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --out FILE
[--trace SPANS_FILE]

One warm-up call of ``fidest.cli.main``, then timed calls until the next
one would end past ``--seconds`` (at least ``MIN_TIMED_CALLS``).  Every
call's output is checked (see checks.py).  With ``--trace`` the tracer is
installed before ``fidest.cli`` is imported and the spans are written to
SPANS_FILE at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
from tracing import Tracer, layer_metrics, layer_shares
from workloads import WORKLOADS, derive_seed

ROOT = Path(__file__).resolve().parent.parent
MIN_TIMED_CALLS = 2
#: The output digest covers the warm-up call and the first timed calls.
DIGEST_CALLS = 1 + MIN_TIMED_CALLS


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_call(cli, workload, seed, csv_path, tracer):
    """One checked CLI call: returns (wall_s, cpu_s, output_bytes, CallCheck)."""
    argv = workload.call_argv(seed, str(csv_path) if workload.is_sweep else None)
    if workload.is_sweep:
        csv_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = tracer.span("cli.main", cli.main, (argv,)) if tracer else cli.main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # a crashing call fails its records; the run goes on
        exit_code = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    stdout = out.getvalue()
    csv_text = ""
    if workload.is_sweep and csv_path.exists():
        csv_text = csv_path.read_text(encoding="utf-8")
    try:
        if workload.is_sweep:
            check = checks.check_sweep(workload, exit_code, stdout, csv_text)
        else:
            check = checks.check_verify(workload, exit_code, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        check = checks.CallCheck(workload.records_per_call).fail_all(f"unreadable output: {exc}")
    if err.getvalue():
        check.errors.append(f"stderr: {err.getvalue().strip()}")
    output_bytes = len(stdout.encode()) + len(csv_text.encode())
    return wall, cpu, output_bytes, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="JSON result file")
    parser.add_argument("--trace", metavar="SPANS_FILE", help="trace and write spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    if args.trace:
        tracer = Tracer()
        cli = tracer.install()
    else:
        tracer = None
        cli = importlib.import_module("fidest.cli")

    csv_path = Path(args.out).with_suffix(".csv")
    calls = []
    digest = hashlib.sha256()
    successes: dict = {}
    t_start = None
    while True:
        index = len(calls)
        seed = derive_seed(args.seed, workload.name, index)
        wall, cpu, output_bytes, check = run_call(cli, workload, seed, csv_path, tracer)
        if index < DIGEST_CALLS:
            digest.update(check.digest.encode())
        for eps, (hits, rows) in check.successes.items():
            counts = successes.setdefault(eps, [0, 0])
            counts[0] += hits
            counts[1] += rows
        calls.append(
            {"index": index, "seed": seed, "wall_s": wall, "cpu_s": cpu,
             "records": check.records, "failed": check.failed,
             "output_bytes": output_bytes, "errors": check.errors[:3]}
        )
        if t_start is None:  # the warm-up call is checked but not timed
            t_start = time.perf_counter()
            continue
        timed = calls[1:]
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(c["wall_s"] for c in timed)
        if len(timed) >= MIN_TIMED_CALLS and elapsed + typical > args.seconds:
            break
    csv_path.unlink(missing_ok=True)

    attempted = sum(c["records"] for c in calls)
    shortfall = checks.success_shortfall(successes)
    failed = min(attempted, sum(c["failed"] for c in calls) + sum(shortfall.values()))
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": tracer is not None,
        "attempted": attempted,
        "failed": failed,
        "success_fraction_below_2_3": {str(eps): rows for eps, rows in shortfall.items()},
        "errors": [e for c in calls for e in c["errors"]][:10],
        "digest": digest.hexdigest(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "environment": environment(),
    }
    if tracer:
        per_call = tracer.per_call()[1:]  # drop the warm-up call
        result["layers"] = layer_metrics(per_call)
        result["layers"]["cli.output_bytes"] = statistics.median(
            c["output_bytes"] for c in calls[1:]
        )
        result["layer_shares"] = layer_shares(per_call)
        result["missing_hooks"] = tracer.missing
        run_id = f"{workload.name}-s{args.seed}-p{os.getpid()}"
        tracer.write_spans(args.trace, workload.name, run_id)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
