"""fidest benchmark: one workload, end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steps, one process at a time:
1. One fresh worker process runs the workload closed-loop for S seconds
   (worker.py).  With ``--trace 1`` an untraced worker runs for S/2 and a
   traced one for S/2, so the tracing overhead can be reported.
2. ``SETUP_RUNS`` fresh interpreters, half before and half after step 1,
   each import ``fidest.cli`` and finish one k=1 estimate (setup_probe.py);
   their median wall time is ``setup_s``.
3. The metrics named in BENCHMARK.json are printed, the last line being
   ``{"correct", "attempted", "failed", "metrics"}``.  A full result file,
   with the environment block, per-call samples and the output digest, is
   written to perfbench/out/.

Thread variables such as OPENBLAS_NUM_THREADS are passed through unchanged,
so the program's own thread policy is what gets measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, derive_seed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 9
#: Whole run, set-up included, must end within this many seconds.
DEADLINE_S = 170.0
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples: list) -> dict:
    """Median, the highest of p99/p95/p90/p75/p50 with >= TAIL_SAMPLES beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"samples": n, "median": statistics.median(ordered)}
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= TAIL_SAMPLES:
            summary[f"p{q}"] = ordered[min(n - 1, int(q / 100 * n))]
            break
    return summary


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def source_digest() -> str:
    """sha256 over the program's source files, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_setup_probes(seed: int, indices, deadline: float) -> list:
    probes = []
    for i in indices:
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(derive_seed(seed, "setup", i))]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError("set-up probe passed the deadline") from exc
        wall = time.perf_counter() - t0
        lines = proc.stdout.splitlines()
        probe = {"wall_s": wall, "ok": False}
        if proc.returncode == 0 and len(lines) >= 2:
            try:
                probe.update(json.loads(lines[-1]))
                estimate = json.loads(lines[-2])["estimate"]
                probe["ok"] = probe["exit_code"] == 0 and 0.0 <= estimate <= 1.0
            except (ValueError, KeyError, TypeError):
                pass
        if not probe["ok"]:
            probe["stderr"] = proc.stderr[-2000:]
        probes.append(probe)
    return probes


def run_worker(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    tag = f"{workload}-s{seed}-{'traced' if traced else 'untraced'}"
    out = OUT / f"worker-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out)]
    if traced:
        cmd += ["--trace", str(OUT / f"spans-{tag}.csv")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker for {workload} passed the deadline") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(f"worker for {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def timed_calls(worker: dict) -> list:
    return worker["calls"][1:]


def records_per_s(worker: dict) -> float:
    """Records completed per wall second over all timed calls.

    A total, not a median of per-call rates: a shared machine switches
    speed for seconds at a time, and the total averages those phases where
    a median jumps between them.
    """
    calls = timed_calls(worker)
    return sum(c["records"] for c in calls) / sum(c["wall_s"] for c in calls)


def end_to_end(worker: dict, setup_walls: list) -> tuple:
    calls = timed_calls(worker)
    values = {
        "setup_s": statistics.median(setup_walls),
        "records_per_s": records_per_s(worker),
        "cpu_s_per_record": sum(c["cpu_s"] for c in calls) / sum(c["records"] for c in calls),
        "peak_rss_mb": worker["peak_rss_mib"],
    }
    details = {
        "setup_s": tail_percentile(setup_walls),
        "call_wall_s_per_record": tail_percentile([c["wall_s"] / c["records"] for c in calls]),
        "call_cpu_s_per_record": tail_percentile([c["cpu_s"] / c["records"] for c in calls]),
        "records_per_call": calls[0]["records"],
    }
    return values, details


def per_layer(untraced: dict, traced: dict, probes: list) -> dict:
    values = dict(traced["layers"])
    values["setup.import_ms"] = statistics.median(p.get("import_ms", 0.0) for p in probes)
    values["setup.first_call_ms"] = statistics.median(p.get("first_call_ms", 0.0) for p in probes)
    values["trace.records_per_s"] = records_per_s(traced)
    values["trace.untraced_records_per_s"] = records_per_s(untraced)
    values["trace.overhead_pct"] = 100.0 * (records_per_s(untraced) / records_per_s(traced) - 1.0)
    return values


def select(spec: list, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fidest benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fidest" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no fidest source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    try:
        # set-up probes before and after the workload, so one slow phase of a
        # shared machine does not set the whole median
        probes = run_setup_probes(args.seed, range(0, SETUP_RUNS, 2), deadline)
        if args.trace:
            untraced = run_worker(args.workload, args.seed, args.seconds / 2, False, deadline)
            traced = run_worker(args.workload, args.seed, args.seconds / 2, True, deadline)
            workers = [untraced, traced]
        else:
            workers = [run_worker(args.workload, args.seed, args.seconds, False, deadline)]
        probes += run_setup_probes(args.seed, range(1, SETUP_RUNS, 2), deadline)
        if args.trace:
            metrics = select(spec["per_layer"], per_layer(untraced, traced, probes))
            details = {"layer_shares": traced["layer_shares"],
                       "missing_hooks": traced["missing_hooks"]}
        else:
            values, details = end_to_end(workers[0], [p["wall_s"] for p in probes])
            metrics = select(spec["end_to_end"], values)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(probes) + sum(w["attempted"] for w in workers)
    failed = sum(not p["ok"] for p in probes) + sum(w["failed"] for w in workers)
    # tracing must not change what the program writes
    digests_agree = len({w["digest"] for w in workers}) == 1
    summary = {"correct": failed == 0 and digests_agree, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    result = {
        **summary,
        "failed_frac": failed / attempted,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": workers[0]["digest"],
        "digests_agree": digests_agree,
        "details": details,
        "setup_probes": probes,
        "errors": [e for w in workers for e in w["errors"]][:10],
        "environment": {**workers[0]["environment"], **git_state(),
                        "source_sha256": source_digest()},
        "workers": workers,
    }
    result_path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"digest {result['digest']}  failed {failed}/{attempted}  result {result_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
