"""Smoke test of the benchmark itself, at the smallest run length.

Usage, from the repository root: python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --seconds 1`` with
tracing off and on, and checks that the last line holds exactly the keys
of the result contract, that every end-to-end (trace off) or per-layer
(trace on) metric is emitted with its unit, that all outputs passed their
checks, and that the result file carries the environment block and digest.
It also checks that a directory holding only BENCHMARK.json and the
benchmark fails without printing a result.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "blas",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "commit", "dirty"}


def check_run(spec: dict, workload: str, trace: int) -> list:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: outputs failed their checks: {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: metric {m['name']} emitted as {got}")
    details = json.loads((HERE / "out" / f"result-{workload}-s7-t{trace}.json").read_text())
    if not ENV_KEYS <= set(details["environment"]) or len(details.get("digest", "")) != 64:
        problems.append(f"{where}: result file lacks the environment block or digest")
    return problems


def check_bare_directory() -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-identities", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
