"""Byte-identity corpus: every command at several sizes, pinned to the bit.

corpus_records.json holds, per argv, the exit code and stdout lines of the
CLI.  Sweeps cover all four estimators at k = 1-3 in CSV and in JSON (one
seed at or past 2^62), ``single`` runs once per estimator, ``hard-instance``
runs at four (k, rank) sizes with epsilon down to 1e-12, and
``verify-identities`` runs at k = 1-4.  Every cell must match exactly:
a sweep or a single estimate never loads numpy, so each of its cells, the
``true_value``, ``abs_error`` and JSON ``scaling`` slopes included, rests on
SHAKE-128, libm and ``math.fsum`` and not on a BLAS kernel or numpy's SIMD
dispatch; ``test_json_sweeps_match_on_every_kernel`` reruns the JSON sweeps
under other kernels and at baseline dispatch to hold them there.  wall_ms is
masked, and verify-identities is pinned as its PASS lines and exit code, not
its residual digits.

Regenerate (only for a change meant to alter outputs) with
``PYTHONPATH=src python tests/test_corpus.py``.
"""

import contextlib
import csv
import io
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fidest import estimation
from fidest.cli import main
from fidest.fidelity import ESTIMATORS

PINNED = Path(__file__).with_name("corpus_records.json")
RANKS = {"swap-baseline": 2, "optimal": 2, "tr-rho-sigma2": 2, "pure-pure": 1}
SWEEPS = [
    f"sweep --estimator {estimator} --k {k} --rank {rank} --trials 2 --seed {seed} "
    f"--format {fmt} --epsilons 0.2,0.05,0.01,0.001"
    for estimator, rank in RANKS.items()
    for k in (1, 2, 3)
    for fmt, seed in (("csv", 2**62 + 5), ("json", 11))
]
SINGLES = [
    f"single --estimator {estimator} --k 2 --rank {rank} --seed 2 --epsilons 0.004"
    for estimator, rank in RANKS.items()
]
HARD = [
    f"hard-instance --k {k} --rank {rank} --format {fmt} --epsilons 0.1,0.01,1e-3,1e-6,1e-9,1e-12"
    for k, rank, fmt in ((2, 3, "csv"), (4, 16, "json"), (10, 1000, "csv"), (22, 3, "csv"))
]
IDENTITIES = [f"verify-identities --k {k} --trials 2 --seed 3" for k in (1, 2, 3, 4)]
CORPUS = SWEEPS + SINGLES + HARD + IDENTITIES
JSON_FIELD = re.compile(r'\s*"([^"]+)": (.*?),?$')


def cli_output(argv):
    """(exit code, stdout lines) of one command, with wall_ms and residual digits masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    lines = out.getvalue().splitlines()
    if argv.startswith("verify-identities"):
        return code, [re.sub(r"max residual \S+ ", "", line) for line in lines]
    if "--format csv" not in argv:
        return code, [re.sub(r'"wall_ms": \d+', '"wall_ms": 0', line) for line in lines]
    rows = list(csv.reader(lines))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    return code, [",".join(row[i] for i in keep) for row in rows]


def cells(argv, lines):
    """(name, text) per cell: CSV cells under their header, JSON values under their key."""
    if "--format csv" in argv:
        header = lines[0].split(",")
        return [(name, cell) for line in lines[1:] for name, cell in zip(header, line.split(","), strict=True)]
    return [(m[1], m[2]) if (m := JSON_FIELD.fullmatch(line)) else (None, line) for line in lines]


def assert_same(argv, got, want):
    assert got[0] == want[0], argv  # exit code
    assert len(got[1]) == len(want[1]), argv
    assert got[1][:1] == want[1][:1], argv  # a CSV header, or the first JSON line
    for (name, g), (_, w) in zip(cells(argv, got[1]), cells(argv, want[1]), strict=True):
        assert g == w, (argv, name, g, w)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    """Every corpus command's output, and its tail offsets drawn per estimator."""
    kernel, tail, outputs, estimator = estimation._kernel, dict.fromkeys(ESTIMATORS, 0), {}, None

    def counting_kernel(f, d, M):
        if not 1 - estimation._WINDOW <= d <= estimation._WINDOW:
            tail[estimator] += 1
        return kernel(f, d, M)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_kernel", counting_kernel)
        for argv in CORPUS:
            words = argv.split()
            estimator = words[words.index("--estimator") + 1] if "--estimator" in words else None
            outputs[argv] = cli_output(argv)
    return outputs, tail


def test_corpus_is_the_pinned_one(pinned):
    assert list(pinned) == CORPUS


@pytest.mark.parametrize("argv", CORPUS)
def test_output_matches_pinned_corpus(runs, pinned, argv):
    assert_same(argv, runs[0][argv], tuple(pinned[argv]))


CPUINFO = Path("/proc/cpuinfo")
# OPENBLAS_CORETYPE names OpenBLAS's x86-64 kernels
KERNELS_APPLY = (
    platform.machine() == "x86_64"
    and CPUINFO.exists()
    and "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
)


def kernel_settings():
    """The environment of every BLAS kernel and dispatch setting this CPU can
    run: OpenBLAS's Prescott kernel, Haswell when the CPU has AVX2, and
    numpy's baseline dispatch, with every dispatched feature disabled."""
    settings = [pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="Prescott")]
    if "avx2" in CPUINFO.read_text(encoding="utf-8").split():
        settings.append(pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="Haswell"))
    dispatch = ",".join(np._core._multiarray_umath.__cpu_dispatch__)
    return settings + [pytest.param({"NPY_DISABLE_CPU_FEATURES": dispatch}, id="baseline-dispatch")]


JSON_SWEEPS = [argv for argv in SWEEPS if "--format json" in argv]
# run in a child: numpy fixes the kernel and the dispatch when it loads
CHILD = """
import json, os
import numpy._core._multiarray_umath as umath
from test_corpus import JSON_SWEEPS, cli_output
if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
    assert not any(umath.__cpu_features__[name] for name in umath.__cpu_dispatch__)
print(json.dumps({argv: cli_output(argv) for argv in JSON_SWEEPS}))
"""


@pytest.mark.skipif(not KERNELS_APPLY, reason="needs x86-64 Linux and numpy on OpenBLAS")
@pytest.mark.parametrize("env", kernel_settings() if KERNELS_APPLY else [])
def test_json_sweeps_match_on_every_kernel(pinned, env):
    # every cell, the true values and the scaling slopes included, keeps the
    # pinned bits under each kernel and dispatch
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert list(got) == JSON_SWEEPS
    for argv in JSON_SWEEPS:
        assert_same(argv, tuple(got[argv]), tuple(pinned[argv]))


def test_corpus_draws_from_every_estimators_tail(runs):
    # the corpus pins rejection-tail draws of each estimator, not only the window
    assert all(runs[1].values()), runs[1]


if __name__ == "__main__":
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump({argv: cli_output(argv) for argv in CORPUS}, fh, indent=1)
        fh.write("\n")
