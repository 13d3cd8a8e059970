"""Golden CLI records: a small corpus of every command whose output is pinned.

golden_records.json holds, per argv, the stdout lines of the CLI, last
regenerated when every uniform, seed and instance moved to the SHAKE-128
streams of fidest.streams, and again when the true value came to be read from the
column contraction that gives p: sweep and hard-instance CSV without the wall_ms
column, and the single JSON line.  Any change to an instance, a draw, an
estimate, a true value or a query tally fails here.  Every cell must match
exactly: sweep and single outputs rest on SHAKE-128, libm and ``math.fsum``,
with no numpy and no BLAS kernel.

Regenerate (only for a change meant to alter outputs) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from fidest import estimation
from fidest.cli import main

GOLDEN = Path(__file__).with_name("golden_records.json")
EPSILONS = "0.1,0.03,0.01,0.003,0.001"
CORPUS = [
    f"sweep --estimator {estimator} --k 1 --rank {rank} --trials 3 --seed {seed} --epsilons {EPSILONS}"
    for estimator, rank in (("swap-baseline", 2), ("optimal", 2), ("tr-rho-sigma2", 2), ("pure-pure", 1))
    for seed in (0, 1)
] + [
    "single --estimator tr-rho-sigma2 --k 1 --seed 5 --epsilons 0.003",
    "hard-instance --k 2 --rank 3 --epsilons 0.1,0.01,0.001",
]


def cli_lines(argv):
    """The command's stdout lines, CSV without its wall_ms column."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv.split()) == 0, argv
    lines = out.getvalue().splitlines()
    if argv.startswith("single"):
        return lines
    rows = list(csv.reader(lines))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    return [",".join(row[i] for i in keep) for row in rows]


@pytest.mark.parametrize("argv", CORPUS)
def test_output_matches_golden_record(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == CORPUS
    got, want = cli_lines(argv), golden[argv]
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row == want_row


def test_corpus_reaches_the_rejection_tail(monkeypatch):
    # the golden records pin tail draws too, not only the inverse-CDF window
    kernel, tail_offsets = estimation._kernel, []

    def counting_kernel(f, d, M):
        if not 1 - estimation._WINDOW <= d <= estimation._WINDOW:
            tail_offsets.append(d)
        return kernel(f, d, M)

    monkeypatch.setattr(estimation, "_kernel", counting_kernel)
    for argv in CORPUS:
        cli_lines(argv)
    assert tail_offsets


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({argv: cli_lines(argv) for argv in CORPUS}, fh, indent=1)
        fh.write("\n")
