"""Golden CLI records: a small corpus of every command whose output is pinned.

golden_records.json holds, per argv, the stdout lines of the CLI, last
regenerated when every uniform, seed and instance moved to the SHAKE-128
streams of fidest.streams: sweep and hard-instance CSV without the wall_ms
column, and the single JSON line.  Any change to an instance, a draw, an
estimate or a query tally fails here.  Every cell must match exactly except true_value
and abs_error, which pass through BLAS products and numpy's SIMD loops: their
last bits move with the CPU kernel OpenBLAS picks and with numpy's dispatch,
so they are held to 1e-12.

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
LOOSE = {"true_value", "abs_error"}


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
    assert got[0] == want[0]
    if argv.startswith("single"):
        return
    header = got[0].split(",")
    for got_row, want_row in zip(got[1:], want[1:]):
        for name, g, w in zip(header, got_row.split(","), want_row.split(","), strict=True):
            if name in LOOSE:
                assert abs(float(g) - float(w)) <= 1e-12, (name, got_row, want_row)
            else:
                assert g == w, (name, got_row, want_row)


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
