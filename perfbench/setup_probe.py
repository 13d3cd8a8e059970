"""What a CLI user pays on every invocation: import fidest.cli, finish one k=1 estimate.

Usage: python3 perfbench/setup_probe.py SEED

Runs in a fresh interpreter.  The CLI prints its JSON result; the last line
is this probe's own JSON: {"exit_code", "import_ms", "first_call_ms"}.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fidest.cli  # noqa: E402

_T1 = time.perf_counter()
exit_code = fidest.cli.main(
    ["single", "--estimator", "optimal", "--k", "1", "--rank", "2",
     "--epsilons", "0.1", "--seed", sys.argv[1]]
)
_T2 = time.perf_counter()
sys.stdout.write(
    json.dumps(
        {"exit_code": exit_code, "import_ms": (_T1 - _T0) * 1e3, "first_call_ms": (_T2 - _T1) * 1e3}
    )
    + "\n"
)
