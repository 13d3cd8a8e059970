"""The benchmark's fixed CLI workloads and the seeds it derives for them.

Every workload is closed-loop in one process: the next ``fidest.cli.main``
call starts when the previous one returns.  A call runs ``trials`` trials
of the workload's fixed config with a seed derived from the benchmark seed
and the call index, so the program receives only the generated argv.
BENCHMARK.json records why each workload was chosen; perfbench/README.md
says why optimal-large-state is defined here but not listed there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    trials: int

    @property
    def is_sweep(self) -> bool:
        return self.argv[0] == "sweep"

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def estimator(self) -> str | None:
        return self.option("--estimator") if self.is_sweep else None

    @property
    def epsilons(self) -> tuple:
        return tuple(float(e) for e in self.option("--epsilons").split(",")) if self.is_sweep else ()

    @property
    def records_per_call(self) -> int:
        return self.trials * max(len(self.epsilons), 1)

    def call_argv(self, seed: int, output_path: str | None) -> list:
        argv = list(self.argv) + ["--trials", str(self.trials), "--seed", str(seed)]
        if output_path is not None:
            argv += ["--output", output_path]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "swap-fine-eps",
            ("sweep", "--estimator", "swap-baseline", "--k", "2", "--rank", "2",
             "--epsilons", "0.1,0.03,0.01,0.005"),
            trials=1,
        ),
        Workload(
            "optimal-large-state",
            ("sweep", "--estimator", "optimal", "--k", "5", "--rank", "4",
             "--epsilons", "0.1,0.03,0.01,0.003"),
            trials=1,
        ),
        Workload(
            "optimal-many-small",
            ("sweep", "--estimator", "optimal", "--k", "3", "--rank", "2",
             "--epsilons", "0.1,0.03,0.01,0.003,0.001"),
            trials=5,
        ),
        Workload(
            "verify-identities",
            ("verify-identities", "--k", "3"),
            trials=10,
        ),
    )
}


def derive_seed(*parts) -> int:
    """Stable non-negative 63-bit seed from the benchmark seed and labels."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
