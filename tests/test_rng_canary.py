"""Canary for the random layers every output rests on.

Every uniform comes from ``fidest.streams``: SHAKE-128 (FIPS 202) from the
stdlib's hashlib, read as 64-bit words w and mapped to (w >> 11) * 2^-53.
Every seed is a stream's first word (``derive_seed``), and instances draw
their Gaussians from a stream by Box-Muller in scalar math, so their bits
rest on libm's log, cos and sin as well.  Each pin below fails with the name
of the layer that moved.  No numpy random layer reaches an output: no
package module names ``np.random``, and no command imports ``numpy.random``.
"""

import ast
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import fidest
from fidest.oracles import synthesize_instance
from fidest.streams import derive_seed, uniforms

PACKAGE = Path(fidest.__file__).parent
DRAWS = 1000
#: key -> (the first three uniforms, as float.hex, and the sha256 of the first DRAWS as little-endian doubles)
STREAMS = {
    (b"head", (0,)): (
        ["0x1.402ecb548c89ep-1", "0x1.9ef7582116a42p-2", "0x1.c9f2033b88b66p-2"],
        "efaab30fc39a1e34dbeb9c59da7fff5775169d50f2f63009687dd058d9966246",
    ),
    (b"tail", (2**62 + 5, 3)): (
        ["0x1.1198c8805e941p-1", "0x1.58ba6b4fcd4e1p-1", "0x1.83ed9ecacdd54p-2"],
        "ec1f07e0a66c68112c24d212749e94043004e94e51008486202a71acc7c6de80",
    ),
    (b"inst", (2**64 - 1,)): (
        ["0x1.14b999d61b320p-2", "0x1.c479cd9bb8031p-1", "0x1.48d02320debe1p-1"],
        "4ad3f00b5c72e8f9fa3bfbcf9d2bb3977dcd98105831dc71fc2c1bb16aa38ffc",
    ),
}


def test_shake_128_known_answer():
    # FIPS 202's SHAKE128 of the empty message, first 256 bits
    assert hashlib.shake_128(b"").hexdigest(32) == (
        "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
    ), "hashlib layer moved: shake_128"


@pytest.mark.parametrize("key", list(STREAMS), ids=lambda key: f"{key[0].decode()}{key[1]}")
def test_stream_is_pinned(key):
    first, digest = STREAMS[key]
    values = uniforms(*key, DRAWS)
    assert [u.hex() for u in values[:3]] == first, f"fidest layer moved: streams.uniforms{key}"
    assert hashlib.sha256(struct.pack(f"<{DRAWS}d", *values)).hexdigest() == digest, key


def test_derived_seed_is_pinned():
    assert derive_seed(0, 1, 2) == 9438345762444847869, "fidest layer moved: streams.derive_seed"


def test_instance_column_is_pinned():
    # Box-Muller on libm's log, cos and sin, then a math.fsum norm: no BLAS kernel
    oracle = synthesize_instance(1, 2, 7)
    digest = hashlib.sha256(struct.pack(f"<{2 * len(oracle.prepared_state)}d", *(
        x for z in oracle.prepared_state for x in (z.real, z.imag)
    ))).hexdigest()
    assert digest == "ec13fc0cb2cf2a30ea79a0ab920dc2d45d9a4edfdf690c4cdde7c02aa5c343d6", (
        "instance layer moved: oracles.synthesize_instance (libm log, cos or sin, or the stream)"
    )


def test_no_package_module_names_np_random():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "random":
                assert not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")), path.name
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
                assert not [n for n in names if n.startswith("numpy.random")], path.name


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--k", "2", "--epsilons", "0.2,0.1,0.05", "--trials", "2"],
        ["single", "--estimator", "swap-baseline", "--k", "1", "--epsilons", "0.1"],
        ["verify-identities", "--k", "2", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_loads_numpy_random(argv):
    code = (
        "import contextlib, io, sys; from fidest.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
