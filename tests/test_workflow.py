"""The CI workflow's shell steps, run as a test.

Every ``run: |`` block of .github/workflows/tests.yml runs here under
``bash -e``, as a hosted runner would run it, so a console-script line is
checked before it lands.  ``fidest`` and ``python`` are shell functions that
run this interpreter on the checkout's ``src``; the runtime-only block also
finds a ``scipy`` package that refuses to import, as in a job without the
test extras.  The workflow is read line by line, with no YAML parser.
"""

import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# step name -> whether the step runs without the test extras (no scipy)
STEPS = {"Console-script smoke": False, "Run without the test extras": True}


def run_blocks(text):
    """{step name: script} of every ``run: |`` step: the lines after it that
    are blank or indented deeper than the ``run:`` key."""
    lines = text.splitlines()
    blocks, name = {}, None
    for i, line in enumerate(lines):
        key = line.strip()
        if key.startswith("- name:"):
            name = key.removeprefix("- name:").strip()
        elif key == "run: |":
            indent = len(line) - len(line.lstrip())
            body = []
            for later in lines[i + 1 :]:
                if later.strip() and len(later) - len(later.lstrip()) <= indent:
                    break
                body.append(later)
            blocks[name] = textwrap.dedent("\n".join(body))
    return blocks


def test_every_block_is_replayed():
    assert set(run_blocks(WORKFLOW.read_text(encoding="utf-8"))) == set(STEPS)


@pytest.mark.parametrize("step", list(STEPS))
def test_workflow_block_runs(tmp_path, step):
    script = run_blocks(WORKFLOW.read_text(encoding="utf-8"))[step]
    path = [str(ROOT / "src")]
    if STEPS[step]:
        shim = tmp_path / "shim" / "scipy"
        shim.mkdir(parents=True)
        (shim / "__init__.py").write_text('raise ImportError("scipy is a test extra")\n')
        path.insert(0, str(shim.parent))
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    py = shlex.quote(sys.executable)
    prelude = f'fidest() {{ {py} -m fidest.cli "$@"; }}\npython() {{ {py} "$@"; }}\n'
    env = {**os.environ, "RUNNER_TEMP": str(runner_temp), "PYTHONPATH": ":".join(path)}
    proc = subprocess.run(
        ["bash", "--noprofile", "--norc", "-e", "-c", prelude + script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
