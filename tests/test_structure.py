"""Structure guards: the dense references stay out of the production path,
estimators are defined only by the table in fidest.fidelity, the circuit
executor builds no dense padded or controlled matrix and reads no oracle matrix,
oracles and circuits are immutable values whose queries are counted, not kept,
each rule (query kinds, test-only linear algebra, purity) has one home, and the
package keeps no surface that only tests reach."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fidest
from fidest.circuits import Circuit, OracleOp, RegisterLayout
from fidest.estimation import AmplitudeProblem
from fidest.fidelity import ESTIMATORS, HardInstance
from fidest.linalg import DensityMatrix
from fidest.oracles import INSTANCE_KINDS, PreparationOracle, RandomInstanceSpec, preparation_oracle

PACKAGE = Path(fidest.__file__).parent


def imported_modules(path):
    """Absolute names of the modules a package source file imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # package-relative imports ("from .x import y") resolve under fidest
            base = ".".join(filter(None, ["fidest" if node.level else "", node.module]))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_cli_import_loads_no_scipy():
    code = "import sys, fidest.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "[]"


def test_only_the_reference_module_imports_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "reference.py" in sources
    for path in sources:
        if path.name == "reference.py":
            continue
        names = imported_modules(path)
        assert not [n for n in names if n.split(".")[0] == "scipy"], path.name
        assert not [n for n in names if n.startswith("fidest.reference")], path.name


def compared_estimator_names(path):
    """(line, name) of every ESTIMATORS key a comparison in the source mentions."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Constant) and inner.value in ESTIMATORS:
                    found.append((inner.lineno, inner.value))
    return found


def test_no_module_branches_on_an_estimator_name():
    # an estimator's behaviour comes from its Estimator entry, never from its name
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "fidelity.py":
            assert compared_estimator_names(path) == [], path.name


def called_names(path):
    """Names of the functions a source file calls (``f(...)`` or ``mod.f(...)``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            found.append(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return found


def test_executor_builds_no_dense_embedding():
    # every op is a reshape of the flat state: no padding kron, axis moves or identity blocks
    calls = called_names(PACKAGE / "circuits.py")
    assert not {"kron", "moveaxis", "eye"} & set(calls)
    # an oracle is applied through its column, never as a matrix
    tree = ast.parse((PACKAGE / "circuits.py").read_text(encoding="utf-8"))
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "unitary"]
    oracle = preparation_oracle(DensityMatrix(np.eye(4) / 4))
    values = list(vars(oracle).values())
    leaves = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
    assert max(np.ndim(x) for x in leaves) <= 1
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
        assert "invocation_unitary" not in defined + imported, path.name


def test_oracles_and_circuits_are_frozen_values():
    for cls in (PreparationOracle, Circuit, OracleOp, RegisterLayout, AmplitudeProblem):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls.__name__
    # no query counter lives on an oracle, and no run switches counting off
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        assert not {"record", "reset_queries"} & {f.name for f in functions}, path.name
        params = [a.arg for f in functions for a in f.args.args + f.args.kwonlyargs]
        assert "count_queries" not in params, path.name


def test_each_rule_has_one_home():
    # the Grover-step query rule is estimation._query_tally's closed form, the
    # dense partial trace is a test reference, and purity has one tolerance
    defined, purity_tolerances = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "PURITY_ATOL" for t in targets):
                purity_tolerances.append(path.name)
    assert not {"invert_kind", "controlled_kind", "kron", "matrix_sqrt_psd"} & set(defined)
    assert defined["partial_trace"] == ["reference.py"]
    assert purity_tolerances == ["linalg.py"]
    assert list(inspect.signature(DensityMatrix.is_pure).parameters) == ["self"]


def test_no_test_only_surface():
    # instance and matrix files, the prescribed-spectrum kind and the free-standing
    # dense completion (read PreparationOracle.unitary) had no caller outside the tests
    deleted = {
        "instance_to_json",
        "instance_from_json",
        "matrix_to_json",
        "matrix_from_json",
        "complete_to_unitary",
        "_haar_unitary",
    }
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not deleted & defined, path.name
    assert not deleted & set(dir(fidest))
    assert [f.name for f in dataclasses.fields(RandomInstanceSpec)] == ["k", "rank", "seed", "kind"]
    assert INSTANCE_KINDS == ("haar_pure", "ginibre_mixed")
    assert "target" not in [f.name for f in dataclasses.fields(HardInstance)]
