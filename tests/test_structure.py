"""Structure guards: the dense references stay out of the production path,
no package module imports scipy, estimators are defined and run only through the table in fidest.fidelity, the circuit
executor builds no dense padded or controlled matrix and reads no oracle matrix,
oracles and circuits are immutable values whose queries are counted, not kept,
each rule (query kinds, test-only linear algebra, purity, the readout cap, an
instance's size, the hard family's bounds) has one home, the
package keeps no surface that only tests reach and reads no environment
variable, no op is a controlled query, a config's defaults are its
command's flag defaults, the QPE sampler and the scaling fit compute in
plain floats, no estimate executes a circuit, verify-identities checks
oracle unitarity through the oracle's queries, with no dense product, only
the reference module calls eigh or eigvalsh, the hard family is two weights per member,
executed circuit ops act in place and make no BLAS call that OpenBLAS can thread, a sweep
and verify-identities validate no dense state, a sweep factors no oracle, and every command
but verify-identities imports no numpy: fidest.linalg, the statevector executor, is its one
module boundary.  Every field of a production dataclass is read by some command."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fidest
import fidest.circuits
import fidest.cli
import fidest.fidelity
import fidest.reference
from fidest import estimation, linalg
from fidest.circuits import Circuit, OracleOp, RegisterLayout
from fidest.cli import COMMANDS, FORMATS, ExperimentConfig, build_parser, config_from_args, main
from fidest.estimation import _KernelSampler
from fidest.fidelity import ESTIMATORS, Estimator
from fidest.oracles import PreparationOracle
from fidest.reference import DensityMatrix, preparation_oracle, purify

PACKAGE = Path(fidest.__file__).parent


def imported_modules(source):
    """Absolute names of the modules a package source file (or an AST node) imports."""
    tree = ast.parse(source.read_text(encoding="utf-8")) if isinstance(source, Path) else source
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # package-relative imports ("from .x import y") resolve under fidest
            base = ".".join(filter(None, ["fidest" if node.level else "", node.module]))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def loaded_modules(module):
    """Sorted fidest and scipy modules a fresh interpreter holds after importing ``module``."""
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('fidest', 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    return ast.literal_eval(out.strip())


def test_cli_import_loads_no_scipy():
    assert not [m for m in loaded_modules("fidest.cli") if m.startswith("scipy")]


def test_package_import_loads_the_production_modules_only():
    # the modules a sweep or a single estimate runs, loaded before the CLI binds
    # their functions; neither the CLI, the numpy side, the dense reference nor scipy
    production = ["circuits", "estimation", "fidelity", "oracles", "streams"]
    assert loaded_modules("fidest") == ["fidest", *(f"fidest.{name}" for name in production)]
    # names are imported from their modules: the package binds no function or class
    values = [getattr(fidest, name) for name in dir(fidest)]
    assert not [v for v in values if inspect.isfunction(v) or inspect.isclass(v)]


#: The modules a sweep or a single estimate runs: none of them imports numpy.
ESTIMATE_PATH = ("__init__.py", "circuits.py", "cli.py", "estimation.py", "fidelity.py", "oracles.py", "streams.py")


def test_the_estimate_path_imports_no_numpy():
    # numpy is reached through one module boundary, fidest.linalg, which only
    # the CLI's verify-identities function imports when it runs
    assert sorted(path.name for path in PACKAGE.glob("*.py")) == sorted(
        ESTIMATE_PATH + ("linalg.py", "reference.py")
    )
    for name in ESTIMATE_PATH:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        assert not [n for n in imported_modules(PACKAGE / name) if n.split(".")[0] == "numpy"], name
        assert not numpy_names(tree), name
        module_level = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        top = [m for node in module_level for m in imported_modules(ast.Module([node], []))]
        assert not [m for m in top if m.startswith(("fidest.linalg", "fidest.reference"))], name
        lazy = [
            (f.name, m)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for m in imported_modules(ast.Module([node], []))
        ]
        if name == "cli.py":
            assert lazy == [("_identity_residuals", "fidest"), ("_identity_residuals", "fidest.linalg")]
        else:
            assert lazy == [], name


NUMPY_FREE_RUN = """
import contextlib, io, sys
import fidest, fidest.cli
assert "numpy" not in sys.modules, "import"
from fidest.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for estimator, rank in (("swap-baseline", 2), ("optimal", 2), ("tr-rho-sigma2", 2), ("pure-pure", 1)):
        for fmt in ("csv", "json"):
            argv = ["sweep", "--estimator", estimator, "--k", "2", "--rank", str(rank), "--trials", "2",
                    "--epsilons", "0.2,0.1,0.05", "--format", fmt]
            assert main(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
    assert main(["single", "--estimator", "tr-rho-sigma2", "--k", "2", "--epsilons", "0.01"]) == 0
    assert "numpy" not in sys.modules, "single"
    # the hard family is two weights per member, at any rank
    for argv in (["hard-instance"], ["hard-instance", "--k", "22", "--rank", "4194304", "--format", "json"]):
        assert main(argv) == 0, argv
        assert "numpy" not in sys.modules, argv
    # the one command that executes circuits loads it, and still passes
    assert main(["verify-identities", "--k", "1"]) == 0
    assert "numpy" in sys.modules
print("ok")
"""


def test_sweep_and_single_leave_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only; the reference loads none of it either
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "reference.py" in sources
    for path in sources:
        names = imported_modules(path)
        assert not [n for n in names if n.split(".")[0] == "scipy"], path.name
        if path.name != "reference.py":
            assert not [n for n in names if n.startswith("fidest.reference")], path.name
    assert not [m for m in loaded_modules("fidest.reference") if m.startswith("scipy")]


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


def test_the_table_is_the_one_way_to_run_an_estimator():
    # the task record and the named front ends over the table had no caller outside the
    # tests: an estimator runs as ESTIMATORS[name].bind(u, v)(epsilon, seed), as the CLI runs it,
    # and fidest.fidelity defines no function or class besides the table's two, one clamp and
    # the hard family the estimators are measured against
    defined = [
        name
        for name, value in vars(fidest.fidelity).items()
        if (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == "fidest.fidelity"
    ]
    assert sorted(defined) == [
        "BoundEstimator",
        "Estimator",
        "_check_hard_pair_weights",
        "_unit",
        "check_hard_family",
        "hard_pair",
        "hard_pair_hellinger",
        "summed_hellinger",
    ]
    assert list(inspect.signature(Estimator.bind).parameters) == ["self", "rho_oracle", "second_oracle"]
    assert [(key, estimator.name) for key, estimator in ESTIMATORS.items()] == [(key, key) for key in ESTIMATORS]


def called_names(source):
    """Names of the functions a source file (or an AST node) calls (``f(...)`` or ``mod.f(...)``)."""
    tree = ast.parse(source.read_text(encoding="utf-8")) if isinstance(source, Path) else source
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            found.append(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return found


#: The executor's functions in fidest.linalg: the ops, the oracle's application and the norms.
EXECUTOR = ("_block", "_one_qubit", "_swap_geometry", "_hadamard", "apply_oracle", "_apply_op", "_norm",
            "execute", "analyze_flagged")


def executor_functions():
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert set(EXECUTOR) <= set(functions)
    return {name: functions[name] for name in EXECUTOR}


def test_executor_builds_no_dense_embedding():
    # every op is a reshape of the flat state: no padding kron, axis moves or identity blocks,
    # and an oracle is applied through its column, never as a matrix
    for name, function in executor_functions().items():
        assert not {"kron", "moveaxis", "eye", "oracle_unitary"} & set(called_names(function)), name
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
    for cls in (PreparationOracle, Circuit, OracleOp, RegisterLayout):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls.__name__
    # no query counter lives on an oracle, and no run switches counting off
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        assert not {"record", "reset_queries"} & {f.name for f in functions}, path.name
        params = [a.arg for f in functions for a in f.args.args + f.args.kwonlyargs]
        assert "count_queries" not in params, path.name


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def ordered_against(node, name, value):
    """Whether a comparison orders ``name`` against the constant ``value`` (as in ``k < 1``)."""
    operands = [node.left, *node.comparators]
    return (
        any(isinstance(op, ORDERINGS) for op in node.ops)
        and name in used_names(node)
        and any(isinstance(o, ast.Constant) and o.value == value for o in operands)
    )


def shifts_p(node):
    """Whether a comparison holds p + x or p - x."""
    return any(
        isinstance(b, ast.BinOp) and isinstance(b.op, (ast.Add, ast.Sub)) and getattr(b.left, "id", None) == "p"
        for b in ast.walk(node)
    )


def comparing_functions(predicate):
    """(file, innermost enclosing function) of every package comparison ``predicate`` accepts."""
    homes = set()
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, function):
            if isinstance(node, ast.FunctionDef):
                function = node.name
            if isinstance(node, ast.Compare) and predicate(node):
                homes.add((path.name, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return homes


def builds_a_power(node):
    """Whether an AST node holds a shift or a power, as in ``1 << k`` or ``2 ** k``."""
    return any(isinstance(b, ast.BinOp) and isinstance(b.op, (ast.LShift, ast.Pow)) for b in ast.walk(node))


#: input rule -> (the comparisons that state it, the one function that may make them)
INPUT_RULES = {
    "k >= 1": (lambda n: ordered_against(n, "k", 1), ("oracles.py", "check_instance_size")),
    "rank >= 1": (lambda n: ordered_against(n, "rank", 1), ("oracles.py", "check_instance_size")),
    "rank <= 2^k": (lambda n: {"rank", "k"} <= used_names(n), ("oracles.py", "check_instance_size")),
    "hard family rank >= 2": (lambda n: ordered_against(n, "rank", 2), ("fidelity.py", "check_hard_family")),
    "p +- eps in (0, 1)": (shifts_p, ("fidelity.py", "_check_hard_pair_weights")),
    "purity": (lambda n: "PURITY_ATOL" in used_names(n), ("fidelity.py", "bind")),
}


def test_each_rule_has_one_home():
    # the Grover-step query rule is estimation._query_tally's closed form, the
    # dense partial trace is a test reference, and purity has one tolerance,
    # read from the columns: a DensityMatrix has no purity of its own
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
    assert purity_tolerances == ["fidelity.py"]
    assert not {"purity", "is_pure"} & set(vars(DensityMatrix))
    # each input rule is compared in one function, and no rank is tested
    # against a built 2^k: k may be far over the qubit cap
    homes = {rule: comparing_functions(predicate) for rule, (predicate, _) in INPUT_RULES.items()}
    assert homes == {rule: {home} for rule, (_, home) in INPUT_RULES.items()}
    assert comparing_functions(lambda n: "rank" in used_names(n) and builds_a_power(n)) == set()
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    [check] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "check_instance_size"]
    assert not builds_a_power(check)
    # the readout cap is compared in estimation.readout_qubits alone, which takes no logarithm
    cap_checks = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and "ESTIMATOR_MAX_M" in used_names(node):
                cap_checks.add((path.name, node.lineno))
    tree = ast.parse((PACKAGE / "estimation.py").read_text(encoding="utf-8"))
    [readout] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "readout_qubits"]
    in_readout = {("estimation.py", n.lineno) for n in ast.walk(readout) if isinstance(n, ast.Compare)}
    assert cap_checks and cap_checks <= in_readout, cap_checks - in_readout
    assert not {"log2", "log"} & set(called_names(readout))


def used_names(node, skip=()):
    """Attribute and variable names under an AST node, outside the subtrees in ``skip``, plus "@"
    for a matrix product; a string, a docstring among them, names nothing."""
    nodes, stack = [], [node]
    while stack:
        nodes.append(stack.pop())
        stack.extend(child for child in ast.iter_child_nodes(nodes[-1]) if child not in skip)
    used = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    used |= {n.id for n in nodes if isinstance(n, ast.Name)}
    products = [n for n in nodes if isinstance(n, (ast.BinOp, ast.AugAssign))]
    if any(isinstance(n.op, ast.MatMult) for n in products):
        used.add("@")
    return used


def unnamed_definitions():
    """(file, name) of every production definition that production code never names.

    A definition is a module-level function or class of a module other than reference.py, or a
    method or property of such a class (dunder methods count as part of their class).  It is
    live if a module's top-level code (cli.py's ``__main__`` block calls ``main``, the console
    script's entry point) or a live definition other than itself names it, so a name read only
    by dead code is dead too."""
    definitions, reads, live_names = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "reference.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        live_names |= used_names(tree, skip=top)
        for node in top:
            members = [
                m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            ] if isinstance(node, ast.ClassDef) else []
            definitions[(path.name, node.name)] = node.name
            reads[(path.name, node.name)] = used_names(node, skip=members) - {node.name}
            for member in members:
                definitions[(path.name, f"{node.name}.{member.name}")] = member.name
                reads[(path.name, f"{node.name}.{member.name}")] = used_names(member) - {member.name}
    live, grown = set(), True
    while grown:
        grown = False
        for key, name in definitions.items():
            if key not in live and name in live_names:
                live.add(key)
                live_names |= reads[key]
                grown = True
    return sorted(set(definitions) - live)


def test_no_test_only_surface():
    # every production function, class and method is reached from a command: the channel
    # wrapper, the zero state, the test-only hard-instance record and the dense unitarity and
    # fidelity-to-pure references had no caller outside the tests
    assert unnamed_definitions() == []
    # instance and matrix files, the prescribed-spectrum kind and the free-standing
    # dense completion (read fidest.linalg.oracle_unitary) had no caller outside the tests,
    # the rank-long Hellinger sum is fidest.fidelity.summed_hellinger's O(1) exact sum, and
    # Pr[registers = 0] is analyze_flagged's flagged amplitude squared, read where it is used
    deleted = {
        "register_zero_probability",
        "hellinger_distance",
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
    # an instance is (k, rank, seed): a rank-1 draw is the Haar-random pure state, so no
    # instance kind or spec type is kept
    for name in ("RandomInstanceSpec", "INSTANCE_KINDS"):
        assert not hasattr(fidest.oracles, name), name
    assert list(inspect.signature(fidest.oracles.synthesize_instance).parameters) == ["k", "rank", "seed", "label"]
    # the hard family is two weights per member: no rank-long or 2^k vector, oracle or target
    pair = fidest.fidelity.hard_pair(0.5, 0.1, 1 << 20, 20)
    assert [tuple(map(type, member)) for member in pair] == [(float, float)] * 2


#: Frames whose field reads do not count as a use: checks on construction and the dunders
#: that dataclasses generates.  Only reads made by fidest's own code count, so neither the
#: test's reads nor generic helpers such as ``dataclasses.replace`` mark a field as used.
UNCOUNTED_READERS = {"__post_init__", "__init__", "__repr__", "__eq__", "__hash__"}


def production_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "reference"):
            module = importlib.import_module(f"fidest.{path.stem}")
            yield from (
                value for value in vars(module).values()
                if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__
            )


def test_every_dataclass_field_is_read_by_a_command_or_refusal(monkeypatch, capsys):
    """Every production dataclass field is read by fidest's code on some command's path or on
    bind's purity refusal.

    A field that nothing reads outside the checks on construction is a setting with no effect
    (an instance kind was one: each kind drew the same state).  The purity refusal is a library
    path: no command reaches it, because the CLI draws a state an estimator needs pure at rank 1,
    and it is the only non-import read of ``Estimator.name``."""
    reads, fields = set(), set()
    for cls in production_dataclasses():
        names = {f.name for f in dataclasses.fields(cls)}
        fields |= {(cls.__name__, name) for name in names}

        def recorded(self, name, cls=cls, names=names):
            caller = sys._getframe(1)
            if (
                name in names
                and caller.f_globals.get("__name__", "").startswith("fidest.")
                and caller.f_code.co_name not in UNCOUNTED_READERS
            ):
                reads.add((cls.__name__, name))
            return object.__getattribute__(self, name)

        monkeypatch.setattr(cls, "__getattribute__", recorded)
    sweep = ["sweep", "--k", "1", "--epsilons", "0.2,0.1,0.05", "--trials", "2"]
    for name, estimator in ESTIMATORS.items():
        assert main([*sweep, "--estimator", name, "--rank", "1" if estimator.first_pure else "2"]) == 0
    assert main([*sweep, "--format", "json"]) == 0
    assert main(["single", "--k", "1", "--epsilons", "0.1"]) == 0
    for fmt in FORMATS:
        assert main(["hard-instance", "--format", fmt]) == 0
    assert main(["verify-identities", "--k", "2"]) == 0
    mixed = fidest.oracles.synthesize_instance(1, 2, 0)
    with pytest.raises(ValueError, match="requires a pure second state"):
        ESTIMATORS["optimal"].bind(mixed, mixed)
    assert sorted(fields - reads) == []


def test_eigendecompositions_live_in_the_reference():
    # a sampled instance's oracle is the Gaussian factor its state is drawn from;
    # the eigh purification, its oracle and the Hermitian eigensolver are references, as are
    # the dense unitarity residual and the fidelity to a pure state, which only the tests read
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
        if path.name != "reference.py":
            assert not {"eigh", "eigvalsh"} & set(called_names(path)), path.name
    # the validated density matrix, an oracle's dense state and the dense tr(rho sigma^2) too:
    # verify-identities checks the executed circuits against pair_traces, the estimators' p
    for name in ("purify", "preparation_oracle", "herm_eig", "unitarity_error", "exact_fidelity_to_pure",
                 "_hermiticity_error", "reduced_state", "exact_tr_rho_sigma2"):
        assert defined[name] == ["reference.py"], name
    assert [n.name for n in ast.walk(ast.parse((PACKAGE / "reference.py").read_text(encoding="utf-8")))
            if isinstance(n, ast.ClassDef)] == ["DensityMatrix"]


def test_only_production_options_remain():
    # purify's ancilla override, the X gate and RegisterLayout.size had no
    # caller outside the tests; H is the one gate, and a swap's control is optional
    for function in (purify, preparation_oracle):
        assert "ancilla_qubits" not in inspect.signature(function).parameters
    for name in ("Gate1Q", "_GATES_1Q", "ControlledRegisterSwap"):
        assert not hasattr(fidest.circuits, name), name
    assert not hasattr(RegisterLayout, "size")
    # the qubit cap is a constant: no package module reads the environment
    for path in sorted(PACKAGE.glob("*.py")):
        assert not {"environ", "getenv"} & used_names(ast.parse(path.read_text(encoding="utf-8"))), path.name
    for name in ("qubit_cap", "DEFAULT_QUBIT_CAP", "QUBIT_CAP_ENV"):
        assert not hasattr(fidest.circuits, name), name
    # no command runs a controlled query: those kinds are tallies, never ops
    oracle = preparation_oracle(DensityMatrix(np.eye(2) / 2))
    for kind in ("controlled", "controlled_inverse"):
        with pytest.raises(ValueError, match="plain or inverse"):
            OracleOp(oracle, kind, ("A", "B"))


def test_estimates_execute_no_circuit():
    # an estimate is a function of p, which fidelity takes from the oracle
    # columns; the executed flag probability is a reference
    for name in ("estimation.py", "fidelity.py"):
        path = PACKAGE / name
        used = set(called_names(path)) | {n.rsplit(".", 1)[-1] for n in imported_modules(path)}
        assert not {"execute", "analyze_flagged", "AmplitudeProblem"} & used, name
    assert not hasattr(estimation, "AmplitudeProblem")
    assert not hasattr(estimation, "flag_probability")


@pytest.mark.parametrize("command", COMMANDS)
def test_config_defaults_are_the_flag_defaults(command):
    assert ExperimentConfig(command=command) == config_from_args(build_parser().parse_args([command]))


def numpy_names(node):
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in ("np", "numpy")]


def test_the_sampler_draws_in_plain_floats():
    # K(d) is one scalar float expression evaluated one offset at a time, and
    # the uniforms come from fidest.streams: estimation names no np or numpy
    source = (PACKAGE / "estimation.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    assert not numpy_names(tree)
    assert not [n for n in imported_modules(PACKAGE / "estimation.py") if n.split(".")[0] == "numpy"]
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not hasattr(_KernelSampler(0.3, 4), "window")
    # one draw routine, fed explicit uniforms: an estimate's outcome, and the
    # tests' scripted-uniform law, come only from _KernelSampler.draw
    methods = [n.name for n in top["_KernelSampler"].body if isinstance(n, ast.FunctionDef)]
    assert [name for name in methods if not name.startswith("_")] == ["draw"]
    assert list(inspect.signature(_KernelSampler.draw).parameters) == ["self", "branch", "window", "tail"]
    assert "draw" in called_names(top["_estimate"])
    # no record replay or per-repetition stream cache: the one cache holds the last
    # seed's head as a tuple, so an estimate reads only its own seed's streams
    for name in ("_Replay", "_replay", "_repetition_streams"):
        assert not hasattr(estimation, name), name
    assert estimation._head_uniforms.cache_parameters()["maxsize"] == 1
    assert isinstance(estimation._head_uniforms(7), tuple)
    for name in ("offset", "window_offset", "outcome", "tail_offset"):
        assert not hasattr(_KernelSampler, name), name


def test_the_scaling_fit_is_plain_floats():
    # the slope is a closed form in math.log and math.fsum: no numpy call, so
    # no LAPACK solve and no SIMD loop, and no stdlib module the CLI did not load
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [fit] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "fit_scaling"]
    assert not numpy_names(fit)
    assert {"log", "fsum"} <= set(called_names(fit))
    assert not {"statistics", "fractions", "decimal"} & set(imported_modules(PACKAGE / "cli.py"))


def test_the_hard_family_is_plain_floats():
    # fidest.fidelity loads on every sweep: its exact Hellinger sum is float.as_integer_ratio and
    # one int / int, not a fractions or decimal import
    path = PACKAGE / "fidelity.py"
    assert not {"fractions", "decimal"} & {n.split(".")[0] for n in imported_modules(path)}
    assert not numpy_names(ast.parse(path.read_text(encoding="utf-8")))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [summed] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "summed_hellinger"]
    assert "as_integer_ratio" in called_names(summed)


def test_linalg_is_the_executor_alone():
    # the statevector executor, the oracle's Householder completion and the oracle checks,
    # which read no stored state: every dense reference is in fidest.reference
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    top = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert top == set(EXECUTOR) | {
        "_householder",
        "oracle_unitary",
        "_system_matrix",
        "FlaggedAmplitudeAnalysis",
        "oracle_residuals",
    }
    assert list(inspect.signature(linalg.oracle_residuals).parameters) == ["oracle"]


PRODUCTS = {"@", "matmul", "dot", "tensordot"}


def test_cli_checks_unitarity_through_the_oracle_queries():
    # the oracle unitarity residual is O(4^n) per oracle: queries on the
    # identity and on U, no dense U^dag U product
    path = PACKAGE / "cli.py"
    names = imported_modules(path) + called_names(path)
    assert not [n for n in names if n and n.rsplit(".", 1)[-1] == "unitarity_error"]
    for name, module in (("_identity_residuals", "cli.py"), ("oracle_residuals", "linalg.py")):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        [function] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        assert not PRODUCTS & used_names(function), name
        assert "unitarity_error" not in called_names(function), name


def test_executed_ops_make_no_threaded_blas_call():
    # every executor op is one or two elementwise passes over a view of the
    # state, and norms are einsums over its real view: OpenBLAS threads a
    # product, a whole-state dot or a norm, and np.where writes a second state;
    # the oracle's Householder reduction is one short dot per column, no product
    for name, function in executor_functions().items():
        assert "@" not in used_names(function), name
        assert not {"matmul", "dot", "vdot", "tensordot", "norm", "where"} & set(called_names(function)), name


def test_ops_act_in_place():
    # an executed op writes into the state it is given: it allocates no output
    # state and returns nothing, and no copy of a control = 0 half is taken
    functions = executor_functions()
    for name in ("_apply_op", "_hadamard", "apply_oracle"):
        assert not {"empty_like", "empty", "zeros", "copy"} & set(called_names(functions[name])), name
        assert not [n.lineno for n in ast.walk(functions[name]) if isinstance(n, ast.Return) and n.value], name
    for name, function in functions.items():
        assert "empty_like" not in called_names(function), name


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_sweep_validates_no_state_and_factors_no_oracle(monkeypatch, capsys, estimator):
    # a sweep builds no density matrix (its purity and p are read from the
    # columns) and never applies an oracle, so no Householder factors are built
    def forbidden(*args, **kwargs):
        raise AssertionError("called by a sweep")

    for name in ("_system_matrix", "_householder"):
        monkeypatch.setattr(linalg, name, forbidden)
    for name in ("reduced_state", "exact_tr_rho_sigma2"):
        monkeypatch.setattr(fidest.reference, name, forbidden)
    monkeypatch.setattr(DensityMatrix, "__post_init__", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    oracles = []
    synthesize = fidest.cli.synthesize_instance

    def recording(*args, **kwargs):
        oracle = synthesize(*args, **kwargs)
        oracles.append(oracle)
        return oracle

    monkeypatch.setattr(fidest.cli, "synthesize_instance", recording)
    rank = "1" if estimator == "pure-pure" else "3"
    argv = ["sweep", "--estimator", estimator, "--k", "2", "--rank", rank, "--trials", "2"]
    assert main([*argv, "--epsilons", "0.1,0.01"]) == 0
    assert len(oracles) == 4
    assert not [oracle for oracle in oracles if oracle in linalg._FACTORS]


def test_verify_identities_validates_no_state(monkeypatch, capsys):
    # its truths are pair_traces contractions of the columns and its reconstruction compares
    # two columns' system matrices: no density matrix is validated, and no LAPACK eigvalsh runs
    def forbidden(*args, **kwargs):
        raise AssertionError("called by verify-identities")

    for name in ("reduced_state", "exact_tr_rho_sigma2"):
        monkeypatch.setattr(fidest.reference, name, forbidden)
    monkeypatch.setattr(DensityMatrix, "__post_init__", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert main(["verify-identities", "--k", "2", "--trials", "4"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_one_function_synthesises_instances():
    # verify-identities and a sweep draw their oracles alike, and read their states from the
    # column; nothing else draws one
    drawing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "complex_gaussians" in called_names(node):
                drawing.append(node.name)
    assert drawing == ["synthesize_instance"]


def test_each_stream_domain_has_one_reader():
    # two call sites reading one domain with the same parts would draw the same uniforms
    domains = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("uniforms", "_words"):
                if isinstance(node.args[0], ast.Constant):
                    domains.append(node.args[0].value)
    assert sorted(domains) == [b"head", b"inst", b"seed", b"tail"]
