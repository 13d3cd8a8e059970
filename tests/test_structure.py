"""Structure guards: the dense references stay out of the production path,
no package module imports scipy, estimators are defined only by the table in fidest.fidelity, the circuit
executor builds no dense padded or controlled matrix and reads no oracle matrix,
oracles and circuits are immutable values whose queries are counted, not kept,
each rule (query kinds, test-only linear algebra, purity, the readout cap, an
instance's size, the hard family's bounds) has one home, the
package keeps no surface that only tests reach and reads no environment
variable, no op is a controlled query, a config's defaults are its
command's flag defaults, the QPE sampler and the scaling fit compute in
plain floats, no estimate executes a circuit, verify-identities checks
oracle unitarity through the oracle's queries, with no dense product, only
the reference module calls eigh, a hard instance holds no oracle, executed circuit ops
act in place and make no BLAS call that OpenBLAS can thread, and a sweep
validates no state and factors no oracle."""

import ast
import dataclasses
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
from fidest import estimation
from fidest.circuits import Circuit, OracleOp, RegisterLayout
from fidest.cli import COMMANDS, ExperimentConfig, build_parser, config_from_args, main
from fidest.estimation import _KernelSampler
from fidest.fidelity import ESTIMATORS, HardInstance
from fidest.linalg import DensityMatrix
from fidest.oracles import INSTANCE_KINDS, PreparationOracle, RandomInstanceSpec
from fidest.reference import preparation_oracle, purify

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
    # the modules the CLI runs, loaded before the CLI binds their functions;
    # neither the CLI, the dense reference nor scipy
    production = ["circuits", "estimation", "fidelity", "linalg", "oracles", "streams"]
    assert loaded_modules("fidest") == ["fidest", *(f"fidest.{name}" for name in production)]
    # names are imported from their modules: the package binds no function or class
    values = [getattr(fidest, name) for name in dir(fidest)]
    assert not [v for v in values if inspect.isfunction(v) or inspect.isclass(v)]


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


def called_names(source):
    """Names of the functions a source file (or an AST node) calls (``f(...)`` or ``mod.f(...)``)."""
    tree = ast.parse(source.read_text(encoding="utf-8")) if isinstance(source, Path) else source
    found = []
    for node in ast.walk(tree):
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
    assert purity_tolerances == ["linalg.py"]
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
    # a hard instance holds its weights; its oracle and target are built on first read
    assert not {"target", "oracle"} & {f.name for f in dataclasses.fields(HardInstance)}


def test_eigendecompositions_live_in_the_reference():
    # a sampled instance's oracle is the Gaussian factor its state is drawn from;
    # the eigh purification, its oracle and the Hermitian eigensolver are references
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
        if path.name != "reference.py":
            assert "eigh" not in called_names(path), path.name
    for name in ("purify", "preparation_oracle", "herm_eig"):
        assert defined[name] == ["reference.py"], name


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
    # no per-seed stream cache or record replay: each estimate reads its own stream
    for name in ("_Replay", "_replay", "_repetition_streams", "functools"):
        assert not hasattr(estimation, name), name
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


def used_names(node):
    """Attribute and variable names under an AST node, plus "@" for a matrix product."""
    nodes = list(ast.walk(node))
    used = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    used |= {n.id for n in nodes if isinstance(n, ast.Name)}
    products = [n for n in nodes if isinstance(n, (ast.BinOp, ast.AugAssign))]
    if any(isinstance(n.op, ast.MatMult) for n in products):
        used.add("@")
    return used


PRODUCTS = {"@", "matmul", "dot", "tensordot"}


def test_cli_checks_unitarity_through_the_oracle_queries():
    # the oracle unitarity residual is O(4^n) per oracle: queries on the
    # identity and on U, no dense U^dag U product
    path = PACKAGE / "cli.py"
    names = imported_modules(path) + called_names(path)
    assert not [n for n in names if n and n.rsplit(".", 1)[-1] == "unitarity_error"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("_identity_residuals", "_oracle_unitarity_residual"):
        assert not PRODUCTS & used_names(functions[name]), name


def test_executed_ops_make_no_threaded_blas_call():
    # every executor op is one or two elementwise passes over a view of the
    # state, and norms are einsums over its real view: OpenBLAS threads a
    # product, a whole-state dot or a norm, and np.where writes a second state
    path = PACKAGE / "circuits.py"
    assert "@" not in used_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not {"matmul", "dot", "vdot", "tensordot", "norm", "where"} & set(called_names(path))
    # the oracle's Householder reduction is one short dot per column, no product
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    oracle = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PreparationOracle")
    apply = next(n for n in oracle.body if isinstance(n, ast.FunctionDef) and n.name == "apply")
    assert not PRODUCTS & used_names(apply)


def test_ops_act_in_place():
    # an executed op writes into the state it is given: it allocates no output
    # state and returns nothing, and no copy of a control = 0 half is taken
    trees = [ast.parse((PACKAGE / name).read_text(encoding="utf-8")) for name in ("circuits.py", "oracles.py")]
    functions = {n.name: n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    for name in ("_apply_op", "_hadamard", "apply"):
        assert not {"empty_like", "empty", "zeros", "copy"} & set(called_names(functions[name])), name
        assert not [n.lineno for n in ast.walk(functions[name]) if isinstance(n, ast.Return) and n.value], name
    assert "empty_like" not in called_names(PACKAGE / "circuits.py")


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_sweep_validates_no_state_and_factors_no_oracle(monkeypatch, capsys, estimator):
    # a sweep's states are Gram matrices, valid by construction (their checks
    # run over generated specs in test_oracles), its purity is read from the
    # columns, and it never applies an oracle
    def forbidden(*args, **kwargs):
        raise AssertionError("called by a sweep")

    monkeypatch.setattr(DensityMatrix, "__post_init__", forbidden)
    monkeypatch.setattr(PreparationOracle, "reduced_state", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    oracles = []
    synthesize = fidest.cli.synthesize_instance

    def recording(*args, **kwargs):
        rho, oracle = synthesize(*args, **kwargs)
        oracles.append(oracle)
        return rho, oracle

    monkeypatch.setattr(fidest.cli, "synthesize_instance", recording)
    rank = "1" if estimator == "pure-pure" else "3"
    argv = ["sweep", "--estimator", estimator, "--k", "2", "--rank", rank, "--trials", "2"]
    assert main([*argv, "--epsilons", "0.1,0.01"]) == 0
    assert len(oracles) == 4
    assert not [oracle for oracle in oracles if "_householder" in vars(oracle)]


def test_one_function_synthesises_instances():
    # sample_instance wraps synthesize_instance's state; nothing else draws one
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
