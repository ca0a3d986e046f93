"""Structure of the package: its imports, and the names the benchmark's tracer
wraps and records."""

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import tracing  # noqa: E402
from elliptic_qes.cli import main  # noqa: E402


def test_no_import_inside_a_function_and_no_private_name_across_modules():
    """Every module imports at its top, and only public names of the others."""
    found = []
    for path in sorted((ROOT / "src" / "elliptic_qes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno} imports inside {node.name}"
                          for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("elliptic_qes")):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _is_check_result(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"


def test_only_the_verify_runner_forms_a_check_result():
    """In verify.py a check returns its detail string, and `_run_guarded`
    alone constructs CheckResult."""
    tree = ast.parse((ROOT / "src" / "elliptic_qes" / "verify.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    [runner] = [f for f in functions if f.name == "_run_guarded"]
    allowed = {node for node in ast.walk(runner) if _is_check_result(node)}
    assert allowed
    found = [f"line {node.lineno} calls CheckResult" for node in ast.walk(tree)
             if _is_check_result(node) and node not in allowed]
    found += [f"{f.name} returns {ast.unparse(f.returns) if f.returns else 'no annotation'}"
              for f in functions if f.name.startswith("_check_")
              and not (f.returns and ast.unparse(f.returns) == "str")]
    assert found == []


def test_oracles_defines_no_class_and_uses_no_pipeline_function():
    """oracles.py holds reference data only: it defines no class, and it binds
    `build_gauged_operator`, `build_matrix` and `spectrum_of` for the tracer
    without calling them."""
    tree = ast.parse((ROOT / "src" / "elliptic_qes" / "oracles.py").read_text())
    pipeline = {"build_gauged_operator", "build_matrix", "spectrum_of"}
    bound = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert pipeline <= bound
    found = [f"line {node.lineno} defines class {node.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)]
    found += [f"line {node.lineno} uses {node.id}" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in pipeline]
    assert found == []


# The span names one warm run of each command records.  Only verify checks
# matrices against z-space, so only it records the polynomial arithmetic.
_SPECTRUM = {"operator.build_gauged_operator", "matrices.build_matrix",
             "symmetric.enumerate_basis", "spectral.to_float"}
SPANS = {
    ("spectrum", "--n", "2", "--m", "2", "--a=1/2"):
        _SPECTRUM | {"spectral.spectrum_of", "spectral.eigenvalues"},
    ("sweep", "--sweep-var", "a", "--range", "0:1:2", "--n", "2", "--m", "1"):
        _SPECTRUM | {"spectral.spectrum_of", "spectral.eigenvalues"},
    ("eigenfunctions", "--n", "2", "--m", "2", "--a=1/2"):
        _SPECTRUM | {"spectral.eigenvector"},
    ("verify",):
        _SPECTRUM | {"spectral.spectrum_of", "spectral.eigenvalues", "verify.run_checks",
                     "operator.gauge_polynomials", "operator.apply", "matrices.determinant",
                     "matrices.raising_coefficient_check", "polynomials.add",
                     "polynomials.mul", "polynomials.divide_exact", "polynomials.leading",
                     "symmetric.tau_to_z", "symmetric.z_to_tau"},
}


def test_the_tracer_records_the_same_spans_for_each_command(tmp_path):
    """Installing the tracer finds every name it wraps (a missing one raises
    AttributeError), and each command records the spans pinned above, so
    `spectral.to_float` and `cli.to_float` stay bound and called.  Each
    command runs once untraced first, so the caches it fills do not depend on
    the tests run before it."""
    tracer = tracing.Tracer(tmp_path / "spans.csv.gz")
    try:
        tracer.install()
        for argv, expected in SPANS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0
                tracer.begin_op(0)
                code = main(list(argv))
                calls = tracer.end_op()
            assert code == 0
            assert {key.removesuffix(".calls") for key in calls if key.endswith(".calls")} == (
                expected), argv
    finally:
        tracer.close()
