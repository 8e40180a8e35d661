"""Every function, class and method the package defines, and every name a
module assigns, is referenced outside the tests: in ``src/``, in the README's
Python block or in a benchmark file. A name only the tests use belongs in the
tests."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsuperpose"
# argparse calls its parser's error hook.
EXEMPT = {"cli._Parser.error"}


def definitions():
    """(qualified name, name) of each module-level function and class of the
    package, and of each method of its classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def assignments():
    """(qualified name, name) of each name a module of the package assigns at
    module level."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield f"{path.stem}.{name.id}", name.id


def references(tree: ast.AST, strings: bool = False) -> set[str]:
    """The names a tree loads or reads as an attribute, and with ``strings``
    its string constants that are identifiers (the tracer's layer names)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def referenced_names() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        used |= references(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used |= references(ast.parse(re.search(r"```python\n(.*?)```", readme, re.S).group(1)))
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # A name a benchmark file defines itself (its Counter.record) is its own.
        own = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        used |= references(tree, strings=True) - own
    return used


def unreferenced(defined: dict[str, str]) -> list[str]:
    used = referenced_names()
    return [
        qualified for qualified, name in defined.items()
        if name not in used and not name.startswith("__") and qualified not in EXEMPT
    ]


def test_every_definition_is_referenced_outside_the_tests():
    defined = dict(definitions())
    # The walk reaches functions, classes and methods.
    assert {"linalg.StateVector", "nmr.run_sequence", "nmr.PulseProgram.from_json"} <= set(defined)
    assert unreferenced(defined) == []


def test_every_module_level_name_is_read_outside_the_tests():
    assigned = dict(assignments())
    # The walk reaches plain, annotated and unpacked assignments.
    assert {"linalg.EPS_OVERLAP", "datasets.TABLE1", "kernel.CODE_ANTIPODAL"} <= set(assigned)
    assert unreferenced(assigned) == []


def private_reach_ins():
    """(module, name) of each underscore name that a module of the package
    imports from another, or reads as an attribute of another."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                names = [node.attr]
            else:
                continue
            yield from ((path.stem, name) for name in names if name.startswith("_"))


def test_no_module_reaches_into_another_modules_private_names():
    assert list(private_reach_ins()) == []


def raised_messages():
    """(message source, module:line) of each raise whose message is a string
    literal or an f-string. A re-raise of ``str(exc)`` states no rule of its own."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                if isinstance(message, (ast.Constant, ast.JoinedStr)):
                    yield ast.unparse(message), f"{path.stem}:{node.lineno}"


def test_each_error_message_is_raised_from_one_place():
    sites: dict[str, list[str]] = {}
    for message, site in raised_messages():
        sites.setdefault(message, []).append(site)
    # The walk reaches plain and formatted messages.
    assert "'chi must be a single qubit state'" in sites
    assert any(m.startswith("f") and "seed must be a non-negative" in m for m in sites)
    assert {m: s for m, s in sites.items() if len(s) > 1} == {}


def test_each_squared_norm_is_norm_sq():
    functions = [q for q, name in definitions() if name == "norm_sq" and q.count(".") == 1]
    assert functions == ["linalg.norm_sq"]


# numpy functions and ndarray methods that contract through BLAS.
BLAS_PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot"}


def blas_products():
    """module:line of each product in the package that BLAS may compute: a ``@``
    or ``@=``, or a call of a ``BLAS_PRODUCTS`` name. OpenBLAS picks its kernel
    per CPU, and the kernels round differently; a two-operand ``np.einsum``
    runs in numpy's own loops, so its bits do not depend on the CPU's kernel."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                    or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in BLAS_PRODUCTS)):
                yield f"{path.stem}:{node.lineno}"


def test_no_product_goes_through_blas():
    assert list(blas_products()) == []
