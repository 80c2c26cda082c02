"""Every public function and method of the package has a caller outside the
tests: its name appears, as a name or an attribute, in the code of `src/`,
`demos/` or `perfbench/`. `rbm.from_json` is the one exception; it reads
the runners' checkpoints back. Every private module-level function has a
caller in `src/` itself, so no helper outlives its last use. And no module
of the package calls `warnings.warn`: progress and failures go through
logging, which reports every occurrence, where the default warnings filter
shows one per code location. Every test runs with RuntimeWarning as an
error, and no test module filters it back."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nqs_tfim"
UNCALLED = {"rbm.from_json"}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_functions():
    """(module.name or module.Class.name, name) of every public module-level
    function and every public method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in parse(path).body:
            defs = [(f"{module}.{node.name}", node)] if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for qualname, item in defs:
                if not item.name.startswith("_"):
                    yield qualname, item.name


def private_functions():
    """(module.name, name) of every private module-level function."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def names_used(folders=("src", "demos", "perfbench")):
    """Every identifier read as a name or an attribute in the folders."""
    used = set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_function_has_a_caller_outside_the_tests():
    used = names_used()
    uncalled = {qualname for qualname, name in public_functions() if name not in used}
    assert uncalled == UNCALLED


def test_every_private_function_has_a_caller_in_src():
    used = names_used(("src",))
    assert {qualname for qualname, name in private_functions() if name not in used} == set()


def test_no_module_calls_warnings_warn():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "warnings":
                callers += [f"{path.stem}: from warnings import {alias.name}"
                            for alias in node.names if alias.name == "warn"]
            elif (isinstance(node, ast.Attribute) and node.attr == "warn"
                  and isinstance(node.value, ast.Name) and node.value.id == "warnings"):
                callers.append(f"{path.stem}:{node.lineno}")
    assert callers == []


def warning_filters(path):
    """(line, action, category) of each filterwarnings or simplefilter call
    or mark in a file; category is "" where the filter names none."""
    for node in ast.walk(parse(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("filterwarnings", "simplefilter") and node.args
                and isinstance(node.args[0], ast.Constant)):
            action, _, rest = node.args[0].value.partition(":")
            category = rest.partition(":")[2].partition(":")[0]   # "action:message:category"
            for arg in [*node.args[1:], *(k.value for k in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id.endswith("Warning"):
                    category = arg.id
            yield node.lineno, action, category


def test_no_test_silences_runtime_warnings(pytestconfig):
    # a test may scope np.errstate around its own reference arithmetic instead
    assert "error::RuntimeWarning" in pytestconfig.getini("filterwarnings")   # pyproject.toml
    silenced = [f"{path.relative_to(ROOT)}:{line}"
                for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/test_*.py")])
                for line, action, category in warning_filters(path)
                if action != "error" and category in ("", "Warning", "RuntimeWarning")]
    assert silenced == []
