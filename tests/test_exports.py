"""The public API is declared once, in each module's __all__.

The package root re-exports those lists; these tests fail if the root
drifts from them, or if a name the benchmark or README reads from the
root goes missing.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import rnskit
import rnskit.cli  # noqa: F401  (the benchmark reads rk.cli.main)
from rnskit import datapath, moduli, numbers, rns, tables

ROOT = Path(__file__).resolve().parents[1]
MODULES = (numbers, moduli, rns, datapath, tables)


def test_root_all_is_the_module_lists_joined():
    assert rnskit.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(rnskit.__all__)) == len(rnskit.__all__)


def test_every_exported_name_resolves_on_the_root():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rnskit, name) is getattr(module, name), (module.__name__, name)


def test_star_import_gives_exactly_the_declared_names():
    namespace: dict = {}
    exec("from rnskit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(rnskit.__all__)


def test_tests_import_each_function_and_class_from_its_own_module():
    # a name that an rnskit module imports for its own use, such as math.gcd,
    # puts no rnskit code under test
    misplaced = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rnskit."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(module, alias.name)
                    if inspect.isroutine(value) or inspect.isclass(value):
                        if value.__module__ != node.module:
                            misplaced.append((path.name, node.module, alias.name, value.__module__))
    assert misplaced == []


def _duplicate_defs(sources: dict[str, str]) -> list[tuple[str, list[str]]]:
    """Each top-level def that two sources write alike, as (name, files).

    Alike means the same name, parameter names and body; docstrings and
    annotations are left out, so a copied oracle re-documented still counts.
    """
    where: dict[tuple, list[str]] = {}
    for filename, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                params = tuple(arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg))
                key = (node.name, params, tuple(ast.dump(stmt) for stmt in body))
                where.setdefault(key, []).append(filename)
    return [(key[0], files) for key, files in where.items() if len(files) > 1]


def test_no_two_test_modules_define_the_same_function():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))}
    assert _duplicate_defs(sources) == []
    # the guard itself: a re-documented, annotated copy counts; a same-named other body does not
    copy = 'def root(v: int) -> int:\n    """Documented again."""\n    return v\n'
    sources = {"a.py": "def root(v):\n    return v\n", "b.py": copy, "c.py": "def root(v):\n    return -v\n"}
    assert _duplicate_defs(sources) == [("root", ["a.py", "b.py"])]


def test_benchmark_names_resolve_on_the_root():
    tree = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "rk"
    }
    assert "run" in names and "cli" in names
    missing = sorted(name for name in names if not hasattr(rnskit, name))
    assert missing == []


def test_readme_library_import_resolves_on_the_root():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from rnskit import \(([^)]*)\)", readme)
    assert block is not None
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert "find_moduli" in names
    missing = [name for name in names if not hasattr(rnskit, name)]
    assert missing == []


def test_readme_library_block_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {}
    exec(block, env)
    # each claim in the block's comments, evaluated against what it ran
    claims = [
        "moduli_set.moduli == (42, 43, 41, 47, 37, 53)",
        "bit_cost(moduli_set) == 36",
        "trace.x == 41",
        "trace.extras == ((58005, 39), (1235, 36), (34, 34))",
        "outputs == [36]",
        "latch_trace[1][Source.MUL] == x",
        "Source.MUL not in latch_trace[0]",
    ]
    for claim in claims:
        assert claim in block
        assert eval(claim, env), claim
    assert "# residues (4, 0, 1)" in block and env["x"].residues == (4, 0, 1)
    assert "moduli_set.moduli[3 + j]" in block
    moduli_set, trace = env["moduli_set"], env["trace"]
    assert len(trace.extras) == len(moduli_set.moduli) - 3 == 3
    assert moduli_set.moduli[3:] == (47, 37, 53)
