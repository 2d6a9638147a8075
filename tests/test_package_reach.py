"""The package keeps only what a command or the benchmark reaches.

Every top-level function, class and assigned constant of
``src/timedsessions`` must be named somewhere it can be reached from:
elsewhere in ``src/`` (outside its own body; the export table of
``__init__`` holds strings, which do not count), or in
``perfbench/*.py``, where a dotted string such as a ``HOOKS`` entry names
its parts too.  Code that only tests call belongs
with the tests.  Each exception is listed in ``ALLOWED`` with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "timedsessions"
BENCH = ROOT / "perfbench"

ALLOWED = {
    "format_process": "the term language's printer, kept for round trips "
                      "of printed processes",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def named_in(tree: ast.AST, strings: bool = False) -> set:
    """The names a tree reads, takes as attributes or imports, and with
    strings, the parts of each dotted string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def defined_by(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function's or class's,
    or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def definitions() -> dict:
    """Each top-level function, class and assigned constant of the
    package, by module and name: is it named by a top-level statement of
    the package other than its own definition?"""
    statements = [(path.name, node, named_in(node))
                  for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    naming = Counter(name for _, _, names in statements for name in names)
    return {(module, name): naming[name] > (name in names)
            for module, node, names in statements
            for name in defined_by(node)}


def bench_names() -> set:
    return set().union(*(named_in(ast.parse(path.read_text()), strings=True)
                         for path in sorted(BENCH.glob("*.py"))))


def unreached(allowed=ALLOWED) -> list:
    """module:name of each definition neither the package outside it nor
    the benchmark names, less the allowed ones and the dunders."""
    bench = bench_names()
    return sorted(f"{module}:{name}"
                  for (module, name), named in definitions().items()
                  if not named and name not in bench and name not in allowed
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_reached_from_the_package_or_the_benchmark():
    assert unreached() == []


def test_each_allowed_name_is_needed():
    assert [entry.split(":")[1] for entry in unreached(allowed={})] == sorted(
        ALLOWED)


def test_a_dotted_hook_string_names_its_parts():
    tree = ast.parse('HOOKS = (("zones", "Zone.canonicalize", True),)')
    assert {"zones", "Zone", "canonicalize"} <= named_in(tree, strings=True)
    assert "canonicalize" not in named_in(tree)
