"""The package keeps only what a command or the benchmark reaches.

Every top-level function, class and assigned constant of
``src/timedsessions``, and every method of each of its classes, must be
named somewhere it can be reached from: elsewhere in ``src/`` (outside its
own body; the export table of ``__init__`` holds strings, which do not
count), or in ``perfbench/*.py``, where a dotted string such as a
``HOOKS`` entry names its parts too.  A method is named by a name or an
attribute equal to its own.  Code that only tests call belongs with the
tests.  Each exception is listed in ``ALLOWED`` with its reason, a method
as ``Class.method``.
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
    "_ArgumentParser.print_help": "argparse calls it for -h and --help",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def occurrences(tree: ast.AST, strings: bool = False):
    """Each name a tree reads, takes as an attribute or imports, once per
    occurrence, and with strings, the parts of each dotted string
    constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def named_in(tree: ast.AST, strings: bool = False) -> set:
    return set(occurrences(tree, strings))


def defined_by(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function's or class's,
    or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def definitions(trees: dict) -> dict:
    """Each top-level function, class and assigned constant of the
    modules' trees, by module and name: is it named by a top-level
    statement of the package other than its own definition?"""
    statements = [(module, node, named_in(node))
                  for module, tree in trees.items() for node in tree.body]
    naming = Counter(name for _, _, names in statements for name in names)
    return {(module, name): naming[name] > (name in names)
            for module, node, names in statements
            for name in defined_by(node)}


def methods(trees: dict) -> dict:
    """Each method of each class of the modules' trees, by module and
    ``Class.method``: do the trees name it outside the method's own
    body?"""
    naming = Counter(name for tree in trees.values()
                     for name in occurrences(tree))
    return {(module, f"{cls.name}.{node.name}"):
            naming[node.name] > Counter(occurrences(node))[node.name]
            for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def bench_names() -> set:
    return set().union(*(named_in(ast.parse(path.read_text()), strings=True)
                         for path in sorted(BENCH.glob("*.py"))))


def unreached(allowed=ALLOWED) -> list:
    """module:name of each definition and method neither the package
    outside it nor the benchmark names, less the allowed ones and the
    dunders."""
    bench = bench_names()
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    out = []
    for (module, name), named in {**definitions(trees),
                                  **methods(trees)}.items():
        own = name.split(".")[-1]
        if not (named or name in allowed or own in bench
                or own.startswith("__") and own.endswith("__")):
            out.append(f"{module}:{name}")
    return sorted(out)


def test_every_definition_is_reached_from_the_package_or_the_benchmark():
    assert unreached() == []


def test_each_allowed_name_is_needed():
    assert [entry.split(":")[1] for entry in unreached(allowed={})] == sorted(
        ALLOWED)


def test_a_dotted_hook_string_names_its_parts():
    tree = ast.parse('HOOKS = (("zones", "Zone.canonicalize", True),)')
    assert {"zones", "Zone", "canonicalize"} <= named_in(tree, strings=True)
    assert "canonicalize" not in named_in(tree)


def test_a_method_named_only_in_its_own_body_is_not_reached():
    tree = ast.parse("class A:\n"
                     "    def walk(self, n):\n"
                     "        return self.walk(n - 1)\n"
                     "    def step(self):\n"
                     "        return 1\n"
                     "def run(a):\n"
                     "    return a.step()\n")
    assert methods({"m.py": tree}) == {("m.py", "A.walk"): False,
                                       ("m.py", "A.step"): True}
