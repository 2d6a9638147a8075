"""The Fraction reference stays independent of the int kernel.

``reference_semantics`` is the oracle the int explorer and the zones are
checked against, so it must reach no part of them: not the int state
space of ``semantics`` nor the point readers of ``zones``.  Any import or
attribute of the module that names one of them fails here.
"""

import ast
from pathlib import Path

KERNEL = {"_Space", "_Head", "_Option", "_region", "_stepper", "holds_at",
          "window_at", "int_point"}


def test_the_reference_names_nothing_of_the_int_kernel():
    path = Path(__file__).resolve().parent / "reference_semantics.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "eval_constraint" in names  # the walk reads the module
    assert names & KERNEL == set()
