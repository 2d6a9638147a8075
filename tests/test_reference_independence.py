"""The references stay independent of the kernels they check.

``reference_semantics`` is the oracle the int explorer, the zones, the
int compatibility walk and the time rule are checked against, so it must
reach no part of them: not the int state space of ``semantics``, its
compatibility walk on int states, nor the point readers of ``zones``;
and ``semantics`` keeps no second, ``Fraction`` time rule.
``term_reference`` is the oracle ``processes.run`` is checked against: it
classifies and reduces leaves with its own ``_classify`` and ``_reduce``,
so it must reach none of the run's step records, thread and buffer
cells, clock or layout.  Any import or attribute of a reference that
names one of them fails here.
"""

import ast
from pathlib import Path

KERNEL = {"_Space", "_Head", "_Option", "_region", "_stepper", "_compatible",
          "holds_at", "window_at", "int_point"}

RUN = {"step_record", "_compile", "_Record", "run_prologue", "_take",
       "_activate", "_Thread", "_Queue", "_Clock", "_layout",
       "_read_layout", "_build"}


def names_in(reference: str) -> set:
    """Every name the module imports, reads or takes an attribute by."""
    path = Path(__file__).resolve().parent / reference
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def defined_in(reference: str) -> set:
    path = Path(__file__).resolve().parent / reference
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_the_reference_names_nothing_of_the_int_kernel():
    names = names_in("reference_semantics.py")
    assert "eval_constraint" in names  # the walk reads the module
    assert {"qconfig_steps", "compatible", "qconfig_time", "future_enabled",
            "_head_receive_option"} <= defined_in(
        "reference_semantics.py")  # its own steps, time rule and walk
    assert names & KERNEL == set()


def test_the_package_keeps_one_time_rule():
    """``semantics`` keeps its two time-rule names, but decides them through
    the int kernel alone: the ``Fraction`` rule, which evaluates rendered
    guards and sweeps trajectories, lives in the reference."""
    semantics = "../src/timedsessions/semantics.py"
    assert names_in(semantics) & {"eval_constraint", "trajectory_zone"} == set()
    defined = defined_in(semantics)
    assert {"qconfig_time", "is_future_enabled"} <= defined
    assert defined & {"_receivable_during", "_head_receive_option"} == set()


def test_the_term_reference_names_nothing_of_the_run():
    names = names_in("term_reference.py")
    assert {"_classify", "_reduce", "Redex"} <= defined_in(
        "term_reference.py")  # its own step
    assert names & RUN == set()
