"""The package loads only what a caller runs.

``timedsessions/__init__`` resolves its public names on first use, so a
caller of one layer compiles only the modules that layer imports.  The
export surface is pinned here, and each entry point's loaded modules are
read in a fresh interpreter under ``PYTHONDONTWRITEBYTECODE=1``, which
compiles every source it imports, as the benchmark's workers do.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import timedsessions

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "constraints": ["Valuation", "boundary_delays", "eval_constraint",
                    "shift", "zero_valuation"],
    "parser": ["parse_constraint", "parse_process", "parse_spec_file",
               "parse_type", "parse_valuation"],
    "processes": ["RunPolicy", "RunStatus", "eval_timeout", "neq_set", "phi",
                  "run", "time_step", "wait_set"],
    "semantics": ["ExploreLimits", "ProgressReport", "System",
                  "admissible_delays", "check_progress", "compatible",
                  "is_future_enabled", "make_system", "qconfig_time",
                  "system_steps"],
    "sessiontypes": ["WfReport", "check_well_formed", "dual", "format_type",
                     "gamma", "unfold_head"],
    "zones": ["constraint_equiv", "entails", "past", "reset_constraint",
              "to_zones", "trajectory_zone"],
}


def test_all_lists_the_pinned_names():
    pinned = sorted(name for names in EXPORTS.values() for name in names)
    assert len(pinned) == 40
    assert sorted(timedsessions.__all__) == pinned


def test_each_name_is_its_modules_object_and_is_kept():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"timedsessions.{module}")
        for name in names:
            assert getattr(timedsessions, name) is getattr(owner, name)
            assert vars(timedsessions)[name] is getattr(owner, name)


def test_star_import_and_dir_list_the_names():
    namespace = {}
    exec("from timedsessions import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(timedsessions.__all__)
    assert set(timedsessions.__all__) <= set(dir(timedsessions))


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(timedsessions, name)


# The modules that building classes with ``dataclasses`` loads; the
# package's value classes build none of them.
GENERATED = {"dataclasses", "inspect"}

PROBE = f"""
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("timedsessions")
                        or m in {sorted(GENERATED)!r})))
"""


def loaded(statement: str) -> set:
    """The package modules a fresh interpreter holds after statement, and
    those of ``GENERATED`` it holds."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", PROBE, statement], cwd=ROOT,
                         env=env, capture_output=True, text=True, check=True)
    return {name.removeprefix("timedsessions.")
            for name in json.loads(out.stdout)}


TYPE_LAYER = {"timedsessions", "errors", "constraints", "zones",
              "sessiontypes"}


@pytest.mark.parametrize("statement, modules", [
    ("import timedsessions", {"timedsessions"}),
    ("from timedsessions import sessiontypes", TYPE_LAYER),
    ("from timedsessions import generate, sessiontypes",
     TYPE_LAYER | {"generate"}),
    ("import timedsessions; timedsessions.generate.random_type",
     TYPE_LAYER | {"generate"}),
    ("from timedsessions import check_well_formed", TYPE_LAYER),
    ("from timedsessions import unfold_head", TYPE_LAYER),
])
def test_a_library_entry_loads_only_its_layer(statement, modules):
    """Exactly the layer's modules, so none of ``GENERATED`` either."""
    assert loaded(statement) == modules


@pytest.mark.parametrize("statement", [
    *(f"from timedsessions.cli import main; main({argv!r})" for argv in [
        ("check", "fixtures/junk.toast", "S"),
        ("dual", "fixtures/pingpong.toast", "PingPong", "--json"),
        ("run", "fixtures/mixed_pingpong.toast", "Main", "--fuel", "20"),
        ("compat", "fixtures/weak_persistency.toast", "weak"),
        ("progress", "fixtures/unsafe_mixed.toast", "unsafe")]),
    *("import sys; sys.path.insert(0, 'perfbench'); import worker; "
      f"worker.WORKLOADS[{workload!r}](1, 20, 'acceptance')"
      for workload in ("wellformed", "progress", "interpret")),
])
def test_no_command_or_benchmark_input_loads_dataclasses(statement):
    """A command, or a benchmark workload's input builder, loads neither
    ``dataclasses`` nor ``inspect``: the value classes share one written
    base (``constraints.Struct``) and ``Zone`` is a slotted class."""
    modules = loaded(statement)
    assert "constraints" in modules and not modules & GENERATED


@pytest.mark.parametrize("argv", [
    ("check", "fixtures/junk.toast", "S"),
    ("dual", "fixtures/pingpong.toast", "PingPong", "--json"),
    ("run", "fixtures/mixed_pingpong.toast", "Main", "--fuel", "20"),
])
def test_a_command_without_systems_loads_no_explorer(argv):
    modules = loaded(f"from timedsessions.cli import main; main({argv!r})")
    assert {"cli", "parser", "sessiontypes"} <= modules
    assert "semantics" not in modules and "generate" not in modules


def test_a_system_command_loads_the_explorer():
    modules = loaded("from timedsessions.cli import main; "
                     "main(['compat', 'fixtures/weak_persistency.toast', "
                     "'weak'])")
    assert "semantics" in modules and "generate" not in modules


PROCESS_CODE = {"processes", "process_parser"}


def test_parsing_a_type_compiles_no_process_code():
    modules = loaded("from timedsessions.parser import parse_type; "
                     "parse_type('!a(x<1).{ ?b.end, !c(x>2,{x}).end }')")
    assert modules == TYPE_LAYER | {"parser"}


@pytest.mark.parametrize("argv", [
    ("check", "fixtures/junk.toast", "S"),
    ("dual", "fixtures/pingpong.toast", "PingPong"),
    ("progress", "fixtures/unsafe_mixed.toast", "unsafe"),
    ("compat", "fixtures/weak_persistency.toast", "weak"),
])
def test_a_process_free_spec_loads_no_process_code(argv):
    modules = loaded(f"from timedsessions.cli import main; main({argv!r})")
    assert {"cli", "parser"} <= modules
    assert not modules & PROCESS_CODE


@pytest.mark.parametrize("statement", [
    "from timedsessions.cli import main; "
    "main(['check', 'fixtures/mixed_pingpong.toast', 'MPP'])",
    "from timedsessions.parser import parse_process; "
    "parse_process('new (p,q) { to q!a.end | from p recv a -> end "
    "| pq:[] | qp:[] }')",
], ids=["spec-with-a-process", "parse_process"])
def test_reading_a_process_loads_its_grammar(statement):
    assert PROCESS_CODE <= loaded(statement)
