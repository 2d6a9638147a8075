"""The benchmark's hook targets exist, and return the shapes it reads.

``perfbench/tracing.py`` wraps package functions by name and derives counts
from their results.  A target that is renamed away, or whose result changes
shape, only drops that target's metrics from a traced run, which still
exits 0.  This suite makes either change fail here instead.  The tracer is
loaded by path and never installed, since installing rebinds package names.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from timedsessions import processes, semantics, sessiontypes, zones
from timedsessions.parser import parse_constraint, parse_spec_file

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_hook_target_resolves():
    missing = []
    for module_name, qualname, _ in tracing.HOOKS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def pingpong_system():
    spec = parse_spec_file((FIXTURES / "mixed_pingpong.toast").read_text())
    return semantics.make_system(*spec.resolve_system("mpp"))


def is_pair(result):
    return isinstance(result, tuple) and len(result) == 2


# Each observed target: a call on a small input, and the shape its observer
# reads from the result.
OBSERVED = {
    "zones.to_zones": (
        lambda: zones.to_zones(parse_constraint("x<1 or x>2")),
        lambda result: isinstance(result, list)),
    "sessiontypes.check_well_formed": (
        lambda: sessiontypes.check_well_formed(
            pingpong_system().left.node),
        lambda result: isinstance(result.verdict, bool)),
    "semantics.check_progress": (
        lambda: semantics.check_progress(
            pingpong_system(), semantics.ExploreLimits(max_states=50)),
        lambda result: isinstance(result.states_visited, int)),
    "semantics.system_steps": (
        lambda: semantics.system_steps(pingpong_system()),
        lambda result: isinstance(result, list)),
    "semantics.digest_system": (
        lambda: semantics.digest_system(pingpong_system()),
        lambda result: isinstance(result, str)),
    "semantics.admissible_delays": (
        lambda: semantics.admissible_delays(pingpong_system(), Fraction(4)),
        lambda result: isinstance(result, list)),
    "semantics.qconfig_time": (
        lambda: semantics.qconfig_time(pingpong_system().left, Fraction(1)),
        is_pair),
    "processes.run": (
        lambda: processes.run(
            parse_spec_file((FIXTURES / "mixed_pingpong.toast").read_text())
            .processes["Main"], processes.RunPolicy(fuel=20)),
        lambda result: isinstance(result.trace, list)),
}


def test_every_observed_target_returns_the_shape_its_observer_reads():
    assert set(OBSERVED) == set(tracing.OBSERVERS)
    for name, (call, shaped) in OBSERVED.items():
        assert shaped(call()), name
