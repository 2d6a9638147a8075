"""No process-wide state grows while the package works.

Every dict, list and set bound at module level in the package is measured
before and after a batch of well-formedness checks, monitored progress
explorations, compatibility checks and interpreter runs; a cache kept
between calls would change a length.
"""

import importlib
import pkgutil
import random
from pathlib import Path

import timedsessions
from timedsessions.generate import random_type, well_formed_types
from timedsessions.parser import parse_spec_file
from timedsessions.processes import RunPolicy, run
from timedsessions.semantics import (ExploreLimits, check_progress,
                                     compatible, make_system)
from timedsessions.sessiontypes import check_well_formed, dual

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def module_state_lengths():
    lengths = {}
    for info in pkgutil.iter_modules(timedsessions.__path__):
        module = importlib.import_module(f"timedsessions.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                lengths[f"{info.name}.{name}"] = len(value)
    return lengths


def test_no_module_level_container_grows():
    before = module_state_lengths()
    assert before  # the walk sees the package's tables

    rng = random.Random(5)
    for _ in range(20):
        node = random_type(rng, ("x", "y"), 3, 5)
        check_well_formed(node, clocks=("x", "y"))
        check_well_formed(dual(node), clocks=("x", "y"))
    spec = parse_spec_file((FIXTURES / "weak_persistency.toast").read_text())
    pairs = [spec.resolve_system(name) for name in spec.systems]
    pairs += [(node, dual(node)) for node in well_formed_types(3, seed=7)]
    systems = [make_system(left, right, clocks=("x", "y"))
               for left, right in pairs]
    for system in systems:
        check_progress(system, ExploreLimits(max_states=2000), monitor=True)
        compatible(system)
    for name in ("mixed_pingpong", "throttling", "parametric_timeout",
                 "deadline_err"):
        spec = parse_spec_file((FIXTURES / f"{name}.toast").read_text())
        for program in spec.processes.values():
            run(program, RunPolicy(seed=3, fuel=200))

    after = module_state_lengths()
    assert {name: (before[name], after[name]) for name in before
            if after[name] != before[name]} == {}
