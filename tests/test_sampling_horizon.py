"""The delay sampling horizon is derived from the guards, not chosen.

Clocks are never negative, so no boundary that a state's guards can cross
lies further away than the largest guard constant.  Every horizon at or
above `default_horizon` (that constant + 2) therefore samples the same
delays, and a smaller one can cut boundaries.  On the states of seeded
walks from a corpus sample and from every fixture system, the steps at the
default horizon, a third more and three times it must be the same.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from timedsessions.errors import ProtocolError
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import (
    default_horizon,
    digest_system,
    make_system,
    system_steps,
)
from timedsessions.sessiontypes import dual

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def corpus_systems():
    for corpus in sorted((ROOT / "perfbench" / "corpus").glob("*.txt")):
        rows = corpus.read_text().splitlines()
        for n in sorted(random.Random(17).sample(range(len(rows)), 20)):
            node = parse_type(rows[n].split("\t")[-1])
            yield make_system(node, dual(node), clocks=("x", "y"))


def fixture_systems():
    for path in sorted((ROOT / "fixtures").glob("*.toast")):
        spec = parse_spec_file(path.read_text())
        for name in spec.systems:
            yield make_system(*spec.resolve_system(name), spec.clocks)


def walked_states(system, rng, walks=3, length=20):
    """system and the states of seeded random walks from it."""
    states = [system]
    for _ in range(walks):
        state = system
        for _ in range(length):
            try:
                steps = system_steps(state)
            except ProtocolError:
                break
            if not steps:
                break
            state = rng.choice(steps)[1]
            states.append(state)
    return states


def steps_at(state, horizon):
    try:
        return [(str(action), digest_system(succ))
                for action, succ in system_steps(state, horizon)]
    except ProtocolError as exc:
        return str(exc)


@pytest.mark.parametrize("systems", [corpus_systems, fixture_systems],
                         ids=["corpus", "fixtures"])
def test_horizons_from_the_default_up_sample_the_same_steps(systems):
    rng = random.Random(29)
    states = cut = 0
    for system in systems():
        for state in walked_states(system, rng):
            horizon = default_horizon(state)
            steps = steps_at(state, horizon)
            assert steps_at(state, horizon + F(1, 3)) == steps, \
                digest_system(state)
            assert steps_at(state, 3 * horizon) == steps, digest_system(state)
            states += 1
            cut += steps_at(state, F(1)) != steps
    assert states > 100
    assert cut  # horizon 1 drops the samples of some state
