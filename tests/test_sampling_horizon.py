"""The delay sampling horizon is derived from the guards, not chosen.

Clocks are never negative, so no boundary that a state's guards can cross
lies further away than the largest guard constant.  Every horizon at or
above `default_horizon` (that constant + 2) therefore samples the same
delays, and a smaller one can cut boundaries.  On the states of seeded
walks from a corpus sample and from every fixture system, the steps at the
default horizon, a third more and three times it must be the same.

A system's space holds its horizon as an int at its grid d, which folds in
the horizon's denominator; a negative horizon is rejected there, on every
system, before any step is taken.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from timedsessions.errors import ProtocolError
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import (
    Message,
    _Space,
    admissible_delays,
    default_horizon,
    digest_system,
    make_system,
    system_steps,
)
from timedsessions.sessiontypes import NAT, dual

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


def test_a_negative_horizon_is_rejected_on_every_system():
    end, node = parse_type("end"), parse_type("?a(x<1).end")
    mismatched = make_system(node, dual(node))
    mismatched.left.queue = (Message("a", NAT),)
    with pytest.raises(ProtocolError):
        system_steps(mismatched)
    for system in (make_system(end, end, ["x"]), make_system(node, dual(node)),
                   mismatched):
        for call in (system_steps, admissible_delays):
            with pytest.raises(ValueError, match="horizon must be nonnegative"):
                call(system, -1)


def test_the_space_holds_its_horizon_at_its_grid():
    node = parse_type("!a(x<1/2).end")
    space = _Space.of(make_system(node, dual(node)), F(1, 3))
    assert space.d % 6 == 0 and space.horizon == space.d // 3
    for system in fixture_systems():
        space = _Space.of(system)
        assert type(space.horizon) is int
        assert default_horizon(system) == F(space.horizon, space.d)
