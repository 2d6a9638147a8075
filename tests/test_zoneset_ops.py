"""ZoneSet operations against the Constraint operations they replace.

The well-formedness checker meets, resets, delays and compares ZoneSets
directly; the same questions asked through constraints (``to_zones``
for satisfiability, ``reset_constraint``, ``future``, ``entails``) must
get the same answers.
Constants mix thirds and halves, so zones of different scales meet.  The
checker reads ZoneSets compiled straight over the type's clocks, which must
be the zones built over fewer clocks and widened, and a choice's entry,
compiled from its guards' ZoneSets, must print as the past of the
disjunction of its guards.
"""

import random
from fractions import Fraction

from helpers import random_constraint
from reference_semantics import option, widened
from timedsessions.constraints import And, disj
from timedsessions.generate import random_type
from timedsessions.semantics import unfold_head
from timedsessions.sessiontypes import RECV, SEND, Choice, dual
from timedsessions.zones import (
    constraint_equiv,
    entails,
    future,
    past,
    reset_constraint,
    to_zones,
    zoneset_entails,
    zoneset_meet,
    zoneset_to_constraint,
)

CLOCKS = ("x", "y")
CONSTANTS = sorted({Fraction(n, 3) for n in range(13)}
                   | {Fraction(n, 2) for n in range(9)})
RESETS = ((), ("x",), ("y",), ("x", "y"))
CASES = 300


def cases():
    rng = random.Random(20241018)
    for _ in range(CASES):
        reach = random_constraint(rng, CLOCKS, CONSTANTS, max_depth=2)
        guard = random_constraint(rng, CLOCKS, CONSTANTS, max_depth=2)
        yield reach, guard, rng.choice(RESETS)


def test_meet_is_nonempty_exactly_when_the_conjunction_is_satisfiable():
    met = 0
    for reach, guard, _ in cases():
        meet = zoneset_meet(to_zones(reach, CLOCKS), to_zones(guard, CLOCKS))
        assert bool(meet) == bool(to_zones(And(reach, guard), CLOCKS))
        # each zone is canonical and non-empty: its closure leaves it as is
        assert all(zone.copy().canonicalize() == zone for zone in meet)
        met += bool(meet)
    assert 0 < met < CASES


def test_reset_then_up_image_matches_future_of_reset_constraint():
    for reach, guard, resets in cases():
        meet = zoneset_meet(to_zones(reach, CLOCKS), to_zones(guard, CLOCKS))
        image = [zone.reset(resets).up() for zone in meet]
        reference = future(reset_constraint(And(reach, guard), resets, CLOCKS),
                           CLOCKS)
        assert constraint_equiv(zoneset_to_constraint(image), reference)


def test_zoneset_entails_matches_entails():
    agreed = 0
    for reach, guard, resets in cases():
        image = [zone.reset(resets) for zone in to_zones(reach, CLOCKS)]
        rendered = reset_constraint(reach, resets, CLOCKS)
        for lhs, lhs_c in ((to_zones(reach, CLOCKS), reach),
                           (image, rendered)):
            got = zoneset_entails(lhs, to_zones(guard, CLOCKS))
            assert got == entails(lhs_c, guard)
            agreed += got
    assert agreed > 0


def test_widened_zones_are_the_zones_built_over_the_wider_clocks():
    rng = random.Random(20241019)
    wider_zones = 0
    for _ in range(CASES):
        clocks = rng.sample(("x", "y", "z"), rng.randint(1, 3))
        c = random_constraint(rng, clocks, CONSTANTS, max_depth=2)
        wider = rng.sample(("w", "x", "y", "z"), rng.randint(0, 4))
        zones = to_zones(c)
        assert [widened(zone, wider) for zone in zones] == to_zones(c, wider)
        wider_zones += any(set(wider) - set(zone.clocks) for zone in zones)
    assert wider_zones > CASES // 2


def random_choice(rng):
    clocks = rng.sample(("x", "y", "z"), rng.randint(1, 3))
    return Choice(tuple(
        option(rng.choice((SEND, RECV)), f"l{k}",
               random_constraint(rng, rng.sample(clocks, rng.randint(
                   1, len(clocks))), CONSTANTS, max_depth=2))
        for k in range(rng.randint(1, 3))))


def test_entry_prints_as_the_past_of_the_disjunction_of_the_guards():
    rng = random.Random(20241020)
    choices = [random_choice(rng) for _ in range(CASES)]
    for _ in range(40):
        node = random_type(rng, ("x", "y"), 3, 5)
        heads = [unfold_head(node), unfold_head(dual(node))]
        for _ in range(3):  # heads reached through up to three options
            choices += [head for head in heads if isinstance(head, Choice)]
            heads = [unfold_head(opt.continuation)
                     for head in heads for opt in head.options]
    for choice in choices:
        expected = past(disj(*[opt.guard for opt in choice.options]))
        assert str(choice.entry) == str(expected)
    assert len(choices) > CASES
