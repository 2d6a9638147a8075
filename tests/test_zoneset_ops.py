"""ZoneSet operations against the Constraint operations they replace.

The well-formedness checker meets, resets, delays and compares ZoneSets
directly; the same questions asked through constraints (``is_sat``,
``reset_constraint``, ``future``, ``entails``) must get the same answers.
Constants mix thirds and halves, so zones of different scales meet.
"""

import random
from fractions import Fraction

from timedsessions.constraints import And
from timedsessions.generate import random_constraint
from timedsessions.zones import (
    constraint_equiv,
    entails,
    future,
    is_sat,
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
        assert bool(meet) == is_sat(And(reach, guard), CLOCKS)
        assert all(not zone.empty for zone in meet)
        met += bool(meet)
    assert 0 < met < CASES


def test_reset_then_up_image_matches_future_of_reset_constraint():
    for reach, guard, resets in cases():
        meet = zoneset_meet(to_zones(reach, CLOCKS), to_zones(guard, CLOCKS))
        image = [zone.reset(resets).up() for zone in meet]
        reference = future(reset_constraint(And(reach, guard), resets, CLOCKS),
                           CLOCKS)
        assert constraint_equiv(zoneset_to_constraint(image), reference,
                                CLOCKS)


def test_zoneset_entails_matches_entails():
    agreed = 0
    for reach, guard, resets in cases():
        image = [zone.reset(resets) for zone in to_zones(reach, CLOCKS)]
        rendered = reset_constraint(reach, resets, CLOCKS)
        for lhs, lhs_c in ((to_zones(reach, CLOCKS), reach),
                           (image, rendered)):
            got = zoneset_entails(lhs, to_zones(guard, CLOCKS))
            assert got == entails(lhs_c, guard, CLOCKS)
            agreed += got
    assert agreed > 0
