"""Membership in entry zones against the structural evaluator.

``zoneset_contains`` converts a valuation once, at the LCM of a ZoneSet's
scales, and ``check_well_formed`` decides its initial valuation with it on
the compiled entry zones.  The entry compiled over the guards' own clocks
mixes scales, since each guard is zoned at its own, so both are checked
where scales differ, against ``eval_constraint`` on the rendered entry
constraint.  Clocks are never negative: every zone lists each clock's
``0 - x <= 0``, which a point with a negative coordinate fails, and
``check_well_formed`` refuses a negative initial value.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_constraint
from reference_semantics import option
from timedsessions.constraints import atom_lt, eval_constraint
from timedsessions.errors import SpecError
from timedsessions.generate import random_type
from timedsessions.parser import parse_type
from timedsessions.semantics import QConfig, is_future_enabled
from timedsessions.sessiontypes import (RECV, SEND, Choice, End,
                                        check_well_formed, dual, gamma,
                                        gamma_head)
from timedsessions.zones import (holds_at, int_point, to_zones, window_at,
                                 zoneset_contains)

F = Fraction
CLOCKS = ("x", "y")
HALVES = [F(n, 2) for n in range(9)]
THIRDS = [F(n, 3) for n in range(13)]
TWELFTHS = [F(n, 12) for n in range(61)]
OUTSIDE = "initial valuation outside entry constraint"


def test_entry_zones_of_mixed_scales_agree_with_the_evaluator():
    rng = random.Random(71)
    mixed = inside = probed = 0
    for _ in range(150):
        options = tuple(
            option(rng.choice((SEND, RECV)), label,
                   random_constraint(rng, CLOCKS, constants, max_depth=2))
            for label, constants in zip("abc", (HALVES, THIRDS, HALVES)))
        choice = Choice(options[:rng.randint(2, 3)])
        zones = choice.over(choice.compiled.clocks)[1]
        mixed += len({zone.scale for zone in zones}) > 1
        for values in (TWELFTHS, HALVES):
            for _ in range(10):
                nu = {clock: rng.choice(values) for clock in CLOCKS}
                expected = eval_constraint(nu, choice.entry)
                assert zoneset_contains(zones, nu) == expected, (choice, nu)
                inside += expected
                probed += 1
    assert mixed > 50
    # an entry is down-closed, so most points lie inside it
    assert probed // 20 < probed - inside < probed // 2


def screening_stream(count):
    """The first count candidates of the acceptance screening stream."""
    rng = random.Random(20240801)
    found = []
    while len(found) < count:
        node = random_type(rng, CLOCKS, 3, 5)
        if not isinstance(node, End):
            found.append(node)
    return found


def test_initial_check_agrees_with_the_rendered_entry_on_the_stream():
    rng = random.Random(73)
    outside = checked = 0
    for node in screening_stream(405):
        for side in (node, dual(node)):
            nu = {clock: rng.choice(TWELFTHS[1:]) for clock in CLOCKS}
            expected = eval_constraint(nu, gamma(side))
            head = gamma_head(side)
            assert zoneset_contains(head.over(head.compiled.clocks)[1],
                                    nu) == expected
            report = check_well_formed(side, nu, clocks=CLOCKS)
            assert (OUTSIDE not in [violation.witness for violation
                                    in report.violations]) == expected
            outside += not expected
            checked += 1
    assert checked // 20 < outside < checked - checked // 20


def test_a_point_with_a_negative_clock_is_in_no_zone():
    """x = -1 is not in x<2, though the delays 1 <= t < 3 carry it there;
    x = -3 is not future-enabled for a send guarded by x<2."""
    zones = to_zones(atom_lt("x", F(2)))
    assert not zoneset_contains(zones, {"x": F(-1)})
    scale, point = int_point({"x": F(-1)}, ("x",), 1)
    assert not holds_at(zones, point, scale)
    assert window_at(zones[0], point, scale) == (-1, 6)  # -t <= -1, t < 3
    assert not is_future_enabled(QConfig({"x": F(-3)},
                                         parse_type("!a(x<2).end")))


@pytest.mark.parametrize("value", [-5, -1])
def test_a_negative_initial_clock_value_is_refused(value):
    with pytest.raises(SpecError, match="clock 'x' cannot be negative"):
        check_well_formed(parse_type("!a(x<2).?b(x<3).end"), {"x": value})
