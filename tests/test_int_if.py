"""An ``if`` decided in ints against ``eval_constraint``.

``run`` compiles an ``if``'s condition once (``constraints.int_test``) and
decides it on the clock's ints: the instant each timer was set, now, and
the scale.  ``eval_constraint`` on the timers read as ``Fraction`` values
stays the reference: every seeded constraint must give the same result,
or raise the same ``SpecError`` for the same unset clock.
"""

import random
from fractions import Fraction

import pytest

from timedsessions.constraints import (TRUE, And, Atom, Not, Or,
                                       eval_constraint, int_test)
from timedsessions.errors import SpecError
from timedsessions.parser import parse_process
from timedsessions.processes import RunStatus, format_process, run

CLOCKS = ("x", "y", "z")
DENOMINATORS = (1, 2, 3, 4)
SCALES = (1, 2, 3, 4, 5, 6, 12)


def random_atom(rng: random.Random) -> Atom:
    const = Fraction(rng.randrange(0, 4 * 6), rng.choice(DENOMINATORS))
    clock = rng.choice(CLOCKS)
    if rng.random() < 0.3:  # a diagonal, whose constant may be negative
        sub = rng.choice([c for c in CLOCKS if c != clock])
        return Atom(clock, rng.choice(">="), const * rng.choice((1, -1)), sub)
    return Atom(clock, rng.choice(">="), const)


def random_constraint(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return TRUE if rng.random() < 0.05 else random_atom(rng)
    if roll < 0.5:
        return Not(random_constraint(rng, depth - 1))
    kind = And if roll < 0.75 else Or
    return kind(random_constraint(rng, depth - 1),
                random_constraint(rng, depth - 1))


def outcome(decide):
    try:
        return decide()
    except SpecError as exc:
        return f"SpecError: {exc}"


@pytest.mark.parametrize("seed", range(3))
def test_the_int_test_decides_as_eval_constraint(seed):
    rng = random.Random(seed)
    raised = 0
    for _ in range(1000):
        cond = random_constraint(rng, 3)
        test = int_test(cond)
        for _ in range(3):
            scale = rng.choice(SCALES)
            now = rng.randrange(0, 10 * scale)
            # x is always set, y and z only now and then
            set_at = {name: rng.randrange(0, now + 1) for name in CLOCKS
                      if name == "x" or rng.random() < 0.7}
            nu = {name: Fraction(now - at, scale)
                  for name, at in set_at.items()}
            expected = outcome(lambda: eval_constraint(nu, cond))
            assert outcome(lambda: test(now, set_at, scale)) == expected, (
                cond, now, set_at, scale)
            raised += isinstance(expected, str)
    assert 100 < raised < 2000  # both ends are exercised


@pytest.mark.parametrize("text,status,detail,trace,final", [
    # z is never read: the left disjunct holds
    ("set(x). if (x<1 or z<1) then { end } else { end }",
     RunStatus.COMPLETED, "all components terminated",
     ["1 set x", "2 if (((not (x>1) and not (x=1)) or (not (z>1) and "
                 "not (z=1)))) -> then"], "end"),
    # x<1 fails after the delay, so the unset z is read
    ("set(x). delay(2). if (x<1 or z<1) then { end } else { end }",
     RunStatus.ERROR, "unknown clock 'z' in constraint",
     ["1 set x", "2 delay(2)"],
     "if (((not (x>1) and not (x=1)) or (not (z>1) and not (z=1)))) "
     "then { end } else { end }"),
    ("if (z<1) then { end } else { end }",
     RunStatus.ERROR, "unknown clock 'z' in constraint", [],
     "if ((not (z>1) and not (z=1))) then { end } else { end }"),
], ids=["P-short-circuit", "Q-after-delay", "R-unset"])
def test_an_unset_timer_raises_where_eval_constraint_raises(
        text, status, detail, trace, final):
    result = run(parse_process(text))
    assert (result.status, result.detail, result.trace) == (status, detail,
                                                             trace)
    assert format_process(result.final) == final
