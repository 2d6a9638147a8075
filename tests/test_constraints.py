"""Valuation operations, structural evaluation, and delay sampling."""

import random
from fractions import Fraction

import pytest

from helpers import random_constraint, random_valuation
from reference_semantics import apply_reset
from timedsessions.constraints import (
    boundary_delays,
    eval_constraint,
    format_rational,
    shift,
    zero_valuation,
)
from timedsessions.errors import SpecError
from timedsessions.parser import parse_constraint, parse_rationals

F = Fraction


def test_eval_tautology():
    assert eval_constraint(zero_valuation(["x", "y"]), parse_constraint("true"))


def test_eval_after_junk_prefix():
    # all clocks hold values greater than 3 once the first send fires
    assert eval_constraint({"x": F(4), "y": F(4)}, parse_constraint("x>3"))


def test_eval_difference():
    assert eval_constraint({"x": F(5), "y": F(2)}, parse_constraint("x-y>2"))
    assert not eval_constraint({"x": F(4), "y": F(2)}, parse_constraint("x-y>2"))


def test_eval_unknown_clock():
    with pytest.raises(SpecError):
        eval_constraint({"x": F(0)}, parse_constraint("z>1"))


def test_eval_sugar_matches_direct_arithmetic():
    nu = {"x": F(3, 2), "y": F(3)}
    assert eval_constraint(nu, parse_constraint("x<=3/2"))
    assert not eval_constraint(nu, parse_constraint("x<3/2"))
    assert eval_constraint(nu, parse_constraint("1<x<2"))
    assert eval_constraint(nu, parse_constraint("x!=2"))
    assert eval_constraint(nu, parse_constraint("not (y=2)"))
    assert eval_constraint(nu, parse_constraint("x=1.5"))


def test_shift_examples():
    nu0 = zero_valuation(["x", "y"])
    assert shift(nu0, F(2)) == {"x": F(2), "y": F(2)}
    assert shift({"x": F(1), "y": F(0)}, F(1, 2)) == {"x": F(3, 2), "y": F(1, 2)}
    assert shift({"x": F(7)}, F(0)) == {"x": F(7)}


def test_shift_negative_rejected():
    with pytest.raises(ValueError):
        shift({"x": F(0)}, F(-1))


def test_shift_composes():
    nu = {"x": F(1, 2), "y": F(3)}
    assert shift(shift(nu, F(1, 3)), F(2, 3)) == shift(nu, F(1))


def test_apply_reset():
    assert apply_reset({"x": F(3), "y": F(1)}, {"x"}) == {"x": F(0), "y": F(1)}
    nu = {"x": F(5), "y": F(2)}
    assert apply_reset(nu, set()) == nu
    nu0 = zero_valuation(["x", "y"])
    assert apply_reset(nu0, {"x", "y"}) == nu0


def test_apply_reset_unknown_clock():
    with pytest.raises(SpecError):
        apply_reset({"x": F(0)}, {"z"})


def test_boundary_delays_from_atoms():
    got = boundary_delays(zero_valuation(["x"]),
                          [parse_constraint("x<3"), parse_constraint("x>4")],
                          F(10))
    assert got == [F(0), F(3, 2), F(3), F(7, 2), F(4), F(5)]


def test_boundary_delays_no_guards():
    assert boundary_delays(zero_valuation(["x"]), [], F(10)) == [F(0), F(1)]
    # the beyond-all sample clamps to a small horizon
    assert boundary_delays(zero_valuation(["x"]), [], F(1, 2)) == [F(0), F(1, 2)]


def test_boundary_delays_clamped_to_zero():
    got = boundary_delays({"x": F(5)}, [parse_constraint("x<3")], F(10))
    assert got[0] == F(0)
    assert F(3) - F(5) not in got  # never negative


def test_boundary_delays_diagonals_contribute_nothing():
    base = boundary_delays(zero_valuation(["x", "y"]), [parse_constraint("x>2")], F(10))
    with_diag = boundary_delays(zero_valuation(["x", "y"]),
                                [parse_constraint("x>2"),
                                 parse_constraint("x-y>1")], F(10))
    assert base == with_diag


def test_rational_round_trip():
    rng = random.Random(7)
    for _ in range(500):
        q = F(rng.randint(-1000, 1000), rng.randint(1, 99))
        assert parse_rationals(format_rational(q)) == [q]
    assert parse_rationals("1.5") == [F(3, 2)]
    assert parse_rationals("3/2") == [F(3, 2)]


def test_boundary_samples_complete_for_integer_guards():
    # the boundary/midpoint/beyond samples reach a satisfying instant iff
    # the dense quarter-step grid does (region completeness for this class)
    rng = random.Random(43)
    from timedsessions.constraints import shift

    ints = [F(n) for n in range(6)]
    quarters = [F(n, 4) for n in range(0, 33)]
    for _ in range(120):
        guards = [random_constraint(rng, ["x", "y"], ints, max_depth=2,
                                    diagonals=False)
                  for _ in range(rng.randint(1, 3))]
        nu = random_valuation(rng, ["x", "y"], ints)
        samples = boundary_delays(nu, guards, F(8))
        for guard in guards:
            sampled = any(eval_constraint(shift(nu, t), guard) for t in samples)
            dense = any(eval_constraint(shift(nu, t), guard) for t in quarters)
            assert sampled == dense
