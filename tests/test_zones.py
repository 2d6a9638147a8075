"""Zone engine versus the structural evaluator (its independent oracle)."""

import random
from fractions import Fraction

from helpers import (
    QUARTERS,
    TWELFTHS,
    grid_valuations,
    past_by_sampling,
    sat_by_sampling,
)
from timedsessions.constraints import apply_reset, eval_constraint, shift
from timedsessions.generate import HALVES, random_constraint, random_valuation
from timedsessions.parser import parse_constraint
from timedsessions.zones import (
    constraint_equiv,
    entails,
    is_sat,
    past,
    reset_constraint,
    to_zones,
    trajectory_zone,
    zone_minus,
    zoneset_contains,
)

F = Fraction


def test_to_zones_true_is_one_universal_zone():
    zones = to_zones(parse_constraint("true"), ["x", "y"])
    assert len(zones) == 1
    assert zones[0].contains({"x": F(0), "y": F(7, 3)})


def test_to_zones_interval_single_zone():
    zones = to_zones(parse_constraint("x>3 and x<5"))
    assert len(zones) == 1
    assert zones[0].contains({"x": F(4)})
    assert not zones[0].contains({"x": F(3)})
    assert not zones[0].contains({"x": F(5)})


def test_to_zones_negated_equality_splits():
    c = parse_constraint("not (x=2)")
    zones = to_zones(c)
    assert len(zones) == 2
    for x in QUARTERS[:17]:  # 0 .. 4
        nu = {"x": x}
        assert eval_constraint(nu, c) == zoneset_contains(zones, nu)


def test_is_sat_examples():
    assert not is_sat(parse_constraint("x>3 and x<3"))
    assert is_sat(parse_constraint("(x<5) and (x=0)"))
    # y=2 can never be met when x moves with y from zero and x>3 already held
    assert not is_sat(parse_constraint("y=2 and x-y=0 and x>3"))


def test_entails_examples():
    assert entails(parse_constraint("x=2"), parse_constraint("x<5"))
    assert entails(parse_constraint("x>3 and y=0"),
                   parse_constraint("y<=2 or x<5"))
    # witness found by the sampler oracle: x=1 satisfies x<5 but not x=0
    weaker, stronger = parse_constraint("x<5"), parse_constraint("x=0")
    assert eval_constraint({"x": F(1)}, weaker)
    assert not eval_constraint({"x": F(1)}, stronger)
    assert not entails(weaker, stronger)


def test_past_paper_examples():
    assert constraint_equiv(past(parse_constraint("3<x<5")),
                            parse_constraint("x<5"))
    assert constraint_equiv(past(parse_constraint("x>2")),
                            parse_constraint("true"))


def test_past_diagonal_invariant():
    c = parse_constraint("x-y=1 and x<3")
    assert constraint_equiv(past(c), c)
    # cross-check with the delay-sampling oracle on the grid
    p = past(c)
    for nu in grid_valuations(["x", "y"], QUARTERS[:13]):
        assert eval_constraint(nu, p) == past_by_sampling(nu, c)


def test_past_extensive_and_idempotent():
    rng = random.Random(11)
    for _ in range(60):
        c = random_constraint(rng, ["x", "y"], HALVES, max_depth=2)
        p = past(c)
        assert entails(c, p)
        assert constraint_equiv(past(p), p)


def test_past_matches_sampling_oracle_randomly():
    rng = random.Random(13)
    for _ in range(40):
        c = random_constraint(rng, ["x", "y"], HALVES, max_depth=2,
                              diagonals=False)
        p = past(c)
        for _ in range(25):
            nu = random_valuation(rng, ["x", "y"], HALVES)
            assert eval_constraint(nu, p) == past_by_sampling(nu, c)


def test_entails_preorder():
    rng = random.Random(17)
    constraints = [random_constraint(rng, ["x", "y"], HALVES, max_depth=2)
                   for _ in range(12)]
    for c in constraints:
        assert entails(c, c)
    for a in constraints[:6]:
        for b in constraints[:6]:
            for c in constraints[:6]:
                if entails(a, b) and entails(b, c):
                    assert entails(a, c)


def test_reset_constraint_examples():
    got = reset_constraint(parse_constraint("x>3"), {"y"})
    assert constraint_equiv(got, parse_constraint("x>3 and y=0"))

    c = parse_constraint("x>1 and y<4")
    assert constraint_equiv(reset_constraint(c, set()), c)

    got = reset_constraint(parse_constraint("x-y>1 and x<4"), {"y"})
    assert constraint_equiv(got, parse_constraint("1<x<4 and y=0"))


def test_reset_constraint_image_oracle():
    rng = random.Random(23)
    for _ in range(30):
        # diagonal-free keeps the preimage sampling grid complete
        c = random_constraint(rng, ["x", "y"], HALVES, max_depth=2,
                              diagonals=False)
        image = reset_constraint(c, {"y"})
        # membership in the image agrees with sampling preimages
        for _ in range(20):
            nu = random_valuation(rng, ["x", "y"], HALVES)
            expected = any(
                eval_constraint({"x": nu["x"], "y": pre}, c)
                for pre in QUARTERS) and nu["y"] == 0
            assert eval_constraint(nu, image) == expected


def test_reset_commutes_with_apply_reset():
    rng = random.Random(29)
    for _ in range(60):
        c = random_constraint(rng, ["x", "y"], HALVES, max_depth=2)
        image = reset_constraint(c, {"y"})
        nu = random_valuation(rng, ["x", "y"], HALVES)
        if eval_constraint(nu, c):
            assert eval_constraint(apply_reset(nu, {"y"}), image)


def test_trajectory_zone_endpoints():
    open_traj = trajectory_zone({"x": F(0)}, F(3), include_end=False)
    beyond = to_zones(parse_constraint("x>3"))[0]
    assert open_traj.intersect(beyond).empty
    at_end = to_zones(parse_constraint("x=3"))[0]
    assert open_traj.intersect(at_end).empty

    closed_traj = trajectory_zone({"x": F(0)}, F(3), include_end=True)
    assert not closed_traj.intersect(at_end).empty


def test_trajectory_zone_matches_dense_sampling():
    rng = random.Random(31)
    for _ in range(25):
        nu = random_valuation(rng, ["x", "y"], HALVES)
        t = rng.choice(HALVES[1:])
        zone = trajectory_zone(nu, t, include_end=rng.random() < 0.5)
        for step in QUARTERS:
            inside = step < t or (step == t and zone.contains(shift(nu, t)))
            if step > t:
                inside = False
            assert zone.contains(shift(nu, step)) == inside


def test_zone_soundness_random():
    rng = random.Random(37)
    for _ in range(150):
        c = random_constraint(rng, ["x", "y", "z"], HALVES, max_depth=3)
        zones = to_zones(c)
        for _ in range(20):
            nu = random_valuation(rng, ["x", "y", "z"], HALVES)
            assert eval_constraint(nu, c) == zoneset_contains(zones, nu)


def test_is_sat_matches_sampling_oracle():
    rng = random.Random(41)
    for _ in range(60):
        # diagonal-free integer constants keep the sampler's grid complete
        consts = [F(n) for n in range(6)]
        c = random_constraint(rng, ["x", "y"], consts, max_depth=2,
                              diagonals=False)
        assert is_sat(c) == sat_by_sampling(c, ["x", "y"], QUARTERS)


# -- pruned construction ------------------------------------------------------

def test_alternating_equalities_prune_to_no_zone():
    # (x=1 or x-y=1) and ... and (x=25 or x-y=25) has 2^25 DNF conjuncts;
    # at most two terms can hold together, so the pruned walk stays small
    c = parse_constraint(" and ".join(f"(x={k} or x-y={k})"
                                      for k in range(1, 26)))
    assert to_zones(c, ["x", "y"]) == []


def test_strict_bounds_give_one_zone():
    c = parse_constraint("x<5 and y<3 and x-y<1")
    zones = to_zones(c)
    assert len(zones) == 1
    for nu in grid_valuations(["x", "y"], QUARTERS[:25]):
        assert eval_constraint(nu, c) == zones[0].contains(nu)


def test_zones_come_out_in_dnf_order():
    # the order of the zones is the order of the printed past and reset
    # images, so the split of not (x=1) must not run ahead of the choice
    # between the two y bounds
    c = parse_constraint("not (x=1) and (y<1 or y>2)")
    points = [{"x": F(0), "y": F(0)}, {"x": F(2), "y": F(0)},
              {"x": F(0), "y": F(3)}, {"x": F(2), "y": F(3)}]
    zones = to_zones(c)
    assert len(zones) == 4
    for zone, nu in zip(zones, points):
        assert zone.contains(nu)


# -- mixed denominators: thirds and halves --------------------------------------

THIRDS = [F(n, 3) for n in range(16)]
SIXTHS = sorted(set(THIRDS) | set(HALVES))  # thirds and halves, 0 .. 5


def test_zones_match_evaluator_on_thirds_and_halves():
    rng = random.Random(43)
    for _ in range(120):
        c = random_constraint(rng, ["x", "y", "z"], SIXTHS, max_depth=3)
        zones = to_zones(c)
        for _ in range(20):
            nu = random_valuation(rng, ["x", "y", "z"], TWELFTHS[:73])
            assert eval_constraint(nu, c) == zoneset_contains(zones, nu)


def test_is_sat_and_entails_match_sampling_on_thirds_and_halves():
    rng = random.Random(47)
    grid = grid_valuations(["x", "y"], TWELFTHS[:73])
    for _ in range(40):
        # diagonal-free sixths constants: the twelfths grid meets every region
        a, b = (random_constraint(rng, ["x", "y"], SIXTHS, max_depth=2,
                                  diagonals=False) for _ in range(2))
        assert is_sat(a) == sat_by_sampling(a, ["x", "y"], TWELFTHS[:73])
        expected = all(eval_constraint(nu, b) for nu in grid
                       if eval_constraint(nu, a))
        assert entails(a, b) == expected


def test_past_matches_sampling_on_thirds_and_halves():
    rng = random.Random(53)
    for _ in range(40):
        c = random_constraint(rng, ["x", "y"], SIXTHS, max_depth=2,
                              diagonals=False)
        p = past(c)
        for _ in range(25):
            nu = random_valuation(rng, ["x", "y"], SIXTHS)
            assert eval_constraint(nu, p) == past_by_sampling(nu, c, TWELFTHS)


def test_reset_image_matches_sampling_on_thirds_and_halves():
    rng = random.Random(59)
    for _ in range(30):
        c = random_constraint(rng, ["x", "y"], SIXTHS, max_depth=2,
                              diagonals=False)
        image = reset_constraint(c, {"y"})
        for _ in range(20):
            nu = random_valuation(rng, ["x", "y"], SIXTHS)
            expected = nu["y"] == 0 and any(
                eval_constraint({"x": nu["x"], "y": pre}, c) for pre in TWELFTHS)
            assert eval_constraint(nu, image) == expected


def test_operands_of_different_scales():
    thirds = to_zones(parse_constraint("x>1/3 and y<=2/3"))[0]
    halves = to_zones(parse_constraint("x<3/2 and y>1/2"))[0]
    assert thirds.scale != halves.scale
    both = thirds.intersect(halves)
    rest = zone_minus(thirds, halves)
    for nu in grid_valuations(["x", "y"], TWELFTHS[:25]):
        in_thirds, in_halves = thirds.contains(nu), halves.contains(nu)
        assert both.contains(nu) == (in_thirds and in_halves)
        assert sum(piece.contains(nu) for piece in rest) == (
            in_thirds and not in_halves)
    assert entails(parse_constraint("x<=1/3"), parse_constraint("x<1/2"))
    assert not entails(parse_constraint("x<1/2"), parse_constraint("x<=1/3"))


def test_trajectory_from_thirds_against_halves_guards():
    # the urgency test of semantics: is the guard met at nu + t' for t' < t?
    rng = random.Random(61)
    for _ in range(40):
        nu = random_valuation(rng, ["x", "y"], THIRDS)
        t = rng.choice(HALVES[1:])
        guard = random_constraint(rng, ["x", "y"], HALVES, max_depth=2,
                                  diagonals=False)
        window = trajectory_zone(nu, t, include_end=False)
        met = any(not zone.intersect(window).empty
                  for zone in to_zones(guard, ["x", "y"]))
        sampled = any(eval_constraint(shift(nu, d), guard)
                      for d in TWELFTHS if d < t)
        assert met == sampled
