"""Type AST, parsing, duality, entry constraints, and well-formedness."""

import random
from fractions import Fraction

import pytest

from helpers import QUARTERS
from timedsessions.constraints import eval_constraint, shift, zero_valuation
from timedsessions.errors import ParseError
from timedsessions.generate import random_type, well_formed_types
from timedsessions.parser import parse_constraint, parse_type
from timedsessions.sessiontypes import (
    Choice,
    End,
    Rec,
    SEND,
    RECV,
    check_well_formed,
    dual,
    format_type,
    gamma,
)
from timedsessions.zones import constraint_equiv, past

F = Fraction

JUNK_S = "!a(x>3).{ !b(y=2).end , ?c(2<x<5).end }"
JUNK_S1 = "!a(x>3,{y}).{ !b(y=2).end , ?c(2<x<5).end }"
JUNK_S2 = "!a(3<x<5).{ !b(y=2).end , ?c(2<x<5).end }"


def test_parse_ping_pong():
    node = parse_type("rec a . { ?ping(x<=3,{x}).a , !pong(x>3,{x}).a }")
    assert isinstance(node, Rec)
    assert isinstance(node.body, Choice)
    assert len(node.body.options) == 2
    assert node.body.options[0].direction == RECV
    assert node.body.options[0].resets == frozenset({"x"})


def test_parse_end():
    assert isinstance(parse_type("end"), End)


def test_parse_junk_variant():
    node = parse_type(JUNK_S1)
    assert isinstance(node, Choice)
    outer = node.options[0]
    assert outer.direction == SEND and outer.label == "a"
    assert outer.resets == frozenset({"y"})
    inner = outer.continuation
    assert [opt.label for opt in inner.options] == ["b", "c"]


def test_parse_rejects_duplicate_labels():
    with pytest.raises(ParseError):
        parse_type("{ !a(x>1).end , ?a(x<1).end }")


def test_parse_rejects_unbound_variable():
    with pytest.raises(ParseError):
        parse_type("rec a . { !m(x<1).b }")


def test_parse_rejects_unguarded_recursion():
    with pytest.raises(ParseError):
        parse_type("rec a . a")
    with pytest.raises(ParseError):
        parse_type("rec a . rec b . a")


def test_parse_rejects_shadowing():
    with pytest.raises(ParseError):
        parse_type("rec a . { !m.rec a . { !n.a } }")


def test_parse_format_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        node = random_type(rng)
        assert parse_type(format_type(node)) == node


def test_dual_flips_directions():
    assert format_type(dual(parse_type("!a(x>1,{x}).end"))) == \
        format_type(parse_type("?a(x>1,{x}).end"))
    assert dual(parse_type("end")) == parse_type("end")


def test_dual_involution():
    rng = random.Random(5)
    for _ in range(500):
        node = random_type(rng)
        assert dual(dual(node)) == node


def test_dual_preserves_payload_and_guards():
    node = parse_type("!a<Str>(x<3).?b<Nat>(x>4).end")
    flipped = dual(node)
    opt = flipped.options[0]
    assert opt.direction == RECV
    assert str(opt.payload) == "Str"
    assert opt.guard == node.options[0].guard


def test_gamma_choice_is_past_of_guard_union():
    node = parse_type("{ !b(y=2).end , ?c(2<x<5).end }")
    got = gamma(node)
    assert constraint_equiv(got, parse_constraint("y<=2 or x<5"))


def test_gamma_end_true():
    assert constraint_equiv(gamma(parse_type("end")), parse_constraint("true"))


def test_gamma_total_cover_is_true():
    node = parse_type("rec a . { ?d(x<=1).end , !e(1<x).a }")
    assert constraint_equiv(gamma(node), parse_constraint("true"))


def test_gamma_is_delay_downward_closed():
    rng = random.Random(9)
    for _ in range(50):
        node = random_type(rng)
        if not isinstance(node, Choice):
            continue
        g = gamma(node)
        assert constraint_equiv(past(g), g)


def test_junk_type_rejected_for_feasibility():
    report = check_well_formed(parse_type(JUNK_S))
    assert not report.verdict
    assert [(v.path, v.condition) for v in report.violations] == \
        [(("a",), "feasibility")]


def test_junk_repairs_accepted():
    assert check_well_formed(parse_type(JUNK_S1)).verdict
    assert check_well_formed(parse_type(JUNK_S2)).verdict


def test_unsafe_mixed_choice_rejected():
    report = check_well_formed(parse_type("{ ?a(x<5).end , !b(x=0).end }"))
    assert not report.verdict
    assert any(v.condition == "mixed-choice" for v in report.violations)


def test_disjoint_mixed_choice_accepted():
    report = check_well_formed(parse_type("{ ?a(0<x<5).end , !b(x=0).end }"))
    assert report.verdict


def test_weak_persistency_types_accepted():
    s = parse_type("{ !data<Str>(x<3).end , ?timeout(x>4).end }")
    assert check_well_formed(s).verdict
    assert check_well_formed(dual(s)).verdict


def test_end_well_formed_under_every_valuation():
    for value in QUARTERS[:8]:
        assert check_well_formed(parse_type("end"), {"x": value}).verdict


def test_well_formed_never_has_head_var():
    from timedsessions.sessiontypes import Var

    report = check_well_formed(Var("a"))
    assert not report.verdict
    assert report.violations[0].condition == "unbound-var"


def test_wf_respects_initial_valuation():
    node = parse_type("!a(x<2).end")
    assert check_well_formed(node, {"x": F(0)}).verdict
    late = check_well_formed(node, {"x": F(3)})
    assert not late.verdict


def test_dual_preserves_well_formedness_verdict():
    rng = random.Random(13)
    checked = 0
    for _ in range(500):
        node = random_type(rng)
        left = check_well_formed(node).verdict
        right = check_well_formed(dual(node)).verdict
        assert left == right
        checked += 1
    assert checked == 500


def test_mixed_choice_matches_sampling_oracle_at_root():
    # at the root, reachable valuations are exactly nu0 + t
    rng = random.Random(17)
    for _ in range(80):
        node = random_type(rng, clocks=("x",), depth=1)
        if not isinstance(node, Choice):
            continue
        report = check_well_formed(node, clocks=("x",))
        flagged = any(v.condition == "mixed-choice" and v.path == ()
                      for v in report.violations)
        overlap = False
        for t in QUARTERS:
            nu = shift(zero_valuation(["x"]), t)
            dirs = {opt.direction for opt in node.options
                    if eval_constraint(nu, opt.guard)}
            if len(dirs) > 1:
                overlap = True
                break
        assert flagged == overlap


def test_generator_produces_well_formed_types():
    types = well_formed_types(10, seed=1)
    assert len(types) == 10
    for node in types:
        assert check_well_formed(node, clocks=("x", "y")).verdict


def test_delegation_condition():
    # the delegated session must be workable from its initial constraint
    good = parse_type("!hand<(x<2, ?m(x<5).end)>(x<1).end")
    assert check_well_formed(good).verdict

    bad = parse_type("!hand<(x<9, ?m(2<x<5).end)>(x<1).end")
    report = check_well_formed(bad)
    assert not report.verdict
    assert any(v.condition == "delegation" for v in report.violations)


def test_delegation_round_trip():
    node = parse_type("!hand<(x<2, ?m(x<5).end)>(x<1).end")
    assert parse_type(format_type(node)) == node


def test_type_walks_look_through_delegation_except_for_clocks():
    from timedsessions.semantics import _constants_are_integers
    from timedsessions.sessiontypes import (has_diagonal_atoms, max_constant,
                                            type_clocks)

    node = parse_type("!a<(z<1, ?b(z-w>7/2).end)>(x<2).end")
    assert type_clocks(node) == {"x"}
    assert max_constant(node) == F(7, 2)
    assert has_diagonal_atoms(node)
    assert not _constants_are_integers(node)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_type("{ !a(x>1).end ,\n   ?b(x< ).end }")
    assert info.value.line == 2
    assert info.value.col > 0
