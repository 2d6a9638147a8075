"""Type AST, parsing, duality, entry constraints, and well-formedness."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import QUARTERS, canonicaliser, head_graph
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
    Var,
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


def test_parse_accepts_shadowing_and_binds_to_the_nearest_rec():
    text = "rec a . { !m.rec a . { !n.a } }"
    node = parse_type(text)
    inner = node.body.options[0].continuation
    assert isinstance(inner, Rec)
    assert inner.body.options[0].continuation == Var("a")
    printed = format_type(node)
    assert printed == "rec a . !m.rec a . !n.a"
    assert parse_type(printed) == node
    # a is not free below the inner rec, so unfolding keeps it as it is
    assert node.unfolded.options[0].continuation is inner


def shadows(node, bound=()):
    """Whether a recursion in node binds a variable that an enclosing one
    binds."""
    if isinstance(node, Rec):
        return node.var in bound or shadows(node.body, bound + (node.var,))
    return isinstance(node, Choice) and any(
        shadows(opt.continuation, bound) for opt in node.options)


def test_unfolded_heads_parse_back():
    """Every unfolded head of the first 150 screening candidates prints a
    text that parses back to an equal head with the same print, the 100
    heads whose text nests a recursion in one of the same variable
    included."""
    rng = random.Random(20240801)
    heads = []
    for _ in range(150):
        node = random_type(rng, ("x", "y"), 3, 5)
        while isinstance(node, End):
            node = random_type(rng, ("x", "y"), 3, 5)
        heads.extend(head_graph(node, limit=10**6))
    assert (len(heads), sum(map(shadows, heads))) == (1106, 100)
    for head in heads:
        text = format_type(head)
        back = parse_type(text)
        assert back == head
        assert format_type(back) == text


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def test_corpus_heads_parse_back():
    """Every unfolded head of S and of dual(S), for every type of both
    stored progress corpora, prints a text that parses back to an equal
    head with the same print."""
    heads = []
    for path in sorted(CORPUS.glob("*.txt")):
        for line in path.read_text().splitlines():
            node = parse_type(line.split("\t")[-1])
            heads += head_graph(node, limit=10**6)
            heads += head_graph(dual(node), limit=10**6)
    assert len(heads) == 4550
    for head in heads:
        text = format_type(head)
        back = parse_type(text)
        assert back == head
        assert format_type(back) == text


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


def test_type_walks_leave_delegated_sessions_out():
    from timedsessions.semantics import make_system
    from timedsessions.sessiontypes import max_constant, type_clocks

    node = parse_type("!a<(z<1, ?b(z-w>7/2).end)>(x<2).end")
    assert type_clocks(node) == {"x"}
    # no exploration runs the delegated session, so its diagonal guard over
    # clocks the system lacks sets neither the constant nor the region map
    assert max_constant(node) == 2
    system = make_system(node, dual(node))
    far = make_system(node, dual(node))
    far.left.nu["x"] = far.right.nu["x"] = F(10)
    near = canonicaliser(system)(far)
    assert near.left.nu == near.right.nu == {"x": 3}


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_type("{ !a(x>1).end ,\n   ?b(x< ).end }")
    assert info.value.line == 2
    assert info.value.col > 0


def test_end_of_input_error_names_it():
    with pytest.raises(ParseError) as info:
        parse_type("end end")
    assert str(info.value) == "1:5: expected end of input, found 'end'"


@pytest.mark.parametrize("source, message", [
    ("!a(x<1", "1:7: expected ')', found 'end of input'"),
    ("{ !a.end,\n  ?b(x<1, {y", "2:13: expected '}', found 'end of input'"),
    ("{ !a.end,\n  ?b(x<1) . ", "2:13: expected a type"),
], ids=["guard", "reset-set", "continuation"])
def test_an_option_cut_short_reports_the_end_of_input(source, message):
    with pytest.raises(ParseError) as info:
        parse_type(source)
    assert str(info.value) == message


def test_empty_reset_set_is_no_reset():
    assert parse_type("!a({}).end") == parse_type("!a.end")
    assert parse_type("!a(x<1, {}).end") == parse_type("!a(x<1).end")


def test_trailing_comma_in_a_choice_is_rejected():
    with pytest.raises(ParseError) as info:
        parse_type("{ !a.end , ?b.end , }")
    assert str(info.value) == "1:21: expected ! or ?"


@pytest.mark.parametrize("guard", ["x-x<1", "1<x-x", "0<=y-y<=2", "x<1 and y-y=0"])
def test_a_clock_compared_with_itself_is_rejected(guard):
    with pytest.raises(ParseError) as info:
        parse_type(f"!a({guard}).end")
    clock = guard.split("-")[0][-1]
    assert str(info.value).endswith(f": clock {clock!r} compared with itself")
    assert info.value.col == 4 + guard.index(f"{clock}-{clock}")
