"""Memoised unfolding and entry constraints against fresh substitution.

The reference below rebuilds body[rec/var] on every call, as unfolding did
before it was memoised on the nodes; the memoised heads must print the
same, come back as the same object, and carry the same entry constraint.
Substitution keeps every subtree in which the variable is not free, so the
heads reachable from a type are finitely many objects, one per printed form.
Each node renders its printed form once, from those of its children; a
fresh renderer that memoises nothing must print the same.
"""

import random
from fractions import Fraction
from pathlib import Path

from helpers import grid_valuations, head_graph
from timedsessions.constraints import TRUE, disj, eval_constraint
from timedsessions.generate import random_type
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import QConfig, is_future_enabled, unfold_head
from timedsessions.sessiontypes import (END, NONE, RECV, SEND, Choice,
                                        ChoiceOption, Delegate, End, Rec, Var, dual,
                                        format_type, gamma,
                                        map_continuations)
from timedsessions.zones import past

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CORPORA = ROOT / "perfbench" / "corpus"
HALVES = [Fraction(n, 2) for n in range(0, 13)]  # 0 .. 6 in half steps
DEPTH = 4


def reference_subst(node, var, repl):
    if isinstance(node, Var):
        return repl if node.var == var else node
    if isinstance(node, Rec):
        if node.var == var:  # shadowed
            return node
        return Rec(node.var, reference_subst(node.body, var, repl))
    if isinstance(node, Choice):
        return Choice(tuple(
            ChoiceOption(o.direction, o.label, o.payload, o.guard, o.resets,
                         reference_subst(o.continuation, var, repl))
            for o in node.options))
    return node


def reference_unfold(node):
    while isinstance(node, Rec):
        node = reference_subst(node.body, node.var, node)
    return node


def has_nested_rec(node, under_rec=False):
    if isinstance(node, Rec):
        return under_rec or has_nested_rec(node.body, True)
    if isinstance(node, Choice):
        return any(has_nested_rec(o.continuation, under_rec)
                   for o in node.options)
    return False


def check_heads(node, valuations):
    """Follow the continuations of unfolded heads to DEPTH, the memoised
    type and the reference tree in lockstep; return the heads checked."""
    checked = 0
    frontier = [(node, node)]
    for _ in range(DEPTH):
        successors = []
        for memo, ref in frontier:
            head, ref_head = unfold_head(memo), reference_unfold(ref)
            assert format_type(head) == format_type(ref_head)
            assert unfold_head(memo) is head
            checked += 1
            if isinstance(head, End):
                assert isinstance(ref_head, End)
                assert not any(is_future_enabled(QConfig(nu, memo))
                               for nu in valuations)
                continue
            assert gamma(head) is head.entry
            expected = past(disj(*[o.guard for o in ref_head.options]))
            for nu in valuations:
                assert (is_future_enabled(QConfig(nu, memo))
                        == eval_constraint(nu, expected)), (format_type(head), nu)
            successors.extend(zip((o.continuation for o in head.options),
                                  (o.continuation for o in ref_head.options)))
        frontier = successors
    return checked


def test_memoised_unfolding_matches_fresh_substitution_on_random_types():
    rng = random.Random(20240806)
    valuations = grid_valuations(("x", "y"), HALVES)
    nested = 0
    for _ in range(40):
        node = random_type(rng, ("x", "y"), 3, 5)
        nested += has_nested_rec(node)
        assert check_heads(node, valuations) >= 1
        check_heads(dual(node), valuations)
    assert nested > 0


def test_memoised_unfolding_matches_fresh_substitution_on_fixtures():
    types = [
        parse_type("rec a . rec b . { ?d(x<=1).a , !e(1<x).b }"),
        # the inner recursion shadows the outer one of the same variable
        parse_type("rec a . !m(x<1).rec a . { ?n(x>1,{x}).a , !o(x=1).end }"),
    ]
    for path in sorted(FIXTURES.glob("*.toast")):
        types.extend(parse_spec_file(path.read_text()).types.values())
    valuations = grid_valuations(("x", "y"), HALVES)
    for node in types:
        check_heads(node, valuations)
        check_heads(dual(node), valuations)


def test_unfolding_is_built_once_per_recursion():
    node = parse_type("rec t . { ?ping(x<=3,{x}).t , !pong(x>3,{x}).t }")
    head = unfold_head(node)
    assert all(o.continuation is node for o in head.options)
    assert unfold_head(head.options[0].continuation) is head
    assert head.printed is unfold_head(node).printed


def test_the_heads_of_every_corpus_type_are_one_per_printed_form():
    total = 0
    for corpus in sorted(CORPORA.glob("*.txt")):
        for row in corpus.read_text().splitlines():
            node = parse_type(row.split("\t")[-1])
            for side in (node, dual(node)):
                heads = head_graph(side)
                assert heads is not None, format_type(side)
                assert len({head.printed for head in heads}) == len(heads)
                total += len(heads)
    assert total == 4550


def test_a_nested_recursion_reaches_its_first_head_again():
    first = unfold_head(parse_type("rec r1 . !g.rec r2 . ?e.r1"))
    second = unfold_head(first.options[0].continuation)
    assert unfold_head(second.options[0].continuation) is first


def test_map_continuations_keeps_what_it_does_not_change():
    node = parse_type("rec t . { ?ping(x<=3,{x}).t , !pong(x>3,{x}).end }")
    head = node.body
    assert map_continuations(node, lambda n: n) is node
    assert map_continuations(head, lambda n: n) is head
    assert map_continuations(head, lambda n: n, {SEND: SEND, RECV: RECV}) is head
    ended = map_continuations(head, lambda n: END)
    assert ended is not head and ended.options[1] is head.options[1]
    flipped = map_continuations(head, lambda n: n, {SEND: RECV, RECV: SEND})
    assert [o.direction for o in flipped.options] == [SEND, RECV]


def fresh_format(node):
    """format_type without the printed forms memoised on the nodes."""
    if isinstance(node, End):
        return "end"
    if isinstance(node, Var):
        return node.var
    if isinstance(node, Rec):
        return f"rec {node.var} . {fresh_format(node.body)}"
    rendered = []
    for o in node.options:
        out = o.direction + o.label
        if isinstance(o.payload, Delegate):
            out += (f"<({o.payload.init_constraint}, "
                    f"{fresh_format(o.payload.session)})>")
        elif o.payload != NONE:
            out += f"<{o.payload}>"
        bits = [str(o.guard)] if o.guard != TRUE else []
        if o.resets:
            bits.append("{" + ",".join(sorted(o.resets)) + "}")
        if bits:
            out += "(" + ", ".join(bits) + ")"
        if not isinstance(o.continuation, End):
            out += "." + fresh_format(o.continuation)
        rendered.append(out)
    return rendered[0] if len(rendered) == 1 else (
        "{ " + " , ".join(rendered) + " }")


def test_each_node_printed_once_prints_as_a_fresh_renderer():
    types = [parse_type("!a<(z<1, ?b(z<7).end)>(x<2).rec r . ?c(z>1).r")]
    for corpus in sorted(CORPORA.glob("*.txt")):
        types.extend(parse_type(row.split("\t")[-1])
                     for row in corpus.read_text().splitlines())
    for path in sorted(FIXTURES.glob("*.toast")):
        types.extend(parse_spec_file(path.read_text()).types.values())
    checked = 0
    for node in types:
        for side in (node, dual(node)):
            printed = format_type(side)
            assert format_type(parse_type(printed)) == printed
            # an unfolded head may nest a binder in its own scope, which
            # the parser rejects, so heads are only compared
            for part in [side, *head_graph(side)]:
                assert format_type(part) == fresh_format(part)
                checked += 1
    assert checked > 5000
