"""Per-head clock ceilings and the region canonicalisation that reads them.

`Choice.clock_ceilings` maps each clock x to M_h(x), the largest constant
compared with x in a guard reachable from the head h before x is reset.
`region_canonical` sets a clock without a ceiling (inactive) to 0 and caps
every other clock at its ceiling + 1, so states that differ only in
clocks no guard will read before a reset are one state.
"""

import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from timedsessions.parser import parse_type
from timedsessions.semantics import (
    ExploreLimits,
    QConfig,
    System,
    canonicaliser,
    check_progress,
    default_horizon,
    make_system,
    region_canonical,
    state_key,
    system_steps,
    unfold_head,
)
from timedsessions.sessiontypes import END, dual, max_constant

F = Fraction
CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def corpus_sample(corpus, count):
    rows = (CORPORA / corpus).read_text().splitlines()
    chosen = sorted(random.Random(11).sample(range(len(rows)), count))
    return [parse_type(rows[n].split("\t")[-1]) for n in chosen]


def test_end_has_no_ceilings():
    assert END.clock_ceilings == {}


def test_a_clock_reset_before_it_is_read_has_no_ceiling():
    first = unfold_head(parse_type("rec r . !a(x<1, {y}).?b(y<3).r"))
    second = unfold_head(first.options[0].continuation)
    assert first.clock_ceilings == {"x": 1}
    assert second.clock_ceilings == {"x": 1, "y": 3}
    # the loop closes on the first head by identity
    assert unfold_head(second.options[0].continuation) is first


def test_diagonal_atoms_count_for_both_clocks_and_delegations_not_at_all():
    assert unfold_head(parse_type("!a(x-y<2).?b(y<1).end")).clock_ceilings == {
        "x": 2, "y": 2}
    node = parse_type("!a<(z<1, ?b(z<7).end)>(x<2).end")
    assert unfold_head(node).clock_ceilings == {"x": 2}


def test_inactive_clocks_go_to_zero_and_active_ones_to_their_ceiling():
    node = parse_type("!a(x<2).end")
    state = System(QConfig({"x": F(7), "y": F(5, 2)}, node),
                   QConfig({"x": F(9, 2), "y": F(1, 3)}, node))
    got = region_canonical(state, F(10))
    assert (got.left.nu, got.right.nu) == ({"x": F(3), "y": F(0)},
                                           {"x": F(3), "y": F(0)})
    # below its ceiling + 1 a clock keeps its whole part and remainder rank
    state = System(QConfig({"x": F(3, 2), "y": F(5, 2)}, node),
                   QConfig({"x": F(1, 3), "y": F(7)}, node))
    got = region_canonical(state, F(10))
    assert (got.left.nu, got.right.nu) == ({"x": F(5, 3), "y": F(0)},
                                           {"x": F(1, 3), "y": F(0)})


@pytest.mark.parametrize("corpus", sorted(p.name for p in CORPORA.glob("*")))
def test_an_unused_clock_changes_no_verdict_and_no_state_count(corpus):
    for node in corpus_sample(corpus, 40):
        reports = [check_progress(make_system(node, dual(node), clocks=clocks),
                                  ExploreLimits())
                   for clocks in (("x", "y"), ("x", "y", "z"))]
        assert len({(r.verdict, r.states_visited) for r in reports}) == 1


@pytest.mark.parametrize("corpus", sorted(p.name for p in CORPORA.glob("*")))
def test_the_canonicaliser_is_region_canonical_at_the_largest_constant(corpus):
    # on integer systems canonicaliser(sys) is region_canonical(state, cap)
    # with cap one above the largest constant: the call a replay that
    # derives its own cap makes
    for node in corpus_sample(corpus, 20):
        system = make_system(node, dual(node), clocks=("x", "y"))
        canon, horizon = canonicaliser(system), default_horizon(system)
        cap = max_constant(node) + 1
        frontier, seen = deque([canon(system)]), set()
        while frontier and len(seen) < 60:
            state = frontier.popleft()
            for _, succ in system_steps(state, horizon):
                key = state_key(canon(succ))
                assert key == state_key(region_canonical(succ, cap))
                if key not in seen:
                    seen.add(key)
                    frontier.append(canon(succ))
