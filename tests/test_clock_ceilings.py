"""Per-head clock ceilings and the region canonicalisation that reads them.

`Choice.clock_ceilings` maps each clock x to M_h(x), the largest constant
compared with x in a guard reachable from the head h before x is reset.
`region_canonical` sets a clock without a ceiling (inactive) to 0 and caps
every other clock at its ceiling + 1, so states that differ only in
clocks no guard will read before a reset are one state.

One fixpoint over a head graph stores the ceilings of every head in it;
it must agree with the oracle below, a fixpoint of its own from each
head, whatever head is asked first.
"""

import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import canonicaliser, head_graph, scaled_type
from timedsessions.constraints import atoms_of
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import (
    ExploreLimits,
    QConfig,
    System,
    _Space,
    check_progress,
    default_horizon,
    make_system,
    region_canonical,
    state_key,
    system_steps,
    unfold_head,
)
from timedsessions.sessiontypes import END, dual, format_type, max_constant
from timedsessions.sessiontypes import guard_atoms

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "perfbench" / "corpus"
FIXTURES = ROOT / "fixtures"


def corpus_sample(corpus, count):
    rows = (CORPORA / corpus).read_text().splitlines()
    chosen = sorted(random.Random(11).sample(range(len(rows)), count))
    return [parse_type(rows[n].split("\t")[-1]) for n in chosen]


def oracle_ceilings(head):
    """M_h of one head by its own least fixpoint over the heads reachable
    from it, round-robin until nothing grows."""
    heads, stack = {id(head): head}, [head]
    while stack:
        for opt in stack.pop().options:
            after = unfold_head(opt.continuation)
            if id(after) not in heads:
                heads[id(after)] = after
                stack.append(after)
    ceilings = {key: {} for key in heads}
    changed = True
    while changed:
        changed = False
        for key, node in heads.items():
            mine = ceilings[key]
            for opt in node.options:
                after = ceilings[id(unfold_head(opt.continuation))]
                read = [(clock, abs(atom.const))
                        for atom in atoms_of(opt.guard)
                        for clock in (atom.clock, atom.sub) if clock]
                read += [(clock, const) for clock, const in after.items()
                         if clock not in opt.resets]
                for clock, const in read:
                    if const > mine.get(clock, -1):
                        mine[clock] = const
                        changed = True
    return ceilings[id(head)]


def fresh_sides():
    """Freshly parsed types, each with its dual: the 40-type sample of each
    corpus, its copy with every constant halved, and the fixture types."""
    for corpus in sorted(CORPORA.glob("*")):
        rows = corpus.read_text().splitlines()
        for n in sorted(random.Random(11).sample(range(len(rows)), 40)):
            for d in (1, 2):
                node = parse_type(scaled_type(rows[n].split("\t")[-1], d))
                yield node, dual(node)
    for path in sorted(FIXTURES.glob("*.toast")):
        for node in parse_spec_file(path.read_text()).types.values():
            yield node, dual(node)


ORDERS = {
    "root first": lambda heads: heads,
    "an inner head first": lambda heads: (heads[len(heads) // 2:]
                                          + heads[:len(heads) // 2]),
    "reversed": lambda heads: heads[::-1],
}


@pytest.mark.parametrize("order", ORDERS)
def test_one_fixpoint_per_graph_gives_each_head_its_own_fixpoint(order):
    checked = 0
    for sides in fresh_sides():
        for side in sides:
            heads = ORDERS[order](head_graph(side))
            got = [head.clock_ceilings for head in heads]
            assert got == [oracle_ceilings(head) for head in heads], (
                format_type(side))
            checked += len(heads)
    assert checked > 1000


def test_one_request_stores_the_ceilings_of_every_reachable_head():
    for sides in fresh_sides():
        for side in sides:
            heads = head_graph(side)
            heads[0].clock_ceilings
            assert all("clock_ceilings" in vars(head)
                       for head in heads if head.options), format_type(side)


def test_end_has_no_ceilings():
    assert END.clock_ceilings == {}


def test_the_ceilings_of_end_are_read_only():
    with pytest.raises(TypeError):
        END.clock_ceilings["x"] = F(1)


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


# -- the explorer's caps, and the caps region_canonical takes --------------

DIAGONAL = parse_type("!a(x-y<1).?b(x<2).end")


def fresh_systems():
    """The systems of ``fresh_sides`` with the fixture types' own systems
    in place of their types, and one system whose guards compare two
    clocks."""
    for corpus in sorted(CORPORA.glob("*")):
        rows = corpus.read_text().splitlines()
        for n in sorted(random.Random(11).sample(range(len(rows)), 40)):
            for d in (1, 2):
                node = parse_type(scaled_type(rows[n].split("\t")[-1], d))
                yield make_system(node, dual(node), clocks=("x", "y"))
    for path in sorted(FIXTURES.glob("*.toast")):
        spec = parse_spec_file(path.read_text())
        for name in spec.systems:
            yield make_system(*spec.resolve_system(name), spec.clocks)
    yield make_system(DIAGONAL, dual(DIAGONAL))


def test_the_explorer_caps_each_clock_at_its_ceiling_plus_one_in_ints():
    checked = 0
    for system in fresh_systems():
        space = _Space.of(system)[0]
        sides = (system.left.node, system.right.node)
        assert space.regions == all(
            atom.sub is None for side in sides for atom in guard_atoms(side))
        for side in sides:
            for head in head_graph(side):
                caps = space.head(head).caps
                if not space.regions:
                    assert caps is None
                    continue
                ceilings = head.clock_ceilings
                for clock, cap in zip(space.clocks, caps):
                    if clock not in ceilings:
                        assert cap is None
                    else:
                        assert type(cap) is int, format_type(head)
                        assert cap == (ceilings[clock] + 1) * space.d
                        checked += 1
    assert checked > 1000


def reference_region(sys, cap, scale):
    """region_canonical from its definition, in Fraction: each clock
    capped at min(cap, M_h(x) + 1) (0 without a ceiling), scaled, split
    into a whole part and a remainder, the remainders and 0 ranked 0..k-1
    over k, and scaled back."""
    scaled = []
    for qc in (sys.left, sys.right):
        ceilings = unfold_head(qc.node).clock_ceilings
        scaled.append({clock: min(value, cap, ceilings[clock] + 1) * scale
                       if clock in ceilings else F(0)
                       for clock, value in qc.nu.items()})
    rems = sorted({v - int(v) for nu in scaled for v in nu.values()} | {0})
    return tuple({clock: (int(v) + F(rems.index(v - int(v)), len(rems)))
                  / scale for clock, v in nu.items()} for nu in scaled)


def test_a_ceiling_off_the_grid_caps_exactly():
    # at scale 1 the ceiling + 1 of x is 3/2: 5/4 stays below it, whole
    # part 1 and remainder 1/4, ranked 1 of 2; an int cap of 1 would give 1
    node = parse_type("!a(x<1/2).end")
    state = System(QConfig({"x": F(5, 4)}, node),
                   QConfig({"x": F(5, 4)}, node))
    got = region_canonical(state, F(10))
    assert (got.left.nu, got.right.nu) == ({"x": F(3, 2)}, {"x": F(3, 2)})
    assert (got.left.nu, got.right.nu) == reference_region(state, F(10), 1)
    rng = random.Random(46)
    nodes = [node, parse_type("!a(x<1/2, {x}).?b(y<5/3).end"),
             parse_type("rec r . !a(x>2/3 and y<7/4).r")]
    for _ in range(300):
        left, right = rng.choice(nodes), rng.choice(nodes)
        nu = [{clock: F(rng.randint(0, 30), rng.choice((1, 2, 3, 4, 6)))
               for clock in ("x", "y")} for _ in range(2)]
        state = System(QConfig(nu[0], left), QConfig(nu[1], right))
        cap = F(rng.randint(1, 12), rng.choice((1, 2, 3)))
        scale = rng.choice((1, 2, 3))
        got = region_canonical(state, cap, scale)
        assert (got.left.nu, got.right.nu) == reference_region(
            state, cap, scale)
