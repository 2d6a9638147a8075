"""Guards compiled once per choice family.

A choice family is a choice and every choice that ``map_continuations``
rebuilds from it: its dual, its unfoldings and its substitutions.  They
keep its guard objects in order and hold its one ``CompiledGuards``.  On
candidates of the acceptance screening stream:

* every choice of S, of dual(S) and of their unfoldings holds the compile
  of the choice it was rebuilt from, and that compile equals an
  independent one, that of the same head in a fresh parse of the type;
* what depends on directions or continuations is not shared: ``printed``
  and ``clock_ceilings`` equal those of a fresh parse;
* no check tightens a shared zone in place;
* whichever of S and dual(S) is checked first, the second check compiles
  no guard;
* the compile over a reader's clock tuple equals the compile over the
  guards' own clocks widened to that tuple, also on the stored progress
  corpora, and no check widens a zone;
* a guard clock missing from a system's valuations is a ``SpecError``.
"""

import random
from pathlib import Path

import pytest

from helpers import head_graph, options_with_payloads
from reference_semantics import widened
from timedsessions import sessiontypes
from timedsessions.generate import random_type
from timedsessions.parser import parse_type
from timedsessions.errors import SpecError
from timedsessions.semantics import (ExploreLimits, QConfig, System,
                                     check_progress, make_system,
                                     system_steps)
from timedsessions.sessiontypes import (Choice, Delegate, End, Rec,
                                        check_well_formed, dual, type_clocks)
from timedsessions.zones import Zone, to_zones, zoneset_entails

STREAM = 20240801  # the acceptance screening stream of perfbench
CANDIDATES = 150
CLOCKS = ("x", "y")
CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def screening_candidates(count=CANDIDATES):
    """The first candidates of the screening stream, as fresh objects on
    every call, so that no other test has compiled them."""
    rng = random.Random(STREAM)
    out = []
    while len(out) < count:
        node = random_type(rng, CLOCKS, 3, 5)
        if not isinstance(node, End):
            out.append(node)
    return out


def choices(node):
    """The choices written in a type, not unfolded."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Rec):
            stack.append(node.body)
        elif isinstance(node, Choice):
            yield node
            stack.extend(opt.continuation for opt in node.options)


def rebuilt_pairs(node, rebuilt):
    """(choice, its rebuilt choice) at the same positions of node and of a
    type that ``map_continuations`` built from it, walked in lockstep; the
    walk stops where a variable of node was replaced."""
    stack = [(node, rebuilt)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Rec):
            stack.append((a.body, b.body))
        elif isinstance(a, Choice):
            assert isinstance(b, Choice)
            yield a, b
            stack.extend(zip([opt.continuation for opt in a.options],
                             [opt.continuation for opt in b.options]))


def family_pairs(node):
    """rebuilt_pairs of node and its dual, and of the body and unfolding of
    every recursion written in node, in its dual or in any of their heads."""
    sides = [node, dual(node)]
    heads = [head for side in sides for head in head_graph(side)]
    recs = {}
    for written in sides + heads:
        stack = [written]
        while stack:
            term = stack.pop()
            if isinstance(term, Rec):
                recs[id(term)] = term
                stack.append(term.body)
            elif isinstance(term, Choice):
                stack.extend(opt.continuation for opt in term.options)
    yield from rebuilt_pairs(node, sides[1])
    for rec in recs.values():
        yield from rebuilt_pairs(rec.body, rec.unfolded)


def same_zones(ours, theirs):
    return zoneset_entails(ours, theirs) and zoneset_entails(theirs, ours)


def fresh_heads(side):
    """The heads of a fresh parse of side, by printed form: the heads of a
    type and of its parsed copy print alike."""
    return {head.printed: head for head in head_graph(parse_type(side.printed))}


def assert_compiled_like(head, fresh):
    """The compile of a head against that of a fresh parse, over the
    guards' own clocks and over the checker's."""
    assert fresh.compiled is not head.compiled
    assert head.clock_bounds == fresh.clock_bounds
    for clocks in (head.compiled.clocks, CLOCKS):
        (ours, our_entry, _), (theirs, their_entry, _) = (
            head.over(clocks), fresh.over(clocks))
        assert len(ours) == len(theirs)
        for our_zones, their_zones in zip(ours, theirs):
            assert same_zones(our_zones, their_zones)
        assert same_zones(our_entry, their_entry)
    assert str(head.entry) == str(fresh.entry)


def test_a_family_holds_one_compile_equal_to_an_independent_one():
    pairs = heads = 0
    for node in screening_candidates():
        for choice, rebuilt in family_pairs(node):
            assert rebuilt.compiled is choice.compiled
            assert [opt.guard for opt in rebuilt.options] == list(
                choice.compiled.guards)
            pairs += 1
        # every choice reached holds the compile of a choice written in S
        own = {id(choice.compiled) for choice in choices(node)}
        for side in (node, dual(node)):
            fresh = fresh_heads(side)
            for head in head_graph(side):
                if isinstance(head, Choice):
                    assert id(head.compiled) in own
                    assert_compiled_like(head, fresh[head.printed])
                    heads += 1
    assert pairs > 1000 and heads > 500


def test_printed_and_ceilings_are_not_handed_on():
    flipped = ceilings = 0
    for node in screening_candidates():
        for choice, rebuilt in rebuilt_pairs(node, dual(node)):
            # every option flips its direction, so every printed form differs
            assert rebuilt.printed != choice.printed
            assert rebuilt.printed.translate(str.maketrans("!?", "?!")) == (
                choice.printed)
            flipped += 1
        for side in (node, dual(node)):
            fresh = fresh_heads(side)
            assert len(fresh) == len(head_graph(side))
            for head in head_graph(side):
                assert dict(head.clock_ceilings) == dict(
                    fresh[head.printed].clock_ceilings)
                ceilings += 1
    assert flipped > 500 and ceilings > 500


def snapshot(compiled):
    """The clocks, scale and matrix of every zone a compile holds over the
    guards' own clocks and over the checker's."""
    return [(zone.clocks, zone.scale, [row[:] for row in zone.m])
            for guards, entry, _ in map(compiled.over,
                                        (compiled.clocks, CLOCKS))
            for zones in (*guards, entry) for zone in zones]


def test_no_check_tightens_a_shared_zone():
    compiles = 0
    for node in screening_candidates(60):
        families = {}
        for head in head_graph(node):
            if isinstance(head, Choice):
                families[id(head.compiled)] = head.compiled
        before = {key: snapshot(compiled)
                  for key, compiled in families.items()}
        check_well_formed(node, clocks=CLOCKS)
        check_well_formed(dual(node), clocks=CLOCKS)
        check_progress(make_system(node, dual(node), clocks=CLOCKS),
                       ExploreLimits(max_states=2000))
        assert {key: snapshot(compiled)
                for key, compiled in families.items()} == before
        compiles += len(families)
    assert compiles > 100


@pytest.mark.parametrize("dual_first", [False, True],
                         ids=["type-first", "dual-first"])
def test_the_second_of_a_type_and_its_dual_compiles_no_guard(
        monkeypatch, dual_first):
    calls = []
    compile_guard = sessiontypes.to_zones

    def counted(*args, **kwargs):
        calls.append(args)
        return compile_guard(*args, **kwargs)

    monkeypatch.setattr(sessiontypes, "to_zones", counted)
    checked = 0
    for node in screening_candidates():
        if any(isinstance(opt.payload, Delegate)
               for opt in options_with_payloads(node)):
            continue
        # each side is built when it is checked, so the dual of a type
        # checked first is built after that type compiled its guards
        first = dual(node) if dual_first else node
        check_well_formed(first, clocks=CLOCKS)
        compiled = len(calls)
        check_well_formed(node if dual_first else dual(node), clocks=CLOCKS)
        assert len(calls) == compiled
        checked += 1
    assert checked > 100 and calls


def own_entry_widened(head, clocks):
    """The entry of a choice as a compile over each guard's own clocks
    builds it: every guard zone widened to the clocks of all the guards,
    closed downward, and widened again to clocks."""
    own = set().union(*(zone.clocks for opt in head.options
                        for zone in to_zones(opt.guard)))
    return [widened(widened(zone, own).down(), clocks)
            for opt in head.options for zone in to_zones(opt.guard)]


def keyed_inputs():
    """(type, the checker's clock tuple for it): the first candidates of
    the screening stream, checked over CLOCKS, and the first 50 types of
    each stored corpus, checked over their own clocks."""
    for node in screening_candidates():
        yield node, tuple(sorted({*CLOCKS, *type_clocks(node)}))
    for corpus in sorted(CORPORA.glob("*")):
        for row in corpus.read_text().splitlines()[:50]:
            node = parse_type(row.split("\t")[-1])
            yield node, tuple(sorted(type_clocks(node)))


def test_the_keyed_compile_is_the_widened_compile():
    heads = grown = 0
    for node, checker_clocks in keyed_inputs():
        # "w" sorts before the type's clocks, so every position moves
        for clocks in (checker_clocks, tuple(sorted({"w", *checker_clocks}))):
            for head in head_graph(node):
                guards, entry, _ = head.over(clocks)
                if isinstance(head, End):
                    assert guards == () and entry == [Zone.universal(clocks)]
                    continue
                for opt, zones in zip(head.options, guards, strict=True):
                    own = to_zones(opt.guard)
                    assert zones == [widened(zone, clocks) for zone in own]
                    grown += any(zone.clocks != clocks for zone in own)
                assert entry == own_entry_widened(head, clocks)
                assert head.over(clocks)[1] is entry  # compiled once
                heads += 1
    assert heads > 2000 and grown > 1000


def test_no_check_widens_a_zone(monkeypatch):
    calls = []

    def counted(zone, clocks):
        calls.append(zone)
        return widened(zone, clocks)

    monkeypatch.setattr(Zone, "widened", counted, raising=False)
    checked = 0
    for node in screening_candidates():
        check_well_formed(node, clocks=CLOCKS)
        check_well_formed(dual(node), clocks=CLOCKS)
        check_progress(make_system(node, dual(node), clocks=CLOCKS),
                       ExploreLimits(max_states=2000))
        checked += 1
    assert calls == [] and checked == CANDIDATES
    Zone.universal(("x",)).widened(CLOCKS)  # the wrapper does count
    assert len(calls) == 1


@pytest.mark.parametrize("text", ["!a(y<2).end", "!a(x-y<1).end"],
                         ids=["clock", "diagonal"])
def test_a_guard_clock_the_valuations_lack_is_a_spec_error(text):
    node = parse_type(text)
    zero = {"x": 0}
    system = System(QConfig(dict(zero), node), QConfig(dict(zero), dual(node)))
    with pytest.raises(SpecError, match="'y'"):
        system_steps(system)
    with pytest.raises(SpecError, match="'y'"):
        check_progress(system)
