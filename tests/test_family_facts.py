"""The well-formedness facts a choice family shares change no report.

A type and its dual hold the same guards, resets and continuation
families, so the guard overlaps and feasibility verdicts the walk derives
for one are the other's (``CompiledGuards.over``).  On the first
candidates of both screening streams of perfbench, S is checked, then
dual(S), then S at a valuation over a third clock, which gives each
family a second clock tuple; each report must equal that of a fresh
family, the same type parsed again from its printed form.  The dual walk
reads every overlap and verdict S's walk derived: it meets no two guards
and decides no feasibility entailment.
"""

import random

import pytest

from timedsessions import sessiontypes
from timedsessions.generate import random_type
from timedsessions.parser import parse_type
from timedsessions.sessiontypes import (End, check_well_formed, dual,
                                        format_type, type_choices)

STREAMS = (20240801, 20240901)  # perfbench's acceptance and heldout streams
CANDIDATES = 200
CLOCKS = ("x", "y")
NU = {"x": "1/2", "y": 3, "z": 0}


def candidates(stream, count=CANDIDATES):
    """The first candidates of a screening stream, as fresh objects."""
    rng = random.Random(stream)
    out = []
    while len(out) < count:
        node = random_type(rng, CLOCKS, 3, 5)
        if not isinstance(node, End):
            out.append(node)
    return out


def fresh(node, *args, **kwargs):
    """The report of node parsed again from its printed form: a type whose
    families share nothing with any checked before."""
    return check_well_formed(parse_type(format_type(node)), *args, **kwargs)


def compiled_sets(node):
    """The ids of the guard ZoneSets and of the entry ZoneSets of every
    compile of every family in node."""
    guards, entries = set(), set()
    for choice in type_choices(node):
        for compiled in choice.compiled.compiles.values():
            guards.update(map(id, compiled[0]))
            entries.add(id(compiled[1]))
    return guards, entries


@pytest.mark.parametrize("stream", STREAMS)
def test_a_shared_family_changes_no_report(monkeypatch, stream):
    meets, entailments = [], []  # the arguments of each call of a walk

    def counted(calls, call):
        def wrapped(a, b):
            calls.append((a, b))
            return call(a, b)
        return wrapped

    # a meet of two ZoneSets or a test of whether they meet
    for name in ("zoneset_meet", "zoneset_meets"):
        if hasattr(sessiontypes, name):
            monkeypatch.setattr(sessiontypes, name, counted(
                meets, getattr(sessiontypes, name)))
    monkeypatch.setattr(sessiontypes, "zoneset_entails", counted(
        entailments, sessiontypes.zoneset_entails))
    totals = {walk: [0, 0] for walk in ("S", "dual", "nu")}
    failed = 0
    for node in candidates(stream):
        for walk, side, args in (("S", node, {"clocks": CLOCKS}),
                                 ("dual", dual(node), {"clocks": CLOCKS}),
                                 ("nu", node, {"nu": NU})):
            meets.clear()
            entailments.clear()
            report = check_well_formed(side, **args)
            # a guard-pair meet meets two guard ZoneSets of a compile, and
            # a feasibility entailment is one into the entry of a compile
            guards, entries = compiled_sets(node)
            totals[walk][0] += sum(id(a) in guards and id(b) in guards
                                   for a, b in meets)
            totals[walk][1] += sum(id(b) in entries for _, b in entailments)
            assert report == fresh(side, **args), format_type(side)
            failed += walk == "S" and not report.verdict
    assert totals["dual"] == [0, 0]
    # S's walk derives the facts over its clocks, and the valuation's
    # clock tuple is a new compile, whose walk derives them once more
    assert min(totals["S"] + totals["nu"]) > 100
    assert 0 < failed < CANDIDATES
