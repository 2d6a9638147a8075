"""Compatibility on the explorer's int states.

`compatible` and the monitor's "incompatible state" check drain a queue
through the explorer's own receive move and compare the valuations after
the space's state map.  Both are checked here against the `Fraction` walk
of ``reference_semantics``: `compatible` with the identity map, the
monitor with ``canonicaliser``, on the states that monitored explorations
of S | dual(S) and S | S pop, for a seeded sample of both stored corpora.
The states are reached through ``system_steps`` under the explorer's
bounds, in its breadth-first order.
"""

import random
from collections import deque
from pathlib import Path

import pytest

import reference_semantics
from helpers import canonicaliser
from timedsessions import semantics, zones
from timedsessions.cli import main
from timedsessions.errors import SpecError
from timedsessions.parser import parse_type
from timedsessions.semantics import (ExploreLimits, Message, QConfig, System,
                                     check_progress, compatible,
                                     default_horizon, digest_system,
                                     make_system, system_steps)
from timedsessions.sessiontypes import NONE, dual

CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
LIMITS = ExploreLimits(max_depth=12, max_queue=3, max_states=120)


def identity(state):
    return state


def popped(system, report, limits):
    """The states the exploration behind report popped, in order: the
    explorer's discovery order under its bounds, all of it unless the
    report is a counterexample, which stops at its last state."""
    canon, horizon = canonicaliser(system), default_horizon(system)
    start = canon(system)
    seen, order = {digest_system(start)}, [start]
    frontier = deque([(start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        for _, succ in system_steps(state, horizon):
            succ = canon(succ)
            digest = digest_system(succ)
            if (len(succ.left.queue) > limits.max_queue
                    or len(succ.right.queue) > limits.max_queue
                    or digest in seen or len(seen) >= limits.max_states
                    or depth + 1 > limits.max_depth):
                continue
            seen.add(digest)
            order.append(succ)
            frontier.append((succ, depth + 1))
    if report.verdict == "counterexample":
        last = report.trace[-1][1] if report.trace else digest_system(start)
        order = order[:[digest_system(s) for s in order].index(last) + 1]
    return order


def sampled_systems(per_corpus=8):
    for corpus in sorted(CORPORA.glob("*.txt")):
        rows = corpus.read_text().splitlines()
        for n in sorted(random.Random(5).sample(range(len(rows)), per_corpus)):
            node = parse_type(rows[n].split("\t")[-1])
            for other in (dual(node), node):
                yield make_system(node, other, clocks=("x", "y"))


def checked_against_the_reference(system, reasons):
    """Check compatible and the monitor on the states a monitored
    exploration of system pops; add each failed clause to reasons."""
    report = check_progress(system, LIMITS, monitor=True)
    canon, expected = canonicaliser(system), []
    for state in popped(system, report, LIMITS):
        answer = reference_semantics.compatible(state, identity)
        assert compatible(state) == answer, digest_system(state)
        ok, why = reference_semantics.compatible(state, canon)
        if not ok:
            expected.append(
                f"incompatible state ({why}) at {digest_system(state)}")
            reasons.add(why.split(" queue head ")[-1])
    assert [violation for violation in report.invariant_violations
            if violation.startswith("incompatible")] == expected
    return expected


def test_compatible_and_the_monitor_agree_with_the_reference_walk():
    reasons = set()
    for system in sampled_systems():
        checked_against_the_reference(system, reasons)
    # each clause fails somewhere in the sample
    assert {"both queues non-empty", "types are not dual"} <= reasons
    assert any(reason.endswith("not receivable now") for reason in reasons)


def test_the_monitor_decides_duality_per_pair_of_heads():
    # after a or b is received the left head is ?c.end either way, paired
    # with the dual !c.end on one branch and with !d.end on the other
    system = make_system(parse_type("{ !a.?c.end , !b.?c.end }"),
                         parse_type("{ ?a.!c.end , ?b.!d.end }"))
    flagged = checked_against_the_reference(system, set())
    assert sum("(types are not dual) at ( | ?c | [])" in line
               for line in flagged) == 2  # [b] queued, then !d
    assert not any("[a]" in line or "( | !c | [])" in line
                   for line in flagged)


def test_compatible_drains_a_long_queue_without_recursing():
    # the drain is a loop: a queue far longer than the recursion limit
    node = parse_type("rec a . ?m.a")
    left = QConfig({"x": 0}, node, (Message("m", NONE),) * 2000)
    right = QConfig({"x": 0}, dual(node))
    assert compatible(System(left, right)) == (
        True, "dual types and same clock valuations")
    queued = (Message("m", NONE),) * 1999 + (Message("n", NONE),)
    assert compatible(System(QConfig({"x": 0}, node, queued), right)) == (
        False, "left queue head n not receivable now")


def test_sides_on_different_clocks():
    # a system built by hand may give its sides different clocks: with
    # empty queues they disagree on their valuations, with both queues
    # non-empty clause (1) fails first, and with one queue there is no
    # int state to drain
    node = parse_type("!m.end")
    left, right = QConfig({"x": 0}, node), QConfig({"y": 0}, dual(node))
    assert compatible(System(left, right)) == (
        False, "valuations differ with empty queues")
    queued = (Message("m", NONE),)
    assert compatible(System(QConfig({"x": 0}, node, queued),
                             QConfig({"y": 0}, dual(node), queued))) == (
        False, "both queues non-empty")
    with pytest.raises(SpecError, match="different clocks"):
        compatible(System(left, QConfig({"y": 0}, dual(node), queued)))


def calls_of(monkeypatch, owner, name: str) -> list:
    """A list that grows by one on each call of owner.name."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compat_compares_equal_guards_without_zones(tmp_path, capsys,
                                                    monkeypatch):
    # the guard negates six equalities over six clocks: 2^6 zones, and one
    # zone_minus per pair of zones to compare it as zone sets
    clocks = [f"c{i}" for i in range(6)]
    guard = " and ".join(f"not ({clock}=1)" for clock in clocks)
    spec = tmp_path / "probe.toast"
    spec.write_text(f"clocks {', '.join(clocks)};\n"
                    f"type T = !a({guard}).end\n"
                    "system s = T | dual of T\n")
    calls = calls_of(monkeypatch, zones, "zone_minus")
    assert main(["compat", str(spec), "s"]) == 0
    assert capsys.readouterr().out.startswith("s: compatible (")
    assert calls == []


def test_the_monitor_drains_each_state_once(monkeypatch):
    # state k queues k messages m; its drain ends at state k-1, answered
    # already, so each state costs a bounded number of sides
    node = parse_type("rec a . !m.a")
    calls = calls_of(monkeypatch, semantics._Space, "sides")
    report = check_progress(make_system(node, dual(node)),
                            ExploreLimits(max_depth=3000, max_queue=200),
                            monitor=True)
    assert (report.verdict, report.states_visited) == ("bound-exceeded", 201)
    assert report.invariant_violations == []
    assert len(calls) <= 3 * report.states_visited
