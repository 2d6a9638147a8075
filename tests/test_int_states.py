"""The int states of the progress explorer against the Fraction oracles.

`check_progress` explores S | dual(S) on int states: one reduced common
denominator per state and each side's clock values as int tuples
(`semantics.state_key`).  The public `system_steps` is a converter onto
that one step relation, so a replay through it checks the explorer against
itself.  Here the step relation is checked against the layer-two rules
instead (`reference_semantics`): `qconfig_steps`, whose guards
`eval_constraint` decides, for the internal steps, and for the waits the
`sample_delays` samples that the reference's `Fraction` time rule
`qconfig_time` admits on both sides.  A diagonal system, whose states are
only reduced, pins the state identity that an unreduced denominator splits.

The explorer expands a state in one pass (`_Space.successors`): it maps
the waits to their region representatives in one loop and skips `canon`
on a move that keeps the state's valuation and caps.  On the states it
meets, its successors are checked, in order, against `canon` of the raw
steps (`helpers.space_steps`, which samples waits in every state, so the
states with a receive move, where urgency lets the explorer sample none,
show that no wait is lost), its look-ahead (`_Space.can_move`)
against the internal steps, on its own successors and on the region
representative of each raw wait successor against that successor, and a
mismatched queued payload against the Fraction rule's error.
"""

import random
from collections import deque
from pathlib import Path

import pytest

from helpers import canonicaliser, scaled_type, space_steps
from reference_semantics import (_head_receive_option, enqueue, qconfig_steps,
                                 qconfig_time)
from timedsessions.constraints import sample_delays
from timedsessions.errors import ProtocolError
from timedsessions.parser import parse_type
from timedsessions.semantics import (
    ExploreLimits,
    Message,
    _Space,
    check_progress,
    default_horizon,
    make_system,
    state_key,
    system_steps,
    unfold_head,
)
from timedsessions.sessiontypes import BOOL, NAT, SEND, dual

CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
DIAGONAL = "rec r . !a(x<1, {y}).?b(y<1 and x-y<2, {x}).r"
STATES_PER_SYSTEM = 60


@pytest.mark.parametrize("depth, states", [(5, 28), (8, 82), (12, 210)])
def test_diagonal_states_are_told_apart_by_value(depth, states):
    node = parse_type(DIAGONAL)
    report = check_progress(make_system(node, dual(node)),
                            ExploreLimits(max_depth=depth))
    assert (report.verdict, report.states_visited, report.reason) == (
        "bound-exceeded", states, "depth bound exceeded")


def oracle_steps(state, horizon):
    """The transitions of a state by the layer-two rules, as (kind,
    message, t, left, right)."""
    left, right = state.left, state.right
    if left.is_final() and right.is_final():
        return []
    out = []
    for action, after in qconfig_steps(left):
        if action.direction == SEND:
            out.append(("comm-l", action.message, None, after,
                        enqueue(right, action.message)))
        else:
            out.append(("recv-l", action.message, None, after, right))
    for action, after in qconfig_steps(right):
        if action.direction == SEND:
            out.append(("comm-r", action.message, None,
                        enqueue(left, action.message), after))
        else:
            out.append(("recv-r", action.message, None, left, after))
    bounds = (unfold_head(left.node).clock_bounds
              + unfold_head(right.node).clock_bounds)
    samples = (set(sample_delays(left.nu, bounds, horizon))
               | set(sample_delays(right.nu, bounds, horizon)))
    for t in sorted(samples):
        if t > 0:
            left_after, _ = qconfig_time(left, t)
            right_after, _ = qconfig_time(right, t)
            if left_after is not None and right_after is not None:
                out.append(("wait", None, t, left_after, right_after))
    return out


def described(kind, message, t, left, right):
    return (kind, message, t) + tuple(
        (qc.nu, unfold_head(qc.node).printed, qc.queue)
        for qc in (left, right))


def corpus_systems(corpus):
    """The 40-system sample of a corpus, and its copy with every guard
    constant halved."""
    rows = (CORPORA / corpus).read_text().splitlines()
    for n in sorted(random.Random(11).sample(range(len(rows)), 40)):
        printed = rows[n].split("\t")[-1]
        for d in (1, 2):
            node = parse_type(scaled_type(printed, d))
            yield make_system(node, dual(node), clocks=("x", "y"))


@pytest.mark.parametrize("corpus", sorted(p.name for p in CORPORA.glob("*")))
def test_system_steps_are_the_oracle_steps(corpus):
    checked = waits = 0
    for system in corpus_systems(corpus):
        canon, horizon = canonicaliser(system), default_horizon(system)
        frontier, seen = deque([canon(system)]), set()
        while frontier and len(seen) < STATES_PER_SYSTEM:
            state = frontier.popleft()
            try:
                steps = system_steps(state, horizon)
            except ProtocolError:
                with pytest.raises(ProtocolError):
                    oracle_steps(state, horizon)
                continue
            assert [described(a.kind, a.message, a.t, s.left, s.right)
                    for a, s in steps] == [
                described(*step) for step in oracle_steps(state, horizon)]
            checked += 1
            waits += sum(a.kind == "wait" for a, _ in steps)
            for _, succ in steps:
                succ = canon(succ)
                key = state_key(succ)
                if key not in seen:
                    seen.add(key)
                    frontier.append(succ)
    assert checked > 1800 and waits > 2000


def mismatched(space, state):
    """state with a message first in each queue that a receive option of
    that side's head expects with another payload sort, or None when a
    head has no receive option."""
    queues = []
    for printed, queue in ((state[2], state[3]), (state[5], state[6])):
        receives = space.stepping(printed).receives
        if not receives:
            return None
        label, opt = next(iter(receives.items()))
        queues.append((Message(label, NAT if opt.message.sort == BOOL
                               else BOOL),) + queue)
    return (*state[:3], queues[0], *state[4:6], queues[1])


def outcome(call):
    """What call returns, or the text of the ProtocolError it raises."""
    try:
        return call()
    except ProtocolError as exc:
        return f"ProtocolError: {exc}"


@pytest.mark.parametrize("corpus", sorted(p.name for p in CORPORA.glob("*")))
def test_the_explorer_enqueues_canon_of_the_steps(corpus):
    checked = unchanged = waits = urgent = looked = raised = 0
    for system in corpus_systems(corpus):
        space = _Space.of(system)
        frontier = deque([space.canon(space.encode(system))])
        seen = set(frontier)
        while frontier and len(seen) < STATES_PER_SYSTEM:
            state = frontier.popleft()
            raw = outcome(lambda: space_steps(space, state, True))
            expanded = outcome(lambda: space.successors(state))
            if isinstance(raw, str):
                assert expanded == raw
                continue
            assert expanded == [(action, space.canon(succ))
                                for action, succ in raw]
            checked += 1
            unchanged += sum(a[0] != "wait" and s == succ
                             for (a, s), (_, succ) in zip(expanded, raw))
            waits += sum(a[0] == "wait" for a, _ in expanded)
            urgent += any(a[0].startswith("recv") for a, _ in expanded)
            for key in (state, *(succ for _, succ in expanded)):
                assert outcome(lambda: space.can_move(key)) == outcome(
                    lambda: bool(space_steps(space, key, False)))
                looked += 1
            for action, succ in raw:  # a representative moves as its wait
                if action[0] == "wait":
                    assert outcome(
                        lambda: space.can_move(space.canon(succ))) == outcome(
                        lambda: bool(space_steps(space, succ, False)))
            bad = mismatched(space, state)
            if bad is not None:  # the left side's mismatch is reported
                left = outcome(lambda: _head_receive_option(
                    space.system(bad).left))
                assert left.startswith("ProtocolError")
                assert (outcome(lambda: space.successors(bad))
                        == outcome(lambda: space_steps(space, bad, False))
                        == outcome(lambda: space.can_move(bad)) == left)
                raised += 1
            for _, succ in expanded:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    assert checked > 2000 and waits > 2000 and looked > 6000
    assert unchanged > 1000 and urgent > 1000 and raised > 400


def test_a_receivable_queue_head_samples_no_wait(monkeypatch):
    # a queued at x=0 for { ?a(x<5) , !b }: before a is sent, both sides
    # let time pass; after, urgency forbids it, so the moves are the steps
    system = make_system(parse_type("!a.end"),
                         parse_type("{ ?a(x<5).end , !b.end }"))
    space = _Space.of(system)
    start = space.successors(space.canon(space.encode(system)))
    assert [a[0] for a, _ in start][:2] == ["comm-l", "comm-r"]
    assert any(a[0] == "wait" for a, _ in start)
    state = start[0][1]
    expected = space.successors(state)
    assert [a[0] for a, _ in expected] == ["comm-r", "recv-r"]

    def sampled(*args):
        raise AssertionError("a wait was sampled")

    monkeypatch.setattr(_Space, "delays", sampled)
    assert space.successors(state) == expected
