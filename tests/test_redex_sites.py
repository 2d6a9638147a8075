"""The run's kept redex list against the whole-term reference loop.

``run`` walks the term for its sites only at the start and after a step
that puts a composition, a session scope or a buffer.  After any other
instant step it replaces the one site the step rewrote and puts a
rewritten buffer into every site that sees it; after any other time step
it replaces the sites whose leaves time changed.  It keeps the new leaves
and buffers as pending replacements until something reads the whole term.
Each program below makes one of those updates matter; ``reference_run``
collects the redexes of the whole term before every step.
"""

import pytest

from timedsessions import processes
from timedsessions.parser import parse_process
from timedsessions.processes import (Buffer, Par, RunPolicy, Scope,
                                     SetTimer, _normal_node, run)

from test_incremental_step import DELAY_INTO_PAR, PINGPONG, reference_run

PROGRAMS = {
    # the receive is classified before the send fills its buffer, so only
    # the buffer refresh makes it a redex
    "woken-receive": parse_process(
        "new (p,q) { from p recv { m -> end } after 5 { end } "
        "| to q ! m. end | pq:[] | qp:[] }"),
    # an unexpected label arrives by a buffer write and makes it stuck
    "stuck-receive": parse_process(
        "new (p,q) { from p recv { m -> end } after 5 { end } "
        "| to q ! other. end | pq:[] | qp:[] }"),
    # the second send must append to the buffer the first one wrote
    "two-sends": parse_process(
        "new (p,q) { to q ! a. to q ! b. end "
        "| from p recv { a -> from p recv { b -> end } } "
        "| pq:[] | qp:[] }"),
    # the called body opens a session: the new subterm is a Scope with
    # buffers of its own
    "call-opens-scope": parse_process(
        "def S(;;) = new (a,b) { to a ! m. end | from b recv { m -> end } "
        "| ab:[] | ba:[] } in S<>"),
    # a step leaves a buffer, which the send beside it then sees (built
    # by hand: the parser puts buffers only directly in a session)
    "buffer-appears": Scope("p", "q", Par((
        parse_process("to q ! m. end"),
        SetTimer("x", Buffer("q", "p")),
        parse_process("from p recv { m -> end } after 5 { end }"),
        Buffer("p", "q")))),
    # the parser shares one ``end`` between both branches, so the branch
    # taken cannot be told from the subterm the step leaves
    "shared-branches": parse_process(
        "set(x). delay(5). if (x<=3) then { end } else { end }"),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kept_redex_list_matches_the_whole_term_loop(name):
    program = PROGRAMS[name]
    for fuel in range(12):
        policy = RunPolicy(fuel=fuel)
        assert run(program, policy) == reference_run(program, policy), fuel


@pytest.mark.parametrize("program,policy", [
    (PINGPONG, RunPolicy(seed=0, fuel=200)),
    (PROGRAMS["call-opens-scope"], RunPolicy()),
    (PROGRAMS["stuck-receive"], RunPolicy())],
    ids=["pingpong", "call-opens-scope", "stuck-receive"])
def test_term_is_walked_after_time_and_structural_steps_only(
        monkeypatch, program, policy):
    expected = reference_run(program, policy)
    walks = rebuilds = 0
    structural = []  # per instant step: is its new subterm structural?
    sites, reduce = processes._sites, processes._reduce
    replace_normal = processes._replace_normal

    def counting_sites(root):
        nonlocal walks
        walks += 1
        return sites(root)

    def counting_reduce(*args):
        out = reduce(*args)
        structural.append(isinstance(_normal_node(out[1]), (Par, Scope, Buffer)))
        return out

    def counting_replace_normal(term, news):
        nonlocal rebuilds
        rebuilds += 1
        return replace_normal(term, news)

    monkeypatch.setattr(processes, "_sites", counting_sites)
    monkeypatch.setattr(processes, "_reduce", counting_reduce)
    monkeypatch.setattr(processes, "_replace_normal", counting_replace_normal)
    result = run(program, policy)
    assert result == expected
    # No time step of these programs puts a composition, a scope or a
    # buffer, and the last step is not structural, so each structural step
    # was followed by a walk.
    assert not structural[-1]
    assert walks == 1 + sum(structural)
    # The whole term is rebuilt before each walk and at most once more, for
    # the result: never for a time step or an instant step alone.
    assert walks <= rebuilds <= walks + 1


@pytest.mark.parametrize("program,policy,counts", [
    (PINGPONG, RunPolicy(seed=1, fuel=200), (1, 0)),
    (DELAY_INTO_PAR, RunPolicy(), (3, 1))],
    ids=["pingpong", "delay-into-par"])
def test_time_steps_walk_only_for_new_structure(monkeypatch, program, policy,
                                                counts):
    """(walks, whole-term time steps).  Main's 12 time steps change only
    leaves, with every buffer empty, so its term is walked once, at the
    start, and ``time_step`` never runs.  In ``delay-into-par`` the first
    time step puts a composition, and the second is taken while a buffer
    holds a message, so the whole term takes it and is walked again."""
    expected = reference_run(program, policy)
    calls = {"_sites": 0, "time_step": 0}
    for name in calls:
        def counting(*args, _f=getattr(processes, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(processes, name, counting)
    assert run(program, policy) == expected
    assert (calls["_sites"], calls["time_step"]) == counts
