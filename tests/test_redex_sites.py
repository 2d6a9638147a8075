"""The run's flat configuration against the whole-term reference loop.

``run`` reads its layout of compositions and session scopes for what each
thread sees only at the start and after a step that puts a composition, a
session scope or a buffer.  After any other instant step it reclassifies
the one thread the step rewrote and the threads that see a rewritten
buffer; after any other time step, the threads whose leaves time changed.
It builds the term from the layout only when something reads it.  Each
program below makes one of those updates matter; ``reference_run``
collects the redexes of the whole term before every step.
"""

import pytest

from timedsessions import processes
from timedsessions.parser import parse_process
from timedsessions.processes import (Buffer, Par, RunPolicy, Scope,
                                     SetTimer, _normal_node, run)

from term_reference import reference_run
from test_incremental_step import DELAY_INTO_PAR, PINGPONG

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
    reads = builds = 0
    structural = []  # per instant step: is its new subterm structural?
    read_layout, take = processes._read_layout, processes._take
    build = processes._build

    def counting_read_layout(root):
        nonlocal reads
        reads += 1
        return read_layout(root)

    def counting_take(*args):
        out = take(*args)
        structural.append(isinstance(_normal_node(out[0]), (Par, Scope, Buffer)))
        return out

    def counting_build(root):
        nonlocal builds
        builds += 1
        return build(root)

    monkeypatch.setattr(processes, "_read_layout", counting_read_layout)
    monkeypatch.setattr(processes, "_take", counting_take)
    monkeypatch.setattr(processes, "_build", counting_build)
    result = run(program, policy)
    assert result == expected
    # No time step of these programs puts a composition, a scope or a
    # buffer, and the last step is not structural, so each structural step
    # was followed by a read of the layout.
    assert not structural[-1]
    assert reads == 1 + sum(structural)
    # The term is built once, for the result: never for a step, since no
    # time step of these programs is taken while a buffer is non-empty.
    assert builds == 1


@pytest.mark.parametrize("program,policy,counts", [
    (PINGPONG, RunPolicy(seed=1, fuel=200), (1, 0)),
    (DELAY_INTO_PAR, RunPolicy(), (2, 0))],
    ids=["pingpong", "delay-into-par"])
def test_time_steps_walk_only_for_new_structure(monkeypatch, program, policy,
                                                counts):
    """(layout reads, ``time_step`` calls).  Main's 12 time steps change
    only leaves, so its layout is read once, at the start.  In
    ``delay-into-par`` the first time step puts a composition, so the
    layout is read again; the second is taken while a buffer holds a
    message, and ``phi`` on the built term decides it.  ``run`` never
    calls ``time_step``."""
    expected = reference_run(program, policy)
    calls = {"_read_layout": 0, "time_step": 0}
    for name in calls:
        def counting(*args, _f=getattr(processes, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(processes, name, counting)
    assert run(program, policy) == expected
    assert (calls["_read_layout"], calls["time_step"]) == counts
