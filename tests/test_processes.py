"""Process AST, time-passing function, reductions, and the scheduler."""

import random
from fractions import Fraction

import pytest

from timedsessions.errors import ParseError, SpecError
from timedsessions.generate import random_phi_term
from timedsessions.parser import parse_process
from timedsessions.processes import (
    Branch,
    Buffer,
    Call,
    DelayConstraint,
    DelayExact,
    IfTimer,
    LinearExpr,
    P_END,
    P_ERR,
    Par,
    PhiUndefined,
    ReceiveAfter,
    RunPolicy,
    RunStatus,
    Scope,
    Send,
    SetTimer,
    UNIT,
    eval_timeout,
    format_process,
    instant_step,
    is_completed,
    neq_set,
    phi,
    run,
    runtime_normalize,
    struct_normalize,
    time_step,
    wait_set,
)

F = Fraction


def recv(endpoint="p", label="m", after=None, timeout=None, cont=P_END):
    return ReceiveAfter(endpoint, (Branch(label, None, cont),), after, timeout)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_parametric_timeout():
    node = parse_process(
        "set(x). delay(z<2). from p recv { msg -> end } after 3-x { end }")
    assert isinstance(node, SetTimer)
    delay = node.cont
    assert isinstance(delay, DelayConstraint) and delay.var == "z"
    ra = delay.cont
    assert isinstance(ra, ReceiveAfter)
    assert isinstance(ra.after, LinearExpr)
    assert eval_timeout(ra.after, {"x": F(1)}) == F(2)


def test_parse_end():
    assert parse_process("end") == P_END


def test_parse_round_trip_session():
    text = ("new (p,q) { to p ! a(5).end | from q recv { a(v) -> end } "
            "| pq:[] | qp:[] }")
    node = parse_process(text)
    assert parse_process(format_process(node)) == node


def test_parse_rejects_malformed_session():
    with pytest.raises(ParseError):
        parse_process("new (p,q) { end | end | pq:[] }")
    with pytest.raises(ParseError):
        parse_process("new (p,q) { end | pq:[] | qp:[] }")


def test_parse_rejects_duplicate_timer_across_components():
    with pytest.raises(ParseError):
        parse_process("new (p,q) { set(x).end | set(x).end | pq:[] | qp:[] }")


def test_parse_rejects_undefined_call():
    with pytest.raises(ParseError):
        parse_process("X<>")


@pytest.mark.parametrize("source", [
    # a duplicate definition in a receive branch, a timeout body, an else branch
    "def X(;;) = end in from p recv { m -> def X(;;) = end in end }",
    "def X(;;) = end in from p recv { m -> end } after 1 { def X(;;) = end in end }",
    "def X(;;) = end in if (x>1) then { end } else { def X(;;) = end in end }",
    # one timer set in a timeout body and in an else branch of the peer
    "new (p,q) { from p recv { m -> end } after 1 { set(x).end }"
    " | if (y>1) then { end } else { set(x).end } | pq:[] | qp:[] }",
    # an undefined call in a timeout body
    "from p recv { m -> end } after 1 { X<> }",
], ids=["def-in-branch", "def-in-timeout", "def-in-else", "timer-in-timeout-and-else",
        "call-in-timeout"])
def test_parse_checks_reach_every_child_position(source):
    with pytest.raises(ParseError):
        parse_process(source)


def test_every_process_node_kind_has_a_shape():
    from typing import get_args

    from timedsessions.processes import _LEAVES, _SHAPES, ProcNode

    assert set(get_args(ProcNode)) == set(_SHAPES) | set(_LEAVES)
    assert not set(_SHAPES) & set(_LEAVES)


def test_parse_unbraced_single_branch():
    node = parse_process("from p recv m -> end after 3 { end }")
    assert isinstance(node, ReceiveAfter)
    assert node.after == LinearExpr(F(3))


# ---------------------------------------------------------------------------
# Structural congruence
# ---------------------------------------------------------------------------

def test_delay_zero_is_identity():
    p = parse_process("to p ! a.end")
    assert struct_normalize(DelayExact(F(0), p)) == struct_normalize(p)


def test_par_flattens_to_canonical_order():
    a, b, c = P_END, P_ERR, parse_process("set(x).end")
    left = Par((a, Par((b, c))))
    right = Par((Par((c, b)), a))
    assert struct_normalize(left) == struct_normalize(right)


def test_normalize_idempotent():
    rng = random.Random(1)
    for _ in range(200):
        p = random_phi_term(rng)
        once = struct_normalize(p)
        assert struct_normalize(once) == once


def test_normalize_returns_normal_terms_unchanged():
    rng = random.Random(2)
    for _ in range(200):
        p = random_phi_term(rng)
        q = struct_normalize(p)
        assert struct_normalize(q) is q
        assert runtime_normalize(q) is q
        r = runtime_normalize(p)
        assert runtime_normalize(r) is r


# ---------------------------------------------------------------------------
# Timeout expressions
# ---------------------------------------------------------------------------

def test_eval_timeout_examples():
    e = LinearExpr(F(3), (("x", -1),))
    assert eval_timeout(e, {"x": F(1)}) == F(2)
    assert eval_timeout(e, {"x": F(5)}) == F(0)  # clamped: max(0, raw)
    assert eval_timeout(LinearExpr(infinite=True), {}) is not None


def test_eval_timeout_unknown_timer():
    with pytest.raises(SpecError):
        eval_timeout(LinearExpr(F(0), (("t", 1),)), {})


# ---------------------------------------------------------------------------
# Wait and NEQ
# ---------------------------------------------------------------------------

def test_wait_set_cases():
    assert wait_set(recv("p")) == {"p"}
    assert wait_set(P_END) == frozenset()
    assert wait_set(Par((recv("p"), recv("q")))) == {"p", "q"}
    assert wait_set(Scope("p", "q", Par((recv("p"), P_END)))) == frozenset()


def test_neq_set_cases():
    assert neq_set(Buffer("q", "p", (("msg", UNIT),))) == {"p"}
    assert neq_set(Buffer("q", "p", ())) == frozenset()
    session = parse_process("new (p,q) { end | end | pq:[] | qp:[] }")
    assert neq_set(session) == frozenset()


# ---------------------------------------------------------------------------
# The time-passing function, case by case
# ---------------------------------------------------------------------------

def test_phi_receive_infinite_unchanged():
    p = recv(after=None)
    assert phi(F(5), p) == p


def test_phi_receive_decrements():
    p = recv(after=F(3), timeout=P_END)
    assert phi(F(1), p) == recv(after=F(2), timeout=P_END)
    # boundary: e = t leaves a zero timeout
    assert phi(F(3), p) == recv(after=F(0), timeout=P_END)


def test_phi_receive_expires_into_timeout():
    inner = DelayExact(F(4), P_END)
    p = recv(after=F(1), timeout=inner)
    # the extra second is spent inside the timeout continuation
    assert phi(F(2), p) == DelayExact(F(3), P_END)


def test_phi_delay_decrements():
    p = DelayExact(F(3), P_END)
    assert phi(F(1), p) == DelayExact(F(2), P_END)
    assert phi(F(3), p) == DelayExact(F(0), P_END)


def test_phi_delay_flows_into_continuation():
    p = DelayExact(F(1), DelayExact(F(4), P_END))
    assert phi(F(2), p) == DelayExact(F(3), P_END)


def test_phi_fixed_points():
    assert phi(F(7), P_END) == P_END
    assert phi(F(7), P_ERR) == P_ERR
    buf = Buffer("q", "p", (("m", UNIT),))
    assert phi(F(7), buf) == buf


def test_phi_scope_and_def_distribute():
    inner = DelayExact(F(2), P_END)
    scoped = Scope("p", "q", Par((inner, P_END,
                                  Buffer("p", "q", ()), Buffer("q", "p", ()))))
    out = phi(F(1), scoped)
    assert isinstance(out, Scope)
    from timedsessions.processes import Def

    d = Def("X", (), (), (), P_END, inner)
    out = phi(F(1), d)
    assert out.body == P_END and out.cont == DelayExact(F(1), P_END)


def test_phi_par_distributes_when_disjoint():
    p = Par((DelayExact(F(2), P_END), recv("p", after=None)))
    out = phi(F(1), p)
    assert out.parts[0] == DelayExact(F(1), P_END)


def test_phi_undefined_when_waiting_on_nonempty_queue():
    p = Par((recv("p", after=F(5), timeout=P_END),
             Buffer("q", "p", (("m", UNIT),))))
    assert wait_set(p.parts[0]) & neq_set(p.parts[1]) == {"p"}
    with pytest.raises(PhiUndefined):
        phi(F(1), p)


def test_phi_undefined_over_instant_constructs():
    for node in (Send("p", "m", UNIT, P_END),
                 SetTimer("x", P_END),
                 IfTimer(parse_constraint_local("x>1"), P_END, P_END),
                 Call("X")):
        with pytest.raises(PhiUndefined):
            phi(F(1), node)


def parse_constraint_local(text):
    from timedsessions.parser import parse_constraint

    return parse_constraint(text)


def test_phi_resolves_symbolic_timeout_at_activation():
    # time flowing past a delay activates the receive behind it; its
    # symbolic timeout is then evaluated against the timers as of that
    # moment (x = 1 after one unit), not against the starting timers
    p = DelayExact(F(1), recv(after=LinearExpr(F(3), (("x", -1),)),
                              timeout=P_END))
    out = phi(F(2), p, {"x": F(0)})
    assert out == recv(after=F(1), timeout=P_END)
    # exactly at the boundary the receive is not yet activated
    boundary = phi(F(1), p, {"x": F(0)})
    assert isinstance(boundary, DelayExact) and boundary.duration == 0


def test_phi_additivity_smoke():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        p = random_phi_term(rng)
        t1 = F(rng.randint(1, 4), rng.choice((1, 2)))
        t2 = F(rng.randint(1, 4), rng.choice((1, 2)))
        try:
            once = phi(t1, p, {})
            twice = phi(t2, once, {})
            direct = phi(t1 + t2, p, {})
        except PhiUndefined:
            continue
        assert struct_normalize(twice) == struct_normalize(direct)
        checked += 1


def test_phi_definedness_implies_disjoint_wait_neq():
    rng = random.Random(7)
    for _ in range(200):
        p = random_phi_term(rng)
        try:
            phi(F(1), p, {})
        except PhiUndefined:
            continue
        assert not (wait_set(p) & neq_set(p))


# ---------------------------------------------------------------------------
# time_step and receive urgency
# ---------------------------------------------------------------------------

def test_time_step_advances_all_timers():
    p = Par((DelayExact(F(1), P_END), recv("p", after=F(3), timeout=P_END)))
    rho, out = time_step({"x": F(0), "y": F(2)}, p, F(1))
    assert rho == {"x": F(1), "y": F(3)}
    assert out.parts[1] == recv("p", after=F(2), timeout=P_END)


def test_time_step_preserves_err():
    p = Par((DelayExact(F(1), P_END), P_ERR))
    _, out = time_step({}, p, F(1))
    assert P_ERR in out.parts


def test_receive_urgency_blocks_time():
    program = parse_process("""
    new (p,q) {
      from p recv { m -> end } after 5 { end }
      | delay(1). to q ! other. end
      | pq:[] | qp:[m]
    }
    """)
    with pytest.raises(PhiUndefined):
        time_step({}, program, F(1))


# ---------------------------------------------------------------------------
# Instant reductions
# ---------------------------------------------------------------------------

def test_instant_set_timer():
    [(rho, p)] = instant_step({}, SetTimer("x", P_END))
    assert rho == {"x": F(0)} and p == P_END


def test_instant_set_timer_resets_existing():
    [(rho, _)] = instant_step({"x": F(4)}, SetTimer("x", P_END))
    assert rho == {"x": F(0)}


def test_instant_if_picks_else_on_stale_timer():
    node = IfTimer(parse_constraint_local("y<=1"), P_END, P_ERR)
    [(_, p)] = instant_step({"y": F(4)}, node)
    assert p == P_ERR


def test_instant_send_then_recv_transfers_fifo():
    program = parse_process("""
    new (p,q) { to p ! a(7). to p ! b(8). end
      | from q recv { a(v) -> from q recv { b(w) -> end } }
      | pq:[] | qp:[] }
    """)
    res = run(program)
    assert res.status == RunStatus.COMPLETED
    sends = [line for line in res.trace if "send" in line]
    recvs = [line for line in res.trace if "recv" in line]
    assert [s.split()[-1] for s in sends] == ["p!a", "p!b"]
    assert [r.split()[-1] for r in recvs] == ["q?a", "q?b"]


def test_instant_det_candidates_satisfy_constraint():
    node = parse_process("delay(z<2).end")
    succs = instant_step({}, node)
    assert succs
    for _, p in succs:
        assert isinstance(p, (DelayExact, type(P_END)))
        if isinstance(p, DelayExact):
            assert p.duration < 2


def test_received_value_substitutes_into_send():
    program = parse_process("""
    new (p,q) { to p ! a(41). end
      | from q recv { a(v) -> to q ! echo(v). end }
      | pq:[] | qp:[] }
    """)
    res = run(program)
    # the echoed message still sits in qp, so the run cannot complete
    assert res.status == RunStatus.STUCK
    buffers = [n for n in res.final.body.parts if isinstance(n, Buffer)]
    echo = [b for b in buffers if b.items]
    assert echo and echo[0].items[0] == ("echo", 41)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

def test_run_empty_session_completes():
    program = parse_process("new (p,q) { end | end | pq:[] | qp:[] }")
    res = run(program)
    assert res.status == RunStatus.COMPLETED
    assert res.elapsed == 0


def test_run_deadline_err():
    program = parse_process(
        "new (p,q) { from p recv { m -> end } after 2 { err } "
        "| end | pq:[] | qp:[] }")
    res = run(program)
    assert res.status == RunStatus.ERROR
    assert res.elapsed == F(2)


def test_run_blocking_receive_forever_is_stuck():
    program = parse_process(
        "new (p,q) { from p recv { m -> end } | end | pq:[] | qp:[] }")
    res = run(program)
    assert res.status == RunStatus.STUCK


def test_run_unspecified_reception_is_stuck():
    program = parse_process("""
    new (p,q) { to p ! weird. end
      | from q recv { expected -> end }
      | pq:[] | qp:[] }
    """)
    res = run(program)
    assert res.status == RunStatus.STUCK
    assert "unspecified reception" in res.detail


def test_run_fuel_exhaustion():
    program = parse_process(
        "new (p,q) { def L(;;) = set(x).L<> in L<> | end | pq:[] | qp:[] }")
    res = run(program, RunPolicy(fuel=50))
    assert res.status == RunStatus.FUEL_EXHAUSTED


def test_run_is_deterministic_given_seed():
    text = """
    new (p,q) {
      set(x). delay(z<4). from p recv { m -> end } after 5-x { end }
      | delay(1). to q ! m. end | pq:[] | qp:[] }
    """
    a = run(parse_process(text), RunPolicy(seed=9))
    b = run(parse_process(text), RunPolicy(seed=9))
    assert a.trace == b.trace and a.status == b.status


def test_run_delay_schedule_exhaustion_is_error():
    program = parse_process("delay(z<2). delay(w<2). end")
    res = run(program, RunPolicy(delay_resolution=[F(1)]))
    assert res.status == RunStatus.ERROR


def test_is_completed_requires_empty_buffers():
    done = parse_process("new (p,q) { end | end | pq:[] | qp:[] }")
    assert is_completed(done)
    orphan = parse_process("new (p,q) { end | end | pq:[m] | qp:[] }")
    assert not is_completed(orphan)


# ---------------------------------------------------------------------------
# Structural congruence as a bisimulation
# ---------------------------------------------------------------------------

def _successor_set(rho, p):
    out = set()
    for new_rho, new_p in instant_step(rho, p):
        out.add((tuple(sorted(new_rho.items())), struct_normalize(new_p)))
    return out


def test_congruence_is_bisimulation_for_instant_step():
    rng = random.Random(11)
    cases = 0
    while cases < 50:
        p = random_phi_term(rng)
        q = struct_normalize(p)
        assert struct_normalize(q) == q  # equivalence: idempotent canonical form
        if _successor_set({}, p) != _successor_set({}, q):
            raise AssertionError(f"congruent terms diverge: {format_process(p)}")
        cases += 1


def test_timers_never_negative_along_runs():
    program = parse_process("""
    new (p,q) {
      set(x). delay(z<3). from p recv { m -> end } after 5-x { end }
      | delay(2). to q ! m. end | pq:[] | qp:[] }
    """)
    from timedsessions.processes import (_apply_redex, _collect_redexes,
                                         _DelayPicker, resolve_active,
                                         runtime_normalize)

    rho, term = {}, runtime_normalize(program)
    picker = _DelayPicker(3, None)
    registry = {}
    for _ in range(60):
        term = resolve_active(term, rho)
        redexes = [r for r in _collect_redexes(term)
                   if r.kind not in ("stuck", "err")]
        if redexes:
            rho, term = _apply_redex(term, redexes[0], rho, registry, picker)
            term = runtime_normalize(term)
        else:
            from timedsessions.processes import _time_candidates

            candidates = _time_candidates(term)
            if not candidates:
                break
            rho, term = time_step(rho, term, min(candidates))
        assert all(v >= 0 for v in rho.values())
