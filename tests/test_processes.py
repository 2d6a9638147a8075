"""Process AST, time-passing function, reductions, and the scheduler."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from timedsessions.errors import ParseError, SpecError
from timedsessions.parser import parse_process, parse_spec_file
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
    neq_set,
    phi,
    run,
    runtime_normalize,
    substitute,
    time_step,
    wait_set,
)

from reference_semantics import struct_normalize
from term_reference import (apply_redex, collect_redexes, instant_step,
                            is_completed, random_phi_term, time_candidates)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_every_fixture_process_round_trips():
    count = 0
    for path in sorted(FIXTURES.glob("*.toast")):
        for process in parse_spec_file(path.read_text()).processes.values():
            assert parse_process(format_process(process)) == process
            count += 1
    assert count == 5


@pytest.mark.parametrize("after", ["0-x", "0-2*x+y", "3-x", "x-2*y"])
def test_a_timeout_with_a_negative_first_term_round_trips(after):
    # the grammar has no leading minus, so 0-x must not print as -x
    node = parse_process(f"from p recv {{ m -> end }} after {after} {{ end }}")
    assert str(node.after) == after
    assert parse_process(format_process(node)) == node


def test_sent_values_and_an_echoed_binder_round_trip():
    node = parse_process(
        'new (p,q) { to p ! a(true). to p ! b(false). to p ! c("hi"). '
        "to p ! d(3/2). to p ! e(()). end "
        "| from q recv { a(v) -> to q ! echo(v). end } | pq:[] | qp:[] }")
    assert parse_process(format_process(node)) == node
    final = run(node).final  # the buffers now hold the values
    assert format_process(final) == (
        'new (p,q) { end | end | pq:[b(false), c("hi"), d(3/2), e] '
        "| qp:[echo(true)] }")
    assert parse_process(format_process(final)) == final


def test_format_receive_without_timeout_drops_timeout_body():
    # no timeout means the body can never run, as the parser reads
    # "after inf { ... }": printing "after None" would name a timer None
    text = format_process(recv(after=None, timeout=P_END))
    assert text == "from p recv { m -> end }"
    assert parse_process(text) == recv()
    assert format_process(parse_process(text)) == text


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


def test_stray_commas_in_parameters_arguments_and_buffers():
    lenient = parse_process(
        "new (p,q) { def X(,v,,;t,;c,) = end in X<,1,,;t;p,> "
        "| end | pq:[,a,,b(2),] | qp:[,] }")
    strict = parse_process(
        "new (p,q) { def X(v;t;c) = end in X<1;t;p> "
        "| end | pq:[a b(2)] | qp:[] }")
    assert lenient == strict


@pytest.mark.parametrize("source", [
    "def X(v;t;c;d) = end in X<1;t;p>",
    "def X(v;t;c) = end in X<1;t;p;q>",
], ids=["parameters", "arguments"])
def test_a_fourth_group_is_rejected(source):
    with pytest.raises(ParseError):
        parse_process(source)


# Each program check reports the same message through parse_process and
# through a spec file, at the first token of the process.
@pytest.mark.parametrize("source, message", [
    ("new (p,q) { end | end | pq:[] }",
     "malformed session shape under new (p,q): expected two processes and "
     "the two directed buffers"),
    ("new (p,q) { set(x).end | set(x).end | pq:[] | qp:[] }",
     "timer(s) ['x'] set by more than one parallel component"),
    ("def X(;;) = end in from p recv { m -> def X(;;) = end in end }",
     "duplicate definition 'X'"),
    ("from p recv { m -> end } after 1 { X<> }",
     "call to undefined process 'X'"),
], ids=["session", "timer", "definition", "call"])
def test_program_checks_read_the_same_in_a_spec_file(source, message):
    from timedsessions.parser import parse_spec_file

    with pytest.raises(ParseError) as alone:
        parse_process(source)
    with pytest.raises(ParseError) as in_spec:
        parse_spec_file(f"type T = end\nprocess P = {source}\n")
    assert str(alone.value) == f"1:1: {message}"
    assert str(in_spec.value) == f"2:13: {message}"


def test_every_process_node_kind_has_a_shape():
    from typing import get_args

    from timedsessions.processes import _SHAPES, PEnd, PErr, ProcNode

    leaves = {Call, PEnd, PErr, Buffer}  # the node kinds without subterms
    assert set(get_args(ProcNode)) == set(_SHAPES) | leaves
    assert not set(_SHAPES) & leaves


def test_parse_unbraced_single_branch():
    node = parse_process("from p recv m -> end after 3 { end }")
    assert isinstance(node, ReceiveAfter)
    assert node.after == LinearExpr(F(3))


def test_parse_payload_literals():
    node = parse_process('to p ! m("hi"). to p ! m(true). to p ! m(false). '
                         "to p ! m(()). to p ! m(1/2). to p ! m(-3). end")
    values = []
    while isinstance(node, Send):
        values.append(node.value)
        node = node.cont
    assert values == ["hi", True, False, UNIT, F(1, 2), -3]
    assert [type(v) for v in values[1:3]] == [bool, bool]
    assert type(values[-1]) is int


def test_parse_timeout_terms():
    # an explicit inf is no timeout at all: its body never runs
    assert parse_process("from p recv { m -> end } after inf { err }") \
        == recv(after=None, timeout=None)
    node = parse_process("from p recv { m -> end } after 2*x + 1 - y { end }")
    assert node.after == LinearExpr(F(1), (("x", 2), ("y", -1)))
    assert str(node.after) == "1+2*x-y"
    assert eval_timeout(node.after, {"x": F(1), "y": F(1, 2)}) == F(5, 2)


@pytest.mark.parametrize("source, message", [
    ("from p recv { m -> end } after 3 - inf { end }",
     "1:36: cannot subtract inf in a timeout"),
    ("from p recv { m -> end } after 1/2*x { end }",
     "1:38: timer coefficients must be integers"),
    ("from p recv { m -> end } after 1 - 3 { end }",
     "1:38: constant timeouts must be nonnegative"),
    ("delay(-1). end", "1:9: delays must be nonnegative"),
    ("new (p,p) { end | end | pp:[] | pp:[] }",
     "1:9: session endpoints must be distinct"),
], ids=["subtract-inf", "fractional-coefficient", "negative-timeout",
        "negative-delay", "one-endpoint"])
def test_timeout_and_delay_errors_are_pinned(source, message):
    with pytest.raises(ParseError) as err:
        parse_process(source)
    assert str(err.value) == message


@pytest.mark.parametrize("source, message", [
    ("delay(z<1 and w<2).end",
     "1:18: delay constraints range over exactly one bound variable"),
    ("to p!a.", "1:8: expected a process"),
    ("to p!a(<).end", "1:8: expected a value"),
    ("new (p,q) { from p recv { a -> end, a -> end } | end | pq:[] | qp:[] }",
     "1:13: duplicate receive label 'a'"),
    ("set(t). from p recv { a -> end } after t + . { end }",
     "1:44: expected a timeout term"),
], ids=["two-delay-variables", "cut-after-send", "no-value",
        "duplicate-receive-label", "no-timeout-term"])
def test_process_grammar_errors_are_pinned(source, message):
    with pytest.raises(ParseError) as err:
        parse_process(source)
    assert str(err.value) == message


def test_a_duplicate_process_name_is_pinned():
    with pytest.raises(ParseError) as err:
        parse_spec_file("process P = end\nprocess P = err\n")
    assert str(err.value) == "2:11: duplicate process name 'P'"


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


def test_phi_takes_an_int_duration():
    p = DelayExact(F(1), recv(after=F(3), timeout=P_END))
    out = phi(2, p)
    assert out == recv(after=F(2), timeout=P_END)
    assert type(out.after) is Fraction


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


@pytest.mark.parametrize("cond", [
    "z<6", "z<=2", "z>1 and z<3", "z<1 or z>2", "z<=1 or z>=2 and z<4",
    "z>=3 and z<=3", "z<1 or z>=2 and z<=2 or z>3"])
def test_delay_picks_match_midpoints_drawn_per_step(cond):
    """The picker's kept interior samples give the picks, and make the rng
    calls, of drawing a pair and testing its midpoint on each step; a pick
    is an index into ``durations``."""
    from timedsessions.constraints import eval_constraint
    from timedsessions.processes import _DelayPicker
    node = parse_process(f"delay({cond}).end")
    pool = node.candidates
    assert node.durations == pool + tuple(
        m if eval_constraint({"z": m}, node.cond) else None
        for m in ((a + b) / 2 for a, b in zip(pool, pool[1:])))
    for seed in range(5):
        picker, rng = _DelayPicker(seed, None), random.Random(seed)
        for _ in range(20):
            choices = pool
            if len(pool) > 1:
                i = rng.randrange(len(pool) - 1)
                interior = (pool[i] + pool[i + 1]) / 2
                if eval_constraint({"z": interior}, node.cond):
                    choices = pool + (interior,)
            assert node.durations[picker.pick(node)] == rng.choice(choices)


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
# Parameterised definitions
# ---------------------------------------------------------------------------

# A call renames the definition's timer and channel parameters in its body
# and substitutes its value parameters; an inner definition binds its own.
@pytest.mark.parametrize("source, delays, trace, final, timers", [
    # set, delay(constraint), if and after 2 - t on the renamed timer t := y,
    # to and from on the renamed channel c := p
    ("""new (p,q) {
          def W(; t; c) = set(t). delay(z <= 1/2). if (t < 1) then {
              from c recv { m -> end } after 2 - t { to c ! late. end }
            } else { err }
          in W<; y; p>
        | from q recv { late -> end } | pq:[] | qp:[] }""",
     [F(1, 2)],
     ["1 def W", "2 call W", "3 set y",
      "4 det delay(1/2) for not (z>1/2)", "5 delay(1/2)",
      "6 if ((not (y>1) and not (y=1))) -> then", "7 delay(3/2)",
      "8 recv p after-timeout", "9 send p!late", "10 recv q?late"],
     "new (p,q) { end | end | pq:[] | qp:[] }", {"y": F(2)}),
    # a value parameter passed on to a nested call
    ("""new (p,q) {
          def Outer(v;; c) = def Inner(w;; d) = to d ! m(w). end
            in Inner<v;; c>
          in Outer<5;; p>
        | from q recv { m(x) -> to q ! back(x). end } | pq:[] | qp:[] }""",
     None,
     ["1 def Outer", "2 call Outer", "3 def Inner", "4 call Inner",
      "5 send p!m", "6 recv q?m", "7 send q!back"],
     "new (p,q) { end | end | pq:[] | qp:[back(5)] }", {}),
    # an inner definition whose parameters shadow the outer ones: its v is
    # its own argument and its t is renamed to u, not y
    ("""new (p,q) {
          def Outer(v; t; c) = set(t).
            def Inner(v; t; d) = set(t). to d ! m(v). end in Inner<7; u; c>
          in Outer<5; y; p>
        | from q recv { m(x) -> to q ! back(x). end } | pq:[] | qp:[] }""",
     None,
     ["1 def Outer", "2 call Outer", "3 set y", "4 def Inner", "5 call Inner",
      "6 set u", "7 send p!m", "8 recv q?m", "9 send q!back"],
     "new (p,q) { end | end | pq:[] | qp:[back(7)] }",
     {"u": F(0), "y": F(0)}),
    # a := q and q := 3 at once: the argument q is not then replaced by 3
    ("""new (p,q) {
          def F(a, q;;) = to p ! m(a). end in F<q, 3;;>
        | from q recv { m(x) -> to q ! back(x). end } | pq:[] | qp:[] }""",
     None,
     ["1 def F", "2 call F", "3 send p!m", "4 recv q?m", "5 send q!back"],
     "new (p,q) { end | end | pq:[] | qp:[back(q)] }", {}),
    # the branch binder c hides the value c from the call's c := p, so the
    # received 7 replaces it, while the endpoint c is still renamed to p
    ("""new (p,q) {
          def F(;;c) = from c recv { m(c) -> to c ! back(c). end } in F<;;p>
        | to q ! m(7). end | pq:[] | qp:[] }""",
     None,
     ["1 def F", "2 call F", "3 send q!m", "4 recv p?m", "5 send p!back"],
     "new (p,q) { end | end | pq:[back(7)] | qp:[] }", {}),
    # a value parameter written into a buffer of the body is replaced too
    ("""def F(v;;) = new (r,s) {
          from s recv { m(x) -> to s ! got(x). end } | end
        | rs:[m(v)] | sr:[] } in F<5;;>""",
     None,
     ["1 def F", "2 call F", "3 recv s?m", "4 send s!got"],
     "new (r,s) { end | end | rs:[] | sr:[got(5)] }", {}),
    # the timer t := x renamed inside a disjunction and next to true
    ("set(x). def F(;t;) = delay(3). if (t<1 or t>2) then { end } "
     "else { err } in F<;x;>",
     None,
     ["1 set x", "2 def F", "3 call F", "4 delay(3)",
      "5 if (((not (x>1) and not (x=1)) or x>2)) -> then"],
     "end", {"x": F(3)}),
    ("set(x). def F(;t;) = delay(3). if (true and t>2) then { end } "
     "else { err } in F<;x;>",
     None,
     ["1 set x", "2 def F", "3 call F", "4 delay(3)",
      "5 if ((true and x>2)) -> then"],
     "end", {"x": F(3)}),
], ids=["renamed-timer-and-channel", "value-to-nested-call", "shadowing",
        "simultaneous-values", "binder-shadows-channel", "value-in-buffer",
        "renamed-timer-in-or", "renamed-timer-with-true"])
def test_parameterised_definitions_are_pinned(source, delays, trace, final,
                                              timers):
    res = run(parse_process(source), RunPolicy(delay_resolution=delays))
    assert res.trace == trace
    assert format_process(res.final) == final
    assert res.timers == timers


def test_a_call_with_the_wrong_number_of_arguments_is_an_error():
    res = run(parse_process("def F(a;;) = end in F<>"))
    assert res.status == RunStatus.ERROR
    assert res.detail == "arity mismatch calling 'F'"


def test_substitution_with_empty_maps_is_the_identity():
    program = parse_process("""new (p,q) {
          def W(v; t; c) = set(t). to c ! m(v). end in W<1; y; p>
        | from q recv { m(x) -> end } | pq:[] | qp:[] }""")
    assert substitute(program, {}, {}) is program


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


@pytest.mark.parametrize("source, detail", [
    ("err", "err at top"),
    ("end | new (p,q) { end | err | pq:[] | qp:[] }",
     "err at par1/scope/par1"),
    ("set(x). end | new (p,q) { end | from q recv { a -> end } "
     "| pq:[weird] | qp:[] }",
     "unspecified reception: 'weird' at q at par1/scope/par1"),
    # a delay expires into a call whose body opens a scope
    ("end | new (p,q) { end | def E(;;) = new (a,b) { end | err "
     "| ab:[] | ba:[] } in delay(1). E<> | pq:[] | qp:[] }",
     "err at par1/scope/par1/scope/par1"),
    # a call opens a scope in the first part of a composition
    ("end | new (p,q) { def E(;;) = new (a,b) { end | from b recv "
     "{ m -> end } | ab:[x] | ba:[] } in E<> | end | pq:[] | qp:[] }",
     "unspecified reception: 'x' at b at par1/scope/par0/scope/par1"),
], ids=["top", "err", "stuck", "err-after-delay", "stuck-after-call"])
def test_run_names_the_position_it_stopped_at(source, detail):
    assert run(parse_process(source)).detail == detail


def test_each_thread_calls_its_own_instance_of_a_nested_definition():
    """Both instances of A define B, each with its own channel.  Each
    thread keeps its own definitions, so each B sends on its own channel;
    a registry keyed by name would run the B defined last twice."""
    res = run(parse_process(
        "new (p,q) { def A(;;c) = def B(;;) = to c ! m. end in "
        "delay(1). B<> in new (r,s) { A<;;p> | A<;;q> | rs:[] | sr:[] } "
        "| from q recv { m -> end } | pq:[] | qp:[] }"))
    assert res.trace[7] == "8 send p!m"
    assert res.trace[9] == "10 send q!m"
    assert res.status == RunStatus.STUCK
    assert format_process(res.final).endswith("| pq:[] | qp:[m] }")


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


def test_run_negative_scheduled_delay_is_error():
    # z<2 holds at z=-1, so only the sign check rejects the delay
    program = parse_process("delay(z<2). end")
    res = run(program, RunPolicy(delay_resolution=[F(-1)]))
    assert res.status == RunStatus.ERROR
    assert res.detail == "scheduled delay -1 is negative"
    assert res.trace == [] and res.elapsed == 0


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
    from timedsessions.processes import _DelayPicker, resolve_active

    rho, term = {}, runtime_normalize(program)
    picker = _DelayPicker(3, None)
    registry = {}
    for _ in range(60):
        term = resolve_active(term, rho)
        redexes = [r for r in collect_redexes(term)
                   if r.redex.kind not in ("stuck", "err")]
        if redexes:
            rho, term = apply_redex(term, redexes[0], rho, registry, picker)
            term = runtime_normalize(term)
        else:
            candidates = time_candidates(term)
            if not candidates:
                break
            rho, term = time_step(rho, term, min(candidates))
        assert all(v >= 0 for v in rho.values())
