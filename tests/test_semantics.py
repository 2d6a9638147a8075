"""Configuration, queue, and system transitions plus the progress checker."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import canonicaliser, random_valuation
import reference_semantics
from reference_semantics import (Config, config_comm_steps, config_tick,
                                 enqueue, qconfig_steps)
from timedsessions import semantics
from timedsessions.constraints import zero_valuation
from timedsessions.errors import ProtocolError, SpecError
from timedsessions.generate import random_type
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import (
    ExploreLimits,
    Message,
    QConfig,
    System,
    admissible_delays,
    check_progress,
    compatible,
    default_horizon,
    digest_system,
    make_system,
    state_key,
    system_steps,
    unfold_head,
)
from timedsessions.sessiontypes import (
    check_well_formed,
    Choice,
    NONE,
    RECV,
    SEND,
    STR,
    dual,
)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WEAK_PERSISTENCY = "{ !data<Str>(x<3).end , ?timeout(x>4).end }"
UNSAFE_LEFT = "{ ?a(x<5).end , !b(x=0).end }"
UNSAFE_RIGHT = "{ !a(x<5).end , ?b(x=0).end }"
PING_PONG = "rec t . { ?ping(x<=3,{x}).t , !pong(x>3,{x}).t }"
# the package's time rule, a converter over the explorer's delay bound, and
# the paper's rule in Fraction, which the paper's examples below pin alike
TIME_RULES = (semantics.qconfig_time, reference_semantics.qconfig_time)
FUTURE_ENABLED = (semantics.is_future_enabled,
                  reference_semantics.future_enabled)


def nu0(*clocks):
    return zero_valuation(clocks or ("x",))


def test_unfold_head_single_substitution():
    node = parse_type("rec a . { ?d(x<=1).end , !e(1<x).a }")
    head = unfold_head(node)
    assert isinstance(head, Choice)
    assert head.options[1].continuation == node


def test_unfold_head_end():
    node = parse_type("end")
    assert unfold_head(node) == node


def test_unfold_head_nested_rec_closes_vars():
    node = parse_type("rec a . rec b . { ?d(x<=1).a , !e(1<x).b }")
    head = unfold_head(node)
    assert isinstance(head, Choice)

    def free_vars(n, bound=frozenset()):
        from timedsessions.sessiontypes import Choice as C, Rec as R, Var as V

        if isinstance(n, V):
            return set() if n.var in bound else {n.var}
        if isinstance(n, R):
            return free_vars(n.body, bound | {n.var})
        if isinstance(n, C):
            out = set()
            for opt in n.options:
                out |= free_vars(opt.continuation, bound)
            return out
        return set()

    assert free_vars(head) == set()


def test_config_comm_steps_mixed_enabled_at_zero():
    steps = config_comm_steps(Config(nu0(), parse_type(UNSAFE_LEFT)))
    assert {(a.direction, a.message.label) for a, _ in steps} == \
        {(RECV, "a"), (SEND, "b")}


def test_config_comm_steps_gap_at_four():
    steps = config_comm_steps(
        Config({"x": F(4)}, parse_type(WEAK_PERSISTENCY)))
    assert steps == []


def test_config_comm_steps_end():
    assert config_comm_steps(Config(nu0(), parse_type("end"))) == []


def test_config_comm_steps_applies_resets():
    steps = config_comm_steps(Config({"x": F(2)}, parse_type("!a(x<3,{x}).end")))
    [(action, config)] = steps
    assert config.nu == {"x": F(0)}


def test_qconfig_sends_are_the_layer_one_sends_with_the_queue_kept():
    # layer one is the oracle: a queued configuration sends what its
    # configuration without the queue sends, and keeps the queue
    rng = random.Random(41)
    sending = 0
    for _ in range(300):
        node = random_type(rng, ("x", "y"), 3, 5)
        for _ in range(rng.randint(0, 3)):
            options = unfold_head(node).options
            if options:
                node = rng.choice(options).continuation
        messages = [Message(opt.label, opt.payload)
                    for opt in unfold_head(node).options
                    if opt.direction == RECV] + [Message("z", NONE)]
        queue = tuple(rng.choice(messages) for _ in range(rng.randint(0, 2)))
        nu = random_valuation(rng, ("x", "y"))
        want = [(action, config.nu, config.node, queue)
                for action, config in config_comm_steps(Config(nu, node))
                if action.direction == SEND]
        got = [(action, qc.nu, qc.node, qc.queue)
               for action, qc in qconfig_steps(QConfig(nu, node, queue))
               if action.direction == SEND]
        assert got == want
        sending += bool(want)
    assert sending > 50


def test_config_tick():
    config = config_tick(Config(nu0("x", "y"), parse_type("end")), F(2))
    assert config.nu == {"x": F(2), "y": F(2)}
    same = config_tick(config, F(0))
    assert same.nu == config.nu
    twice = config_tick(config_tick(config, F(1)), F(2))
    assert twice.nu == config_tick(config, F(3)).nu


def test_future_enabled_examples():
    for is_future_enabled in FUTURE_ENABLED:
        assert is_future_enabled(QConfig(nu0(), parse_type(WEAK_PERSISTENCY)))
        # past(2<x<5) = x<5 fails at x=10 (checked against the delay oracle)
        assert not is_future_enabled(QConfig({"x": F(10)},
                                             parse_type("?c(2<x<5).end")))
        assert not is_future_enabled(QConfig(nu0(), parse_type("end")))


def test_qconfig_recv_consumes_head():
    qc = QConfig(nu0(), parse_type(UNSAFE_LEFT), (Message("a", NONE),))
    steps = qconfig_steps(qc)
    recvs = [(a, q) for a, q in steps if a.direction == RECV]
    assert len(recvs) == 1
    _, after = recvs[0]
    assert after.queue == ()


def test_enqueue_appends():
    qc = QConfig(nu0(), parse_type("end"))
    assert enqueue(qc, Message("m", NONE)).queue == (Message("m", NONE),)


def test_orphan_message_has_no_recv():
    qc = QConfig(nu0(), parse_type("end"), (Message("m", NONE),))
    assert qconfig_steps(qc) == []


def test_sort_mismatch_is_protocol_error():
    qc = QConfig(nu0(), parse_type("?a<Nat>(x<5).end"), (Message("a", STR),))
    with pytest.raises(ProtocolError):
        qconfig_steps(qc)


def test_qconfig_time_weak_persistency_allows_timeout_branch():
    qc = QConfig(nu0(), parse_type(WEAK_PERSISTENCY))
    for qconfig_time in TIME_RULES:
        after, reason = qconfig_time(qc, F(5))
        assert reason is None
        assert after.nu == {"x": F(5)}


def test_qconfig_time_urgency_blocks_receivable_head():
    qc = QConfig(nu0(), dual(parse_type(WEAK_PERSISTENCY)),
                 (Message("data", STR),))
    for qconfig_time in TIME_RULES:
        blocked, reason = qconfig_time(qc, F(1))
        assert blocked is None and reason == "urgency"


def test_qconfig_time_urgency_vacuous_when_head_not_yet_receivable():
    # the receive guard 2<x<5 opens only later; waiting 1 never crosses it
    qc = QConfig(nu0(), parse_type("?c(2<x<5).end"), (Message("c", NONE),))
    for qconfig_time in TIME_RULES:
        ok, reason = qconfig_time(qc, F(1))
        assert reason is None
        # but waiting past the opening is refused
        blocked, reason = qconfig_time(qc, F(3))
        assert blocked is None and reason == "urgency"


def test_qconfig_time_persistency_refusal():
    qc = QConfig(nu0(), parse_type("?c(2<x<5).end"))
    for qconfig_time in TIME_RULES:
        blocked, reason = qconfig_time(qc, F(6))
        assert blocked is None and reason == "persistency"


def test_qconfig_time_end_vacuous():
    qc = QConfig(nu0(), parse_type("end"))
    for qconfig_time in TIME_RULES:
        after, reason = qconfig_time(qc, F(9))
        assert reason is None and after.nu == {"x": F(9)}


def test_wait_determinism():
    qc = QConfig(nu0(), parse_type(WEAK_PERSISTENCY))
    for qconfig_time in TIME_RULES:
        one, _ = qconfig_time(qc, F(2))
        two, _ = qconfig_time(one, F(3))
        direct, _ = qconfig_time(qc, F(5))
        assert two.nu == direct.nu and two.node == direct.node


@pytest.mark.parametrize("head, queue", [
    ("!a(y<1).end", ()), ("?a(y<1).end", (Message("a", NONE),))])
def test_a_valuation_without_a_guard_clock_is_refused_by_the_zones(head,
                                                                    queue):
    """The package's time rule reads the head's zones over the valuation's
    clocks, so a guard clock the valuation lacks is refused as the step
    relation refuses it, not as ``eval_constraint`` would."""
    qc = QConfig(nu0(), parse_type(head), queue)
    for call in (lambda: semantics.qconfig_time(qc, F(1)),
                 lambda: semantics.is_future_enabled(qc)):
        with pytest.raises(SpecError, match="^valuation lacks clock 'y'$"):
            call()
    with pytest.raises(SpecError, match="^valuation lacks clock 'y'$"):
        system_steps(System(qc, QConfig(nu0(), parse_type("end"))))
    for call in (lambda: reference_semantics.qconfig_time(qc, F(1)),
                 lambda: reference_semantics.future_enabled(qc)):
        with pytest.raises(SpecError, match="^unknown clock 'y' in constraint$"):
            call()


def test_a_reset_of_a_clock_the_valuation_lacks_refuses_the_wait():
    qc = QConfig(nu0(), parse_type("!a(x<1, {y}).end"))
    message = re.escape("reset of undeclared clock(s): ['y']")
    with pytest.raises(SpecError, match=message):
        semantics.qconfig_time(qc, F(1, 2))
    with pytest.raises(SpecError, match=message):
        system_steps(System(qc, QConfig(nu0(), parse_type("end"))))
    # the Fraction rule never reads the resets, and admits the wait
    assert reference_semantics.qconfig_time(qc, F(1, 2))[1] is None


def test_system_steps_crossed_sends():
    sys = make_system(parse_type(UNSAFE_LEFT), parse_type(UNSAFE_RIGHT))
    kinds = {(a.kind, a.message.label if a.message else None)
             for a, _ in system_steps(sys)}
    assert ("comm-l", "b") in kinds
    assert ("comm-r", "a") in kinds


def test_system_steps_final_final():
    sys = make_system(parse_type("end"), parse_type("end"))
    assert system_steps(sys) == []


def test_system_par_after_comm():
    sys = make_system(parse_type("!m(x<5).end"), parse_type("?m(x<5).end"))
    comm = [(a, s) for a, s in system_steps(sys) if a.kind == "comm-l"]
    [(_, delivered)] = comm
    assert delivered.right.queue == (Message("m", NONE),)
    par = [(a, s) for a, s in system_steps(delivered) if a.kind == "recv-r"]
    assert len(par) == 1
    [(_, drained)] = par
    assert drained.right.queue == ()


def test_admissible_delays_ping_pong():
    sys = make_system(parse_type(PING_PONG), dual(parse_type(PING_PONG)))
    delays = admissible_delays(sys, F(10))
    for expected in (F(3, 2), F(3), F(4)):
        assert expected in delays
    assert F(0) not in delays


def test_admissible_delays_trivial_ends():
    sys = make_system(parse_type("end"), parse_type("end"))
    assert admissible_delays(sys, F(10)) == [F(1)]


def test_admissible_delays_empty_when_head_receivable():
    left = QConfig(nu0(), dual(parse_type(WEAK_PERSISTENCY)),
                   (Message("data", STR),))
    right = QConfig(nu0(), parse_type(WEAK_PERSISTENCY))
    sys = System(left, right)
    assert admissible_delays(sys, F(10)) == []


def test_compatible_dual_pair():
    for text in (WEAK_PERSISTENCY, PING_PONG, "end"):
        sys = make_system(parse_type(text), dual(parse_type(text)))
        ok, why = compatible(sys)
        assert ok, why


def test_compatible_rejects_two_nonempty_queues():
    left = QConfig(nu0(), parse_type("end"), (Message("a", NONE),))
    right = QConfig(nu0(), parse_type("end"), (Message("b", NONE),))
    ok, why = compatible(System(left, right))
    assert not ok and "both queues" in why


def test_compatible_after_one_comm():
    sys = make_system(parse_type("!m(x<5).end"), dual(parse_type("!m(x<5).end")))
    [(_, delivered)] = [(a, s) for a, s in system_steps(sys)
                        if a.kind == "comm-l"]
    ok, why = compatible(delivered)
    assert ok, why


def test_compatible_needs_equal_valuations():
    left = QConfig({"x": F(1)}, parse_type("!m(x<5).end"))
    right = QConfig({"x": F(2)}, dual(parse_type("!m(x<5).end")))
    ok, why = compatible(System(left, right))
    assert not ok and "valuations" in why


def test_compatible_compares_delegated_sessions_up_to_their_zones():
    left = parse_type("!hand<(x<2, ?m(x<5).end)>(x<1).end")
    same = "?hand<(x<2 and x<3, ?m(not x>5 and not x=5).end)>(x<1).end"
    assert compatible(make_system(left, parse_type(same))) == (
        True, "dual types and same clock valuations")
    wider = "?hand<(x<3, ?m(x<5).end)>(x<1).end"
    assert compatible(make_system(left, parse_type(wider))) == (
        False, "types are not dual")


def test_progress_weak_persistency_ok():
    s = parse_type(WEAK_PERSISTENCY)
    report = check_progress(make_system(s, dual(s)), monitor=True)
    assert report.verdict == "ok"
    assert report.invariant_violations == []


def test_progress_renders_a_state_only_for_output(monkeypatch):
    """States are identified by their keys; a digest, and the rationals in
    it, is rendered only for a trace or a monitor message."""
    from timedsessions import semantics

    def render(value):
        raise AssertionError(f"rendered {value}")

    monkeypatch.setattr(semantics, "format_rational", render)
    s = parse_type(WEAK_PERSISTENCY)
    report = check_progress(make_system(s, dual(s)), monitor=True)
    assert report.verdict == "ok" and report.invariant_violations == []


def test_monitor_flags_states_whose_types_are_not_dual():
    # the peer expects b under x<8, not x<9, so every state before b is
    # delivered pairs types that are not dual; monitor mode decides each
    # state's pair once per exploration and must flag the same states as
    # the public compatible would
    s = parse_type("!a(x<5).?b(x<9).end")
    t = parse_type("!a(x<5).?b(x<8).end")
    report = check_progress(make_system(s, dual(t)), monitor=True)
    assert report.verdict == "ok" and report.states_visited == 29
    assert len(report.invariant_violations) == 18
    assert all(v.startswith("incompatible state (types are not dual)")
               for v in report.invariant_violations)
    assert compatible(make_system(s, dual(t))) == (False, "types are not dual")
    assert check_progress(make_system(t, dual(t)),
                          monitor=True).invariant_violations == []


def test_progress_unsafe_mixed_choice_counterexample():
    sys = make_system(parse_type(UNSAFE_LEFT), parse_type(UNSAFE_RIGHT))
    report = check_progress(sys)
    assert report.verdict == "counterexample"
    # the offending run crosses the two sends
    kinds = [a.kind for a, _ in report.trace]
    assert "comm-l" in kinds and "comm-r" in kinds


def test_progress_end_end():
    report = check_progress(make_system(parse_type("end"), parse_type("end")))
    assert report.verdict == "ok"
    assert report.states_visited == 1


def test_progress_free_send_loop_is_bound_exceeded():
    # a recursive sender may flood its peer's queue without ever waiting, so
    # the reachable queue lengths are unbounded; the bounded checker must say
    # so rather than claim ok
    s = parse_type(PING_PONG)
    report = check_progress(make_system(s, dual(s)))
    assert report.verdict == "bound-exceeded"
    assert "queue" in report.reason


MIXED_PING_PONG = ("rec t . { ?ping(x<=3,{x}).{ !pong(x<=3,{x}).t , "
                   "?timeout(x>3).end } , !pong(x>3,{x}).{ ?ping(x<=3,{x}).t"
                   " , !timeout(x>3).end } }")


def test_progress_mixed_ping_pong_ok():
    # sends alternate with receives here, so queues stay bounded and the
    # exploration closes
    s = parse_type(MIXED_PING_PONG)
    assert check_well_formed(s).verdict
    report = check_progress(make_system(s, dual(s)), monitor=True)
    assert report.verdict == "ok"
    assert report.invariant_violations == []


def test_progress_wide_choice_ok():
    # 50 time-disjoint options over one clock, option i open on 2i<x<2i+1,
    # sends and receives alternating: each state samples a wait per boundary
    # ahead of it, so the cost of a wide choice shows here
    s = parse_type("{ " + " , ".join(
        f"{'!?'[i % 2]}a{i}({2 * i}<x and x<{2 * i + 1}).end"
        for i in range(50)) + " }")
    report = check_progress(make_system(s, dual(s)))
    assert (report.verdict, report.states_visited) == ("ok", 249)


def test_progress_orphan_is_counterexample():
    left = QConfig(nu0(), parse_type("end"), (Message("m", NONE),))
    right = QConfig(nu0(), parse_type("end"))
    report = check_progress(System(left, right))
    assert report.verdict == "counterexample"


def test_progress_unbounded_sender_exceeds_bounds():
    sender = parse_type("rec a . !m(true).a")
    report = check_progress(make_system(sender, parse_type("end")),
                            ExploreLimits(max_queue=4))
    assert report.verdict == "bound-exceeded"


def test_progress_sort_mismatch_is_a_counterexample():
    report = check_progress(make_system(parse_type("!a<Nat>.end"),
                                        parse_type("?a<Bool>.end")))
    assert report.verdict == "counterexample"
    assert report.reason == ("unspecified reception: 'a' carries Nat, type "
                             "expects Bool")
    assert [str(action) for action, _ in report.trace] == ["comm-l(a<Nat>)"]


def test_monitor_flags_a_send_and_a_receive_enabled_together():
    s = parse_type("{ !a(x<2).end , ?b(x<2).end }")
    report = check_progress(make_system(s, dual(s)), monitor=True)
    assert report.invariant_violations[0].startswith(
        "send and receive both enabled on left at (x=0 | ")


def test_monitor_flags_a_wait_over_a_non_empty_queue():
    sys = make_system(parse_type("!a(x<1).?c.end"),
                      parse_type("{ ?a(x>2).end , !c(x<5).end }"))
    report = check_progress(sys, monitor=True)
    waits = [v for v in report.invariant_violations if v.startswith("wait(")]
    assert waits[0].startswith("wait(1) taken with non-empty queue at "
                               "(x=0 | ?c | []) || (x=0 | ")


def test_progress_state_bound_exceeded():
    s = parse_type("rec r . !a.r")
    report = check_progress(make_system(s, dual(s)),
                            ExploreLimits(max_states=3))
    assert report.verdict == "bound-exceeded"
    assert report.reason == "state bound exceeded"


def test_progress_fifo_order():
    # two sends deliver in order; the receiver consumes oldest first
    s = parse_type("!a(x<9).!b(x<9).end")
    r = parse_type("?a(x<9).?b(x<9).end")
    sys = make_system(s, r)
    [(_, s1)] = [(a, st) for a, st in system_steps(sys) if a.kind == "comm-l"]
    [(_, s2)] = [(a, st) for a, st in system_steps(s1) if a.kind == "comm-l"]
    assert [m.label for m in s2.right.queue] == ["a", "b"]
    [(_, s3)] = [(a, st) for a, st in system_steps(s2) if a.kind == "recv-r"]
    assert [m.label for m in s3.right.queue] == ["b"]


def test_urgency_boundary_with_open_guard():
    # a queued message whose receive guard opens strictly later: waiting up
    # to the boundary is allowed, waiting across it is not, and at the
    # boundary itself the system is genuinely stuck (the guard is still
    # false but every positive wait passes a receivable instant)
    qc = QConfig(nu0(), parse_type("?m(2<x<5).end"), (Message("m", NONE),))
    at_boundary = QConfig({"x": F(2)}, parse_type("?m(2<x<5).end"),
                          (Message("m", NONE),))
    assert qconfig_steps(at_boundary) == []
    for qconfig_time in TIME_RULES:
        ok, _ = qconfig_time(qc, F(2))
        assert ok is not None
        refused, reason = qconfig_time(qc, F(7, 2))
        assert refused is None and reason == "urgency"
        blocked, reason = qconfig_time(at_boundary, F(1))
        assert blocked is None and reason == "urgency"

    sender = QConfig({"x": F(2)}, parse_type("end"))
    report = check_progress(System(at_boundary, sender))
    assert report.verdict == "counterexample"


def test_state_keys_and_digests_tell_the_same_states_apart():
    """Walk a few levels of every fixture system, raw and canonical: two
    states have equal keys exactly when they have equal digests."""
    states = []
    for path in sorted(FIXTURES.glob("*.toast")):
        spec = parse_spec_file(path.read_text())
        for name in spec.systems:
            system = make_system(*spec.resolve_system(name), spec.clocks)
            canon, horizon = canonicaliser(system), default_horizon(system)
            frontier = [system]
            for _ in range(10):
                states += frontier + [canon(state) for state in frontier]
                successors = []
                for state in frontier:
                    try:
                        successors += [succ for _, succ in
                                       system_steps(state, horizon)]
                    except ProtocolError:
                        pass
                frontier = successors[:100]
    pairs = {(state_key(state), digest_system(state)) for state in states}
    assert len(pairs) > 250
    assert len({key for key, _ in pairs}) == len(pairs)
    assert len({digest for _, digest in pairs}) == len(pairs)
