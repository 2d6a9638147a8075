"""The interpreter's flat configuration against the whole-term reference.

``run`` keeps a running program as thread and buffer cells, resolves
only the leaves a step put there, and builds the term only for its
result.  The reference (``term_reference.reference_run``) puts every
step's buffer and subterm into the whole term, and renormalises and
resolves the whole term on every step; both must give the same
``RunResult`` in every field.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import List

import pytest

from timedsessions.constraints import format_rational
from timedsessions.parser import parse_process, parse_spec_file
from timedsessions.processes import (
    Buffer,
    Call,
    Def,
    DelayExact,
    Par,
    RunPolicy,
    RunResult,
    Scope,
    SetTimer,
    format_process,
    run,
)

from term_reference import random_phi_term, reference_run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    return parse_spec_file((FIXTURES / name).read_text())


def printed(result: RunResult) -> list:
    """Every field of a RunResult, as text."""
    return [result.status, result.detail, result.trace,
            format_rational(result.elapsed), format_process(result.final),
            sorted((name, format_rational(value))
                   for name, value in result.timers.items())]


def digest(results) -> str:
    return hashlib.sha256(
        json.dumps([printed(r) for r in results]).encode()).hexdigest()


PINGPONG = load("mixed_pingpong.toast").processes["Main"]
THROTTLING = load("throttling.toast").processes
ENDS = {
    "Sender2": THROTTLING["Sender2"],
    "Sender3": THROTTLING["Sender3"],
    "Parametric": load("parametric_timeout.toast").processes["Parametric"],
    "Deadline": load("deadline_err.toast").processes["Deadline"],
}


def fuel_sweep() -> List[RunResult]:
    return [run(PINGPONG, RunPolicy(seed=seed, fuel=fuel))
            for seed in range(5) for fuel in range(61)]


def long_runs() -> List[RunResult]:
    return ([run(PINGPONG, RunPolicy(seed=seed, fuel=200))
             for seed in range(40)]
            + [run(program, RunPolicy(seed=7)) for program in ENDS.values()])


# sha256 of ``printed`` over the runs of fuel_sweep and long_runs, taken
# from the whole-term scheduler.
FUEL_SWEEP_SHA = ("c9b70575c9cb20d75bcfbd81f0c10882"
                  "fce93f281209162d8b27e6533da1df98")
LONG_RUNS_SHA = ("7c2d5e8a6f7cf67e1239c4082a6bbe1f"
                 "6cafb834c9bfa259b116e71af8f3e214")


@pytest.mark.parametrize("seed", range(5))
def test_every_fuel_matches_the_whole_term_loop(seed):
    """Stopping after any number of steps, the returned term is the one the
    whole-term loop returns: normal, with the last step's receives not yet
    resolved."""
    for fuel in range(61):
        policy = RunPolicy(seed=seed, fuel=fuel)
        assert run(PINGPONG, policy) == reference_run(PINGPONG, policy), fuel


@pytest.mark.parametrize("name", sorted(ENDS))
def test_runs_with_known_ends_match_the_whole_term_loop(name):
    policy = RunPolicy(seed=7)
    assert run(ENDS[name], policy) == reference_run(ENDS[name], policy)


def test_long_pingpong_runs_match_the_whole_term_loop():
    for seed in range(40):
        policy = RunPolicy(seed=seed, fuel=200)
        assert run(PINGPONG, policy) == reference_run(PINGPONG, policy), seed


def test_run_results_are_pinned():
    assert digest(fuel_sweep()) == FUEL_SWEEP_SHA
    assert digest(long_runs()) == LONG_RUNS_SHA


# A call whose body is a parallel composition, which must be spliced into
# the session's composition, and a delay(z<=1) that the schedules resolve
# to 0 (dropped at the head of the new subterm) or to a positive duration.
SPLICED = Scope("p", "q", Par((
    Def("Two", (), (), (),
        Par((parse_process("to p ! m. end"),
             parse_process("delay(z<=1). from p recv { m -> end } "
                           "after 2-x { end }"))),
        SetTimer("x", Call("Two"))),
    parse_process("from q recv { m -> to q ! m. end } after 3 { end }"),
    Buffer("p", "q"), Buffer("q", "p"))))

# A receive whose timeout names a timer that is never set: resolving it
# after the set step fails.
UNKNOWN_TIMER = parse_process(
    "new (p,q) { set(x). from p recv { m -> end } after 3-y { end } "
    "| to q ! m. end | pq:[] | qp:[] }")


# A delay that expires into a parallel composition, which must be spliced
# into the session's composition and walked, while the receive beside it
# counts down.
DELAY_INTO_PAR = Scope("p", "q", Par((
    DelayExact(Fraction(1), Par((
        parse_process("to q ! m. end"),
        parse_process("delay(1). from q recv { n -> end } after 2 { end }")))),
    parse_process("from p recv { m -> to p ! n. end } after 3 { end }"),
    Buffer("p", "q"), Buffer("q", "p"))))

# Time passes while a buffer holds a message whose receiver is not yet
# waiting: phi is defined, and the receive then takes the message.
FULL_BUFFER = parse_process(
    "new (p,q) { to q ! m. delay(2). end "
    "| delay(1). from p recv { m -> end } | pq:[] | qp:[] }")

# A waiting receive and a buffer to its endpoint that it does not see,
# inside a sibling scope, which a send there fills: phi is then undefined.
HIDDEN_QUEUE = Scope("p", "q", Par((
    parse_process("from q recv { m -> end } after 5 { end }"),
    Scope("a", "b", Par((parse_process("to p ! m. delay(1). end"),
                         Buffer("p", "q"), Buffer("a", "b"),
                         Buffer("b", "a")))),
    Buffer("q", "p"))))

# A send that sees no buffer is no redex, and time cannot pass over it.
BLIND_SEND = parse_process("delay(1). end | to q ! m. end")

# Both ways phi can fail at once, once the hidden queue is filled: a
# waiting receive with a non-empty queue and a send that sees no buffer.
# phi names the first it meets in the term, so the order of the parts
# decides which.
HIDDEN_QUEUE_THEN_SEND = Par((HIDDEN_QUEUE, parse_process("to r ! a. end")))
SEND_THEN_HIDDEN_QUEUE = Par(HIDDEN_QUEUE_THEN_SEND.parts[::-1])

# Timeouts whose continuation is a receive with an expression timeout: one
# reached by an expiring delay in the time step, one by an expired receive
# in the instant step after it.  Both read x after the step.
EXPRESSION_AFTER_TIMEOUT = parse_process(
    "new (p,q) { set(x). delay(2). from p recv { m -> end } after 3-x { end } "
    "| set(y). from q recv { m -> end } after 1 "
    "{ from q recv { m -> end } after 4-y { end } } | pq:[] | qp:[] }")


@pytest.mark.parametrize("program,schedule", [
    (SPLICED, [0]), (SPLICED, [1]), (SPLICED, [Fraction(1, 2)]),
    (UNKNOWN_TIMER, None), (DELAY_INTO_PAR, None), (FULL_BUFFER, None),
    (HIDDEN_QUEUE, None), (BLIND_SEND, None),
    (EXPRESSION_AFTER_TIMEOUT, None), (HIDDEN_QUEUE_THEN_SEND, None),
    (SEND_THEN_HIDDEN_QUEUE, None)],
    ids=["spliced-0", "spliced-1", "spliced-1/2", "unknown-timer",
         "delay-into-par", "full-buffer", "hidden-queue", "blind-send",
         "expression-after-timeout", "hidden-queue-then-send",
         "send-then-hidden-queue"])
def test_spliced_and_failing_steps_match_the_whole_term_loop(program,
                                                             schedule):
    for fuel in range(12):
        policy = RunPolicy(fuel=fuel, delay_resolution=schedule)
        assert run(program, policy) == reference_run(program, policy), fuel


@pytest.mark.parametrize("program,detail", [
    (HIDDEN_QUEUE_THEN_SEND, "endpoint 'q' is waiting on a non-empty queue"),
    (SEND_THEN_HIDDEN_QUEUE, "time cannot pass over Send")],
    ids=["hidden-queue-then-send", "send-then-hidden-queue"])
def test_a_blocked_time_step_names_the_first_failure_in_the_term(program,
                                                                 detail):
    result = run(program, RunPolicy(fuel=12))
    assert (result.status, result.detail, result.trace, result.elapsed) == (
        "stuck", f"time blocked: {detail}", ["1 send p!m"], 0)


def test_random_phi_terms_match_the_whole_term_loop():
    """Seeded terms that mix scopes, buffers at every depth, receives with
    and without timeouts, delays that expire into compositions, scopes and
    buffers, and ``err``: shapes that no fixture has."""
    rng = random.Random(31)
    for number in range(1000):
        program = random_phi_term(rng, 1 + number % 4)
        for fuel in (3, 10, 40):
            policy = RunPolicy(fuel=fuel)
            assert run(program, policy) == reference_run(program, policy), (
                format_process(program), fuel)
