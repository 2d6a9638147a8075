"""The interpreter's incremental step against the whole-term reference loop.

``run`` keeps an instant step's new leaf and buffer as pending
replacements, rebuilds the term only when it reads it, and resolves only
the subterm the step put there.  The reference below puts every step's
buffer and subterm into the whole term, and renormalises and resolves the
whole term on every step; both must give the same ``RunResult`` in every
field.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from timedsessions.constraints import eval_constraint
from timedsessions.errors import SpecError
from timedsessions.parser import parse_process, parse_spec_file
from timedsessions.processes import (
    Buffer,
    Call,
    Def,
    DelayExact,
    Par,
    PhiUndefined,
    ProcNode,
    RunPolicy,
    RunResult,
    RunStatus,
    Scope,
    SetTimer,
    TimerEnv,
    _SHAPES,
    _collect_redexes,
    _DelayPicker,
    _path_str,
    _reduce,
    _time_candidates,
    children,
    format_process,
    is_completed,
    resolve_active,
    run,
    runtime_normalize,
    time_step,
)
from timedsessions.rational import format_rational

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    return parse_spec_file((FIXTURES / name).read_text())


def get(term: ProcNode, path) -> ProcNode:
    """The subterm of term at path."""
    for i in path:
        term = children(term)[i]
    return term


def put(term: ProcNode, path, new: ProcNode) -> ProcNode:
    """term with new at path, nothing renormalised."""
    if not path:
        return new
    kids = list(children(term))
    kids[path[0]] = put(kids[path[0]], path[1:], new)
    return _SHAPES[type(term)].rebuild(term, kids)


def reference_run(program: ProcNode,
                  policy: Optional[RunPolicy] = None) -> RunResult:
    """The scheduler with a whole-term normalise after every step and a
    whole-term resolve before every step."""
    policy = policy or RunPolicy()
    picker = _DelayPicker(policy.seed, policy.delay_resolution)
    registry: Dict[str, Def] = {}
    trace: List[str] = []
    elapsed = Fraction(0)
    rho: TimerEnv = {}
    term = runtime_normalize(program)
    steps = 0

    def result(status: str, detail: str) -> RunResult:
        return RunResult(status, detail, trace, elapsed, term, rho)

    while steps < policy.fuel:
        try:
            term = resolve_active(term, rho)
        except SpecError as exc:
            return result(RunStatus.ERROR, str(exc))
        redexes = _collect_redexes(term)
        for redex in redexes:
            if redex.kind == "err":
                return result(RunStatus.ERROR,
                              f"err at {_path_str(term, redex.path)}")
            if redex.kind == "stuck":
                return result(RunStatus.STUCK,
                              f"{redex.detail} at {_path_str(term, redex.path)}")
        if redexes:
            redex = redexes[0]
            steps += 1
            before = term
            try:
                rho, new, buf, _ = _reduce(redex, rho, registry, picker)
            except SpecError as exc:
                return result(RunStatus.ERROR, str(exc))
            if buf is not None:
                term = put(term, redex.buffer_path, buf)
            term = put(term, redex.path, new)
            if redex.kind == "det":
                resolved = get(term, redex.path)
                trace.append(f"{steps} det delay("
                             f"{format_rational(resolved.duration)})"
                             f" for {redex.detail}")
            elif redex.kind == "if":
                cond = get(before, redex.path).cond
                taken = "then" if eval_constraint(rho, cond) else "else"
                trace.append(f"{steps} if ({redex.detail}) -> {taken}")
            else:
                trace.append(f"{steps} {redex.kind} {redex.detail}")
            term = runtime_normalize(term)
            continue
        if is_completed(term):
            return result(RunStatus.COMPLETED, "all components terminated")
        candidates = _time_candidates(term)
        if not candidates:
            return result(RunStatus.STUCK, "no action and no finite deadline")
        t = min(candidates)
        steps += 1
        try:
            rho, term = time_step(rho, term, t)
        except PhiUndefined as exc:
            return result(RunStatus.STUCK, f"time blocked: {exc.reason}")
        elapsed += t
        trace.append(f"{steps} delay({format_rational(t)})")
    return result(RunStatus.FUEL_EXHAUSTED, "fuel exhausted")


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
    (EXPRESSION_AFTER_TIMEOUT, None)],
    ids=["spliced-0", "spliced-1", "spliced-1/2", "unknown-timer",
         "delay-into-par", "full-buffer", "hidden-queue", "blind-send",
         "expression-after-timeout"])
def test_spliced_and_failing_steps_match_the_whole_term_loop(program,
                                                             schedule):
    for fuel in range(12):
        policy = RunPolicy(fuel=fuel, delay_resolution=schedule)
        assert run(program, policy) == reference_run(program, policy), fuel
