"""The interpreter's int clock against the whole-term reference.

``run`` keeps time as one int at a scale fixed before the first step,
each timer as the instant it was set, and each thread's timeout or exact
delay as the instant it runs out.  A time step moves the clock to the
earliest deadline and changes only the threads whose deadline it is;
``phi`` and ``Fraction`` stay at the boundary.  The reference
(``term_reference.reference_run``) steps the ``Fraction`` term with
``time_step`` and must give the same ``RunResult`` in every field.
"""

import re
from fractions import Fraction

import pytest

from timedsessions import processes
from timedsessions.parser import parse_process
from timedsessions.processes import RunPolicy, format_process, run

from term_reference import reference_run
from test_incremental_step import DELAY_INTO_PAR, ENDS, PINGPONG, SPLICED

SWEPT = {**ENDS, "SPLICED": SPLICED, "DELAY_INTO_PAR": DELAY_INTO_PAR}


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_every_fuel_matches_the_whole_term_loop(name):
    """Stopped after any number of steps up to its end, the run returns
    what the whole-term loop returns: countdowns under way read what is
    left of them, and the last step's receives are not yet resolved."""
    program = SWEPT[name]
    steps = len(run(program, RunPolicy(seed=7)).trace)
    for fuel in range(steps + 2):
        policy = RunPolicy(seed=7, fuel=fuel)
        assert run(program, policy) == reference_run(program, policy), fuel


# Three countdowns at once: an exact delay that runs into another, a
# timeout read off a timer and a constant timeout.
COUNTDOWNS = parse_process(
    "delay(1/3). delay(2). end | new (p,q) { "
    "set(x). from p recv { m -> end } after 5/2-2*x { end } "
    "| from q recv { m -> end } after 7/2 { end } | pq:[] | qp:[] }")


@pytest.mark.parametrize("fuel,last,final", [
    (1, "1 set x",
     "delay(1/3).delay(2).end | new (p,q) { from p recv { m -> end } "
     "after 5/2-2*x { end } | from q recv { m -> end } after 7/2 { end } "
     "| pq:[] | qp:[] }"),
    (2, "2 delay(1/3)",
     "delay(2).end | new (p,q) { from p recv { m -> end } after 13/6 "
     "{ end } | from q recv { m -> end } after 19/6 { end } "
     "| pq:[] | qp:[] }"),
    (3, "3 delay(2)",
     "end | new (p,q) { from p recv { m -> end } after 1/6 { end } "
     "| from q recv { m -> end } after 7/6 { end } | pq:[] | qp:[] }"),
    (4, "4 delay(1/6)",
     "end | new (p,q) { from p recv { m -> end } after 0 { end } "
     "| from q recv { m -> end } after 1 { end } | pq:[] | qp:[] }")])
def test_a_run_stopped_mid_countdown_prints_what_is_left(fuel, last, final):
    policy = RunPolicy(fuel=fuel)
    result = run(COUNTDOWNS, policy)
    assert result == reference_run(COUNTDOWNS, policy)
    assert result.trace[-1] == last
    assert format_process(result.final) == final


# A receive whose timeout, read off a timer after a delay(c) with a
# rational bound, runs out before or after the message arrives.
OFF_GRID = parse_process(
    "new (p,q) { set(x). delay(z<1/3). "
    "from p recv { m -> end } after 5/2-2*x { to p ! late. end } "
    "| delay(12/5). to q ! m. from q recv { late -> end } after 1 { end } "
    "| pq:[] | qp:[] }")

PARAMETRIC = ENDS["Parametric"]
SEVENTH, TWO_THIRDS = Fraction(1, 7), Fraction(2, 3)


def delay_sum(trace):
    """The sum of the durations of the trace's time steps."""
    steps = (re.fullmatch(r"\d+ delay\((.*)\)", line) for line in trace)
    return sum((Fraction(m.group(1)) for m in steps if m), Fraction(0))


@pytest.mark.parametrize("program,policy", [
    (PINGPONG, RunPolicy(fuel=200,
                         delay_resolution=[SEVENTH, TWO_THIRDS] * 20)),
    (PINGPONG, RunPolicy(fuel=200,
                         delay_resolution=[TWO_THIRDS, SEVENTH] * 20)),
    (PARAMETRIC, RunPolicy(delay_resolution=[SEVENTH])),
    (PARAMETRIC, RunPolicy(delay_resolution=[TWO_THIRDS])),
    (OFF_GRID, RunPolicy(delay_resolution=[SEVENTH])),
    (OFF_GRID, RunPolicy(delay_resolution=[TWO_THIRDS])),
    *[(OFF_GRID, RunPolicy(seed=seed)) for seed in range(8)]],
    ids=["main-1/7", "main-2/3", "parametric-1/7", "parametric-2/3",
         "off-grid-1/7", "off-grid-2/3",
         *[f"off-grid-seed{seed}" for seed in range(8)]])
def test_times_off_the_program_grid_match_the_whole_term_loop(program,
                                                             policy):
    result = run(program, policy)
    assert result == reference_run(program, policy)
    assert result.elapsed == delay_sum(result.trace)


def test_off_grid_runs_take_both_ends_of_the_receive():
    """The seeded off-grid runs reach the message and the timeout."""
    traces = [run(OFF_GRID, RunPolicy(seed=seed)).trace for seed in range(8)]
    taken = {line.split(" ", 1)[1] for trace in traces for line in trace}
    assert {"recv p?m", "recv p after-timeout"} <= taken


@pytest.mark.parametrize("program,policy,counts", [
    (PINGPONG, RunPolicy(seed=1, fuel=200), (0, 0)),
    (DELAY_INTO_PAR, RunPolicy(), (1, 0))],
    ids=["pingpong", "delay-into-par"])
def test_time_steps_call_no_phi_and_no_fraction_timeouts(monkeypatch, program,
                                                         policy, counts):
    """(``phi`` calls from ``run``, ``eval_timeout`` calls).  A time step
    moves the clock and reads the deadlines; ``phi`` is called only for
    the step of ``delay-into-par`` taken while a buffer holds a message,
    and no timeout is evaluated in ``Fraction``."""
    expected = reference_run(program, policy)
    calls = {"phi": 0, "eval_timeout": 0}
    depth = 0  # phi calls itself; only the outermost calls are counted

    def counting(name, f):
        def call(*args):
            nonlocal depth
            calls[name] += depth == 0
            depth += 1
            try:
                return f(*args)
            finally:
                depth -= 1
        return call

    for name in calls:
        monkeypatch.setattr(processes, name,
                            counting(name, getattr(processes, name)))
    assert run(program, policy) == expected
    assert (calls["phi"], calls["eval_timeout"]) == counts
