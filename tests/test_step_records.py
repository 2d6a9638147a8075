"""Each program walked once, each leaf compiled once, and the fuel limit.

``run`` caches on a program object its normal form and the grid of its
durations (``run_prologue``), and on each leaf the record it steps from
(``step_record``).  A second run of the same object walks no term and
compiles no record, and a record holds nothing of one run's scale, so runs
at other scales on the same object still equal the whole-term reference.
A run that has completed when its fuel runs out reports ``completed``:
completion takes no step.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from timedsessions import processes
from timedsessions.cli import main
from timedsessions.parser import parse_process, parse_spec_file
from timedsessions.processes import (P_END, RunPolicy, RunStatus,
                                     format_process, run)

from term_reference import reference_run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fresh(fixture: str, name: str):
    """The process as a new object, so that no other test has warmed it."""
    return parse_spec_file((FIXTURES / fixture).read_text()).processes[name]


def test_a_warm_program_is_neither_walked_nor_compiled_again(monkeypatch):
    program = fresh("mixed_pingpong.toast", "Main")
    policy = RunPolicy(seed=1, fuel=200)
    calls = {"runtime_normalize": 0, "_run_scale": 0, "_compile": 0}
    for name in calls:
        def counting(*args, _f=getattr(processes, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(processes, name, counting)
    first = run(program, policy)
    assert (calls["runtime_normalize"], calls["_run_scale"]) == (1, 1)
    assert calls["_compile"] > 0
    calls.update(dict.fromkeys(calls, 0))
    assert run(program, policy) == first
    assert calls == {"runtime_normalize": 0, "_run_scale": 0, "_compile": 0}
    assert first == reference_run(program, policy)


def test_a_record_carries_nothing_of_a_runs_scale():
    """Seeded runs of ``Parametric`` are on a grid of quarters, the run
    under the ``[1/7]`` schedule on one of 28ths; each reads the records
    the runs before it compiled."""
    program = fresh("parametric_timeout.toast", "Parametric")
    for policy in (RunPolicy(seed=1),
                   RunPolicy(delay_resolution=[Fraction(1, 7)]),
                   RunPolicy(seed=1)):
        result = run(program, policy)
        assert result == reference_run(program, policy)
        assert result.status == RunStatus.COMPLETED


def test_seeded_picks_and_scheduled_durations_are_kept_apart():
    """A seeded pick is keyed by its index in ``durations``, a scheduled
    duration by the duration: after seeded runs of ``delay(z<6)``, whose
    durations are 0, 3 and 3/2, have keyed indices 1 and 2, the schedules
    [1] and [2] still take 1 and 2 (Fraction(1) == 1)."""
    program = parse_process("delay(z<6).end")
    leaf = program.run_prologue[0]
    assert leaf.durations == (0, 3, Fraction(3, 2))
    for seed in range(12):
        policy = RunPolicy(seed=seed)
        assert run(program, policy) == reference_run(program, policy)
    assert {1, 2} <= set(leaf.step_record.table)
    for t in (1, 2):
        policy = RunPolicy(delay_resolution=[Fraction(t)])
        result = run(program, policy)
        assert result.trace[0] == f"1 det delay({t}) for (not (z>6) and not (z=6))"
        assert result == reference_run(program, policy)


PARAMETRIC = fresh("parametric_timeout.toast", "Parametric")
THROTTLING = parse_spec_file((FIXTURES / "throttling.toast").read_text())

# (program, the fuel its default run completes with)
LAST_UNIT = {
    "Parametric": (PARAMETRIC, 5),
    "Sender2": (THROTTLING.processes["Sender2"], 20),
    "Sender3": (THROTTLING.processes["Sender3"], 27),
    "end": (P_END, 0),
}


@pytest.mark.parametrize("name", sorted(LAST_UNIT))
def test_a_run_that_completes_on_its_last_unit_of_fuel_is_completed(name):
    program, fuel = LAST_UNIT[name]
    policy = RunPolicy(fuel=fuel)
    result = run(program, policy)
    assert result == reference_run(program, policy)
    assert (result.status, len(result.trace)) == (RunStatus.COMPLETED, fuel)
    if fuel:
        short = RunPolicy(fuel=fuel - 1)
        assert run(program, short).status == RunStatus.FUEL_EXHAUSTED
        assert run(program, short) == reference_run(program, short)


def test_an_unfired_def_is_not_a_completed_thread():
    """Time passes through a ``def`` to its continuation, but the def is a
    step still to take: out of fuel before it, the run is not over."""
    program = parse_process("def X(;;) = end in end")
    policy = RunPolicy(fuel=0)
    result = run(program, policy)
    assert result == reference_run(program, policy)
    assert result.status == RunStatus.FUEL_EXHAUSTED
    assert run(program, RunPolicy(fuel=1)).status == RunStatus.COMPLETED


@pytest.mark.parametrize("name", sorted(LAST_UNIT))
def test_cli_run_reports_completed_on_the_last_unit_of_fuel(capsys, tmp_path,
                                                            name):
    fuel = LAST_UNIT[name][1]
    if name == "end":
        spec = tmp_path / "end.toast"
        spec.write_text("process P = end\n")
        argv = ["run", str(spec), "P"]
    else:
        fixture = ("parametric_timeout.toast" if name == "Parametric"
                   else "throttling.toast")
        argv = ["run", str(FIXTURES / fixture), name]
    argv += ["--fuel", str(fuel)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == fuel + 1
    assert out[-1].startswith("status: completed (all components terminated)")
    assert main(argv + ["--json"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostics["status"] == "completed"
    assert len(diagnostics["trace"]) == fuel


def test_new_leaves_are_activated_all_at_once_or_not_at_all():
    """Both receives become active after the delay; the second reads the
    unset timer z, so the run ends with neither timeout resolved."""
    program = parse_process(
        "new (p,q) { set(x). delay(1). from p recv { a -> end } after 3-x "
        "{ end } | delay(1). from q recv { a -> end } after 2-z { end } "
        "| pq:[] | qp:[] }")
    result = run(program)
    assert result == reference_run(program, RunPolicy())
    assert (result.status, result.detail, result.trace) == (
        RunStatus.ERROR, "unknown timer 'z' in timeout expression",
        ["1 set x", "2 delay(1)"])
    assert format_process(result.final) == (
        "new (p,q) { from p recv { a -> end } after 3-x { end } "
        "| from q recv { a -> end } after 2-z { end } | pq:[] | qp:[] }")
