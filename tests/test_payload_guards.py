"""A delegated session is a payload: no exploration runs its guards, so
they set neither the grid, the cap, the horizon nor the diagonal flag of
the system that sends it.

``s`` sends a session whose guards compare x and y; the system itself
never reads a diagonal guard, so its region map stays on and it is
decided.  ``v`` sends a session with a 1/3; the system itself compares
only integers, so its grid stays at the integers.
"""

import time

import pytest

from helpers import options_with_payloads
from timedsessions import cli
from timedsessions.constraints import atoms_of
from timedsessions.parser import parse_spec_file
from timedsessions.semantics import ExploreLimits, check_progress, make_system
from timedsessions.sessiontypes import guard_atoms

SPEC = """clocks x, y;
type T = rec r . !a<(x-y<1, !b(x-y<1).end)>(x<2,{x}).?c(x<2,{x}).r
system s = T | dual of T
type V = rec r . !a<(x<1/3, !b(x<1/3).end)>(x<2,{x}).?c(x<2,{x}).r
system v = V | dual of V
"""


@pytest.mark.parametrize("name", ["s", "v"])
@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
def test_a_payload_guard_leaves_the_space_alone(name, monitor):
    spec = parse_spec_file(SPEC)
    system = make_system(*spec.resolve_system(name), spec.clocks)
    start = time.monotonic()
    report = check_progress(system, ExploreLimits(), monitor=monitor)
    assert time.monotonic() - start < 1
    assert (report.verdict, report.states_visited) == ("ok", 12)
    assert report.invariant_violations == []


@pytest.mark.parametrize("name", ["T", "V"])
def test_guard_atoms_leave_payload_sessions_out(name):
    node = parse_spec_file(SPEC).types[name]
    options = list(options_with_payloads(node))
    assert len(options) == 3  # !a and ?c, then the payload's !b
    atoms = list(guard_atoms(node))
    assert atoms == [atom for opt in options[:2] for atom in atoms_of(opt.guard)]
    assert not any(atom in atoms for atom in atoms_of(options[2].guard))


def test_the_cli_decides_s(tmp_path, capsys):
    path = tmp_path / "payload.toast"
    path.write_text(SPEC)
    assert cli.main(["progress", str(path), "s"]) == cli.EXIT_PASS
    assert capsys.readouterr() == ("s: ok (12 states)\n", "")
