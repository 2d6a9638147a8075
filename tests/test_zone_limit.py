"""The zone limit: no guard and no zone operation holds more than
``zones.ZONE_LIMIT`` zones.

A guard that negates n equalities over n clocks, or conjoins n
disjunctions, denotes 2^n zones.  ``to_zones`` counts the zones it builds,
``zoneset_meet`` its meets and ``zoneset_entails`` its remaining pieces,
and each raises ``ZoneLimitExceeded`` past the limit, which the CLI reports
as ``bound-exceeded`` (exit 3).  The probes end in well under a second.
"""

import json
import time

import pytest

from timedsessions import cli
from timedsessions.constraints import atom_gt, atom_lt, conj, disj
from timedsessions.errors import SpecError, ZoneLimitExceeded
from timedsessions.parser import parse_spec_file
from timedsessions.semantics import ExploreLimits, check_progress, make_system
from timedsessions.sessiontypes import check_well_formed
from timedsessions.zones import (ZONE_LIMIT, Zone, to_zones, zoneset_entails,
                                 zoneset_meet)

N = 20


def probe(part: str, n: int = N) -> str:
    """A spec whose type T sends under the conjunction of part over n
    clocks, and the system s of T and its dual."""
    clocks = [f"c{i}" for i in range(n)]
    guard = " and ".join(part.format(clock) for clock in clocks)
    return (f"clocks {', '.join(clocks)};\ntype T = !a({guard}).end\n"
            "system s = T | dual of T\n")


NEGATED = probe("not ({}=1)")
DISJOINED = probe("({0}<1 or {0}>2)")


def within_a_second(call, what="a guard"):
    start = time.monotonic()
    with pytest.raises(ZoneLimitExceeded,
                       match=f"^{what} needs more than {ZONE_LIMIT} zones"):
        call()
    assert time.monotonic() - start < 1


def test_the_limit_is_not_a_spec_error():
    # check_well_formed reports a SpecError as an unbound-var violation
    assert not issubclass(ZoneLimitExceeded, SpecError)


@pytest.mark.parametrize("text", [NEGATED, DISJOINED],
                         ids=["negated", "disjoined"])
def test_probes_stop_at_the_limit_in_process(text):
    spec = parse_spec_file(text)
    within_a_second(lambda: check_well_formed(spec.types["T"],
                                              clocks=spec.clocks))
    within_a_second(lambda: check_progress(
        make_system(*spec.resolve_system("s"), spec.clocks), ExploreLimits()))


def guard(text: str):
    return parse_spec_file(text).types["T"].options[0].guard


def test_a_guard_of_as_many_zones_as_the_limit_gives_them_all():
    assert len(to_zones(guard(probe("not ({}=1)", 10)))) == ZONE_LIMIT
    within_a_second(lambda: to_zones(guard(probe("not ({}=1)", 11))))


def test_dead_branches_count_too():
    # each branch dies at the last conjunct, c0<=4 after c0>5: no zone
    # comes out, but 2^N branches would be walked
    dead = guard(DISJOINED.replace(")).end", ") and c0>5 and not (c0>4)).end"))
    within_a_second(lambda: to_zones(dead))


def intervals(clock: str, count: int):
    """count disjoint intervals of clock, as zones over x and y."""
    return to_zones(disj(*[conj(atom_gt(clock, 2 * k),
                                atom_lt(clock, 2 * k + 1))
                           for k in range(count)]), ("x", "y"))


def test_a_meet_stops_at_the_limit():
    assert len(zoneset_meet(intervals("x", 30), intervals("y", 30))) == 900
    within_a_second(lambda: zoneset_meet(intervals("x", 40),
                                         intervals("y", 40)), "a meet")


def boxes(clocks, count):
    """count zones: every clock within (j, j + 2), for j < count."""
    out = []
    for j in range(count):
        box = conj(*[conj(atom_gt(c, j), atom_lt(c, j + 2)) for c in clocks])
        out += to_zones(box, clocks)
    return out


def test_an_entailment_stops_at_the_limit():
    clocks = [f"c{i}" for i in range(8)]
    universal = [Zone.universal(clocks)]
    assert not zoneset_entails(universal, boxes(clocks, 4))  # 730 pieces
    within_a_second(lambda: zoneset_entails(universal, boxes(clocks, 6)),
                    "an entailment")


@pytest.mark.parametrize("command, name", [("check", "T"), ("progress", "s")])
def test_the_cli_reports_bound_exceeded(tmp_path, capsys, command, name):
    path = tmp_path / "probe.toast"
    path.write_text(NEGATED)
    message = f"a guard needs more than {ZONE_LIMIT} zones, the limit"
    assert cli.main([command, str(path), name]) == cli.EXIT_BOUND
    out, err = capsys.readouterr()
    assert (out, err) == (f"{name}: bound-exceeded\n  {message}\n", "")
    assert cli.main([command, str(path), name, "--json"]) == cli.EXIT_BOUND
    envelope = json.loads(capsys.readouterr().out)
    assert (envelope["verdict"], envelope["diagnostics"]) == (
        "bound-exceeded", {"message": message})
