"""Command-line interface: verdicts, exit codes, and report envelopes."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from timedsessions.cli import main
from timedsessions.constraints import And, Not, Or
from timedsessions.errors import ParseError
from timedsessions.generate import random_constraint
from timedsessions.parser import MAX_NESTING, parse_constraint, parse_type
from timedsessions.sessiontypes import format_type

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_junk_triad(capsys):
    code, out, _ = run_cli(capsys, "check", fx("junk.toast"), "S")
    assert code == 1
    assert "feasibility at [a]" in out
    for name in ("S1", "S2"):
        code, out, _ = run_cli(capsys, "check", fx("junk.toast"), name)
        assert code == 0 and "well-formed" in out


def test_check_weak_persistency(capsys):
    code, _, _ = run_cli(capsys, "check", fx("weak_persistency.toast"), "S")
    assert code == 0


def test_check_end_only(capsys):
    code, _, _ = run_cli(capsys, "check", fx("end_only.toast"), "Done")
    assert code == 0


def test_check_at_valuation(capsys):
    code, _, _ = run_cli(capsys, "check", fx("weak_persistency.toast"), "S",
                         "--at", "x=10")
    assert code == 0  # the timeout branch keeps the type live at any time


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.toast"
    bad.write_text("type Broken = rec a . a")
    code, _, err = run_cli(capsys, "check", str(bad), "Broken")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command, source", [
    ("check", "type T = !a(" + "not " * 3000 + "x>1).end"),
    ("check", "type T = !a(" + " and ".join(["x>1"] * 3000) + ").end"),
    ("run", "process T = " + "set(x)." * 3000 + "end"),
], ids=["negations", "conjunction", "timer-sets"])
def test_deep_nesting_exits_2(capsys, tmp_path, command, source):
    deep = tmp_path / "deep.toast"
    deep.write_text(source)
    code, _, err = run_cli(capsys, command, str(deep), "T")
    assert code == 2
    assert f"nesting deeper than {MAX_NESTING} levels" in err


def test_nesting_just_under_the_limit_parses(capsys, tmp_path):
    deep = tmp_path / "deep.toast"
    # the type, each negation and the atom are one level each
    deep.write_text("type S = !a(" + "not " * (MAX_NESTING - 2) + "x>1).end\n"
                    "process P = " + "set(x)." * (MAX_NESTING - 1) + "end\n")
    code, out, _ = run_cli(capsys, "check", str(deep), "S")
    assert (code, out) == (0, "S: well-formed\n")
    code, out, _ = run_cli(capsys, "run", str(deep), "P")
    assert code == 0 and "status: completed" in out


@pytest.mark.parametrize("guard", [
    "not " * 24 + "x<1",
    "not " * 48 + "x>1",
    " and ".join(["x>1"] * 49),
], ids=["negations-over-strict", "negations", "conjunction"])
def test_accepted_guard_prints_to_text_that_parses(guard):
    node = parse_type(f"!a({guard}).end")
    assert parse_type(format_type(node)) == node


def test_random_constraints_round_trip():
    rng = random.Random(67)
    constants = [Fraction(n, d) for n in range(-3, 12) for d in (1, 2, 3)]
    for _ in range(300):
        c = random_constraint(rng, ["x", "y"], constants, max_depth=6)
        assert parse_constraint(str(c)) == c
        node = parse_type(f"!a({c}).end")
        assert parse_type(format_type(node)) == node


def _height(c):
    if isinstance(c, Not):
        return 1 + _height(c.inner)
    if isinstance(c, (And, Or)):
        return 1 + max(_height(c.left), _height(c.right))
    return 1


def test_constraints_at_the_limit_round_trip():
    # a guard of height MAX_NESTING - 1 under one type level is accepted,
    # prints to text that parses, and one level more is rejected
    rng = random.Random(71)
    for _ in range(60):
        c = random_constraint(rng, ["x", "y"], max_depth=0)
        while _height(c) < MAX_NESTING - 1:
            atom = random_constraint(rng, ["x", "y"], max_depth=0)
            if _height(atom) > _height(c):
                continue
            c = rng.choice([Not(c), And(c, atom), And(atom, c),
                            Or(c, atom), Or(atom, c)])
        node = parse_type(f"!a({c}).end")
        assert node.options[0].guard == c
        assert parse_type(format_type(node)) == node
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_type(f"!a({Not(c)}).end")


def test_exponential_dnf_guard_is_decided(capsys, tmp_path):
    # 2^25 DNF conjuncts, all empty: the entry constraint is unsatisfiable
    guard = " and ".join(f"(x={k} or x-y={k})" for k in range(1, 26))
    spec = tmp_path / "dnf.toast"
    spec.write_text(f"type S = !a({guard}).end\n")
    code, out, _ = run_cli(capsys, "check", str(spec), "S")
    assert code == 1
    assert "S: ill-formed" in out
    assert "initial valuation outside entry constraint" in out


def test_unknown_name_exits_2(capsys):
    code, _, _ = run_cli(capsys, "check", fx("junk.toast"), "Nope")
    assert code == 2


def test_dual_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dual", fx("pingpong.toast"), "PingPong")
    assert code == 0
    from timedsessions.parser import parse_type
    from timedsessions.sessiontypes import dual, format_type

    printed = out.strip()
    reparsed = parse_type(printed)
    assert format_type(reparsed) == printed
    original = parse_type("rec t . { ?ping(x<=3,{x}).t , !pong(x>3,{x}).t }")
    assert reparsed == dual(original)


def test_dual_end(capsys):
    code, out, _ = run_cli(capsys, "dual", fx("end_only.toast"), "Done")
    assert code == 0 and out.strip() == "end"


def test_progress_throttle2_ok(capsys):
    code, out, _ = run_cli(capsys, "progress", fx("throttling.toast"),
                           "throttle2")
    assert code == 0 and "ok" in out


def test_progress_unsafe_counterexample(capsys):
    code, out, _ = run_cli(capsys, "progress", fx("unsafe_mixed.toast"),
                           "unsafe")
    assert code == 1
    assert "comm-l" in out and "comm-r" in out


def test_progress_end_end(capsys):
    code, _, _ = run_cli(capsys, "progress", fx("end_only.toast"), "finished")
    assert code == 0


def test_progress_bound_exit_code(capsys):
    code, _, _ = run_cli(capsys, "progress", fx("unbounded_send.toast"),
                         "flood")
    assert code == 3


def test_compat_dual_pair(capsys):
    code, out, _ = run_cli(capsys, "compat", fx("weak_persistency.toast"),
                           "weak")
    assert code == 0 and "compatible" in out


def test_run_mixed_pingpong_completes(capsys):
    code, out, _ = run_cli(capsys, "run", fx("mixed_pingpong.toast"), "Main",
                           "--delays", "1,1,1,5,5")
    assert code == 0
    assert "status: completed" in out


def test_run_deadline_err(capsys):
    code, out, _ = run_cli(capsys, "run", fx("deadline_err.toast"), "Deadline")
    assert code == 1
    assert "status: error" in out


def test_simulate_prints_trace(capsys):
    code, out, _ = run_cli(capsys, "simulate", fx("weak_persistency.toast"),
                           "weak", "--trace-len", "6")
    assert code == 0
    assert "||" in out


def test_simulate_bound_exceeded(capsys):
    code, out, _ = run_cli(capsys, "simulate", fx("unbounded_send.toast"),
                           "flood", "--trace-len", "200", "--seed", "1")
    assert code == 3
    assert "bound-exceeded" in out


def test_json_envelopes_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "progress", fx("throttling.toast"),
                               "throttle2", "--json")
        assert code == 0
        envelope = json.loads(out)
        envelope.pop("timing")
        outs.append(json.dumps(envelope, sort_keys=True))
    assert outs[0] == outs[1]
    envelope = json.loads(out)
    assert envelope["command"] == "progress"
    assert envelope["verdict"] == "ok"
    assert "input" in envelope


def test_json_run_envelope(capsys):
    code, out, _ = run_cli(capsys, "run", fx("parametric_timeout.toast"),
                           "Parametric", "--json", "--seed", "3")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["diagnostics"]["elapsed"] == "3"
