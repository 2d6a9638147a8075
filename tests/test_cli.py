"""Command-line interface: verdicts, exit codes, and report envelopes."""

import errno
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import random_constraint
from timedsessions.cli import main
from timedsessions.constraints import And, Not, Or
from timedsessions.errors import ParseError
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
    ("check", "type T = !a(" + "(" * 3000 + "x>1" + ")" * 3000 + ").end"),
    ("run", "process T = " + "set(x)." * 3000 + "end"),
], ids=["negations", "parentheses", "timer-sets"])
def test_deep_nesting_exits_2(capsys, tmp_path, command, source):
    deep = tmp_path / "deep.toast"
    deep.write_text(source)
    code, _, err = run_cli(capsys, command, str(deep), "T")
    assert code == 2
    assert f"nesting deeper than {MAX_NESTING} levels" in err


def test_wide_flat_guards_parse(capsys, tmp_path):
    # a flat chain builds a balanced tree, so its width is not nesting
    flat = " and ".join(["x>1"] * 3000)
    clocks = [f"c{i}" for i in range(48)]
    wide = " and ".join(f"({clock}<1 or {clock}>2)" for clock in clocks)
    spec = tmp_path / "wide.toast"
    spec.write_text(f"clocks x, {', '.join(clocks)};\n"
                    f"type Flat = !a({flat}).end\ntype Wide = !a({wide}).end\n")
    code, out, _ = run_cli(capsys, "check", str(spec), "Flat")
    assert (code, out) == (0, "Flat: well-formed\n")
    node = parse_type(f"!a({flat}).end")
    assert parse_type(format_type(node)) == node
    # 2^48 zones: the guard ends at the zone limit, not at the parser
    code, out, _ = run_cli(capsys, "check", str(spec), "Wide")
    assert code == 3 and out.startswith("Wide: bound-exceeded\n")


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


def test_simulate_protocol_error_and_stuck(capsys, tmp_path):
    spec = tmp_path / "ends.toast"
    spec.write_text("clocks x;\n"
                    "type Nat1 = !a<Nat>.end\ntype Bool1 = ?a<Bool>.end\n"
                    "type Now = !a.end\ntype Later = ?a(x>0).end\n"
                    "system mismatch = Nat1 | Bool1\n"
                    "system urgent = Now | Later\n")
    code, out, _ = run_cli(capsys, "simulate", str(spec), "mismatch")
    assert code == 1
    reason = "unspecified reception: 'a' carries Nat, type expects Bool"
    assert out.endswith(f"  {reason}\nverdict: protocol-error\n")
    code, out, _ = run_cli(capsys, "simulate", str(spec), "mismatch",
                           "--json")
    envelope = json.loads(out)
    assert code == 1 and envelope["verdict"] == "protocol-error"
    assert envelope["diagnostics"]["reason"] == reason
    # once a is queued at x=0, urgency blocks every wait: x>0 would make it
    # receivable at every positive instant
    for seed in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, "simulate", str(spec), "urgent",
                               "--seed", seed)
        assert code == 1
        assert out == ("0 comm-l(a) (x=0 | end | []) || (x=0 | ?a(x>0) | [a])"
                       "\nverdict: stuck\n")


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


# Exact `progress` output on the fixture systems: verdict, states visited,
# reason and every trace line.  A change to exploration order, to state
# identity or to the state digests shows here.
PINNED_PROGRESS = [
    ("unsafe_mixed.toast", "unsafe", 1,
     "unsafe: counterexample (8 states)\n"
     "  reachable non-final state with no action after any admissible delay\n"
     "0 comm-l(b) (x=0 | end | []) || "
     "(x=0 | { !a((not (x>5) and not (x=5))) , ?b(x=0) } | [b])\n"
     "1 comm-r(a) (x=0 | end | [a]) || (x=0 | end | [b])\n"),
    ("weak_persistency.toast", "weak", 0, "weak: ok (12 states)\n"),
    ("end_only.toast", "finished", 0, "finished: ok (1 states)\n"),
    ("unbounded_send.toast", "flood", 3,
     "flood: bound-exceeded (9 states)\n  queue bound exceeded\n"),
    ("throttling.toast", "throttle2", 0, "throttle2: ok (31 states)\n"),
    ("mixed_pingpong.toast", "mpp", 0, "mpp: ok (35 states)\n"),
]


@pytest.mark.parametrize("fixture, system, code, text", PINNED_PROGRESS,
                         ids=[p[1] for p in PINNED_PROGRESS])
def test_progress_output_on_fixtures_is_pinned(capsys, fixture, system, code,
                                               text):
    assert run_cli(capsys, "progress", fx(fixture), system) == (code, text, "")


def test_simulate_digests_on_a_recursive_fixture_are_pinned(capsys):
    # every state digest prints the unfolded head of each side's type; the
    # output is long, so its sha256 is pinned
    code, out, _ = run_cli(capsys, "simulate", fx("throttling.toast"),
                           "throttle2", "--trace-len", "6", "--seed", "3")
    assert code == 0 and out.count("\n") == 7
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "495ab04fd214dda0804de1c833e600394d0779be4ab4dc213ff3beab9f483785")


def test_directory_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", str(tmp_path), "S")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_unreadable_file_exits_2(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run_cli(capsys, "check", fx("junk.toast"), "S")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Permission denied" in err


def test_non_utf8_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin1.toast"
    bad.write_bytes(b"type S = !caf\xe9.end\n")
    code, out, err = run_cli(capsys, "check", str(bad), "S")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err


def _error_envelope(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    envelope = json.loads(out)
    assert err == f"error: {envelope['diagnostics']['message']}\n"
    assert envelope["verdict"] == "error"
    assert envelope["command"] == argv[0]
    assert set(envelope) == {"command", "input", "verdict", "diagnostics",
                             "timing"}
    return envelope


def test_json_error_envelope_on_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.toast"
    bad.write_text("type Broken = rec a . a")
    envelope = _error_envelope(capsys, "check", str(bad), "Broken")
    assert envelope["input"] is not None
    assert envelope["diagnostics"] == {
        "message": "1:15: unguarded recursion rec 'a'"}


def test_json_error_envelope_on_unknown_type(capsys):
    envelope = _error_envelope(capsys, "dual", fx("junk.toast"), "Nope")
    assert envelope["diagnostics"] == {"message": "unknown type 'Nope'"}
    ok_code, ok_out, _ = run_cli(capsys, "dual", fx("junk.toast"), "S",
                                 "--json")
    assert ok_code == 0
    assert envelope["input"] == json.loads(ok_out)["input"]


def test_json_error_envelope_on_directory(capsys, tmp_path):
    envelope = _error_envelope(capsys, "progress", str(tmp_path), "sys")
    assert envelope["input"] is None
    assert "Is a directory" in envelope["diagnostics"]["message"]


@pytest.mark.parametrize("argv,command,message", [
    (["check"], "check",
     "the following arguments are required: file, type_name"),
    (["progress", fx("mixed_pingpong.toast"), "mpp", "--depth", "abc"],
     "progress", "argument --depth: invalid int value: 'abc'"),
    (["bogus"], None, "argument command: invalid choice: 'bogus'"),
    (["progress", fx("weak_persistency.toast"), "weak", "--horizon", "1"],
     "progress", "unrecognized arguments: --horizon 1"),
], ids=["missing-positional", "bad-int", "unknown-command", "horizon"])
def test_json_error_envelope_on_usage_error(capsys, argv, command, message):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    envelope = json.loads(out)
    assert set(envelope) == {"command", "input", "verdict", "diagnostics",
                             "timing"}
    assert envelope["verdict"] == "error"
    assert envelope["command"] == command
    assert envelope["input"] is None
    assert envelope["diagnostics"]["message"].startswith(message)
    # argparse's own usage text, as without --json
    assert err.startswith("usage: timedsessions")
    assert err.endswith(f"error: {envelope['diagnostics']['message']}\n")
    assert run_cli(capsys, *argv)[:2] == (2, "")


def test_help_exits_0_without_an_envelope(capsys):
    with_json = run_cli(capsys, "check", "--help", "--json")
    assert with_json[0] == 0
    assert with_json[1].startswith("usage: timedsessions check")
    assert '"verdict"' not in with_json[1]


@pytest.mark.parametrize("argv,message", [
    (["simulate", fx("throttling.toast"), "throttle2", "--trace-len", "-1"],
     "argument --trace-len: must be at least 0, got -1"),
    (["simulate", fx("throttling.toast"), "throttle2", "--queue", "0"],
     "argument --queue: must be at least 1, got 0"),
    (["progress", fx("throttling.toast"), "throttle2", "--queue", "0"],
     "argument --queue: must be at least 1, got 0"),
    (["progress", fx("throttling.toast"), "throttle2", "--depth", "0"],
     "argument --depth: must be at least 1, got 0"),
    (["progress", fx("throttling.toast"), "throttle2", "--states", "-3"],
     "argument --states: must be at least 1, got -3"),
    (["run", fx("mixed_pingpong.toast"), "Main", "--fuel", "-5"],
     "argument --fuel: must be at least 0, got -5"),
], ids=["trace-len", "simulate-queue", "progress-queue", "depth", "states",
        "fuel"])
def test_out_of_range_counts_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: timedsessions {argv[0]}")
    assert err.endswith(f"error: {message}\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    envelope = json.loads(out)
    assert code == 2
    assert (envelope["command"], envelope["verdict"], envelope["input"],
            envelope["diagnostics"]) == (argv[0], "error", None,
                                         {"message": message})


def test_smallest_accepted_counts(capsys):
    code, out, _ = run_cli(capsys, "simulate", fx("throttling.toast"),
                           "throttle2", "--trace-len", "0")
    assert (code, out) == (0, "verdict: ok\n")
    code, out, _ = run_cli(capsys, "run", fx("mixed_pingpong.toast"), "Main",
                           "--fuel", "0")
    assert (code, out) == (3, "status: fuel-exhausted (fuel exhausted) "
                              "after 0 time units\n")
    code, out, _ = run_cli(capsys, "progress", fx("end_only.toast"),
                           "finished", "--depth", "1", "--queue", "1",
                           "--states", "1")
    assert (code, out) == (0, "finished: ok (1 states)\n")


def test_negative_scheduled_delay_is_an_error(capsys):
    code, out, _ = run_cli(capsys, "run", fx("mixed_pingpong.toast"), "Main",
                           "--delays=-1")
    assert code == 1
    assert out.endswith("status: error (scheduled delay -1 is negative) "
                        "after 0 time units\n")
    assert "det delay(-1)" not in out


@pytest.mark.parametrize("delays, message", [
    ("1_000", "1:2: expected end of input, found '_000'"),
    (".5", "1:1: expected a number"),
    ("1,1_000", "1:4: expected end of input, found '_000'"),
], ids=["underscore", "leading-point", "column-in-list"])
def test_delays_outside_the_number_grammar_are_parse_errors(capsys, delays,
                                                            message):
    argv = ("run", fx("mixed_pingpong.toast"), "Main", f"--delays={delays}")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert _error_envelope(capsys, *argv)["diagnostics"] == {
        "message": message}


def test_delays_read_numbers_as_the_dsl_does(capsys):
    _, out, _ = run_cli(capsys, "run", fx("mixed_pingpong.toast"), "Main",
                        "--delays", "1.5/2")
    assert "7 det delay(3/4) for" in out


@pytest.mark.parametrize("source, argv, position", [
    ("clocks x;\ntype T = !a(x<1/0).end", ("check", "T"), "2:17"),
    ("process P = delay(1/0).end", ("run", "P"), "1:21"),
    ("type S = ?a(x<1).end", ("check", "S", "--at", "x=1/0"), "1:5"),
], ids=["guard", "delay", "valuation"])
def test_zero_denominator_is_a_parse_error(capsys, tmp_path, source, argv,
                                           position):
    spec = tmp_path / "zero.toast"
    spec.write_text(source)
    argv = (argv[0], str(spec)) + argv[1:]
    message = f"{position}: zero denominator"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    envelope = _error_envelope(capsys, *argv)
    assert envelope["diagnostics"] == {"message": message}


def test_negative_clock_value_is_a_parse_error(capsys):
    argv = ("check", fx("weak_persistency.toast"), "S", "--at", "x=0,y=-1/2")
    code, out, err = run_cli(capsys, *argv)
    message = "1:7: clock 'y' cannot be negative"
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert _error_envelope(capsys, *argv)["diagnostics"] == {
        "message": message}
    code, _, _ = run_cli(capsys, "check", fx("weak_persistency.toast"), "S",
                         "--at", "x=0,y=-0")
    assert code == 0


@pytest.mark.parametrize("source, argv, position", [
    ("clocks x;\ntype T = !a(x<1/1.5).end", ("check", "T"), "2:17"),
    ("process P = delay(1/1.5).end", ("run", "P"), "1:21"),
    ("type S = ?a(x<1).end", ("check", "S", "--at", "x=1/1.5"), "1:5"),
], ids=["guard", "delay", "valuation"])
def test_decimal_denominator_is_a_parse_error(capsys, tmp_path, source, argv,
                                              position):
    spec = tmp_path / "decimal.toast"
    spec.write_text(source)
    argv = (argv[0], str(spec)) + argv[1:]
    message = f"{position}: denominator must be an integer"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    envelope = _error_envelope(capsys, *argv)
    assert envelope["diagnostics"] == {"message": message}


@pytest.mark.parametrize("source, message", [
    ('!a(x"<"1).end', """1:14: expected a comparison, found '"<"'"""),
    ('!a<"Nat">.end', "1:13: expected a payload sort (Nat, Bool, Str, None "
                      "or a delegation)"),
    ('!a(x<1")".end', """1:16: expected ')', found '")"'"""),
    ('rec t "." !a.t', """1:16: expected '.', found '"."'"""),
], ids=["relation", "sort", "closing", "rec-dot"])
def test_a_string_literal_is_no_symbol_or_sort(capsys, tmp_path, source,
                                               message):
    spec = tmp_path / "quoted.toast"
    spec.write_text(f"type T = {source}")
    code, out, err = run_cli(capsys, "check", str(spec), "T")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("at, message", [
    ("X=6", "--at: clock 'X' is not declared and S2 does not use it"),
    ("x=6,x=0", "1:5: clock 'x' given twice"),
], ids=["typo", "repeated"])
def test_check_at_rejects_unknown_and_repeated_clocks(capsys, at, message):
    argv = ("check", fx("junk.toast"), "S2", "--at", at)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert _error_envelope(capsys, *argv)["diagnostics"] == {
        "message": message}
    code, _, _ = run_cli(capsys, "check", fx("junk.toast"), "S2", "--at",
                         "x=6")
    assert code == 1


def test_check_at_accepts_declared_or_used_clocks(capsys, tmp_path):
    spec = tmp_path / "clocks.toast"
    spec.write_text("clocks x, z;\ntype S = ?a(x<1).end\n"
                    "type U = ?a(y<1).end")
    # declared but unused, used but undeclared, and an unknown clock at 0,
    # which means what leaving it out means
    for name, at in (("S", "z=1/2"), ("U", "y=1/2"), ("S", "x=0,y=0")):
        assert run_cli(capsys, "check", str(spec), name, "--at", at)[0] == 0
    code, _, err = run_cli(capsys, "check", str(spec), "S", "--at", "y=1/2")
    assert code == 2 and "'y' is not declared" in err


RATIONAL_SPEC = """\
clocks x, y;
type S = rec r . !a(x<1, {x}).?b(x<3/2, {x}).r
system s = S | dual of S
"""


def test_progress_on_rational_constants_is_pinned(capsys, tmp_path):
    # canonicalised at scale 2, the loop closes after 12 states
    spec = tmp_path / "rational.toast"
    spec.write_text(RATIONAL_SPEC)
    assert run_cli(capsys, "progress", str(spec), "s") == (
        0, "s: ok (12 states)\n", "")
    code, out, _ = run_cli(capsys, "progress", str(spec), "s", "--json")
    envelope = json.loads(out)
    assert (code, envelope["verdict"], envelope["diagnostics"]) == (
        0, "ok", {"states": 12, "reason": "", "trace": [],
                  "invariant_violations": []})


def readme_commands():
    """The ``timedsessions`` lines of the README's command-line block, with
    continued lines joined and comments dropped, as argument lists."""
    readme = (FIXTURES.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh\n")[1]
    block = block.split("```")[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("timedsessions ")]


def test_readme_commands_run(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) in (0, 1), argv


def test_valuation_end_of_input_error_names_it(capsys):
    argv = ("check", fx("weak_persistency.toast"), "S", "--at", "x=1_0")
    message = "1:4: expected end of input, found '_0'"
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert _error_envelope(capsys, *argv)["diagnostics"] == {
        "message": message}


def test_non_decimal_digit_is_a_positioned_parse_error(capsys, tmp_path):
    spec = tmp_path / "digit.toast"
    spec.write_text("type T = !a(x<²).end")
    argv = ("check", str(spec), "T")
    message = "1:15: unexpected character '²'"
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert _error_envelope(capsys, *argv)["diagnostics"] == {
        "message": message}


def test_a_clock_compared_with_itself_exits_2(capsys, tmp_path):
    # Read as a diagonal guard, this atom switched off region
    # canonicalisation: progress ended bound-exceeded after 3,735 states.
    spec = tmp_path / "self.toast"
    spec.write_text("clocks x;\ntype D = rec t . !a(x-x<1, {x}).?b(x<2).t\n"
                    "system d = D | dual of D\n")
    message = "2:21: clock 'x' compared with itself"
    for argv in (("check", str(spec), "D"), ("progress", str(spec), "d")):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        assert _error_envelope(capsys, *argv)["diagnostics"] == {
            "message": message}


def test_preflight_exit_codes_follow_the_verdict_table(capsys):
    import importlib.util

    from timedsessions.cli import EXIT_CODES

    path = FIXTURES.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert len(bench.PREFLIGHT) == 16
    for (command, fixture, *rest), want in bench.PREFLIGHT:
        code, out, _ = run_cli(capsys, command, fx(fixture), *rest, "--json")
        verdict = json.loads(out)["verdict"]
        assert code == want == EXIT_CODES.get(verdict, 1), (fixture, verdict)


MPP_SPEC = """clocks x;
type T = rec t . { ?ping(x<=3,{x}).{ !pong(x<=3,{x}).t , ?timeout(x>3).end }
                 , !pong(x>3,{x}).{ ?ping(x<=3,{x}).t , !timeout(x>3).end } }
system fwd = T | dual of T
system back = dual of T | T
"""


def test_a_system_may_take_the_dual_on_its_left(capsys, tmp_path):
    spec = tmp_path / "sides.toast"
    spec.write_text(MPP_SPEC)
    fwd = run_cli(capsys, "progress", str(spec), "fwd")
    back = run_cli(capsys, "progress", str(spec), "back")
    assert fwd == (0, "fwd: ok (35 states)\n", "")
    assert back == (0, "back: ok (35 states)\n", "")
    assert run_cli(capsys, "compat", str(spec), "back") == (
        0, "back: compatible (dual types and same clock valuations)\n", "")


def test_progress_monitor_prints_the_invariant_violations(capsys):
    code, out, _ = run_cli(capsys, "progress", fx("unsafe_mixed.toast"),
                           "unsafe", "--monitor")
    assert code == 1
    invariants = [line for line in out.splitlines()
                  if line.startswith("  invariant: ")]
    assert len(invariants) == 5
    assert invariants[0] == (
        "  invariant: send and receive both enabled on left at "
        "(x=0 | { ?a((not (x>5) and not (x=5))) , !b(x=0) } | []) || "
        "(x=0 | { !a((not (x>5) and not (x=5))) , ?b(x=0) } | [])")


def test_an_unsatisfiable_delay_ends_the_run_in_error(capsys, tmp_path):
    spec = tmp_path / "never.toast"
    spec.write_text("process P = new (p,q) { delay(z<0). end | end "
                    "| pq:[] | qp:[] }\n")
    detail = "unsatisfiable delay constraint (not (z>0) and not (z=0))"
    assert run_cli(capsys, "run", str(spec), "P") == (
        1, f"status: error ({detail}) after 0 time units\n", "")
    code, out, _ = run_cli(capsys, "run", str(spec), "P", "--json")
    envelope = json.loads(out)
    assert code == 1 and envelope["verdict"] == "error"
    assert envelope["diagnostics"] == {"status": "error", "detail": detail,
                                       "elapsed": "0", "trace": []}


def test_monitor_names_an_unspecified_reception(capsys, tmp_path):
    spec = tmp_path / "sorts.toast"
    spec.write_text("type A = !a<Nat>.end\ntype B = ?a<Bool>.end\n"
                    "system s = A | B\n")
    reason = "unspecified reception: 'a' carries Nat, type expects Bool"
    code, out, _ = run_cli(capsys, "progress", str(spec), "s", "--monitor")
    lines = out.splitlines()
    assert code == 1
    assert lines[:2] == ["s: counterexample (2 states)", f"  {reason}"]
    assert lines[-1] == (f"  invariant: incompatible state ({reason}) at "
                         "( | end | []) || ( | ?a<Bool> | [a<Nat>])")


@pytest.mark.parametrize("source, argv, message", [
    (MPP_SPEC, ("progress", "nosuch"), "unknown system 'nosuch'"),
    ("type T = end\nsystem s = T | Nope\n", ("check", "T"),
     "2:16: system 's' references unknown type 'Nope'"),
    ("type T = end\nsystem s = dual of Nope | T\n", ("check", "T"),
     "2:20: system 's' references unknown type 'Nope'"),
    ("type T = end\ntype T = end\n", ("check", "T"),
     "2:8: duplicate type name 'T'"),
    ("process P = pq:[]\n", ("run", "P"),
     "1:13: unexpected identifier 'pq' (a buffer only appears inside "
     "new (...) { ... })"),
    ("process P = new (p,q) { end | end | pq:[] | qr:[] }\n", ("run", "P"),
     "1:45: buffer 'qr' does not name a channel between 'p' and 'q'"),
    ("typo T = end\n", ("check", "T"),
     "1:1: expected clocks, type, process, or system"),
])
def test_spec_file_errors_exit_2(capsys, tmp_path, source, argv, message):
    spec = tmp_path / "bad.toast"
    spec.write_text(source)
    command, name = argv
    assert run_cli(capsys, command, str(spec), name) == (
        2, "", f"error: {message}\n")
    assert _error_envelope(capsys, command, str(spec), name)[
        "diagnostics"] == {"message": message}


def _cli_env() -> dict:
    """The environment of a CLI subprocess: the package on its path."""
    src = str(FIXTURES.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_a_closed_stdout_ends_with_the_verdicts_code(extra):
    # The run prints 10,001 trace lines (about 190 kB, more than a pipe
    # holds), so it is still writing when the reader closes the pipe, as
    # ``| head -1`` does.  The run keeps its verdict's exit code and prints
    # no traceback, at the write or at the flush on exit.
    proc = subprocess.Popen(
        [sys.executable, "-m", "timedsessions.cli", "run",
         fx("mixed_pingpong.toast"), "Main", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    first = proc.stdout.readline(80)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3  # fuel-exhausted
    assert first.startswith(b'{"command": "run"' if extra else b"1 ")
    assert err == b""


def test_an_empty_delay_schedule_is_a_parse_error(capsys):
    argv = ("run", fx("parametric_timeout.toast"), "Parametric", "--delays", "")
    assert run_cli(capsys, *argv) == (2, "", "error: 1:1: expected a number\n")
    assert _error_envelope(capsys, *argv)["diagnostics"] == {
        "message": "1:1: expected a number"}


class _Unwritable(io.TextIOBase):
    """A standard stream every write to which fails with ``error``; its
    descriptor is a scratch file's, which ``main`` may point at devnull."""

    def __init__(self, fd: int, error: OSError):
        self.fd, self.error = fd, error

    def write(self, text):
        raise self.error

    def fileno(self):
        return self.fd


def _full() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def scratch_fd(tmp_path):
    fd = os.open(tmp_path / "stream", os.O_WRONLY | os.O_CREAT)
    yield fd
    os.close(fd)


def _is_devnull(fd: int) -> bool:
    return os.path.samestat(os.fstat(fd), os.stat(os.devnull))


def test_a_missing_stdout_drops_the_output_and_keeps_the_code(
        capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["dual", fx("pingpong.toast"), "PingPong"]) == 0
    assert main(["check", fx("junk.toast"), "S", "--json"]) == 1
    assert capsys.readouterr().err == ""


def test_an_unwritable_stdout_is_a_write_error(capsys, monkeypatch,
                                               scratch_fd):
    monkeypatch.setattr(sys, "stdout", _Unwritable(scratch_fd, _full()))
    assert main(["dual", fx("pingpong.toast"), "PingPong"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")
    assert _is_devnull(scratch_fd)  # the flush at exit cannot fail now


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"],
                                  ["run", "-h", "--json"]],
                         ids=["top", "check", "run-json"])
def test_help_that_cannot_be_written_is_a_write_error(capsys, monkeypatch,
                                                      scratch_fd, argv):
    monkeypatch.setattr(sys, "stdout", _Unwritable(scratch_fd, _full()))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")
    assert _is_devnull(scratch_fd)
    monkeypatch.setattr(sys, "stdout", _Unwritable(
        scratch_fd, BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))))
    assert main(argv) == 0  # a reader that left keeps help's code
    assert capsys.readouterr().err == ""


def test_a_reader_that_left_keeps_the_verdicts_code(capsys, monkeypatch,
                                                    scratch_fd):
    monkeypatch.setattr(sys, "stdout", _Unwritable(
        scratch_fd, BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))))
    assert main(["check", fx("junk.toast"), "S"]) == 1
    assert capsys.readouterr().err == ""
    assert _is_devnull(scratch_fd)


@pytest.mark.parametrize("argv, code", [
    (("check", "/nonexistent", "S"), 2),
    (("check", "--bogus"), 2),
    (("check", fx("junk.toast"), "S"), 1),
], ids=["read-error", "usage-error", "verdict"])
@pytest.mark.parametrize("broken", ["missing", "full"])
def test_an_unwritable_stderr_never_changes_the_code(
        capsys, monkeypatch, scratch_fd, argv, code, broken):
    stderr = None if broken == "missing" else _Unwritable(scratch_fd, _full())
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(list(argv)) == code
    monkeypatch.setattr(sys, "stdout", _Unwritable(scratch_fd, _full()))
    assert main(["dual", fx("pingpong.toast"), "PingPong"]) == 2


def _cli_to(stdout, *argv, stderr=subprocess.PIPE, shell_redirect=""):
    """Run the CLI in a subprocess with the given stdout, or with stdout
    closed by ``>&-``; return its exit code and its stderr."""
    command = [sys.executable, "-m", "timedsessions.cli", *argv]
    if shell_redirect:
        command = ["sh", "-c", f'"$0" "$@" {shell_redirect}', *command]
    proc = subprocess.run(command, stdout=stdout, stderr=stderr,
                          env=_cli_env(), timeout=60)
    return proc.returncode, proc.stderr


def test_a_closed_stdout_descriptor_keeps_the_verdicts_code():
    code, err = _cli_to(None, "dual", fx("pingpong.toast"), "PingPong",
                        shell_redirect=">&-")
    assert (code, err) == (0, b"")  # no traceback
    code, err = _cli_to(None, "check", fx("junk.toast"), "S", "--json",
                        shell_redirect=">&-")
    assert (code, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="the system has no /dev/full")
def test_a_full_device_is_a_write_error_without_a_traceback():
    with open("/dev/full", "wb") as full:
        code, err = _cli_to(full, "dual", fx("pingpong.toast"), "PingPong")
        assert code == 2
        assert err == (b"error: cannot write output: "
                       b"[Errno 28] No space left on device\n")
        code, err = _cli_to(subprocess.PIPE, "check", "/nonexistent", "S",
                            stderr=full)
        assert (code, err) == (2, None)
        code, err = _cli_to(full, "check", fx("junk.toast"), "S",
                            stderr=full)
        assert (code, err) == (2, None)  # the write error, which is not said


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="the system has no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]],
                         ids=["top", "check"])
def test_help_to_a_full_device_is_a_write_error(argv):
    with open("/dev/full", "wb") as full:
        assert _cli_to(full, *argv) == (
            2, b"error: cannot write output: "
               b"[Errno 28] No space left on device\n")
