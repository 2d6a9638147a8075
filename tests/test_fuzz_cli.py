"""The CLI is total on mutated inputs: a seeded fuzz gate.

The inputs are seeded:

* the fixtures with one to four token edits (a token deleted, repeated,
  swapped with the next, or, most often, replaced by another token of the
  same kind: a number, a word, a comparison or another symbol), half of
  them on numbers and comparisons;
* wide guards over n clocks, n = 12, 16 and 20: n negated equalities
  ``not (ci=1)``, and n disjunctions ``(ci<1 or ci>2)``, which denote 2^n
  zones and must stop at the zone limit;
* systems whose delegation payloads hold guards the system never runs;
* printed ``random_type`` types with one guard replaced by a random
  constraint with rational constants and diagonal atoms.

One child process runs them all, under an address-space limit of 2 GB
set for itself only and an alarm of 5 s per input.  For every declared
name (or, where the input does not parse, every name it appears to
declare) it runs ``cli.main`` with ``--json`` and each command that takes
the name's kind, with small bounds.  Each run must exit 0 to 3, print
exactly one JSON envelope line, and raise nothing; each parsed type and
process must print and parse back to itself.

Run as a script, this file is that child: ``python tests/test_fuzz_cli.py
DIRECTORY`` fuzzes every ``*.toast`` file of DIRECTORY and prints one JSON
report line per input.
"""

import contextlib
import io
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from helpers import options_with_payloads, random_constraint
from test_payload_guards import SPEC as PAYLOAD_SPEC
from timedsessions import cli
from timedsessions.errors import ParseError
from timedsessions.generate import random_type
from timedsessions.parser import parse_process, parse_spec_file, parse_type
from timedsessions.processes import format_process
from timedsessions.sessiontypes import Choice, ChoiceOption, Rec, format_type

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
MUTANTS = 400
RANDOM_TYPES = 30
WIDTHS = (12, 16, 20)
MEMORY_BYTES = 2 * 1024 ** 3
ALARM_S = 5
BUDGET_S = 10.0
MIN_RUNS = 2000

COMMANDS = {
    "type": (["check"], ["dual"]),
    "system": (["progress", "--depth", "20", "--states", "2000"], ["compat"],
               ["simulate"]),
    "process": (["run", "--fuel", "200"],),
}
ENVELOPE = {"command", "input", "verdict", "diagnostics", "timing"}
DECLARED = re.compile(r"^\s*(type|system|process)\s+(\w+)", re.MULTILINE)

# ---------------------------------------------------------------------------
# The inputs, built in the test process
# ---------------------------------------------------------------------------

TOKEN = re.compile(r"//[^\n]*|\d+(?:/\d+)?|\w+|[<>]=?|\S")
# tokens a replacement may also draw, by kind
EXTRA = {"number": ["0", "1/3", "7/2", "99999"],
         "word": ["x", "y", "end", "rec", "dual", "of", "true"],
         "comparison": ["<", "<=", ">", ">=", "="],
         "symbol": ["-", "(", ")", "{", "}", ",", ".", "|"]}


def token_kind(token: str) -> str:
    if token[0].isdigit():
        return "number"
    if token[0].isalpha() or token[0] == "_":
        return "word"
    return "comparison" if token in EXTRA["comparison"] else "symbol"


def mutate(text: str, rng: random.Random) -> str:
    """text with one to four token edits, comments left alone.  Half the
    edits replace a number or a comparison by one of its kind, which keeps
    the text parsing; the others hit any token."""
    spans = [match.span() for match in TOKEN.finditer(text)
             if not match.group().startswith("//")]
    pieces, last = [], 0
    for start, end in spans:  # alternate gaps and tokens
        pieces += [text[last:start], text[start:end]]
        last = end
    pieces.append(text[last:])
    guards = [2 * k + 1 for k, (start, end) in enumerate(spans)
              if token_kind(text[start:end]) in ("number", "comparison")]
    for _ in range(rng.randint(1, 4)):
        if guards and rng.random() < 0.5:
            i, edit = rng.choice(guards), 1.0
        else:
            i, edit = 2 * rng.randrange(len(spans)) + 1, rng.random()
        token = pieces[i]
        if edit < 0.1:
            pieces[i] = ""
        elif edit < 0.2:
            pieces[i] = token + " " + token
        elif edit < 0.3 and i + 2 < len(pieces):
            pieces[i], pieces[i + 2] = pieces[i + 2], token
        elif token:  # not deleted by an earlier edit
            kind = token_kind(token)
            pieces[i] = rng.choice(EXTRA[kind] + [
                text[start:end] for start, end in spans
                if token_kind(text[start:end]) == kind])
    return "".join(pieces)


def wide_probe(part: str, n: int) -> str:
    clocks = [f"c{i}" for i in range(n)]
    guard = " and ".join(part.format(clock) for clock in clocks)
    return (f"clocks {', '.join(clocks)};\ntype T = !a({guard}).end\n"
            "system s = T | dual of T\n")


DELEGATIONS = PAYLOAD_SPEC + """type W = !a<(z<1, ?b(z-w>7/2).end)>(x<2).end
system w = W | dual of W
"""


def with_guard(node, target: int, guard, seen=None):
    """node with the guard of its target-th option, in preorder, replaced."""
    seen = [0] if seen is None else seen
    if isinstance(node, Rec):
        return Rec(node.var, with_guard(node.body, target, guard, seen))
    if not isinstance(node, Choice):
        return node
    options = []
    for opt in node.options:
        here = seen[0] == target
        seen[0] += 1
        options.append(ChoiceOption(
            opt.direction, opt.label, opt.payload,
            guard if here else opt.guard, opt.resets,
            with_guard(opt.continuation, target, guard, seen)))
    return Choice(tuple(options))


def random_type_mutants(rng: random.Random, count: int):
    """count specs of a printed ``random_type`` type S, one of whose guards
    is a random constraint over sixths (so thirds and halves) that may
    compare x and y, and of the system S | dual of S."""
    sixths = [Fraction(k, 6) for k in range(19)]
    for _ in range(count):
        options = 0
        while not options:  # end has no guard to replace
            node = random_type(rng)
            options = len(list(options_with_payloads(node)))
        target = rng.randrange(options)
        guard = random_constraint(rng, ("x", "y"), sixths, max_depth=2)
        printed = format_type(with_guard(node, target, guard))
        yield (f"clocks x, y;\ntype S = {printed}\n"
               "system s = S | dual of S\n")


def inputs():
    """(file name, text) of every seeded input."""
    rng = random.Random(SEED)
    fixtures = sorted((ROOT / "fixtures").glob("*.toast"))
    for k in range(MUTANTS):
        path = fixtures[k % len(fixtures)]
        yield f"mutant{k:03d}-{path.name}", mutate(path.read_text(), rng)
    for n in WIDTHS:
        yield f"negated{n}.toast", wide_probe("not ({}=1)", n)
        yield f"disjoined{n}.toast", wide_probe("({0}<1 or {0}>2)", n)
    yield "delegations.toast", DELEGATIONS
    for k, text in enumerate(random_type_mutants(rng, RANDOM_TYPES)):
        yield f"random{k:03d}.toast", text


# ---------------------------------------------------------------------------
# The child: every command on every input
# ---------------------------------------------------------------------------


class Alarm(BaseException):
    """An input ran past its alarm; no ``except Exception`` catches it."""


def on_alarm(signum, frame):
    raise Alarm(f"no answer within {ALARM_S} s")


def prints_back(parse, print_, node) -> bool:
    try:
        return parse(print_(node)) == node
    except ParseError:
        return False


def round_trip_failures(spec) -> list:
    return [f"{name} does not print back to itself"
            for table, parse, print_ in (
                (spec.types, parse_type, format_type),
                (spec.processes, parse_process, format_process))
            for name, node in table.items()
            if not prints_back(parse, print_, node)]


def is_envelope(output: str, command: str) -> bool:
    """Whether output is exactly one JSON envelope line of command."""
    lines = output.splitlines()
    try:
        envelope = json.loads(lines[0]) if len(lines) == 1 else None
    except ValueError:
        return False
    return (isinstance(envelope, dict) and set(envelope) == ENVELOPE
            and envelope["command"] == command)


def fuzz_input(path: Path) -> tuple:
    """(runs, failures) of every command on every name of one input."""
    text = path.read_text()
    try:
        spec = parse_spec_file(text)
    except ParseError:
        names = DECLARED.findall(text)
        failures = []
    else:
        names = [(kind, name) for kind, table in (
            ("type", spec.types), ("system", spec.systems),
            ("process", spec.processes)) for name in table]
        failures = round_trip_failures(spec)
    runs = 0
    for kind, name in names:
        for command in COMMANDS[kind]:
            argv = [command[0], str(path), name, *command[1:], "--json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
            runs += 1
            if code not in (0, 1, 2, 3) or not is_envelope(out.getvalue(),
                                                           command[0]):
                failures.append(f"{' '.join(argv[:3])}: exit {code}, "
                                f"output {out.getvalue()[:200]!r}")
    return runs, failures


def child(directory: str) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    signal.signal(signal.SIGALRM, on_alarm)
    for path in sorted(Path(directory).glob("*.toast")):
        signal.alarm(ALARM_S)
        try:
            runs, failures = fuzz_input(path)
        except (Alarm, Exception) as exc:  # MemoryError included
            runs, failures = 0, [f"{type(exc).__name__}: {exc}"]
        finally:
            signal.alarm(0)
        print(json.dumps({"input": path.name, "runs": runs,
                          "failures": failures}), flush=True)


def test_every_command_is_total_on_seeded_mutants(tmp_path):
    written = 0
    for name, text in inputs():
        (tmp_path / name).write_text(text)
        written += 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    done = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr[-2000:]
    reports = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(reports) == written
    assert [(report["input"], failure) for report in reports
            for failure in report["failures"]] == []
    runs = sum(report["runs"] for report in reports)
    assert runs >= MIN_RUNS
    assert elapsed < BUDGET_S, (runs, elapsed)


if __name__ == "__main__":
    child(sys.argv[1])
