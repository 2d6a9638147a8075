"""The output of every system command on every fixture system, pinned.

`compat`, `progress --monitor` and seeded `simulate` walks run on each
system that a spec file in ``fixtures/`` declares, plain and under
``--json`` (with its ``timing`` field dropped, the one field that is not
deterministic).  The sha256 of every command line with its exit code,
stdout and stderr is compared with a digest taken when `simulate` began
to end a walk on the first state that `check_progress` calls stuck (the
digest before held every other line alike), so any change in their
verdicts, reasons, invariant messages, walks or rendered states shows
here.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from timedsessions.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PINNED = "2ef9c4f400f23717eba92c38a3dafed8e3c401e38b7cb9ad2898591f51b239f8"

WALKS = [(seed, length) for seed in range(4) for length in (7, 30)]


def _systems():
    for path in sorted(FIXTURES.glob("*.toast")):
        for name in re.findall(r"^system\s+(\w+)", path.read_text(), re.M):
            yield str(path), name


def _commands():
    for path, name in _systems():
        for json_flag in ([], ["--json"]):
            yield ["compat", path, name, *json_flag]
            yield ["progress", path, name, "--monitor", *json_flag]
            yield ["progress", path, name, "--monitor", "--queue", "1",
                   *json_flag]
        for seed, length in WALKS:
            walk = ["simulate", path, name, "--seed", str(seed),
                    "--trace-len", str(length)]
            yield walk
            yield [*walk, "--queue", "1"]
        yield ["simulate", path, name, "--seed", "5", "--trace-len", "12",
               "--json"]


def _untimed(stdout: str, argv) -> str:
    if "--json" not in argv:
        return stdout
    envelope = json.loads(stdout)
    del envelope["timing"]
    return json.dumps(envelope, sort_keys=True)


def test_system_commands_on_every_fixture_system_are_pinned():
    lines = []
    for argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        name = Path(argv[1]).name
        lines.append(repr((argv[0], name, *argv[2:], code,
                           _untimed(out.getvalue(), argv), err.getvalue())))
    assert len(lines) == 8 * 23
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED
