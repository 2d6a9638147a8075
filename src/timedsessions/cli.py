"""Command-line front end over spec files.

Subcommands: check (well-formedness), dual (direction flip), progress
(bounded verification), compat (system compatibility), run (process
interpreter), simulate (system walk).  Exit codes: 0 pass, 1 property
violation or counterexample, 2 usage, parse or write error, 3 bound
exceeded.  A command imports the interpreter, the explorer, ``random``,
``hashlib`` or ``json`` only when it uses one.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache
from pathlib import Path
from typing import Optional

from .constraints import format_rational
from .errors import ParseError, ProtocolError, SpecError, ZoneLimitExceeded
from .parser import parse_rationals, parse_spec_file, parse_valuation
from .sessiontypes import check_well_formed, dual, format_type, type_clocks

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

# The exit code of each verdict that is not a violation.
EXIT_CODES = {"well-formed": EXIT_PASS, "ok": EXIT_PASS,
              "compatible": EXIT_PASS, "completed": EXIT_PASS,
              "bound-exceeded": EXIT_BOUND, "fuel-exhausted": EXIT_BOUND}


def _named(spec, kind: str, name: str):
    """The type or process the command names, or its system as a System."""
    if kind == "system":
        from .semantics import make_system

        return make_system(*spec.resolve_system(name), spec.clocks)
    table = spec.types if kind == "type" else spec.processes
    if name not in table:
        raise ParseError(f"unknown {kind} {name!r}")
    return table[name]


def _sys_action_json(action) -> dict:
    out = {"action": action.kind}
    if action.t is not None:
        out["t"] = format_rational(action.t)
    if action.message is not None:
        out["label"] = action.message.label
        out["dir"] = "!" if action.kind.startswith("comm") else "?"
    return out


# Each command takes the parsed arguments, the spec and what its name
# argument names, and returns (verdict, diagnostics, text lines).

def cmd_check(args, spec, node):
    nu = parse_valuation(args.at) if args.at else None
    known = set(spec.clocks) | type_clocks(node)  # others at 0 are as if unset
    unknown = sorted(c for c, v in (nu or {}).items() if v and c not in known)
    if unknown:
        raise SpecError(f"--at: clock {unknown[0]!r} is not declared and "
                        f"{args.name} does not use it")
    report = check_well_formed(node, nu, clocks=spec.clocks)
    diags = [{"path": list(v.path), "condition": v.condition,
              "witness": v.witness} for v in report.violations]
    verdict = "well-formed" if report.verdict else "ill-formed"
    lines = [f"{args.name}: {verdict}"]
    for v in report.violations:
        lines.append(f"  {v.condition} at [{' '.join(v.path) or 'root'}]: "
                     f"{v.witness}")
    return verdict, diags, lines


def cmd_dual(args, spec, node):
    text = format_type(dual(node))
    return "ok", {"type": text}, [text]


def cmd_progress(args, spec, system):
    from .semantics import ExploreLimits, check_progress

    report = check_progress(system, ExploreLimits(
        max_depth=args.depth, max_queue=args.queue, max_states=args.states),
        monitor=args.monitor)
    trace = [dict(_sys_action_json(action), state=state)
             for action, state in report.trace]
    diags = {"states": report.states_visited, "reason": report.reason,
             "trace": trace,
             "invariant_violations": report.invariant_violations}
    lines = [f"{args.name}: {report.verdict} "
             f"({report.states_visited} states)"]
    if report.reason:
        lines.append(f"  {report.reason}")
    for depth, (action, state) in enumerate(report.trace):
        lines.append(f"{depth} {action} {state}")
    for violation in report.invariant_violations:
        lines.append(f"  invariant: {violation}")
    return report.verdict, diags, lines


def cmd_compat(args, spec, system):
    from .semantics import compatible

    ok, why = compatible(system)
    verdict = "compatible" if ok else "incompatible"
    return verdict, {"explanation": why}, [f"{args.name}: {verdict} ({why})"]


def cmd_run(args, spec, node):
    from .processes import RunPolicy, run

    schedule = None if args.delays is None else parse_rationals(args.delays)
    policy = RunPolicy(seed=args.seed, fuel=args.fuel,
                       delay_resolution=schedule)
    result = run(node, policy)
    diags = {"status": result.status, "detail": result.detail,
             "elapsed": format_rational(result.elapsed),
             "trace": result.trace}
    lines = list(result.trace)
    lines.append(f"status: {result.status} ({result.detail}) after "
                 f"{format_rational(result.elapsed)} time units")
    return result.status, diags, lines


def cmd_simulate(args, spec, system):
    from random import Random

    from .semantics import _action, _stepper, render_key

    space, state, horizon = _stepper(system)
    rng = Random(args.seed)
    lines, trace, verdict = [], [], "ok"
    for depth in range(args.trace_len):
        try:
            steps = space.successors(state, space.at_d(horizon))
        except ProtocolError as exc:
            verdict = "protocol-error"
            lines.append(f"  {exc}")
            break
        if not steps:
            if not space.is_final(state):
                verdict = "stuck"
            break
        action, state = rng.choice(steps)
        if len(state[3]) > args.queue or len(state[6]) > args.queue:
            verdict = "bound-exceeded"
            break
        action, digest = _action(action), render_key(state, space.clocks)
        lines.append(f"{depth} {action} {digest}")
        trace.append(dict(_sys_action_json(action), state=digest))
    lines.append(f"verdict: {verdict}")
    return verdict, {"trace": trace}, lines


def _write(stream, lines) -> Optional[OSError]:
    """Write lines to a standard stream unless it is closed (None).  A write
    that fails returns its error and points the stream at devnull, so that
    the flush at exit cannot fail too and make the exit code 120."""
    try:
        if stream is not None:
            stream.write("".join(f"{line}\n" for line in lines))
            stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


class _UsageError(Exception):
    """A command line that argparse rejected; its usage text is already on
    stderr."""


class _Help(Exception):
    """The help text a command line asked for, which ``main`` writes as
    its output."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors and help reach ``main``, so
    that under ``--json`` a usage error produces an envelope too, and help
    is written as any output is, with its write errors reported.  The
    stderr text of a usage error is argparse's."""

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message):
        self.print_usage(sys.stderr)
        _write(sys.stderr, [f"{self.prog}: error: {message}"])
        raise _UsageError(message)


def _int_at_least(minimum: int):
    """An argparse type: an int no smaller than minimum.  A value below it
    is a usage error, like a value that is not an int at all."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


# Built on the first call and reused, so a process that calls ``main``
# many times (the benchmark's preflight, the fuzz gate) builds it once.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="timedsessions",
        description="Verify and simulate timed session types with safe "
                    "mixed-choice")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, kind, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("file")
        p.add_argument("name", metavar=f"{kind}_name")
        p.set_defaults(func=func, kind=kind)
        return p

    p = command("check", "type", cmd_check, "decide well-formedness of a type")
    p.add_argument("--at", help="initial valuation, e.g. x=0,y=1/2")

    command("dual", "type", cmd_dual, "print the dual of a type")

    p = command("progress", "system", cmd_progress,
                "bounded progress verification")
    p.add_argument("--depth", type=_int_at_least(1), default=64)
    p.add_argument("--queue", type=_int_at_least(1), default=8)
    p.add_argument("--states", type=_int_at_least(1), default=100000)
    p.add_argument("--monitor", action="store_true",
                   help="assert the run-time invariants at every state")

    command("compat", "system", cmd_compat, "decide system compatibility")

    p = command("run", "process", cmd_run, "interpret a process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=_int_at_least(0), default=10000)
    p.add_argument("--delays",
                   help="comma-separated durations resolving delay(c) "
                        "constraints in order")

    p = command("simulate", "system", cmd_simulate,
                "random walk over system steps")
    p.add_argument("--trace-len", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queue", type=_int_at_least(1), default=8)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report envelope")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse names the subcommand in args before it parses the
    # subcommand's own arguments, so a usage error can name it.
    args, source = argparse.Namespace(), None
    started = time.monotonic()
    try:
        build_parser().parse_args(argv, args)
        source = Path(args.file).read_text(encoding="utf-8")
        spec = parse_spec_file(source)
        verdict, diagnostics, lines = args.func(
            args, spec, _named(spec, args.kind, args.name))
        code = EXIT_CODES.get(verdict, EXIT_VIOLATION)
    except _Help as exc:  # the help text, without an envelope
        args.json, lines, code = False, str(exc).splitlines(), EXIT_PASS
    except _UsageError as exc:
        args.json = "--json" in argv
        verdict, diagnostics, lines = "error", {"message": str(exc)}, []
        code = EXIT_USAGE
    except (ParseError, SpecError, OSError, ValueError) as exc:
        _write(sys.stderr, [f"error: {exc}"])
        verdict, diagnostics, lines = "error", {"message": str(exc)}, []
        code = EXIT_USAGE
    except ZoneLimitExceeded as exc:
        verdict, diagnostics = "bound-exceeded", {"message": str(exc)}
        lines, code = [f"{args.name}: {verdict}", f"  {exc}"], EXIT_BOUND
    if args.json:
        import hashlib
        import json
        digest = None if source is None else hashlib.sha256(
            source.encode("utf-8")).hexdigest()[:16]
        lines = [json.dumps({"command": getattr(args, "command", None),
                             "input": digest, "verdict": verdict,
                             "diagnostics": diagnostics,
                             "timing": round(time.monotonic() - started, 6)},
                            sort_keys=True)]
    # Output that cannot be written is dropped.  A reader that left early
    # (``| head``) keeps the verdict's code; a full disk is an error.
    failed = _write(sys.stdout, lines)
    if failed is not None and not isinstance(failed, BrokenPipeError):
        _write(sys.stderr, [f"error: cannot write output: {failed}"])
        code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
