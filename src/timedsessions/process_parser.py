"""The process grammar, read over the token plumbing of ``parser``.

``parser`` imports this module only when it reads a process, so callers
that parse only constraints, types and process-free spec files compile
no process code.  Each rule is a function of one ``_Parser``, which reads
a spec file's types and processes alike.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Optional

from .constraints import clocks_of
from .errors import ParseError
from .parser import _KEYWORDS, Token, _check_unique_labels, _nesting, _Parser
from .processes import (Branch, Buffer, Call, Def, DelayConstraint, DelayExact,
                        IfTimer, LinearExpr, Name, P_END, P_ERR, Par, ProcNode,
                        ReceiveAfter, Scope, Send, SetTimer, UNIT, children)


def parse_timeout_expr(p: _Parser) -> Optional[LinearExpr]:
    """None encodes an infinite timeout."""
    const = Fraction(0)
    coeffs: Dict[str, int] = {}
    infinite = False
    sign = 1
    while True:
        if p.at("inf"):
            if sign < 0:
                raise p.error("cannot subtract inf in a timeout")
            p.advance()
            infinite = True
        elif p.at_number():
            value = p.parse_number()
            if p.accept("*"):
                name = p.name("timer name")
                if value.denominator != 1:
                    raise p.error("timer coefficients must be integers")
                coeffs[name] = coeffs.get(name, 0) + sign * int(value)
            else:
                const += sign * value
        elif p.peek().kind == "id" and p.peek().text not in _KEYWORDS:
            name = p.advance().text
            coeffs[name] = coeffs.get(name, 0) + sign
        else:
            raise p.error("expected a timeout term")
        if p.accept("+"):
            sign = 1
        elif p.accept("-"):
            sign = -1
        else:
            break
    if infinite:
        return None
    if const < 0 and not coeffs:
        raise p.error("constant timeouts must be nonnegative")
    coeff_items = tuple(sorted((k, v) for k, v in coeffs.items() if v))
    return LinearExpr(const, coeff_items)


def parse_program(p: _Parser) -> ProcNode:
    """A whole process, checked as _check_program says."""
    start = p.peek()
    node = parse_process(p)
    _check_program(node, start)
    return node


def parse_process(p: _Parser) -> ProcNode:
    parts = p.separated(lambda: parse_process_seq(p), "|")
    return parts[0] if len(parts) == 1 else Par(tuple(parts))


@_nesting
def parse_process_seq(p: _Parser) -> ProcNode:
    tok = p.peek()
    if p.accept("end"):
        return P_END
    if p.accept("err"):
        return P_ERR
    if p.accept("set"):
        p.expect("(")
        timer = p.name("timer name")
        p.expect(")")
        p.expect(".")
        return SetTimer(timer, parse_process_seq(p))
    if p.accept("to"):
        endpoint = p.name("endpoint")
        p.expect("!")
        label = p.name("label")
        value = parse_payload(p)
        p.expect(".")
        return Send(endpoint, label, value, parse_process_seq(p))
    if p.accept("from"):
        endpoint = p.name("endpoint")
        p.expect("recv")
        branches = p.braced(lambda: parse_branch(p))
        _check_unique_labels(branches, "duplicate receive label {!r}", tok)
        after = None
        timeout = None
        if p.accept("after"):
            after = parse_timeout_expr(p)
            p.expect("{")
            timeout = parse_process(p)
            p.expect("}")
            if after is None:
                timeout = None  # an explicit inf never fires
        return ReceiveAfter(endpoint, tuple(branches), after, timeout)
    if p.accept("if"):
        p.expect("(")
        cond = p.parse_constraint()
        p.expect(")")
        p.expect("then")
        then_branch = parse_block(p)
        p.expect("else")
        else_branch = parse_block(p)
        return IfTimer(cond, then_branch, else_branch)
    if p.accept("delay"):
        p.expect("(")
        if p.at_number():
            duration = p.parse_number()
            if duration < 0:
                raise p.error("delays must be nonnegative")
            p.expect(")")
            p.expect(".")
            return DelayExact(duration, parse_process_seq(p))
        cond = p.parse_constraint()
        vars_used = clocks_of(cond)
        if len(vars_used) != 1:
            raise p.error("delay constraints range over exactly one bound "
                          "variable")
        p.expect(")")
        p.expect(".")
        return DelayConstraint(next(iter(vars_used)), cond,
                               parse_process_seq(p))
    if p.accept("def"):
        name = p.name("process name")
        p.expect("(")
        # values; timers; channels
        params = p.grouped(")", lambda _: p.name("parameter"), 3)
        p.expect("=")
        body = parse_process_seq(p)
        p.expect("in")
        return Def(name, *params, body, parse_process_seq(p))
    if p.accept("new"):
        p.expect("(")
        left = p.name("endpoint")
        p.expect(",")
        right = p.name("endpoint")
        if left == right:
            raise p.error("session endpoints must be distinct")
        p.expect(")")
        p.expect("{")
        parts = p.separated(
            lambda: parse_session_component(p, left, right), "|")
        p.expect("}")
        # two processes and the two directed buffers
        channels = {(q.src, q.dst) for q in parts if isinstance(q, Buffer)}
        if (len(parts) != 4 or channels != {(left, right), (right, left)}
                or sum(isinstance(q, Buffer) for q in parts) != 2):
            raise ParseError(
                f"malformed session shape under new ({left},{right}): "
                "expected two processes and the two directed buffers",
                tok.line, tok.col)
        return Scope(left, right, Par(tuple(parts)))
    if tok.kind == "id" and tok.text not in _KEYWORDS:
        if p.at("<", 1):
            return parse_call(p)
        raise p.error(f"unexpected identifier {tok.text!r} (a buffer only "
                      "appears inside new (...) { ... })")
    raise p.error("expected a process")


def parse_block(p: _Parser) -> ProcNode:
    if p.accept("{"):
        inner = parse_process(p)
        p.expect("}")
        return inner
    return parse_process_seq(p)


def parse_branch(p: _Parser) -> Branch:
    label = p.name("label")
    binder = None
    if p.accept("("):
        binder = p.name("binder")
        p.expect(")")
    p.expect("->")
    cont = parse_block(p)
    return Branch(label, binder, cont)


def parse_call(p: _Parser) -> Call:
    name = p.name("process name")
    p.expect("<")
    # values; timers; channels
    args = p.grouped(
        ">", lambda i: p.name("argument") if i else parse_value(p), 3)
    return Call(name, *args)


def parse_payload(p: _Parser):
    """The ``(value)`` after a message label; without one, the unit."""
    if not p.accept("("):
        return UNIT
    value = UNIT if p.at(")") else parse_value(p)
    p.expect(")")
    return value


def parse_value(p: _Parser):
    tok = p.peek()
    if p.at_number():
        value = p.parse_number()
        if value.denominator != 1:
            return value
        return int(value)
    if tok.kind == "str":
        p.advance()
        return tok.text
    if p.accept("true"):
        return True
    if p.accept("false"):
        return False
    if p.at("(") and p.at(")", 1):
        p.advance()
        p.advance()
        return UNIT
    if tok.kind == "id" and tok.text not in _KEYWORDS:
        p.advance()
        return Name(tok.text)
    raise p.error("expected a value")


def parse_session_component(p: _Parser, left: str, right: str) -> ProcNode:
    tok = p.peek()
    if tok.kind == "id" and tok.text not in _KEYWORDS and p.at(":", 1):
        channel = p.advance().text
        if channel == left + right:
            src, dst = left, right
        elif channel == right + left:
            src, dst = right, left
        else:
            raise ParseError(
                f"buffer {channel!r} does not name a channel between "
                f"{left!r} and {right!r}", tok.line, tok.col)
        p.expect(":")
        p.expect("[")
        items = p.grouped(
            "]", lambda _: (p.name("label"), parse_payload(p)), 1)[0]
        return Buffer(src, dst, items)
    return parse_process_seq(p)


def _check_program(node: ProcNode, start: Token) -> None:
    """Reject a call outside the scope of its definition, a definition name
    used twice and a timer set by two parallel parts, at the process's first
    token.  One walk, which returns the timers each subterm sets."""
    defined = set()

    def fail(message: str) -> ParseError:
        return ParseError(message, start.line, start.col)

    def walk(node: ProcNode, scope: FrozenSet[str]) -> FrozenSet[str]:
        if isinstance(node, Def):
            if node.name in defined:
                raise fail(f"duplicate definition {node.name!r}")
            defined.add(node.name)
            scope = scope | {node.name}
        elif isinstance(node, Call) and node.name not in scope:
            raise fail(f"call to undefined process {node.name!r}")
        sets = [walk(child, scope) for child in children(node)]
        if isinstance(node, Par):
            for a, b in combinations(sets, 2):
                if a & b:
                    raise fail(f"timer(s) {sorted(a & b)} set by more than one "
                               "parallel component")
        timers = frozenset().union(*sets)
        return timers | {node.timer} if isinstance(node, SetTimer) else timers

    walk(node, frozenset())
