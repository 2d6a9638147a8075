"""Parsers for the constraint, type, and process DSLs and for spec files.

One hand-written tokenizer feeds recursive-descent parsers.  Surface sugar
(derived comparators, bounded intervals, omitted guards/resets/payloads,
single-option choices without braces) is desugared here; the ASTs carry
only the core forms.  Scoping problems (duplicate labels, unbound or
shadowed recursion variables, unguarded recursion, malformed sessions)
are rejected at parse time with positions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .constraints import (
    And,
    Constraint,
    FALSE,
    Not,
    Or,
    TRUE,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    atom_ne,
)
from .errors import ParseError
from .processes import (
    Branch,
    Buffer,
    Call,
    Def,
    DelayConstraint,
    DelayExact,
    IfTimer,
    LinearExpr,
    Name,
    P_END,
    P_ERR,
    Par,
    ProcNode,
    ReceiveAfter,
    Scope,
    Send,
    SetTimer,
    UNIT,
    subterms,
    validate_process,
)
from .sessiontypes import (
    BOOL,
    ChoiceOption,
    Choice,
    Delegate,
    END,
    NAT,
    NONE,
    RECV,
    Rec,
    SEND,
    STR,
    TypeNode,
    Var,
)

_KEYWORDS = {
    "and", "or", "not", "true", "false", "rec", "end", "err", "set",
    "delay", "if", "then", "else", "def", "in", "to", "from", "recv",
    "after", "new", "inf", "dual", "of", "clocks", "type", "process",
    "system",
}

# The deepest nesting of constraints, types and processes accepted.  Each
# type or process constructor counts one level, and a constraint counts
# the height of the tree it builds (``x<1``, sugar for ``not x>1 and not
# x=1``, counts three).  Parenthesised groups build no node; their nesting
# is bounded by the same constant on its own.  The parser and every
# recursive walker over the built trees take at most a few stack frames
# per level, so this keeps them all well inside Python's default recursion
# limit; deeper input is a parse error.  A printed term nests no deeper
# than its tree, so whatever is accepted prints to text that parses again.
MAX_NESTING = 50

_TWO_CHAR = ("<=", ">=", "!=", "->")
_ONE_CHAR = "{}()[]<>,.;:!?=-+|*/"


@dataclass(frozen=True)
class Token:
    kind: str  # id | num | str | sym | eof
    text: str
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(Token("str", source[i + 1:j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(Token("num", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("id", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("sym", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("sym", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _height(c: Constraint) -> int:
    """Height of a small constraint tree: the sugar of one comparison."""
    if isinstance(c, Not):
        return 1 + _height(c.inner)
    if isinstance(c, (And, Or)):
        return 1 + max(_height(c.left), _height(c.right))
    return 1


def _nesting(method):
    """Count each active call of a recursive parse method as one level."""

    @functools.wraps(method)
    def counted(self, *args):
        self.deeper()
        try:
            return method(self, *args)
        finally:
            self.depth -= 1

    return counted


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0  # enclosing constructors and negations
        self.parens = 0  # enclosing parenthesised constraints

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, text: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.text == text and tok.kind in ("sym", "id")

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def expect_id(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "id" or tok.text in _KEYWORDS:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def too_deep(self) -> ParseError:
        return self.error(f"nesting deeper than {MAX_NESTING} levels")

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep()

    # -- rationals -----------------------------------------------------------

    def at_number(self) -> bool:
        if self.peek().kind == "num":
            return True
        return self.at("-") and self.peek(1).kind == "num"

    def parse_number(self) -> Fraction:
        negative = False
        if self.at("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "num":
            raise self.error("expected a number")
        self.advance()
        value = Fraction(tok.text) if "." in tok.text else Fraction(int(tok.text))
        if self.at("/") and self.peek(1).kind == "num":
            self.advance()
            if "." in self.peek().text:
                raise self.error("denominator must be an integer")
            den = self.advance()
            if not int(den.text):
                raise ParseError("zero denominator", den.line, den.col)
            value = Fraction(value, int(den.text))
        return -value if negative else value

    # -- constraints ----------------------------------------------------------

    # Each constraint parser returns the node with the height of its tree,
    # and that height plus the enclosing levels must stay within the limit.
    def parse_constraint(self) -> Constraint:
        return self._disjunction()[0]

    def _disjunction(self) -> Tuple[Constraint, int]:
        left, height = self._conjunction()
        while self.at("or"):
            self.advance()
            right, right_height = self._conjunction()
            left = Or(left, right)
            height = self._within(1 + max(height, right_height))
        return left, height

    def _conjunction(self) -> Tuple[Constraint, int]:
        left, height = self._unary()
        while self.at("and"):
            self.advance()
            right, right_height = self._unary()
            left = And(left, right)
            height = self._within(1 + max(height, right_height))
        return left, height

    def _unary(self) -> Tuple[Constraint, int]:
        if self.at("not"):
            self.advance()
            self.deeper()  # the negation encloses its operand
            inner, height = self._unary()
            self.depth -= 1
            return Not(inner), self._within(height + 1)
        if self.at("("):
            self.advance()
            self.parens += 1
            if self.parens > MAX_NESTING:
                raise self.too_deep()
            inner = self._disjunction()
            self.expect(")")
            self.parens -= 1
            return inner
        if self.at("true"):
            self.advance()
            node = TRUE
        elif self.at("false"):
            self.advance()
            node = FALSE
        else:
            node = self.parse_relation()
        return node, self._within(_height(node))

    def _within(self, height: int) -> int:
        if self.depth + height > MAX_NESTING:
            raise self.too_deep()
        return height

    _REL_BUILDERS = {
        ">": atom_gt, ">=": atom_ge, "<": atom_lt, "<=": atom_le,
        "=": atom_eq, "!=": atom_ne,
    }

    _FLIP = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "=", "!=": "!="}

    def parse_relation(self) -> Constraint:
        if self.at_number():
            # const REL clock [REL const]   (intervals)
            low = self.parse_number()
            op1 = self._relop()
            clock, sub = self._clock_expr()
            first = self._build(self._FLIP[op1], clock, sub, low)
            if self.peek().text in self._REL_BUILDERS:
                op2 = self._relop()
                high = self.parse_number()
                return And(first, self._build(op2, clock, sub, high))
            return first
        clock, sub = self._clock_expr()
        op = self._relop()
        const = self.parse_number()
        return self._build(op, clock, sub, const)

    def _relop(self) -> str:
        tok = self.peek()
        if tok.text not in self._REL_BUILDERS:
            raise self.error(f"expected a comparison, found {tok.text!r}")
        self.advance()
        return tok.text

    def _clock_expr(self) -> Tuple[str, Optional[str]]:
        clock = self.expect_id("clock name").text
        if self.at("-"):
            self.advance()
            sub = self.expect_id("clock name").text
            return clock, sub
        return clock, None

    def _build(self, op: str, clock: str, sub: Optional[str],
               const: Fraction) -> Constraint:
        return self._REL_BUILDERS[op](clock, const, sub)

    # -- types ----------------------------------------------------------------

    @_nesting
    def parse_type(self, bound: Tuple[str, ...] = ()) -> TypeNode:
        tok = self.peek()
        if self.at("end"):
            self.advance()
            return END
        if self.at("rec"):
            self.advance()
            var = self.expect_id("recursion variable").text
            if var in bound:
                raise ParseError(f"recursion variable {var!r} shadows an "
                                 "enclosing binding", tok.line, tok.col)
            self.expect(".")
            body = self.parse_type(bound + (var,))
            node = Rec(var, body)
            probe = body
            while isinstance(probe, Rec):
                probe = probe.body
            if isinstance(probe, Var):
                raise ParseError(f"unguarded recursion rec {var!r}",
                                 tok.line, tok.col)
            return node
        if self.at("{"):
            self.advance()
            options = [self.parse_option(bound)]
            while self.at(","):
                self.advance()
                options.append(self.parse_option(bound))
            self.expect("}")
            labels = [opt.label for opt in options]
            for label in labels:
                if labels.count(label) > 1:
                    raise ParseError(f"duplicate label {label!r} in choice",
                                     tok.line, tok.col)
            return Choice(tuple(options))
        if self.at("!") or self.at("?"):
            return Choice((self.parse_option(bound),))
        if tok.kind == "id" and tok.text not in _KEYWORDS:
            self.advance()
            if tok.text not in bound:
                raise ParseError(f"unbound recursion variable {tok.text!r}",
                                 tok.line, tok.col)
            return Var(tok.text)
        raise self.error("expected a type")

    def parse_option(self, bound: Tuple[str, ...]) -> ChoiceOption:
        direction = SEND if self.at("!") else RECV
        if not (self.at("!") or self.at("?")):
            raise self.error("expected ! or ?")
        self.advance()
        label = self.expect_id("label").text
        payload = NONE
        if self.at("<"):
            self.advance()
            payload = self.parse_sort(bound)
            self.expect(">")
        guard: Constraint = TRUE
        resets: Tuple[str, ...] = ()
        if self.at("("):
            self.advance()
            if not self.at("{"):
                guard = self.parse_constraint()
                if self.at(","):
                    self.advance()
            if self.at("{"):
                resets = self.parse_reset_set()
            self.expect(")")
        continuation: TypeNode = END
        if self.at("."):
            self.advance()
            continuation = self.parse_type(bound)
        return ChoiceOption(direction, label, payload, guard,
                            frozenset(resets), continuation)

    def parse_sort(self, bound: Tuple[str, ...]):
        tok = self.peek()
        if tok.text in ("Nat", "Bool", "Str", "None"):
            self.advance()
            return {"Nat": NAT, "Bool": BOOL, "Str": STR, "None": NONE}[tok.text]
        if self.at("("):
            self.advance()
            init = self.parse_constraint()
            self.expect(",")
            session = self.parse_type(())
            self.expect(")")
            return Delegate(init, session)
        raise self.error("expected a payload sort (Nat, Bool, Str, None or a "
                         "delegation)")

    def parse_reset_set(self) -> Tuple[str, ...]:
        self.expect("{")
        names: List[str] = []
        if not self.at("}"):
            names.append(self.expect_id("clock name").text)
            while self.at(","):
                self.advance()
                names.append(self.expect_id("clock name").text)
        self.expect("}")
        return tuple(names)

    # -- timeout expressions ---------------------------------------------------

    def parse_timeout_expr(self) -> Optional[LinearExpr]:
        """None encodes an infinite timeout."""
        const = Fraction(0)
        coeffs: Dict[str, int] = {}
        infinite = False
        sign = 1
        while True:
            if self.at("inf"):
                if sign < 0:
                    raise self.error("cannot subtract inf in a timeout")
                self.advance()
                infinite = True
            elif self.at_number() or self.peek().kind == "num":
                value = self.parse_number()
                if self.at("*"):
                    self.advance()
                    name = self.expect_id("timer name").text
                    if value.denominator != 1:
                        raise self.error("timer coefficients must be integers")
                    coeffs[name] = coeffs.get(name, 0) + sign * int(value)
                else:
                    const += sign * value
            elif self.peek().kind == "id" and self.peek().text not in _KEYWORDS:
                name = self.advance().text
                coeffs[name] = coeffs.get(name, 0) + sign
            else:
                raise self.error("expected a timeout term")
            if self.at("+"):
                self.advance()
                sign = 1
            elif self.at("-"):
                self.advance()
                sign = -1
            else:
                break
        if infinite:
            return None
        if const < 0 and not coeffs:
            raise self.error("constant timeouts must be nonnegative")
        coeff_items = tuple(sorted((k, v) for k, v in coeffs.items() if v))
        return LinearExpr(const, coeff_items, False)

    # -- processes ---------------------------------------------------------------

    def parse_process(self) -> ProcNode:
        parts = [self.parse_process_seq()]
        while self.at("|"):
            self.advance()
            parts.append(self.parse_process_seq())
        if len(parts) == 1:
            return parts[0]
        return Par(tuple(parts))

    @_nesting
    def parse_process_seq(self) -> ProcNode:
        tok = self.peek()
        if self.at("end"):
            self.advance()
            return P_END
        if self.at("err"):
            self.advance()
            return P_ERR
        if self.at("set"):
            self.advance()
            self.expect("(")
            timer = self.expect_id("timer name").text
            self.expect(")")
            self.expect(".")
            return SetTimer(timer, self.parse_process_seq())
        if self.at("to"):
            self.advance()
            endpoint = self.expect_id("endpoint").text
            self.expect("!")
            label = self.expect_id("label").text
            value = UNIT
            if self.at("("):
                self.advance()
                if not self.at(")"):
                    value = self.parse_value()
                self.expect(")")
            self.expect(".")
            return Send(endpoint, label, value, self.parse_process_seq())
        if self.at("from"):
            self.advance()
            endpoint = self.expect_id("endpoint").text
            self.expect("recv")
            if self.at("{"):
                self.advance()
                branches = [self.parse_branch()]
                while self.at(","):
                    self.advance()
                    branches.append(self.parse_branch())
                self.expect("}")
            else:
                branches = [self.parse_branch()]  # single branch, no braces
            labels = [b.label for b in branches]
            for label in labels:
                if labels.count(label) > 1:
                    raise ParseError(f"duplicate receive label {label!r}",
                                     tok.line, tok.col)
            after = None
            timeout = None
            if self.at("after"):
                self.advance()
                after = self.parse_timeout_expr()
                self.expect("{")
                timeout = self.parse_process()
                self.expect("}")
                if after is None:
                    timeout = None  # an explicit inf never fires
            return ReceiveAfter(endpoint, tuple(branches), after, timeout)
        if self.at("if"):
            self.advance()
            self.expect("(")
            cond = self.parse_constraint()
            self.expect(")")
            self.expect("then")
            then_branch = self.parse_block()
            self.expect("else")
            else_branch = self.parse_block()
            return IfTimer(cond, then_branch, else_branch)
        if self.at("delay"):
            self.advance()
            self.expect("(")
            if self.at_number():
                duration = self.parse_number()
                if duration < 0:
                    raise self.error("delays must be nonnegative")
                self.expect(")")
                self.expect(".")
                return DelayExact(duration, self.parse_process_seq())
            cond = self.parse_constraint()
            from .constraints import clocks_of

            vars_used = clocks_of(cond)
            if len(vars_used) != 1:
                raise self.error("delay constraints range over exactly one "
                                 "bound variable")
            self.expect(")")
            self.expect(".")
            return DelayConstraint(next(iter(vars_used)), cond,
                                   self.parse_process_seq())
        if self.at("def"):
            self.advance()
            name = self.expect_id("process name").text
            self.expect("(")
            groups: List[Tuple[str, ...]] = []
            current: List[str] = []
            while not self.at(")"):
                if self.at(";"):
                    self.advance()
                    groups.append(tuple(current))
                    current = []
                    continue
                if self.at(","):
                    self.advance()
                    continue
                current.append(self.expect_id("parameter").text)
            self.expect(")")
            groups.append(tuple(current))
            while len(groups) < 3:
                groups.append(())
            if len(groups) > 3:
                raise self.error("definitions take three parameter groups "
                                 "(values; timers; channels)")
            self.expect("=")
            body = self.parse_process_seq()
            self.expect("in")
            cont = self.parse_process_seq()
            return Def(name, groups[0], groups[1], groups[2], body, cont)
        if self.at("new"):
            self.advance()
            self.expect("(")
            left = self.expect_id("endpoint").text
            self.expect(",")
            right = self.expect_id("endpoint").text
            if left == right:
                raise self.error("session endpoints must be distinct")
            self.expect(")")
            self.expect("{")
            body = self.parse_session_body(left, right)
            self.expect("}")
            return Scope(left, right, body)
        if tok.kind == "id" and tok.text not in _KEYWORDS:
            if self.peek(1).text == "<":
                return self.parse_call()
            raise self.error(f"unexpected identifier {tok.text!r} (a buffer "
                             "only appears inside new (...) { ... })")
        raise self.error("expected a process")

    def parse_block(self) -> ProcNode:
        if self.at("{"):
            self.advance()
            inner = self.parse_process()
            self.expect("}")
            return inner
        return self.parse_process_seq()

    def parse_branch(self) -> Branch:
        label = self.expect_id("label").text
        binder = None
        if self.at("("):
            self.advance()
            binder = self.expect_id("binder").text
            self.expect(")")
        self.expect("->")
        cont = self.parse_block()
        return Branch(label, binder, cont)

    def parse_call(self) -> Call:
        name = self.expect_id("process name").text
        self.expect("<")
        groups: List[List] = [[], [], []]
        index = 0
        while not self.at(">"):
            if self.at(";"):
                self.advance()
                index += 1
                if index > 2:
                    raise self.error("calls take three argument groups")
                continue
            if self.at(","):
                self.advance()
                continue
            if index == 0:
                groups[0].append(self.parse_value())
            else:
                groups[index].append(self.expect_id("argument").text)
        self.expect(">")
        return Call(name, tuple(groups[0]), tuple(groups[1]), tuple(groups[2]))

    def parse_value(self):
        tok = self.peek()
        if tok.kind == "num" or (self.at("-") and self.peek(1).kind == "num"):
            value = self.parse_number()
            if value.denominator != 1:
                return value
            return int(value)
        if tok.kind == "str":
            self.advance()
            return tok.text
        if self.at("true"):
            self.advance()
            return True
        if self.at("false"):
            self.advance()
            return False
        if self.at("(") and self.peek(1).text == ")":
            self.advance()
            self.advance()
            return UNIT
        if tok.kind == "id" and tok.text not in _KEYWORDS:
            self.advance()
            return Name(tok.text)
        raise self.error("expected a value")

    def parse_session_body(self, left: str, right: str) -> ProcNode:
        parts: List[ProcNode] = []
        while True:
            parts.append(self.parse_session_component(left, right))
            if self.at("|"):
                self.advance()
                continue
            break
        return Par(tuple(parts)) if len(parts) != 1 else parts[0]

    def parse_session_component(self, left: str, right: str) -> ProcNode:
        tok = self.peek()
        if (tok.kind == "id" and tok.text not in _KEYWORDS
                and self.peek(1).text == ":"):
            channel = self.advance().text
            if channel == left + right:
                src, dst = left, right
            elif channel == right + left:
                src, dst = right, left
            else:
                raise ParseError(
                    f"buffer {channel!r} does not name a channel between "
                    f"{left!r} and {right!r}", tok.line, tok.col)
            self.expect(":")
            self.expect("[")
            items: List[Tuple[str, object]] = []
            while not self.at("]"):
                if self.at(","):
                    self.advance()
                    continue
                label = self.expect_id("label").text
                value = UNIT
                if self.at("("):
                    self.advance()
                    if not self.at(")"):
                        value = self.parse_value()
                    self.expect(")")
                items.append((label, value))
            self.expect("]")
            return Buffer(src, dst, tuple(items))
        return self.parse_process_seq()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_constraint(source: str) -> Constraint:
    parser = _Parser(source)
    node = parser.parse_constraint()
    parser.expect("")
    return node


def parse_type(source: str) -> TypeNode:
    parser = _Parser(source)
    node = parser.parse_type()
    parser.expect("")
    return node


def parse_process(source: str) -> ProcNode:
    parser = _Parser(source)
    node = parser.parse_process()
    parser.expect("")
    try:
        validate_process(node)
    except Exception as exc:  # surface as a parse-time rejection
        raise ParseError(str(exc)) from exc
    _check_unique_defs(node)
    return node


def _check_unique_defs(node: ProcNode) -> None:
    seen = set()
    for sub in subterms(node):
        if isinstance(sub, Def):
            if sub.name in seen:
                raise ParseError(f"duplicate definition {sub.name!r}")
            seen.add(sub.name)


def parse_rational(source: str) -> Fraction:
    """Parse one number as the DSL writes it: ``p``, ``p/q`` or a finite
    decimal, possibly negative."""
    parser = _Parser(source)
    value = parser.parse_number()
    parser.expect("")
    return value


def parse_valuation(source: str) -> Dict[str, Fraction]:
    """Parse ``x=3,y=1/2`` into a valuation."""
    out: Dict[str, Fraction] = {}
    source = source.strip()
    if not source:
        return out
    parser = _Parser(source)
    while True:
        if parser.peek().text in out:
            raise parser.error(f"clock {parser.peek().text!r} given twice")
        name = parser.expect_id("clock name").text
        parser.expect("=")
        at = parser.peek()
        out[name] = parser.parse_number()
        if out[name] < 0:
            raise ParseError(f"clock {name!r} cannot be negative", at.line,
                             at.col)
        if parser.at(","):
            parser.advance()
            continue
        break
    parser.expect("")
    return out


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

@dataclass
class SystemDecl:
    left: str
    right: str
    left_dual: bool = False
    right_dual: bool = False


@dataclass
class SpecFile:
    clocks: Tuple[str, ...] = ()
    types: Dict[str, TypeNode] = field(default_factory=dict)
    processes: Dict[str, ProcNode] = field(default_factory=dict)
    systems: Dict[str, SystemDecl] = field(default_factory=dict)

    def resolve_system(self, name: str) -> Tuple[TypeNode, TypeNode]:
        from .sessiontypes import dual as dual_of

        if name not in self.systems:
            raise ParseError(f"unknown system {name!r}")
        decl = self.systems[name]
        for ref in (decl.left, decl.right):
            if ref not in self.types:
                raise ParseError(f"system {name!r} references unknown type {ref!r}")
        left = self.types[decl.left]
        right = self.types[decl.right]
        if decl.left_dual:
            left = dual_of(left)
        if decl.right_dual:
            right = dual_of(right)
        return left, right


def parse_spec_file(source: str) -> SpecFile:
    parser = _Parser(source)
    spec = SpecFile()
    declared_clocks: List[str] = []
    while parser.peek().kind != "eof":
        if parser.at("clocks"):
            parser.advance()
            declared_clocks.append(parser.expect_id("clock name").text)
            while parser.at(","):
                parser.advance()
                declared_clocks.append(parser.expect_id("clock name").text)
            parser.expect(";")
            continue
        if parser.at("type"):
            parser.advance()
            name = parser.expect_id("type name").text
            if name in spec.types:
                raise parser.error(f"duplicate type name {name!r}")
            parser.expect("=")
            spec.types[name] = parser.parse_type()
            continue
        if parser.at("process"):
            parser.advance()
            name = parser.expect_id("process name").text
            if name in spec.processes:
                raise parser.error(f"duplicate process name {name!r}")
            parser.expect("=")
            node = parser.parse_process()
            try:
                validate_process(node)
            except Exception as exc:
                raise parser.error(str(exc)) from exc
            _check_unique_defs(node)
            spec.processes[name] = node
            continue
        if parser.at("system"):
            parser.advance()
            name = parser.expect_id("system name").text
            if name in spec.systems:
                raise parser.error(f"duplicate system name {name!r}")
            parser.expect("=")
            left_dual, left = _parse_system_ref(parser)
            parser.expect("|")
            right_dual, right = _parse_system_ref(parser)
            spec.systems[name] = SystemDecl(left, right, left_dual, right_dual)
            continue
        raise parser.error("expected clocks, type, process, or system")
    if not declared_clocks:
        inferred = set()
        from .sessiontypes import type_clocks

        for node in spec.types.values():
            inferred |= type_clocks(node)
        declared_clocks = sorted(inferred)
    spec.clocks = tuple(dict.fromkeys(declared_clocks))
    for name in spec.systems:
        spec.resolve_system(name)  # fail fast on dangling references
    return spec


def _parse_system_ref(parser: _Parser) -> Tuple[bool, str]:
    if parser.at("dual"):
        parser.advance()
        parser.expect("of")
        return True, parser.expect_id("type name").text
    return False, parser.expect_id("type name").text
