"""Parsers for the constraint and type DSLs and for spec files.

One token pattern feeds recursive-descent parsers.  Surface sugar
(derived comparators, bounded intervals, omitted guards/resets/payloads,
single-option choices without braces) is desugared here; the ASTs carry
only the core forms.  Scoping problems (duplicate labels, unbound
recursion variables, unguarded recursion, malformed sessions, undefined
calls, duplicate definitions, timers set by two parallel parts) are
rejected at parse time with positions.  A recursion variable binds to
the nearest ``rec`` of its name, so printed unfolded heads parse back.
The process grammar, in ``process_parser``, is imported by the first
process read (``parse_process`` or a spec file's ``process``), so types,
constraints and process-free spec files compile no process code.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .constraints import (
    And,
    Constraint,
    FALSE,
    Not,
    Or,
    Struct,
    TRUE,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    atom_ne,
)
from .errors import ParseError
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
    dual,
    type_clocks,
)

_KEYWORDS = {
    "and", "or", "not", "true", "false", "rec", "end", "err", "set",
    "delay", "if", "then", "else", "def", "in", "to", "from", "recv",
    "after", "new", "inf", "dual", "of", "clocks", "type", "process",
    "system",
}

_SORTS = {"Nat": NAT, "Bool": BOOL, "Str": STR, "None": NONE}

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

# One token per match: layout and comments, a string, a number, a name, a
# symbol, or (any other character) an error.  Names start with a letter or
# an underscore; the pattern cannot say "letter", so tokenize checks it.
_TOKEN = re.compile(r"""
    (?P<layout>[ \t\r\n]+|//[^\n]*)
  | "(?P<str>[^"\n]*)"
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<id>\w+)
  | (?P<sym><=|>=|!=|->|[{}()\[\]<>,.;:!?=+|*/-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # id | num | str | sym | eof
    text: str
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0  # line_start: the offset of the line's column 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group(kind)
        if kind == "layout":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        col = match.start() - line_start + 1
        if kind == "bad" or (kind == "id" and not text[0].isalpha()
                             and text[0] != "_"):
            raise ParseError("unterminated string" if text == '"' else
                             f"unexpected character {text[0]!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    # a second eof, so that peek(1) at the first needs no bounds check
    tokens += [Token("eof", "", line, len(source) - line_start + 1)] * 2
    return tokens


def _shown(tok: Token) -> str:
    """The token as an error message names it: a string literal with its
    quotes, so that it is not taken for the symbol or name it spells."""
    if tok.kind == "eof":
        return "end of input"
    return f'"{tok.text}"' if tok.kind == "str" else tok.text


def _height(c: Constraint) -> int:
    """Height of a small constraint tree: the sugar of one comparison."""
    if isinstance(c, Not):
        return 1 + _height(c.inner)
    if isinstance(c, (And, Or)):
        return 1 + max(_height(c.left), _height(c.right))
    return 1


def _balanced(parts: list, node) -> Tuple[Constraint, int]:
    """The (constraint, height) parts joined by node, split after the first
    ceil(n/2) of n parts: up to three parts nest to the left, as ``conj``
    and ``disj`` build them."""
    if len(parts) == 1:
        return parts[0]
    half = (len(parts) + 1) // 2
    left, left_height = _balanced(parts[:half], node)
    right, right_height = _balanced(parts[half:], node)
    return node(left, right), 1 + max(left_height, right_height)


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
        return self.tokens[self.pos + offset]

    def at(self, text: str, offset: int = 0) -> bool:
        tok = self.tokens[self.pos + offset]
        return tok.text == text and tok.kind in ("sym", "id")

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if it is text; whether it was."""
        if not self.at(text):
            return False
        self.advance()
        return True

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}, found {_shown(self.peek())!r}")
        return self.advance()

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "id" or tok.text in _KEYWORDS:
            raise self.error(f"expected {what}, found {_shown(tok)!r}")
        return self.advance().text

    def clock_name(self) -> str:
        return self.name("clock name")

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def too_deep(self) -> ParseError:
        return self.error(f"nesting deeper than {MAX_NESTING} levels")

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep()

    # -- lists ---------------------------------------------------------------

    def separated(self, item: Callable[[], object], sep: str) -> list:
        """One or more items separated by sep."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return items

    def braced(self, item: Callable[[], object]) -> list:
        """Items separated by commas in braces, or one item without them."""
        if not self.accept("{"):
            return [item()]
        items = self.separated(item, ",")
        self.expect("}")
        return items

    def grouped(self, close: str, item: Callable[[int], object],
                groups: int) -> List[tuple]:
        """Items up to ``close`` in ``groups`` groups separated by ``;``,
        missing groups empty; ``item(i)`` reads one item of group i.  Commas
        between items are optional and may repeat."""
        out: List[list] = [[]]
        while not self.at(close):
            if self.accept(","):
                continue
            if len(out) < groups and self.accept(";"):
                out.append([])
            else:
                out[-1].append(item(len(out) - 1))
        self.advance()
        return [tuple(g) for g in out] + [()] * (groups - len(out))

    # -- rationals -----------------------------------------------------------

    def at_number(self) -> bool:
        if self.peek().kind == "num":
            return True
        return self.at("-") and self.peek(1).kind == "num"

    def parse_number(self) -> Fraction:
        negative = self.accept("-")
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

    def parse_valuation(self) -> Dict[str, Fraction]:
        out: Dict[str, Fraction] = {}

        def entry() -> None:
            if self.peek().text in out:
                raise self.error(f"clock {self.peek().text!r} given twice")
            name = self.clock_name()
            self.expect("=")
            at = self.peek()
            out[name] = self.parse_number()
            if out[name] < 0:
                raise ParseError(f"clock {name!r} cannot be negative", at.line,
                                 at.col)

        self.separated(entry, ",")
        return out

    # -- constraints ----------------------------------------------------------

    # Each constraint parser returns the node with the height of its tree,
    # and that height plus the enclosing levels must stay within the limit.
    def parse_constraint(self) -> Constraint:
        return self._disjunction()[0]

    def _disjunction(self) -> Tuple[Constraint, int]:
        return self._chain(self._conjunction, "or", Or)

    def _conjunction(self) -> Tuple[Constraint, int]:
        return self._chain(self._unary, "and", And)

    def _chain(self, part, word: str, node) -> Tuple[Constraint, int]:
        """Parts separated by word, as a balanced tree of node, so that a
        flat chain of n parts nests only about log2(n) levels deep."""
        constraint, height = _balanced(self.separated(part, word), node)
        return constraint, self._within(height)

    def _unary(self) -> Tuple[Constraint, int]:
        if self.accept("not"):
            self.deeper()  # the negation encloses its operand
            inner, height = self._unary()
            self.depth -= 1
            return Not(inner), self._within(height + 1)
        if self.accept("("):
            self.parens += 1
            if self.parens > MAX_NESTING:
                raise self.too_deep()
            inner = self._disjunction()
            self.expect(")")
            self.parens -= 1
            return inner
        if self.accept("true"):
            node = TRUE
        elif self.accept("false"):
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
            if self._at_relop():
                op2 = self._relop()
                high = self.parse_number()
                return And(first, self._build(op2, clock, sub, high))
            return first
        clock, sub = self._clock_expr()
        op = self._relop()
        const = self.parse_number()
        return self._build(op, clock, sub, const)

    def _at_relop(self) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text in self._REL_BUILDERS

    def _relop(self) -> str:
        if not self._at_relop():
            raise self.error(
                f"expected a comparison, found {_shown(self.peek())!r}")
        return self.advance().text

    def _clock_expr(self) -> Tuple[str, Optional[str]]:
        tok = self.peek()
        clock = self.clock_name()
        if not self.accept("-"):
            return clock, None
        sub = self.clock_name()
        if sub == clock:
            raise ParseError(f"clock {clock!r} compared with itself", tok.line,
                             tok.col)
        return clock, sub

    def _build(self, op: str, clock: str, sub: Optional[str],
               const: Fraction) -> Constraint:
        return self._REL_BUILDERS[op](clock, const, sub)

    # -- types ----------------------------------------------------------------

    @_nesting
    def parse_type(self, bound: Tuple[str, ...] = ()) -> TypeNode:
        tok = self.peek()
        if self.accept("end"):
            return END
        if self.accept("rec"):
            var = self.name("recursion variable")
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
        if self.at("{") or self.at("!") or self.at("?"):
            options = self.braced(lambda: self.parse_option(bound))
            _check_unique_labels(options, "duplicate label {!r} in choice", tok)
            return Choice(tuple(options))
        if tok.kind == "id" and tok.text not in _KEYWORDS:
            self.advance()
            if tok.text not in bound:
                raise ParseError(f"unbound recursion variable {tok.text!r}",
                                 tok.line, tok.col)
            return Var(tok.text)
        raise self.error("expected a type")

    def parse_option(self, bound: Tuple[str, ...]) -> ChoiceOption:
        if self.accept("!"):
            direction = SEND
        elif self.accept("?"):
            direction = RECV
        else:
            raise self.error("expected ! or ?")
        label = self.name("label")
        payload = NONE
        if self.accept("<"):
            payload = self.parse_sort(bound)
            self.expect(">")
        guard: Constraint = TRUE
        resets: Tuple[str, ...] = ()
        if self.accept("("):
            if not self.at("{"):
                guard = self.parse_constraint()
                self.accept(",")
            if self.at("{"):
                resets = self.parse_reset_set()
            self.expect(")")
        continuation: TypeNode = END
        if self.accept("."):
            continuation = self.parse_type(bound)
        return ChoiceOption(direction, label, payload, guard,
                            frozenset(resets), continuation)

    def parse_sort(self, bound: Tuple[str, ...]):
        tok = self.peek()
        if tok.kind == "id" and tok.text in _SORTS:
            self.advance()
            return _SORTS[tok.text]
        if self.accept("("):
            init = self.parse_constraint()
            self.expect(",")
            session = self.parse_type(())
            self.expect(")")
            return Delegate(init, session)
        raise self.error("expected a payload sort (Nat, Bool, Str, None or a "
                         "delegation)")

    def parse_reset_set(self) -> Tuple[str, ...]:
        self.expect("{")
        names = [] if self.at("}") else self.separated(self.clock_name, ",")
        self.expect("}")
        return tuple(names)

    # -- spec files --------------------------------------------------------------

    def system_ref(self) -> Tuple[Token, bool]:
        dual_of = self.accept("dual")
        if dual_of:
            self.expect("of")
        tok = self.peek()
        self.name("type name")
        return tok, dual_of

    def parse_system(self) -> SystemDecl:
        left, left_dual = self.system_ref()
        self.expect("|")
        right, right_dual = self.system_ref()
        return SystemDecl(left, right, left_dual, right_dual)


def _check_unique_labels(items, message: str, tok: Token) -> None:
    labels = [item.label for item in items]
    for label in labels:
        if labels.count(label) > 1:
            raise ParseError(message.format(label), tok.line, tok.col)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _parse_all(source: str, rule: Callable[[_Parser], object]):
    """What rule reads from source, which it must read to the end."""
    parser = _Parser(source)
    result = rule(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"expected end of input, found {_shown(tok)!r}",
                         tok.line, tok.col)
    return result


def parse_constraint(source: str) -> Constraint:
    return _parse_all(source, _Parser.parse_constraint)


def parse_type(source: str) -> TypeNode:
    return _parse_all(source, _Parser.parse_type)


def parse_process(source: str) -> ProcNode:
    return _parse_all(source, _parse_program)


def _parse_program(parser: _Parser) -> ProcNode:
    """A whole process, by the grammar that is loaded with the first one."""
    from .process_parser import parse_program
    return parse_program(parser)


def parse_rationals(source: str) -> List[Fraction]:
    """Parse comma-separated numbers, each as the DSL writes it: ``p``,
    ``p/q`` or a finite decimal, possibly negative."""
    return _parse_all(
        source, lambda parser: parser.separated(parser.parse_number, ","))


def parse_valuation(source: str) -> Dict[str, Fraction]:
    """Parse ``x=3,y=1/2`` into a valuation."""
    source = source.strip()
    return _parse_all(source, _Parser.parse_valuation) if source else {}


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

class SystemDecl(Struct, frozen=False):
    left: Token  # the type names, where they are read
    right: Token
    left_dual: bool = False
    right_dual: bool = False


class SpecFile(Struct, frozen=False):
    clocks: Tuple[str, ...] = ()
    # None: a new dict
    types: Dict[str, TypeNode] = None
    processes: Dict[str, ProcNode] = None
    systems: Dict[str, SystemDecl] = None

    def __post_init__(self) -> None:
        for name in ("types", "processes", "systems"):
            if getattr(self, name) is None:
                setattr(self, name, {})

    def resolve_system(self, name: str) -> Tuple[TypeNode, TypeNode]:
        if name not in self.systems:
            raise ParseError(f"unknown system {name!r}")
        decl = self.systems[name]
        left = self.types[decl.left.text]
        right = self.types[decl.right.text]
        if decl.left_dual:
            left = dual(left)
        if decl.right_dual:
            right = dual(right)
        return left, right


def parse_spec_file(source: str) -> SpecFile:
    parser = _Parser(source)
    spec = SpecFile()
    declarations = {"type": (spec.types, _Parser.parse_type),
                    "process": (spec.processes, _parse_program),
                    "system": (spec.systems, _Parser.parse_system)}
    declared_clocks: List[str] = []
    while parser.peek().kind != "eof":
        keyword = parser.peek().text
        if not parser.at(keyword) or keyword not in ("clocks", *declarations):
            raise parser.error("expected clocks, type, process, or system")
        parser.advance()
        if keyword == "clocks":
            declared_clocks += parser.separated(parser.clock_name, ",")
            parser.expect(";")
            continue
        table, rule = declarations[keyword]
        name = parser.name(f"{keyword} name")
        if name in table:
            raise parser.error(f"duplicate {keyword} name {name!r}")
        parser.expect("=")
        table[name] = rule(parser)
    if not declared_clocks:
        declared_clocks = sorted(set().union(*map(type_clocks,
                                                  spec.types.values())))
    spec.clocks = tuple(dict.fromkeys(declared_clocks))
    for name, decl in spec.systems.items():
        for tok in (decl.left, decl.right):
            if tok.text not in spec.types:  # fail fast, at the dangling name
                raise ParseError(f"system {name!r} references unknown type "
                                 f"{tok.text!r}", tok.line, tok.col)
    return spec
