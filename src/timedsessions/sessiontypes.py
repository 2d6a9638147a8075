"""Timed session type AST, duality, and the well-formedness judgement.

A type is a guarded choice among send/receive options, a recursive
definition, a recursion variable, or the terminated type.  Every option
carries a payload sort, a clock guard, and a reset set.

Well-formedness synthesizes, bottom-up, the constraint characterising the
times at which each subterm can be entered (the past-closure of the
disjunction of its head guards) and checks three conditions at every
choice: feasibility (each option's reset image can still drive its
continuation), mixed-choice safety (differently-directed options are never
enabled at the same reachable instant), and delegation (delegated sessions
are well-formed from their initial constraint).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Tuple, Union)

from .constraints import (
    And,
    Atom,
    Constraint,
    TRUE,
    atom_eq,
    atoms_of,
    clocks_of,
    conj,
    disj,
    eval_constraint,
    zero_valuation,
)
from .errors import SpecError
from .zones import entails, future, is_sat, past, reset_constraint

# ---------------------------------------------------------------------------
# Payload sorts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseSort:
    name: str  # Nat | Bool | Str | None

    def __str__(self) -> str:
        return self.name


NAT = BaseSort("Nat")
BOOL = BaseSort("Bool")
STR = BaseSort("Str")
NONE = BaseSort("None")


@dataclass(frozen=True)
class Delegate:
    """Higher-order payload: a session handed over with its entry constraint."""

    init_constraint: Constraint
    session: "TypeNode"

    def __str__(self) -> str:
        return f"({self.init_constraint}, {format_type(self.session)})"


PayloadSort = Union[BaseSort, Delegate]


# ---------------------------------------------------------------------------
# Type AST
# ---------------------------------------------------------------------------

SEND = "!"
RECV = "?"


@dataclass(frozen=True)
class ChoiceOption:
    direction: str  # SEND or RECV
    label: str
    payload: PayloadSort
    guard: Constraint
    resets: FrozenSet[str]
    continuation: "TypeNode"


@dataclass(frozen=True)
class Choice:
    options: Tuple[ChoiceOption, ...]

    def __post_init__(self) -> None:
        if not self.options:
            raise SpecError("a choice needs at least one option")


@dataclass(frozen=True)
class Rec:
    var: str
    body: "TypeNode"


@dataclass(frozen=True)
class Var:
    var: str


@dataclass(frozen=True)
class End:
    pass


TypeNode = Union[Choice, Rec, Var, End]

END = End()


def option(direction: str, label: str, guard: Constraint = TRUE,
           resets=(), payload: PayloadSort = NONE,
           continuation: TypeNode = END) -> ChoiceOption:
    return ChoiceOption(direction, label, payload, guard, frozenset(resets),
                        continuation)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def type_options(node: TypeNode, delegated: bool = False
                 ) -> Iterator[ChoiceOption]:
    """Every option of every choice in the type (and, if delegated is set,
    in the sessions its payloads delegate)."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Rec):
            stack.append(node.body)
        elif isinstance(node, Choice):
            for opt in node.options:
                yield opt
                stack.append(opt.continuation)
                if delegated and isinstance(opt.payload, Delegate):
                    stack.append(opt.payload.session)


def guard_atoms(node: TypeNode) -> Iterator[Atom]:
    """The atoms of every guard, delegated sessions included."""
    for opt in type_options(node, delegated=True):
        yield from atoms_of(opt.guard)


def type_clocks(node: TypeNode) -> set:
    """All clock names mentioned in guards and resets (not delegated bodies)."""
    out: set = set()
    for opt in type_options(node):
        out |= clocks_of(opt.guard)
        out |= opt.resets
    return out


def max_constant(node: TypeNode) -> Fraction:
    """Largest guard constant, used for default horizons and clock capping."""
    return max((abs(atom.const) for atom in guard_atoms(node)),
               default=Fraction(0))


def has_diagonal_atoms(node: TypeNode) -> bool:
    return any(atom.sub is not None for atom in guard_atoms(node))


_OPPOSITE = {SEND: RECV, RECV: SEND}


def map_continuations(node: TypeNode, f: Callable[[TypeNode], TypeNode],
                      directions: Optional[Mapping[str, str]] = None
                      ) -> TypeNode:
    """node with f applied to the body of a recursion or to the continuation
    of every option of a choice, and each option's direction looked up in
    directions if given."""
    if isinstance(node, Rec):
        return Rec(node.var, f(node.body))
    if isinstance(node, Choice):
        return Choice(tuple(
            ChoiceOption(directions[o.direction] if directions else o.direction,
                         o.label, o.payload, o.guard, o.resets,
                         f(o.continuation))
            for o in node.options))
    return node


def dual(node: TypeNode) -> TypeNode:
    """Swap every send with a receive; everything else is preserved."""
    return map_continuations(node, dual, _OPPOSITE)


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)
# ---------------------------------------------------------------------------

def format_type(node: TypeNode) -> str:
    if isinstance(node, End):
        return "end"
    if isinstance(node, Var):
        return node.var
    if isinstance(node, Rec):
        return f"rec {node.var} . {format_type(node.body)}"
    assert isinstance(node, Choice)
    rendered = [_format_option(opt) for opt in node.options]
    if len(rendered) == 1:
        return rendered[0]
    return "{ " + " , ".join(rendered) + " }"


def _format_option(opt: ChoiceOption) -> str:
    out = opt.direction + opt.label
    if opt.payload != NONE:
        out += f"<{opt.payload}>"
    guard_bits = []
    if opt.guard != TRUE:
        guard_bits.append(str(opt.guard))
    if opt.resets:
        guard_bits.append("{" + ",".join(sorted(opt.resets)) + "}")
    if guard_bits:
        out += "(" + ", ".join(guard_bits) + ")"
    if not isinstance(opt.continuation, End):
        out += f".{format_type(opt.continuation)}"
    return out


# ---------------------------------------------------------------------------
# The entry-time constraint (gamma)
# ---------------------------------------------------------------------------

def gamma(node: TypeNode, env: Optional[Mapping[str, Constraint]] = None) -> Constraint:
    """Constraint over clocks characterising when the type can still act.

    Choices yield the past of the disjunction of their guards, end is always
    enterable, recursion variables take their binding, and a recursive
    definition takes the entry constraint of its body's head.
    """
    env = dict(env or {})
    if isinstance(node, End):
        return TRUE
    if isinstance(node, Var):
        if node.var not in env:
            raise SpecError(f"unbound recursion variable {node.var!r}")
        return env[node.var]
    if isinstance(node, Rec):
        env[node.var] = gamma_of_head(node.body, env)
        return gamma(node.body, env)
    assert isinstance(node, Choice)
    return past(disj(*[opt.guard for opt in node.options]))


def gamma_of_head(node: TypeNode, env: Optional[Mapping[str, Constraint]] = None) -> Constraint:
    """gamma of the first non-recursive constructor (guards do not depend on
    continuations, so this needs no fixpoint)."""
    while isinstance(node, Rec):
        node = node.body
    return gamma(node, env)


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    path: Tuple[str, ...]
    condition: str  # feasibility | mixed-choice | delegation | unbound-var | duplicate-label
    witness: str


@dataclass(frozen=True)
class WfReport:
    verdict: bool
    violations: Tuple[Violation, ...]

    def __post_init__(self) -> None:
        assert self.verdict == (not self.violations)


def initial_reach(nu: Mapping[str, Fraction]) -> Constraint:
    """Constraint describing {nu + t | t >= 0}: the trajectory from nu."""
    ordered = sorted(nu)
    parts: List[Constraint] = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            parts.append(atom_eq(a, Fraction(nu[a]) - Fraction(nu[b]), b))
    if ordered:
        first = ordered[0]
        base = Fraction(nu[first])
        from .constraints import atom_ge

        parts.append(atom_ge(first, base))
    return conj(*parts)


class _WfChecker:
    """One checking pass; reach-tracking may be disabled for the conservative
    second pass when a recursion is re-entered outside its analysed reach."""

    def __init__(self, clocks, track_reach: bool):
        self.clocks = tuple(sorted(clocks))
        self.track_reach = track_reach
        self.violations: List[Violation] = []
        self.reach_escaped = False

    def check(self, node: TypeNode, path: Tuple[str, ...],
              gamma_env: Dict[str, Constraint],
              reach_env: Dict[str, Constraint],
              reach: Constraint) -> None:
        if isinstance(node, End):
            return
        if isinstance(node, Var):
            if node.var not in gamma_env:
                self.violations.append(
                    Violation(path, "unbound-var", node.var))
                return
            bound_reach = reach_env[node.var]
            if self.track_reach and not entails(reach, bound_reach, self.clocks):
                self.reach_escaped = True
            return
        if isinstance(node, Rec):
            genv = dict(gamma_env)
            renv = dict(reach_env)
            try:
                genv[node.var] = gamma_of_head(node.body, genv)
            except SpecError as exc:
                self.violations.append(Violation(path, "unbound-var", str(exc)))
                return
            renv[node.var] = reach
            self.check(node.body, path, genv, renv, reach)
            return
        assert isinstance(node, Choice)
        seen_labels = set()
        for opt in node.options:
            if opt.label in seen_labels:
                self.violations.append(
                    Violation(path, "duplicate-label", opt.label))
            seen_labels.add(opt.label)
        options = node.options
        # (mixed-choice) differently-directed options must be time-disjoint
        # at every valuation this choice can actually be reached with.
        for i in range(len(options)):
            for j in range(i + 1, len(options)):
                a, b = options[i], options[j]
                if a.direction == b.direction:
                    continue
                overlap = And(a.guard, b.guard)
                if self.track_reach:
                    overlap = And(reach, overlap)
                if is_sat(overlap, self.clocks):
                    self.violations.append(Violation(
                        path, "mixed-choice", f"{a.label}/{b.label}"))
        for opt in options:
            opt_path = path + (opt.label,)
            genv = dict(gamma_env)
            try:
                cont_gamma = gamma(opt.continuation, genv)
            except SpecError as exc:
                self.violations.append(
                    Violation(opt_path, "unbound-var", str(exc)))
                continue
            # (feasibility) the reset image of the guard must still permit
            # the continuation to act.
            reset_image = reset_constraint(opt.guard, opt.resets, self.clocks)
            if not entails(reset_image, cont_gamma, self.clocks):
                self.violations.append(Violation(
                    opt_path, "feasibility", str(cont_gamma)))
            # (delegation) delegated sessions are checked from scratch.
            if isinstance(opt.payload, Delegate):
                inner = opt.payload
                inner_clocks = sorted(set(self.clocks)
                                      | type_clocks(inner.session)
                                      | clocks_of(inner.init_constraint))
                try:
                    inner_gamma = gamma(inner.session, {})
                except SpecError as exc:
                    self.violations.append(
                        Violation(opt_path, "unbound-var", str(exc)))
                    inner_gamma = None
                if inner_gamma is not None:
                    if not entails(inner.init_constraint, inner_gamma, inner_clocks):
                        self.violations.append(Violation(
                            opt_path, "delegation", str(inner_gamma)))
                    sub = _WfChecker(inner_clocks, self.track_reach)
                    sub_reach = future(inner.init_constraint, inner_clocks)
                    sub.check(inner.session, opt_path, {}, {}, sub_reach)
                    self.violations.extend(sub.violations)
                    self.reach_escaped |= sub.reach_escaped
            if self.track_reach:
                entered = And(reach, opt.guard)
                next_reach = future(
                    reset_constraint(entered, opt.resets, self.clocks),
                    self.clocks)
            else:
                next_reach = TRUE
            reach_env2 = dict(reach_env)
            self.check(opt.continuation, opt_path, genv, reach_env2, next_reach)


def check_well_formed(node: TypeNode,
                      nu: Optional[Mapping[str, Fraction]] = None,
                      clocks=None) -> WfReport:
    """Decide well-formedness of a type with respect to a valuation.

    The verdict is true iff the valuation satisfies the type's entry
    constraint and the feasibility, mixed-choice and delegation conditions
    hold at every choice.  Violations are reported with the option path that
    produced them; nothing is thrown.
    """
    clock_set = set(clocks) if clocks is not None else set()
    clock_set |= type_clocks(node)
    if nu is None:
        nu = zero_valuation(sorted(clock_set))
    else:
        clock_set |= set(nu)
        nu = {name: Fraction(value) for name, value in nu.items()}
        for name in clock_set - set(nu):
            nu[name] = Fraction(0)

    checker = _WfChecker(clock_set, track_reach=True)
    checker.check(node, (), {}, {}, initial_reach(nu))
    if checker.reach_escaped:
        # A recursion is re-entered outside the reach it was analysed with;
        # fall back to a conservative pass with no reach restriction.
        checker = _WfChecker(clock_set, track_reach=False)
        checker.check(node, (), {}, {}, TRUE)

    violations = list(checker.violations)
    try:
        if not eval_constraint(nu, gamma(node, {})):
            violations.append(Violation((), "feasibility",
                                        "initial valuation outside entry constraint"))
    except SpecError as exc:
        violations.append(Violation((), "unbound-var", str(exc)))
    return WfReport(not violations, tuple(violations))
