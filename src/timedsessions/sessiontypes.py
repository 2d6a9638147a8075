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
are well-formed from their initial constraint).  Mixed-choice safety is
judged against the region each subterm can be reached with; one walk also
collects the answer under the universal region, which stands whenever a
recursion is re-entered outside the region its binder was checked with.
The checker works on ZoneSets throughout.  A choice's guards are compiled
once for its whole family, the choice and every choice rebuilt from it by
duality, unfolding or substitution (``CompiledGuards``, read through
``Choice.compiled``), and once for each clock tuple a reader asks for
(``Choice.over``): each option's guard zones, the entry constraint, the
down-closure of those guards, and the guard overlaps and feasibility
verdicts the checker derives from them.  The checker asks for the type's
clocks and the progress explorer for a valuation's, so no reader widens a
zone; ``Choice.entry`` renders the entry over the guards' own clocks, only
for witnesses, from the family's compile over those clocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import is_
from types import MappingProxyType
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Tuple, Union)

from .constraints import (
    Atom,
    Constraint,
    Struct,
    TRUE,
    _SET,
    atoms_of,
    clocks_of,
    zero_valuation,
)
from .errors import SpecError
from .zones import (Zone, ZoneSet, to_zones, trajectory_zone, zoneset_contains,
                    zoneset_entails, zoneset_meet, zoneset_meets,
                    zoneset_to_constraint)

# ---------------------------------------------------------------------------
# Payload sorts
# ---------------------------------------------------------------------------


class BaseSort(Struct):
    name: str  # Nat | Bool | Str | None

    def __str__(self) -> str:
        return self.name


NAT = BaseSort("Nat")
BOOL = BaseSort("Bool")
STR = BaseSort("Str")
NONE = BaseSort("None")


class Delegate(Struct):
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


class ChoiceOption(Struct):
    direction: str  # SEND or RECV
    label: str
    payload: PayloadSort
    guard: Constraint
    resets: FrozenSet[str]
    continuation: "TypeNode"

    # written out, as in Choice and Violation: dual and the checker build
    # these nodes on every walk, and the generic Struct.__init__ costs more
    def __init__(self, direction, label, payload, guard, resets,
                 continuation) -> None:
        _SET(self, "__dict__", {
            "direction": direction, "label": label, "payload": payload,
            "guard": guard, "resets": resets, "continuation": continuation})


class CompiledGuards:
    """The guards of a choice family, compiled once for each clock tuple a
    reader asks for (``over``), and their other parts once, on first use.
    A choice family is a choice and every choice that
    ``map_continuations`` rebuilds from it (its dual, its unfoldings, its
    substitutions): that function changes only directions and
    continuations, so they all hold the same guard objects and resets in
    the same order, and they all hold this one object.  The zones are
    shared, never copied: no reader tightens a zone it did not build.

    Each compile also holds the booleans the well-formedness walk derives
    from the family alone, on first ask, so a type and its dual derive
    them once: under ``(i, j)`` whether the guards of options i < j overlap
    (asked where their directions differ, which duality flips for both),
    under ``(i, F)`` whether option i's reset guard entails the entry of
    the continuation family F."""

    def __init__(self, guards: Tuple[Constraint, ...]):
        self.guards = guards
        self.compiles: Dict[Tuple[str, ...], tuple] = {}  # by ``over``

    @cached_property
    def clocks(self) -> Tuple[str, ...]:
        """The sorted clocks the guards name."""
        return tuple(sorted(set().union(*map(clocks_of, self.guards))))

    def over(self, clocks: Tuple[str, ...]
             ) -> Tuple[Tuple[ZoneSet, ...], ZoneSet, dict]:
        """Each option's guard ZoneSet, the entry ZoneSet (gamma of the
        choice, the down-closure of the guard zones) and the facts over
        the sorted clock tuple ``clocks``, built on its first request.  A
        canonical zone built over more clocks is the one built over fewer
        and widened, so no reader widens.  Readers ask with the clocks of a
        valuation, which must hold every guard clock."""
        found = self.compiles.get(clocks)
        if found is None:
            missing = set(self.clocks).difference(clocks)
            if missing:
                raise SpecError(f"valuation lacks clock {min(missing)!r}")
            zones = tuple(to_zones(guard, clocks) for guard in self.guards)
            found = self.compiles[clocks] = (
                zones, [zone.down() for guard in zones for zone in guard], {})
        return found

    @cached_property
    def entry(self) -> Constraint:
        """The entry over the guards' own clocks rendered as a constraint,
        for witnesses: the family's compile over those clocks."""
        return zoneset_to_constraint(self.over(self.clocks)[1])

    @cached_property
    def clock_bounds(self) -> Tuple[Tuple[str, Fraction], ...]:
        """The (clock, const) of every single-clock guard atom, in order and
        without repeats: the boundaries a delay can cross."""
        return tuple(dict.fromkeys(
            (atom.clock, atom.const) for guard in self.guards
            for atom in atoms_of(guard) if atom.sub is None))


class Choice(Struct):
    options: Tuple[ChoiceOption, ...]

    def __init__(self, options) -> None:
        if not options:
            raise SpecError("a choice needs at least one option")
        _SET(self, "__dict__", {"options": options})

    @cached_property
    def compiled(self) -> CompiledGuards:
        """The guards of the choice's family, compiled once for all of it;
        ``map_continuations`` hands it on to every choice it rebuilds."""
        return CompiledGuards(tuple(opt.guard for opt in self.options))

    # read through the family's compile, so no choice compiles its own
    over = property(lambda self: self.compiled.over)
    entry = property(lambda self: self.compiled.entry)
    clock_bounds = property(lambda self: self.compiled.clock_bounds)

    @cached_property
    def clock_ceilings(self) -> Mapping[str, Fraction]:
        """M_h(x) of this head h for each clock x: the largest constant
        compared with x in a guard reachable from h before x is reset, a
        diagonal atom counting for both of its clocks.  A clock without
        one is inactive at h.  Delegated sessions are not followed, since
        no exploration runs them.  The first request on any head runs
        ``_ceilings_fixpoint`` over every head reachable from it, which
        stores each head's result here."""
        _ceilings_fixpoint(self)
        return vars(self)["clock_ceilings"]

    @cached_property
    def printed(self) -> str:
        """format_type of the choice, rendered once from the printed forms
        of its continuations."""
        rendered = [_format_option(opt) for opt in self.options]
        if len(rendered) == 1:
            return rendered[0]
        return "{ " + " , ".join(rendered) + " }"


class Rec(Struct):
    var: str
    body: "TypeNode"

    @cached_property
    def unfolded(self) -> "TypeNode":
        """body[rec/var], built once: unfolding it again reaches this same
        object, so the unfoldings of a type form a finite graph."""
        return _subst_type(self.body, self.var, self)

    @cached_property
    def printed(self) -> str:
        """format_type of the recursion, rendered once."""
        return f"rec {self.var} . {format_type(self.body)}"


class Var(Struct):
    var: str


class End(Struct):
    """The terminated type: a head with no options, enterable at any time."""

    options = ()
    clock_bounds = ()
    clock_ceilings = MappingProxyType({})  # read-only: shared by every End
    printed = "end"
    entry = TRUE

    def over(self, clocks: Tuple[str, ...]) -> Tuple[tuple, ZoneSet, dict]:
        """No guards, the universal entry over ``clocks`` and no facts."""
        return (), [Zone.universal(clocks)], {}


TypeNode = Union[Choice, Rec, Var, End]

END = End()


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def unfold_head(node: TypeNode) -> TypeNode:
    """Unfold recursive definitions until the head is a choice or end.

    Each recursion is unfolded once (``Rec.unfolded``), so repeated calls on
    the same node return the same object and continuations stay stable."""
    while isinstance(node, Rec):
        node = node.unfolded
    if isinstance(node, Var):
        raise SpecError(f"unguarded recursion variable {node.var!r} at head")
    return node


def _ceilings_fixpoint(root: Choice) -> None:
    """Store ``clock_ceilings`` on root and on every head reachable from it
    whose ceilings are not known yet: one least fixpoint over all of them,
    the static guard analysis of Behrmann, Bouyer, Fleury & Larsen (TACAS
    2003).  Each head starts from the constants its own guards compare,
    read once; then plain rounds over the edges found, the last found
    first, raise the head before each edge to the ceilings after it, minus
    the clocks the edge resets, until a round raises nothing.  A head whose
    ceilings are known (end, or a head of an earlier fixpoint) is fixed:
    it only raises the heads before it."""
    ceilings: Dict[int, Dict[str, Fraction]] = {id(root): {}}
    heads, stack, edges = [root], [root], []  # edges: (mine, after, resets)
    while stack:
        head = stack.pop()
        mine = ceilings[id(head)]
        for opt in head.options:
            for atom in atoms_of(opt.guard):
                const = abs(atom.const)
                for clock in (atom.clock, atom.sub):
                    if clock and const > mine.get(clock, -1):
                        mine[clock] = const
            after = unfold_head(opt.continuation)
            if not after.options or "clock_ceilings" in vars(after):
                edges.append((mine, after.clock_ceilings, opt.resets))
                continue
            if id(after) not in ceilings:
                ceilings[id(after)] = {}
                heads.append(after)
                stack.append(after)
            edges.append((mine, ceilings[id(after)], opt.resets))
    grew = True
    while grew:
        grew = False
        for mine, after, resets in reversed(edges):
            for clock, const in after.items():
                if clock not in resets and const > mine.get(clock, -1):
                    mine[clock] = const
                    grew = True
    for head in heads:
        vars(head)["clock_ceilings"] = ceilings[id(head)]


def type_choices(node: TypeNode) -> Iterator[Choice]:
    """Every choice in the type; the sessions its payloads delegate are
    left out, since no exploration runs them."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Rec):
            stack.append(node.body)
        elif isinstance(node, Choice):
            yield node
            stack.extend(opt.continuation for opt in node.options)


def guard_atoms(node: TypeNode) -> Iterator[Atom]:
    """The atoms of every guard of ``type_choices``: the guards an
    exploration of the type runs."""
    for choice in type_choices(node):
        for opt in choice.options:
            yield from atoms_of(opt.guard)


def type_clocks(node: TypeNode) -> set:
    """All clock names mentioned in the guards and resets of
    ``type_choices``; each choice family's guard clocks are read once, from
    its compile (``CompiledGuards.clocks``)."""
    out: set = set()
    for choice in type_choices(node):
        out.update(choice.compiled.clocks)
        for opt in choice.options:
            out |= opt.resets
    return out


def max_constant(node: TypeNode) -> Fraction:
    """Largest constant of ``guard_atoms``.  Only the benchmark's
    counterexample replay reads it, for the cap one above it that it hands
    to ``region_canonical``."""
    return max((abs(atom.const) for atom in guard_atoms(node)),
               default=Fraction(0))


_OPPOSITE = {SEND: RECV, RECV: SEND}


def map_continuations(node: TypeNode, f: Callable[[TypeNode], TypeNode],
                      directions: Optional[Mapping[str, str]] = None
                      ) -> TypeNode:
    """node with f applied to the body of a recursion or to the continuation
    of every option of a choice, and each option's direction looked up in
    directions if given.

    Returns node itself, and each option itself, when f returns every child
    unchanged and no direction changes, so a walk that changes nothing
    builds nothing and keeps what the nodes compiled.  A rebuilt choice
    keeps the guards of node, so it shares node's ``compiled``; what
    depends on directions or continuations (``printed``,
    ``clock_ceilings``) it builds anew."""
    if isinstance(node, Rec):
        body = f(node.body)
        return node if body is node.body else Rec(node.var, body)
    if isinstance(node, Choice):
        options = []
        for o in node.options:
            direction = directions[o.direction] if directions else o.direction
            continuation = f(o.continuation)
            if direction != o.direction or continuation is not o.continuation:
                o = ChoiceOption(direction, o.label, o.payload, o.guard,
                                 o.resets, continuation)
            options.append(o)
        if all(map(is_, options, node.options)):
            return node
        rebuilt = Choice(tuple(options))
        vars(rebuilt)["compiled"] = node.compiled  # the same guards
        return rebuilt
    return node


def _subst_type(node: TypeNode, var: str, repl: TypeNode) -> TypeNode:
    """node[repl/var].  Subtrees in which var is not free come back as the
    same objects, so the unfoldings of a type form a finite graph."""
    if isinstance(node, Var):
        return repl if node.var == var else node
    if isinstance(node, Rec) and node.var == var:  # shadowed
        return node
    return map_continuations(node, lambda n: _subst_type(n, var, repl))


def dual(node: TypeNode) -> TypeNode:
    """Swap every send with a receive; everything else is preserved."""
    return map_continuations(node, dual, _OPPOSITE)


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)
# ---------------------------------------------------------------------------

def format_type(node: TypeNode) -> str:
    """The text of a type, which ``parse_type`` reads back.  Each choice and
    recursion node renders once (its ``printed``), from the printed forms
    of its children, so a head and its unfoldings share what they have
    in common."""
    return node.var if isinstance(node, Var) else node.printed


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

def gamma_head(node: TypeNode,
               env: Optional[Mapping[str, TypeNode]] = None) -> TypeNode:
    """The choice or end whose ``entry`` is gamma, the constraint over clocks
    under which the type can still act: a recursion takes the head of its
    body and a recursion variable the head bound to it in env (guards do not
    depend on continuations, so this needs no fixpoint)."""
    while isinstance(node, Rec):
        node = node.body
    if isinstance(node, Var):
        if env is None or node.var not in env:
            raise SpecError(f"unbound recursion variable {node.var!r}")
        return env[node.var]
    return node


def gamma(node: TypeNode) -> Constraint:
    """gamma of a closed type as a constraint: its ``gamma_head``'s entry."""
    return gamma_head(node).entry


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

class Violation(Struct):
    path: Tuple[str, ...]
    condition: str  # feasibility | mixed-choice | delegation | unbound-var | duplicate-label
    witness: str

    def __init__(self, path, condition, witness) -> None:
        _SET(self, "__dict__", {
            "path": path, "condition": condition, "witness": witness})


class WfReport(Struct):
    verdict: bool
    violations: Tuple[Violation, ...]

    def __post_init__(self) -> None:
        assert self.verdict == (not self.violations)


class _WfChecker:
    """One walk over ZoneSets on the sorted clock tuple ``clocks``.

    ``reach`` is the region of valuations a subterm can be entered with, and
    ``reach_env`` binds each recursion variable to the reach its binder was
    analysed with.  ``violations`` lists, in walk order, the violations under
    the universal reach, each marked with whether it also holds under the
    tracked reach: only mixed-choice safety depends on the reach.  Once a
    recursion is re-entered outside its analysed reach (``escaped``), only
    the universal answer stands, and the walk goes on with ``reach`` None.
    Guards, entry constraints and the facts derived from them alone are
    what each choice family compiles once over ``clocks`` (``Choice.over``),
    so a type and its dual read one compile."""

    def __init__(self, clocks):
        self.clocks = tuple(sorted(clocks))
        self.violations: List[Tuple[Violation, bool]] = []
        self.escaped = False

    def add(self, path: Tuple[str, ...], condition: str, witness: str,
            tracked: bool = True) -> None:
        self.violations.append((Violation(path, condition, witness), tracked))

    def check(self, node: TypeNode, path: Tuple[str, ...],
              gamma_env: Dict[str, TypeNode],
              reach_env: Dict[str, Optional[ZoneSet]],
              reach: Optional[ZoneSet]) -> None:
        if isinstance(node, Var):
            if node.var not in gamma_env:
                self.add(path, "unbound-var", node.var)
            elif reach is not None and not zoneset_entails(
                    reach, reach_env[node.var]):
                self.escaped = True
            return
        if isinstance(node, Rec):
            try:
                head = gamma_head(node.body, gamma_env)
            except SpecError as exc:
                self.add(path, "unbound-var", str(exc))
                return
            self.check(node.body, path, {**gamma_env, node.var: head},
                       {**reach_env, node.var: reach}, reach)
            return
        if not node.options:  # end
            return
        seen_labels = set()
        for opt in node.options:
            if opt.label in seen_labels:
                self.add(path, "duplicate-label", opt.label)
            seen_labels.add(opt.label)
        options = node.options
        guards, _, facts = node.over(self.clocks)
        # each option's reach pieces: the reach met with its guard, fresh
        met = None if reach is None else [
            zoneset_meet(reach, guard) for guard in guards]
        # (mixed-choice) differently-directed options must be time-disjoint
        # at every valuation this choice can actually be reached with.
        for i, j in combinations(range(len(options)), 2):
            a, b = options[i], options[j]
            if a.direction == b.direction:
                continue
            overlap = facts.get((i, j))
            if overlap is None:
                overlap = facts[i, j] = zoneset_meets(guards[i], guards[j])
            if overlap:
                self.add(path, "mixed-choice", f"{a.label}/{b.label}",
                         met is not None and zoneset_meets(met[i], guards[j]))
        for i, (opt, guard) in enumerate(zip(options, guards)):
            opt_path = path + (opt.label,)
            try:
                cont = gamma_head(opt.continuation, gamma_env)
            except SpecError as exc:
                self.add(opt_path, "unbound-var", str(exc))
                continue
            # (feasibility) the reset image of the guard must still permit
            # the continuation to act; end can always act.
            if cont.options:
                key = i, cont.compiled
                feasible = facts.get(key)
                if feasible is None:
                    feasible = facts[key] = zoneset_entails(
                        [z.reset(opt.resets) for z in guard]
                        if opt.resets else guard, cont.over(self.clocks)[1])
                if not feasible:
                    self.add(opt_path, "feasibility", str(cont.entry))
            # (delegation) delegated sessions are checked from scratch.
            if isinstance(opt.payload, Delegate):
                self.check_delegation(opt.payload, opt_path)
            if self.escaped:
                reach = None
            self.check(opt.continuation, opt_path, gamma_env, reach_env,
                       None if reach is None else
                       [z.reset_up(opt.resets) for z in met[i]])

    def check_delegation(self, inner: Delegate, path: Tuple[str, ...]) -> None:
        """Check a delegated session from scratch, over its clocks and this
        walk's, from the up-closure of its init zones (no reach once this
        walk has escaped)."""
        try:
            inner_head = gamma_head(inner.session)
        except SpecError as exc:
            self.add(path, "unbound-var", str(exc))
            return
        sub = _WfChecker(set(self.clocks) | type_clocks(inner.session)
                         | clocks_of(inner.init_constraint))
        init = to_zones(inner.init_constraint, sub.clocks)
        if not zoneset_entails(init, inner_head.over(sub.clocks)[1]):
            self.add(path, "delegation", str(inner_head.entry))
        sub.check(inner.session, path, {}, {},
                  None if self.escaped else [z.up() for z in init])
        self.violations.extend(sub.violations)
        self.escaped |= sub.escaped


def check_well_formed(node: TypeNode,
                      nu: Optional[Mapping[str, Fraction]] = None,
                      clocks=None) -> WfReport:
    """Decide well-formedness of a type with respect to a valuation.

    The verdict is true iff the valuation lies in the type's entry zones
    and the feasibility, mixed-choice and delegation conditions
    hold at every choice.  Violations are reported with the option path that
    produced them; only a negative clock value is refused, with a
    ``SpecError`` (``trajectory_zone``).  One ``_WfChecker`` walks the type
    once (plus one per delegated session); if a recursion escaped its
    reach, the report lists the violations under the universal reach,
    otherwise those under the tracked one.
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

    checker = _WfChecker(clock_set)
    # the trajectory {nu + t | t >= 0}: nu's first unit of it, closed upward
    reach = ([trajectory_zone(nu, 1, include_end=True).up()] if nu
             else [Zone.universal(checker.clocks)])
    checker.check(node, (), {}, {}, reach)
    # A recursion re-entered outside the reach it was analysed with leaves
    # only the conservative answer, the violations under no reach restriction.
    violations = [violation for violation, tracked in checker.violations
                  if tracked or checker.escaped]
    try:
        entry = gamma_head(node).over(checker.clocks)[1]
        if not zoneset_contains(entry, nu):
            violations.append(Violation((), "feasibility",
                                        "initial valuation outside entry constraint"))
    except SpecError as exc:
        violations.append(Violation((), "unbound-var", str(exc)))
    return WfReport(not violations, tuple(violations))
