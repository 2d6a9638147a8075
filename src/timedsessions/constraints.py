"""Clock valuations and the clock-constraint language.

The core constraint grammar is ``true | x>c | x=c | x-y>c | x-y=c`` closed
under negation and conjunction.  Comparisons such as ``<``, ``<=``, ``>=``,
``!=`` and bounded intervals are surface sugar and are desugared by the
parser (and by the helper constructors below) into this core; disjunction
is admitted internally since the well-formedness rules take the past of a
disjunction of guards.

Satisfaction is decided here by direct structural evaluation over exact
rationals.  The zone machinery in :mod:`timedsessions.zones` provides the
canonical decision form; the two are kept independent so each can serve as
an oracle for the other.  ``Struct``, the base of every value class of the
package, lives here, in the module that every layer imports.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Dict, Iterator, Mapping, Set, Union

from .errors import SpecError

Valuation = Dict[str, Fraction]

_SET = object.__setattr__


class Struct:
    """The base of the value classes.  A class declares its fields as
    annotations, in order, and a field's default as a class attribute.
    Values are equal when their classes and their fields are, and print as
    ``Name(field=value, ...)``.  A class is frozen, refusing assignment and
    hashable, unless it says ``frozen=False``, which leaves it unhashable.
    ``__init__`` runs ``__post_init__`` last."""

    _fields = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        cls._fields = fields = tuple(dict.fromkeys(
            name for base in reversed(cls.__mro__)
            for name in vars(base).get("__annotations__", ())))
        cls._key = attrgetter(*fields or ("_fields",))  # one bare, none ()
        if not frozen:
            cls.__hash__, cls.__setattr__, cls.__delattr__ = (
                None, _SET, object.__delattr__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # keywords, defaults, errors
            cls, given = type(self), dict(zip(fields, args), **kwargs)
            if (len(args) > len(fields) or len(given) < len(args) + len(kwargs)
                    or not given.keys() <= set(fields) or not all(
                        name in given or hasattr(cls, name) for name in fields)):
                raise TypeError(f"{cls.__name__}{fields}: a field is "
                                "missing, repeated or unknown")
            args = [given[name] if name in given else getattr(cls, name)
                    for name in fields]
        # a new __dict__, built in C: unlike the split dict that CPython
        # makes from inline values, it keeps reads specialised
        _SET(self, "__dict__", dict(zip(fields, args)))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


# ---------------------------------------------------------------------------
# Constraint AST
# ---------------------------------------------------------------------------

class TrueC(Struct):
    def __str__(self) -> str:
        return "true"


def format_rational(value: Fraction) -> str:
    """Render a Fraction so that parse_rationals(format_rational(q)) ==
    [q]."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Atom(Struct):
    """Core atom ``clock op const`` or ``clock - sub op const`` (op is > or =)."""

    clock: str
    op: str  # '>' or '='
    const: Fraction
    sub: Union[str, None] = None  # second clock of a difference atom

    def __post_init__(self) -> None:
        if self.op not in (">", "="):
            raise ValueError(f"core atoms use > or =, got {self.op!r}")

    def lhs(self) -> str:
        return self.clock if self.sub is None else f"{self.clock}-{self.sub}"

    def __str__(self) -> str:
        return f"{self.lhs()}{self.op}{format_rational(self.const)}"


class Not(Struct):
    inner: "Constraint"

    def __str__(self) -> str:
        return f"not ({self.inner})"


class And(Struct):
    left: "Constraint"
    right: "Constraint"

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class Or(Struct):
    left: "Constraint"
    right: "Constraint"

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


Constraint = Union[TrueC, Atom, Not, And, Or]

TRUE: Constraint = TrueC()
FALSE: Constraint = Not(TrueC())


# ---------------------------------------------------------------------------
# Sugar constructors (desugar to the core grammar)
# ---------------------------------------------------------------------------

def atom_gt(clock: str, const: Fraction, sub: str | None = None) -> Constraint:
    return Atom(clock, ">", Fraction(const), sub)


def atom_eq(clock: str, const: Fraction, sub: str | None = None) -> Constraint:
    return Atom(clock, "=", Fraction(const), sub)


def atom_ge(clock: str, const: Fraction, sub: str | None = None) -> Constraint:
    return Or(atom_gt(clock, const, sub), atom_eq(clock, const, sub))


def atom_le(clock: str, const: Fraction, sub: str | None = None) -> Constraint:
    return Not(atom_gt(clock, const, sub))


def atom_lt(clock: str, const: Fraction, sub: str | None = None) -> Constraint:
    return And(Not(atom_gt(clock, const, sub)), Not(atom_eq(clock, const, sub)))


def atom_ne(clock: str, const: Fraction, sub: str | None = None) -> Constraint:
    return Not(atom_eq(clock, const, sub))


def conj(*parts: Constraint) -> Constraint:
    result: Constraint | None = None
    for part in parts:
        result = part if result is None else And(result, part)
    return TRUE if result is None else result


def disj(*parts: Constraint) -> Constraint:
    result: Constraint | None = None
    for part in parts:
        result = part if result is None else Or(result, part)
    return FALSE if result is None else result


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def atoms_of(c: Constraint) -> Iterator[Atom]:
    if isinstance(c, Atom):
        yield c
    elif isinstance(c, Not):
        yield from atoms_of(c.inner)
    elif isinstance(c, (And, Or)):
        yield from atoms_of(c.left)
        yield from atoms_of(c.right)


def clocks_of(c: Constraint) -> Set[str]:
    names: Set[str] = set()
    for atom in atoms_of(c):
        names.add(atom.clock)
        if atom.sub is not None:
            names.add(atom.sub)
    return names


def map_clocks(c: Constraint, mapping: Mapping[str, str]) -> Constraint:
    """Rename clock names throughout a constraint."""
    if isinstance(c, TrueC):
        return c
    if isinstance(c, Atom):
        sub = mapping.get(c.sub, c.sub) if c.sub is not None else None
        return Atom(mapping.get(c.clock, c.clock), c.op, c.const, sub)
    if isinstance(c, Not):
        return Not(map_clocks(c.inner, mapping))
    if isinstance(c, And):
        return And(map_clocks(c.left, mapping), map_clocks(c.right, mapping))
    if isinstance(c, Or):
        return Or(map_clocks(c.left, mapping), map_clocks(c.right, mapping))
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def zero_valuation(clocks) -> Valuation:
    return {name: Fraction(0) for name in clocks}


def shift(nu: Mapping[str, Fraction], t: Fraction) -> Valuation:
    """Advance every clock by t; t must be nonnegative."""
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"cannot shift by negative time {t}")
    return {name: value + t for name, value in nu.items()}


def eval_constraint(nu: Mapping[str, Fraction], c: Constraint) -> bool:
    """Decide nu |= c by direct structural evaluation."""
    if isinstance(c, TrueC):
        return True
    if isinstance(c, Atom):
        if c.clock not in nu:
            raise _unknown_clock(c.clock)
        value = nu[c.clock]
        if c.sub is not None:
            if c.sub not in nu:
                raise _unknown_clock(c.sub)
            value = value - nu[c.sub]
        return value > c.const if c.op == ">" else value == c.const
    if isinstance(c, Not):
        return not eval_constraint(nu, c.inner)
    if isinstance(c, And):
        return eval_constraint(nu, c.left) and eval_constraint(nu, c.right)
    if isinstance(c, Or):
        return eval_constraint(nu, c.left) or eval_constraint(nu, c.right)
    raise TypeError(f"not a constraint: {c!r}")


def _unknown_clock(name: str) -> SpecError:
    return SpecError(f"unknown clock {name!r} in constraint")


# A constraint compiled to ints: test(now, set_at, scale) decides it where
# each clock x reads (now - set_at[x]) / scale.
IntTest = Callable[[int, Mapping[str, int], int], bool]


def int_test(c: Constraint) -> IntTest:
    """c compiled once into a test over int time: ``eval_constraint`` of c
    on the clocks set at the instants ``set_at``, read at ``now``, all in
    units of 1/``scale``.  An atom ``x>q`` compares (now - set_at[x])·den
    with num·scale; a diagonal ``x-y>q`` compares (set_at[y] - set_at[x])·den.
    Atoms are read in the order ``eval_constraint`` reads them and
    short-circuit alike, so a clock that is not set raises the same error
    at the same atom."""
    if isinstance(c, TrueC):
        return lambda now, set_at, scale: True
    if isinstance(c, Atom):
        clock, sub, gt = c.clock, c.sub, c.op == ">"
        num, den = c.const.numerator, c.const.denominator

        def atom(now: int, set_at: Mapping[str, int], scale: int) -> bool:
            if clock not in set_at:
                raise _unknown_clock(clock)
            value = now - set_at[clock]
            if sub is not None:
                if sub not in set_at:
                    raise _unknown_clock(sub)
                value -= now - set_at[sub]
            value, bound = value * den, num * scale
            return value > bound if gt else value == bound
        return atom
    if isinstance(c, Not):
        inner = int_test(c.inner)
        return lambda now, set_at, scale: not inner(now, set_at, scale)
    if isinstance(c, (And, Or)):
        left, right = int_test(c.left), int_test(c.right)
        if isinstance(c, And):
            return lambda now, set_at, scale: (left(now, set_at, scale)
                                               and right(now, set_at, scale))
        return lambda now, set_at, scale: (left(now, set_at, scale)
                                           or right(now, set_at, scale))
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Finite delay sampling
# ---------------------------------------------------------------------------

def boundary_delays(nu: Mapping[str, Fraction], guards, horizon: Fraction):
    """Delay samples that cover every region boundary any guard can cross:
    the ``sample_delays`` of the guards' single-clock atoms.  Difference
    atoms contribute nothing: they are invariant under uniform delay."""
    return sample_delays(nu, [(atom.clock, atom.const) for guard in guards
                              for atom in atoms_of(guard) if atom.sub is None],
                         horizon)


def sample_delays(nu: Mapping[str, Fraction], bounds, horizon: Fraction):
    """Sorted delay samples for the (clock, const) boundaries in bounds.

    Contains 0, the distance to every boundary within the horizon, the
    midpoints of consecutive collected values, and one sample beyond all
    boundaries.
    """
    horizon = Fraction(horizon)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    collected = {Fraction(0)}
    for clock, const in bounds:
        if clock not in nu:
            raise SpecError(f"unknown clock {clock!r} in guard")
        boundary = const - nu[clock]
        if boundary <= horizon:
            collected.add(max(Fraction(0), boundary))
    ordered = sorted(collected)
    samples = [ordered[0]]
    for a, b in zip(ordered, ordered[1:]):
        samples += ((a + b) / 2, b)
    beyond = min(horizon, ordered[-1] + 1)
    if beyond > ordered[-1]:  # else the horizon is the last boundary
        samples.append(beyond)
    return samples
