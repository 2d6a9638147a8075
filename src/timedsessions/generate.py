"""Seeded random session types.

Used by the acceptance suite and the benchmark: random types feed the
well-formedness and empirical progress checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .constraints import (
    And,
    Constraint,
    TRUE,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
)
from .sessiontypes import (
    Choice,
    ChoiceOption,
    END,
    NONE,
    RECV,
    Rec,
    SEND,
    TypeNode,
    Var,
    WfReport,
    check_well_formed,
)

_LABELS = "abcdefgh"

# The clocks, depth and largest constant of the sampled corpora, which the
# acceptance suite and the benchmark's stored corpora are drawn with.
_CLOCKS, _DEPTH, _MAX_CONSTANT = ("x", "y"), 3, 5


def random_type(rng: random.Random, clocks: Sequence[str] = _CLOCKS,
                depth: int = _DEPTH, max_constant: int = _MAX_CONSTANT
                ) -> TypeNode:
    """A random closed type: guarded choices with integer-constant guards,
    occasional recursion, no payloads."""

    def guard() -> Constraint:
        clock = rng.choice(clocks)
        c = Fraction(rng.randint(0, max_constant))
        roll = rng.random()
        if roll < 0.25:
            return atom_le(clock, c)
        if roll < 0.50:
            return atom_gt(clock, c)
        if roll < 0.65:
            hi = c + rng.randint(1, 2)
            return And(atom_ge(clock, c), atom_lt(clock, hi))
        if roll < 0.75:
            return atom_lt(clock, c) if c > 0 else atom_le(clock, c)
        return TRUE

    counter = [0]

    def fresh_var() -> str:
        counter[0] += 1
        return f"r{counter[0]}"

    # bound maps each open recursion variable to the directions consumed
    # since its binder.  A loop is only closed once it contains both a send
    # and a receive: a cycle of sends floods the peer queue (and a cycle of
    # receives is a cycle of sends for the dual), which would make bounded
    # exploration of the composed system meaningless.
    def leaf(bound) -> TypeNode:
        usable = [v for v, dirs in bound if len(dirs) == 2]
        if usable and rng.random() < 0.6:
            return Var(rng.choice(usable))
        return END

    def choice(depth_left: int, bound) -> TypeNode:
        count = rng.randint(1, 3)
        labels = rng.sample(_LABELS, count)
        options = []
        for label in labels:
            direction = rng.choice((SEND, RECV))
            inner_bound = tuple((v, dirs | {direction}) for v, dirs in bound)
            resets = frozenset(
                clock for clock in clocks if rng.random() < 0.5)
            if depth_left <= 1:
                cont = leaf(inner_bound)
            else:
                cont = subtype(depth_left - 1, inner_bound)
            options.append(ChoiceOption(direction, label, NONE, guard(),
                                        resets, cont))
        return Choice(tuple(options))

    def subtype(depth_left: int, bound) -> TypeNode:
        if depth_left <= 0:
            return leaf(bound)
        if rng.random() < 0.35:
            var = fresh_var()
            return Rec(var, choice(depth_left, bound + ((var, frozenset()),)))
        if rng.random() < 0.12:
            return leaf(bound)
        return choice(depth_left, bound)

    node = subtype(depth, ())
    return END if isinstance(node, Var) else node


def _sample_types(keep: Callable[[TypeNode, WfReport], object], what: str,
                  count: int, seed: int, max_attempts: int) -> list:
    """Draw seeded random types over ``_CLOCKS``, skip end, check each, and
    keep what ``keep`` makes of a type and its report, unless that is None."""
    rng = random.Random(seed)
    found = []
    attempts = 0
    while len(found) < count and attempts < max_attempts:
        attempts += 1
        node = random_type(rng)
        if isinstance(node, type(END)):
            continue
        kept = keep(node, check_well_formed(node, clocks=_CLOCKS))
        if kept is not None:
            found.append(kept)
    if len(found) < count:
        raise RuntimeError(
            f"only {len(found)} {what} types in {max_attempts} attempts")
    return found


def well_formed_types(count: int, seed: int = 0) -> List[TypeNode]:
    """Sample until `count` types pass the well-formedness check."""
    return _sample_types(lambda node, report: node if report.verdict else None,
                         "well-formed", count, seed, 100000)


def _singly_ill_formed(node: TypeNode,
                       report: WfReport) -> Optional[Tuple[TypeNode, str]]:
    conditions = {v.condition for v in report.violations}
    return (node, conditions.pop()) if len(conditions) == 1 else None


def ill_formed_types(count: int, seed: int = 0) -> List[Tuple[TypeNode, str]]:
    """Sample types that violate exactly one well-formedness condition."""
    return _sample_types(_singly_ill_formed, "singly-ill-formed", count, seed,
                         200000)
