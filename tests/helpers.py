"""Shared sampling oracles, seeded random constraints and valuations, the
head-graph walk, the counterexample replay and the enumerator of small
closed types of the test suite.

The oracles deliberately avoid the zone engine: satisfaction is decided by
the structural evaluator over grids of exact rationals, so the zone-based
operations can be checked against an independent route.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Callable, Iterable, List, Mapping, Sequence

from timedsessions.constraints import (And, Constraint, Not, Or, atom_eq,
                                       atom_ge, atom_gt, atom_le, atom_lt,
                                       atom_ne, eval_constraint, shift)
from timedsessions.semantics import (System, _Space, _system,
                                     default_horizon, digest_system,
                                     system_steps, unfold_head)
from timedsessions.sessiontypes import (END, NONE, RECV, SEND, Choice,
                                        ChoiceOption, Delegate, Rec, Var,
                                        type_choices)

QUARTERS = [Fraction(n, 4) for n in range(0, 29)]  # 0 .. 7 in quarter steps
TWELFTHS = [Fraction(n, 12) for n in range(0, 85)]  # 0 .. 7 in twelfth steps
HALVES = [Fraction(n, 2) for n in range(0, 11)]


def random_valuation(rng: random.Random, clocks: Sequence[str],
                     values: Sequence[Fraction] = HALVES):
    return {clock: rng.choice(values) for clock in clocks}


_ATOM_BUILDERS = (atom_gt, atom_eq, atom_lt, atom_le, atom_ge, atom_ne)


def random_constraint(rng: random.Random, clocks: Sequence[str],
                      constants: Sequence[Fraction] = HALVES,
                      max_depth: int = 3, diagonals: bool = True) -> Constraint:
    def go(depth: int) -> Constraint:
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            clock = rng.choice(clocks)
            sub = None
            if diagonals and len(clocks) > 1 and rng.random() < 0.25:
                sub = rng.choice([c for c in clocks if c != clock])
            return rng.choice(_ATOM_BUILDERS)(clock, rng.choice(constants), sub)
        if roll < 0.60:
            return Not(go(depth - 1))
        if roll < 0.85:
            return And(go(depth - 1), go(depth - 1))
        return Or(go(depth - 1), go(depth - 1))

    return go(max_depth)


def grid_valuations(clocks: Sequence[str],
                    values: Sequence[Fraction]) -> List[dict]:
    return [dict(zip(clocks, combo))
            for combo in itertools.product(values, repeat=len(clocks))]


def sat_by_sampling(constraint: Constraint, clocks: Sequence[str],
                    values: Sequence[Fraction] = QUARTERS) -> bool:
    """Existence of a satisfying valuation on a dense grid."""
    return any(eval_constraint(nu, constraint)
               for nu in grid_valuations(clocks, values))


def past_by_sampling(nu: Mapping[str, Fraction], constraint: Constraint,
                     delays: Iterable[Fraction] = QUARTERS) -> bool:
    """Does some sampled delay make the constraint true from nu?"""
    return any(eval_constraint(shift(nu, t), constraint) for t in delays)


def scaled_type(printed: str, d: int) -> str:
    """The printed type with every guard constant divided by d."""
    return re.sub(r"(?<=[<>=])(\d+)", rf"\1/{d}", printed)


def head_graph(node, limit=100):
    """The unfolded heads reachable from node, told apart by identity,
    depth-first with node's head first, or None when there are more than
    limit of them."""
    heads = {}
    stack = [unfold_head(node)]
    while stack:
        head = stack.pop()
        if id(head) in heads:
            continue
        if len(heads) == limit:
            return None
        heads[id(head)] = head
        stack.extend(unfold_head(o.continuation) for o in head.options)
    return list(heads.values())


def options_with_payloads(node):
    """Every option of every choice of node and of the sessions its
    payloads delegate, at any depth (the package's walks leave delegated
    sessions out)."""
    stack = [node]
    while stack:
        for choice in type_choices(stack.pop()):
            for opt in choice.options:
                yield opt
                if isinstance(opt.payload, Delegate):
                    stack.append(opt.payload.session)


def canonicaliser(system: System) -> Callable[[System], System]:
    """The state map of ``check_progress`` on system, from its
    ``_Space.of``: each state mapped to the valuations of its region
    representative under that space's ``canon``, its nodes and queues
    kept, or the identity when a guard compares two clocks (the space
    then has no region map)."""
    space = _Space.of(system)
    if not space.regions:
        return lambda state: state

    def canonical(state: System) -> System:
        return _system(space.clocks, space.canon(space.encode(state)),
                       state.left.node, state.right.node)
    return canonical


def space_steps(space: _Space, state: tuple, waits: bool) -> list:
    """The (action, state) transitions of an int state of space, mapped by
    no ``canon``: its ``_Space.moves``, then, if waits is set, the waits
    admitted up to the space's horizon; none from final|final.  An action
    is ``(kind, message, t, S)``, t at S.  ``_Space.successors`` is
    ``canon`` of these."""
    if space.is_final(state):
        return []
    scale, left, right = space.sides(state)
    out = [step[:2] for step in space.moves(state, scale, left, right)]
    _, _, pl, ql, _, pr, qr = state
    for t in space.delays(scale, left, right) if waits else ():
        out.append((("wait", None, t, scale),
                    (scale, tuple(v + t for v in left[2][1:]), pl, ql,
                     tuple(v + t for v in right[2][1:]), pr, qr)))
    return out


def replays_to_stuck(system, trace) -> bool:
    """Replay a progress counterexample from system through the same
    canonicaliser and horizon as ``check_progress``: every step must match
    both the printed action and the state digest, and the last state must
    be non-final with no internal action now or after any single step."""
    canon, horizon = canonicaliser(system), default_horizon(system)
    state = canon(system)
    for action, digest in trace:
        matches = [succ for a, succ in system_steps(state, horizon)
                   if str(a) == str(action)
                   and digest_system(canon(succ)) == digest]
        if not matches:
            return False
        state = canon(matches[0])
    if state.left.is_final() and state.right.is_final():
        return False
    steps = system_steps(state, horizon)
    return not any(a.is_tau for a, _ in steps) and all(
        not any(a.is_tau for a, _ in system_steps(succ, horizon))
        for _, succ in steps)


def closed_types(k: int, guards: Sequence[Constraint],
                 resets: Sequence[frozenset], var: str = "t"):
    """Every closed type of at most k options in all, each once up to the
    order of a choice's labels.  An option has a direction, a guard from
    guards, a reset set from resets and a continuation: end, a choice, or,
    under the optional top-level ``rec var``, the variable.  As in
    ``random_type``, the variable may close a loop only once the path from
    its binder both sends and receives, and a rec whose body does not use
    it is not generated (that type is the body).  A choice's options are a
    multiset drawn from one fixed list, labelled a, b, ... in its order,
    so no two choices differ only by the order of their labels."""
    kinds = [(direction, guard, reset) for direction in (SEND, RECV)
             for guard in guards for reset in resets]

    # each yields (options in all, node, whether node uses the variable)
    def continuations(budget, dirs, looped):
        yield 0, END, False
        if looped and len(dirs) == 2:
            yield 0, Var(var), True
        yield from choices(budget, dirs, looped)

    def choices(budget, dirs, looped):
        if budget <= 0:
            return
        options = [(1 + size, kind, cont, uses) for kind in kinds
                   for size, cont, uses in continuations(
                       budget - 1, dirs | {kind[0]}, looped)]
        for count in range(1, budget + 1):
            for picked in itertools.combinations_with_replacement(
                    options, count):
                size = sum(option[0] for option in picked)
                if size <= budget:
                    yield size, Choice(tuple(
                        ChoiceOption(direction, label, NONE, guard, reset,
                                     cont)
                        for label, (_, (direction, guard, reset), cont, _)
                        in zip("abcdefgh", picked))), any(
                            option[3] for option in picked)

    yield from (node for _, node, _ in choices(k, frozenset(), False))
    yield from (Rec(var, body) for _, body, uses in choices(
        k, frozenset(), True) if uses)
