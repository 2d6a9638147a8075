"""Shared sampling oracles for the test suite.

These deliberately avoid the zone engine: satisfaction is decided by the
structural evaluator over grids of exact rationals, so the zone-based
operations can be checked against an independent route.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence

from timedsessions.constraints import Constraint, eval_constraint, shift

QUARTERS = [Fraction(n, 4) for n in range(0, 29)]  # 0 .. 7 in quarter steps
TWELFTHS = [Fraction(n, 12) for n in range(0, 85)]  # 0 .. 7 in twelfth steps


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
