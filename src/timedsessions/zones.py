"""Difference-bound zones: the canonical decision form for clock constraints.

A constraint denotes a union of convex zones; each zone is a difference
bound matrix (DBM) over the declared clocks plus the reference clock 0.
Bounds are exact and open/closed distinctions are never approximated.
Each zone has an integer ``scale``, and the entry ``m[i][j]`` bounds
``x_i - x_j`` by one Python int in the encoding of Bengtsson & Yi, *Timed
Automata: Semantics, Algorithms and Tools* (2004): ``2k+1`` means
``<= k/scale``, ``2k`` means ``< k/scale`` and ``None`` means no bound.
So the tighter of two bounds is the smaller int, their sum is
``((a & -2) + (b & -2)) | (a & b & 1)``, the negation of a bound is
``1 - b``, and a zone is empty when some ``m[i][i] < 1``.  Zones of
different scales are rescaled to the least common multiple before they are
combined, and bounds are decoded to ``Fraction`` for membership tests and
for rendering back to constraints.

``to_zones`` walks the negation normal form of a constraint depth-first,
left to right, tightening one canonical zone per branch in O(n^2) and
dropping a branch as soon as it is empty.  A negated equality splits a zone
in two; the splits of a branch are made once its conjunction is complete,
so the zones come out in the order of the disjunctive normal form.
Satisfiability, entailment, the past operator and reset images are then
decided zone by zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .constraints import (
    And,
    Atom,
    Constraint,
    FALSE,
    Not,
    Or,
    TRUE,
    TrueC,
    atom_eq,
    atom_gt,
    atoms_of,
    clocks_of,
    conj,
    disj,
)
from .errors import SpecError

LE_ZERO = 1  # the encoded bound  <= 0

Matrix = List[List[Optional[int]]]


def encode_bound(value: Fraction, strict: bool, scale: int) -> int:
    """The int encoding of ``< value`` (strict) or ``<= value`` at ``scale``."""
    value = Fraction(value)
    factor, rest = divmod(scale, value.denominator)
    if rest:
        raise ValueError(f"{value} is not a multiple of 1/{scale}")
    return 2 * value.numerator * factor + (0 if strict else 1)


def decode_bound(bound: Optional[int],
                 scale: int) -> Tuple[Optional[Fraction], bool]:
    """(value, strict) of an encoded bound; value None means +infinity."""
    if bound is None:
        return None, True
    return Fraction(bound >> 1, scale), not bound & 1


@dataclass
class Zone:
    """Canonical DBM over ``clocks`` plus the reference clock at index 0."""

    clocks: Tuple[str, ...]
    m: Matrix
    empty: bool = False
    scale: int = 1

    # -- construction -------------------------------------------------------

    @classmethod
    def universal(cls, clocks: Sequence[str], scale: int = 1) -> "Zone":
        clocks = tuple(clocks)
        n = len(clocks) + 1
        m: Matrix = [[None] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = LE_ZERO
        for j in range(1, n):
            m[0][j] = LE_ZERO  # clocks are nonnegative
        return cls(clocks, m, scale=scale)

    def index(self, clock: str) -> int:
        try:
            return self.clocks.index(clock) + 1
        except ValueError:
            raise SpecError(f"clock {clock!r} not in zone clock set {self.clocks}")

    def copy(self) -> "Zone":
        return Zone(self.clocks, [row[:] for row in self.m], self.empty,
                    self.scale)

    def rescaled(self, scale: int) -> "Zone":
        """This zone at ``scale``, a multiple of its own (self if equal)."""
        if scale == self.scale:
            return self
        factor = scale // self.scale
        m = [[None if b is None else (b & -2) * factor + (b & 1) for b in row]
             for row in self.m]
        return Zone(self.clocks, m, self.empty, scale)

    def bound(self, i: int, j: int) -> Tuple[Optional[Fraction], bool]:
        """The bound on x_i - x_j, decoded: (value or None, strict)."""
        return decode_bound(self.m[i][j], self.scale)

    def tighten(self, i: int, j: int, bound: int) -> "Zone":
        """Add the encoded bound on x_i - x_j and close again in O(n^2).

        The zone must be canonical and non-empty.  It stays canonical, or is
        flagged empty when the bound closes a negative cycle.
        """
        m = self.m
        current = m[i][j]
        if current is not None and current <= bound:
            return self
        value, weak = bound & -2, bound & 1
        back = m[j][i]
        if back is not None and ((back & -2) + value) | (back & weak) < LE_ZERO:
            self.empty = True
            return self
        # x_k - x_l <= (x_k - x_i) + bound + (x_j - x_l); column i and row j
        # cannot improve, so the update is safe in place.
        row_j = m[j]
        for row in m:
            ki = row[i]
            if ki is None:
                continue
            via = (ki & -2) + value
            via_weak = ki & weak
            for col, jl in enumerate(row_j):
                if jl is None:
                    continue
                cand = (via + (jl & -2)) | (via_weak & jl)
                old = row[col]
                if old is None or cand < old:
                    row[col] = cand
        return self

    def canonicalize(self) -> "Zone":
        """Shortest-path closure; flags emptiness on a negative cycle."""
        m = self.m
        for k, row_k in enumerate(m):
            for row in m:
                ik = row[k]
                if ik is None:
                    continue
                via, via_weak = ik & -2, ik & 1
                for j, kj in enumerate(row_k):
                    if kj is None:
                        continue
                    cand = (via + (kj & -2)) | (via_weak & kj)
                    old = row[j]
                    if old is None or cand < old:
                        row[j] = cand
        for i, row in enumerate(m):
            if row[i] < LE_ZERO:
                self.empty = True
                break
        return self

    # -- queries -------------------------------------------------------------

    def contains(self, nu: Mapping[str, Fraction]) -> bool:
        if self.empty:
            return False
        values = [Fraction(0)]
        for clock in self.clocks:
            if clock not in nu:
                raise SpecError(f"valuation lacks clock {clock!r}")
            values.append(Fraction(nu[clock]))
        n = len(values)
        for i in range(n):
            for j in range(n):
                value, strict = self.bound(i, j)
                if value is None:
                    continue
                diff = values[i] - values[j]
                if not (diff < value if strict else diff <= value):
                    return False
        return True

    def intersect(self, other: "Zone") -> "Zone":
        if self.clocks != other.clocks:
            raise SpecError("zone clock sets differ")
        if self.empty or other.empty:
            out = self.copy()
            out.empty = True
            return out
        scale = lcm(self.scale, other.scale)
        m = [[a if b is None or (a is not None and a < b) else b
              for a, b in zip(mine, theirs)]
             for mine, theirs in zip(self.rescaled(scale).m,
                                     other.rescaled(scale).m)]
        return Zone(self.clocks, m, scale=scale).canonicalize()

    # -- timed operations ----------------------------------------------------

    def down(self) -> "Zone":
        """Delay predecessor: valuations that reach this zone by waiting."""
        out = self.copy()
        m = out.m
        n = len(m)
        for i in range(1, n):
            best = LE_ZERO
            for j in range(1, n):
                b = m[j][i]
                if j != i and b is not None and b < best:
                    best = b
            m[0][i] = best
        return out.canonicalize()

    def up(self) -> "Zone":
        """Delay successor: valuations reachable from this zone by waiting."""
        out = self.copy()
        for i in range(1, len(out.m)):
            out.m[i][0] = None
        return out.canonicalize()

    def reset(self, resets: Iterable[str]) -> "Zone":
        """Image under zeroing the given clocks (on a canonical zone)."""
        out = self.copy()
        m = out.m
        for clock in resets:
            x = out.index(clock)
            for j in range(len(m)):
                m[x][j] = m[0][j]
                m[j][x] = m[j][0]
            m[x][x] = LE_ZERO
        return out.canonicalize()

    # -- rendering -----------------------------------------------------------

    def to_constraint(self) -> Constraint:
        """Re-express this canonical zone in the surface constraint grammar."""
        if self.empty:
            return FALSE
        parts: List[Constraint] = []
        n = len(self.m)
        for i in range(n):
            for j in range(i + 1, n):
                if i == 0:
                    clock, sub = self.clocks[j - 1], None
                    up_b = self.bound(j, 0)   # x - 0 bound
                    low_b = self.bound(0, j)  # 0 - x bound
                else:
                    clock, sub = self.clocks[i - 1], self.clocks[j - 1]
                    up_b = self.bound(i, j)   # x - y bound
                    low_b = self.bound(j, i)  # y - x bound
                parts.extend(_bounds_to_atoms(clock, sub, up_b, low_b))
        return conj(*parts) if parts else TRUE


def _bounds_to_atoms(clock: str, sub: Optional[str],
                     upper: Tuple[Optional[Fraction], bool],
                     lower: Tuple[Optional[Fraction], bool]) -> List[Constraint]:
    """Atoms for  lo <= expr <= hi  where expr is a clock or a difference."""
    out: List[Constraint] = []
    uv, ustrict = upper
    lv, lstrict = lower  # bound on -expr: expr >= -lv (strict if lstrict)
    if uv is not None and lv is not None and uv == -lv and not ustrict and not lstrict:
        out.append(atom_eq(clock, uv, sub))
        return out
    if uv is not None:
        # expr <= uv  (or < uv)
        le = Not(atom_gt(clock, uv, sub))
        if ustrict:
            le = And(le, Not(atom_eq(clock, uv, sub)))
        out.append(le)
    if lv is not None:
        low = -lv
        # skip the implicit nonnegativity bound on single clocks
        if not (sub is None and low == 0 and not lstrict):
            if lstrict:
                out.append(atom_gt(clock, low, sub))
            elif not (sub is None and low <= 0):
                out.append(Or(atom_gt(clock, low, sub), atom_eq(clock, low, sub)))
    return out


# ---------------------------------------------------------------------------
# Constraint -> ZoneSet
# ---------------------------------------------------------------------------

ZoneSet = List[Zone]

_ZONE_CACHE: dict = {}


def to_zones(c: Constraint, clocks: Optional[Iterable[str]] = None) -> ZoneSet:
    """Equivalent ZoneSet, built by a pruned depth-first walk of c.

    Results are cached per (constraint, clock set); callers must not mutate
    the returned zones.
    """
    universe = set(clocks_of(c))
    if clocks is not None:
        universe |= set(clocks)
    ordered = tuple(sorted(universe))
    key = (c, ordered)
    cached = _ZONE_CACHE.get(key)
    if cached is not None:
        return cached
    index = {clock: k for k, clock in enumerate(ordered, 1)}
    scale = 1
    for atom in atoms_of(c):
        scale = lcm(scale, atom.const.denominator)
    result: ZoneSet = []
    # A branch is its zone, the (node, positive) literals still to apply as
    # a linked list, and its deferred splits (i, j, encoded c), also linked.
    stack = [(Zone.universal(ordered, scale), ((c, True), None), None)]
    while stack:
        zone, todo, splits = stack.pop()
        while todo is not None:
            (node, positive), todo = todo
            kind = type(node)
            if kind is Atom:
                i = index[node.clock]
                j = index[node.sub] if node.sub is not None else 0
                k = 2 * node.const.numerator * (scale // node.const.denominator)
                if node.op == ">":
                    if positive:
                        zone.tighten(j, i, -k)      # x_j - x_i < -c
                    else:
                        zone.tighten(i, j, k + 1)   # x_i - x_j <= c
                elif positive:
                    zone.tighten(i, j, k + 1)
                    if not zone.empty:
                        zone.tighten(j, i, 1 - k)
                else:
                    splits = ((i, j, k), splits)
                if zone.empty:
                    break
            elif kind is Not:
                todo = ((node.inner, not positive), todo)
            elif kind is TrueC:
                if not positive:
                    break
            elif kind is And or kind is Or:
                left, right = (node.left, positive), (node.right, positive)
                if (kind is And) == positive:
                    todo = (left, (right, todo))
                else:  # a disjunction: the right part waits its turn
                    stack.append((zone.copy(), (right, todo), splits))
                    todo = (left, todo)
            else:
                raise TypeError(f"not a constraint: {node!r}")
        else:
            _split(zone, splits, result)
    if len(_ZONE_CACHE) > 50000:
        _ZONE_CACHE.clear()
    _ZONE_CACHE[key] = result
    return result


def _split(zone: Zone, splits, out: ZoneSet) -> None:
    """Append the non-empty pieces of zone minus each x_i - x_j = c, below
    before above, in the order the negated equalities were met."""
    order = []
    while splits is not None:
        split, splits = splits
        order.append(split)
    order.reverse()
    stack = [(zone, 0)]
    while stack:
        piece, at = stack.pop()
        if at == len(order):
            out.append(piece)
            continue
        i, j, k = order[at]
        above = piece.copy().tighten(j, i, -k)   # x_i - x_j > c
        if not above.empty:
            stack.append((above, at + 1))
        piece.tighten(i, j, k)                   # x_i - x_j < c
        if not piece.empty:
            stack.append((piece, at + 1))


def zoneset_contains(zones: ZoneSet, nu: Mapping[str, Fraction]) -> bool:
    return any(zone.contains(nu) for zone in zones)


def zoneset_to_constraint(zones: ZoneSet) -> Constraint:
    if not zones:
        return FALSE
    return disj(*[zone.to_constraint() for zone in zones])


# ---------------------------------------------------------------------------
# Decision operations on constraints
# ---------------------------------------------------------------------------

def is_sat(c: Constraint, clocks: Optional[Iterable[str]] = None) -> bool:
    return bool(to_zones(c, clocks))


def zone_minus(w: Zone, z: Zone) -> List[Zone]:
    """w with z removed, as disjoint zones: one piece per negated bound of z."""
    if w.empty:
        return []
    if z.empty:
        return [w]
    scale = lcm(w.scale, z.scale)
    remaining, z = w.rescaled(scale), z.rescaled(scale)
    owned = remaining is not w  # remaining may be tightened in place
    pieces: List[Zone] = []
    for i, row in enumerate(z.m):
        for j, b in enumerate(row):
            if i == j or b is None:
                continue
            if i == 0 and b == LE_ZERO:
                continue  # implicit nonnegativity: its negation is empty
            have = remaining.m[i][j]
            if have is not None and have <= b:
                continue  # remaining meets the bound: its negation is empty
            # negation of  x_i - x_j (<|<=) c  is  x_j - x_i (<=|<) -c
            piece = remaining.copy().tighten(j, i, 1 - b)
            if not piece.empty:
                pieces.append(piece)
            # keep the bound on the remainder so pieces stay disjoint
            if not owned:
                remaining, owned = remaining.copy(), True
            remaining.tighten(i, j, b)
            if remaining.empty:
                return pieces
    return pieces


def entails(c1: Constraint, c2: Constraint,
            clocks: Optional[Iterable[str]] = None) -> bool:
    """c1 |= c2, decided as unsatisfiability of c1 and not c2.

    The negation is distributed bound-wise over c2's zones, so entailment
    never builds the disjunctive normal form of a negated zone union.
    """
    universe = clocks_of(c1) | clocks_of(c2)
    if clocks is not None:
        universe |= set(clocks)
    ordered = sorted(universe)
    remaining = to_zones(c1, ordered)
    for z in to_zones(c2, ordered):
        remaining = [piece for w in remaining for piece in zone_minus(w, z)]
        if not remaining:
            return True
    return not remaining


def constraint_equiv(c1: Constraint, c2: Constraint,
                     clocks: Optional[Iterable[str]] = None) -> bool:
    return entails(c1, c2, clocks) and entails(c2, c1, clocks)


def past(c: Constraint, clocks: Optional[Iterable[str]] = None) -> Constraint:
    """Weakest constraint holding now iff c holds after some delay."""
    zones = [zone.down() for zone in to_zones(c, clocks)]
    zones = [zone for zone in zones if not zone.empty]
    return zoneset_to_constraint(zones)


def future(c: Constraint, clocks: Optional[Iterable[str]] = None) -> Constraint:
    """Delay closure upward: satisfiable now or after the clocks advance."""
    zones = [zone.up() for zone in to_zones(c, clocks)]
    zones = [zone for zone in zones if not zone.empty]
    return zoneset_to_constraint(zones)


def reset_constraint(c: Constraint, resets: Iterable[str],
                     clocks: Optional[Iterable[str]] = None) -> Constraint:
    """Image of c under zeroing the reset set."""
    resets = list(resets)
    universe = clocks_of(c) | set(resets)
    if clocks is not None:
        universe |= set(clocks)
    zones = [zone.reset(resets) for zone in to_zones(c, universe)]
    zones = [zone for zone in zones if not zone.empty]
    return zoneset_to_constraint(zones)


def trajectory_zone(nu: Mapping[str, Fraction], t: Fraction,
                    include_end: bool) -> Zone:
    """The zone swept by nu while up to t time passes.

    All pairwise clock differences stay fixed at nu's; the designated first
    clock ranges over [nu(x0), nu(x0)+t), closed at the right end when
    include_end is set.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("trajectory needs a positive duration")
    if not nu:
        raise SpecError("trajectory of an empty valuation")
    ordered = tuple(sorted(nu))
    values = [Fraction(nu[clock]) for clock in ordered]
    scale = lcm(t.denominator, *(value.denominator for value in values))
    zone = Zone.universal(ordered, scale)
    m = zone.m
    for a in range(1, len(ordered) + 1):
        for b in range(a + 1, len(ordered) + 1):
            diff = values[a - 1] - values[b - 1]
            m[a][b] = encode_bound(diff, False, scale)
            m[b][a] = encode_bound(-diff, False, scale)
    start = values[0]
    m[0][1] = min(m[0][1], encode_bound(-start, False, scale))
    m[1][0] = encode_bound(start + t, not include_end, scale)
    return zone.canonicalize()
