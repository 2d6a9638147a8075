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
``1 - b``, and a matrix is empty when some ``m[i][i] < 1``.  A ``Zone``
is never empty: ``tighten``, ``canonicalize`` and ``intersect`` return None
where a zone would empty, and the ZoneSet builders keep only live zones.
Zones of different scales are rescaled to the least common multiple before
they are combined.  Each zone derives one form of its bounds,
``Zone.listed_bounds``: its finite bounds off the diagonal, row by row,
each clock's ``0 - x <= 0`` included, as one flat tuple of ints, built on
its first read into a cache that every in-place change clears:
``tighten``, ``canonicalize`` and ``zero`` (so ``reset_up``).  A meet
and a difference read the other zone's list, never its whole matrix, and
so does the point reader.  ``int_point``
converts a valuation once to ints at a common scale, ``window_at`` gives
the interval of delays that carry the int point into a zone, and
``holds_at`` says whether the point is in one of some zones (every bound
of one holds, so its window holds 0), leaving a zone at the first bound
that fails, without building the window; ``zoneset_contains`` decides
membership through it.
Bounds are decoded to ``Fraction`` only for rendering back to constraints.

``to_zones`` walks the negation normal form of a constraint depth-first,
left to right, tightening one canonical zone per branch in O(n^2) and
dropping a branch as soon as it is empty.  A negated equality splits a zone
in two: a branch keeps its negated equalities in the order met and, once
complete, each splits every piece into its part below, then above, so the
zones come out in the order of the disjunctive normal form.
Satisfiability, entailment, the past operator and reset images are then
decided zone by zone.  Zones multiply in ``to_zones``, ``zoneset_meet``
and ``zoneset_entails``; past ``ZONE_LIMIT`` each raises
``ZoneLimitExceeded``, which the CLI reports as ``bound-exceeded``.

A ZoneSet (a list of non-empty zones over one clock tuple) is the working
form: ``zoneset_meet`` and ``zoneset_entails`` decide on it directly,
``Zone.reset``/``Zone.up``/``Zone.down`` map it zone by zone.  Each of
these, and a meet, which tightens a copy only by the other zone's listed
bounds that are tighter than its own, keeps a canonical zone canonical
without a closure (Bengtsson & Yi), so ``Zone.canonicalize`` runs only on
a matrix built from scratch.  ``Zone.reset_up`` is ``reset`` then ``up``
in place, building no zone, and only for a zone its caller built and holds
alone, such as a fresh meet.  The package builds each ZoneSet over the
clocks its reader asks for and never widens one.  ``past``, ``future`` and
``reset_constraint`` render their result back to a ``Constraint`` and are
the print boundary.
"""

from __future__ import annotations

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
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    atoms_of,
    clocks_of,
    conj,
    disj,
)
from .errors import SpecError, ZoneLimitExceeded

LE_ZERO = 1  # the encoded bound  <= 0
ZONE_LIMIT = 1024  # zones a guard builds, or a meet or entailment step holds

Matrix = List[List[Optional[int]]]


def decode_bound(bound: Optional[int],
                 scale: int) -> Tuple[Optional[Fraction], bool]:
    """(value, strict) of an encoded bound; value None means +infinity."""
    if bound is None:
        return None, True
    return Fraction(bound >> 1, scale), not bound & 1


def _rescaled(listed: tuple, factor: int) -> list:
    """Listed bounds at ``factor`` times their scale."""
    out = list(listed)
    out[2::3] = [(b & -2) * factor + (b & 1) for b in listed[2::3]]
    return out


class Zone:
    """Non-empty canonical DBM over ``clocks`` plus the reference clock at
    index 0.  Zones are equal when their clocks, matrices and scales are;
    ``bounds`` caches ``listed_bounds``, is cleared by every in-place
    change and is neither compared nor shown."""

    __slots__ = ("clocks", "m", "scale", "bounds")
    __hash__ = None  # tightened in place

    def __init__(self, clocks: Tuple[str, ...], m: Matrix, scale: int = 1):
        self.clocks, self.m, self.scale, self.bounds = clocks, m, scale, None

    def __eq__(self, other) -> bool:
        if other.__class__ is not Zone:
            return NotImplemented
        return ((self.clocks, self.m, self.scale)
                == (other.clocks, other.m, other.scale))

    def __repr__(self) -> str:
        return (f"Zone(clocks={self.clocks!r}, m={self.m!r}, "
                f"scale={self.scale!r})")

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
        return Zone(self.clocks, [row[:] for row in self.m], self.scale)

    def rescaled(self, scale: int) -> "Zone":
        """This zone at ``scale``, a multiple of its own (self if equal)."""
        if scale == self.scale:
            return self
        factor = scale // self.scale
        m = [[None if b is None else (b & -2) * factor + (b & 1) for b in row]
             for row in self.m]
        return Zone(self.clocks, m, scale)

    def bound(self, i: int, j: int) -> Tuple[Optional[Fraction], bool]:
        """The bound on x_i - x_j, decoded: (value or None, strict)."""
        return decode_bound(self.m[i][j], self.scale)

    def tighten(self, i: int, j: int, bound: int) -> Optional["Zone"]:
        """Add the encoded bound on x_i - x_j in place and close again in
        O(n^2); None when the bound closes a negative cycle.

        Only the zone's builder may hold it: the zone stays canonical, or
        is to be dropped.
        """
        m = self.m
        current = m[i][j]
        if current is not None and current <= bound:
            return self
        value, weak = bound & -2, bound & 1
        back = m[j][i]
        if back is not None and ((back & -2) + value) | (back & weak) < LE_ZERO:
            return None
        self.bounds = None
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

    def canonicalize(self) -> Optional["Zone"]:
        """Shortest-path closure in place; None on a negative cycle."""
        self.bounds = None
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
                return None
        return self

    # -- queries -------------------------------------------------------------

    def listed_bounds(self) -> tuple:
        """The bounds of this zone, flat as ``(i, j, b, i, j, b, ...)``:
        every finite entry off the diagonal in row-major order, each clock's
        ``0 - x <= 0`` included, and each clock named by its index in the
        zone (0 the reference), its position in a point that ``int_point``
        builds over the zone's clocks.  Built once, into ``bounds``; one
        tuple of ints, which the garbage collector stops tracking, so a
        zone a type keeps adds no tracked object per bound."""
        listed = self.bounds
        if listed is None:
            listed = []
            for i, row in enumerate(self.m):
                for j, bound in enumerate(row):
                    if bound is not None and i != j:
                        listed += i, j, bound
            listed = self.bounds = tuple(listed)
        return listed

    def intersect(self, other: "Zone") -> Optional["Zone"]:
        """The meet: this zone tightened by each listed bound of the other
        that is tighter than its own, or None when it is empty."""
        if self.clocks != other.clocks:
            raise SpecError("zone clock sets differ")
        scale = lcm(self.scale, other.scale)
        out = self.rescaled(scale) if scale != self.scale else self.copy()
        m, listed = out.m, other.listed_bounds()
        if scale != other.scale:
            listed = _rescaled(listed, scale // other.scale)
        it = iter(listed)
        for i, j, bound in zip(it, it, it):  # m is tightened in place
            have = m[i][j]
            if ((have is None or bound < have)
                    and out.tighten(i, j, bound) is None):
                return None
        return out

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
        return out

    def up(self) -> "Zone":
        """Delay successor: valuations reachable from this zone by waiting."""
        out = self.copy()
        for i in range(1, len(out.m)):
            out.m[i][0] = None
        return out

    def reset(self, resets: Iterable[str]) -> "Zone":
        """Image under zeroing the given clocks."""
        return self.copy().zero(resets)

    def zero(self, resets: Iterable[str]) -> "Zone":
        """``reset`` in place: only the zone's builder may call it."""
        self.bounds = None
        m = self.m
        for clock in resets:
            x = self.index(clock)
            for j in range(len(m)):
                m[x][j] = m[0][j]
                m[j][x] = m[j][0]
            m[x][x] = LE_ZERO
        return self

    def reset_up(self, resets: Iterable[str]) -> "Zone":
        """``reset(resets).up()`` in place: only the zone's builder may."""
        m = self.zero(resets).m
        for i in range(1, len(m)):
            m[i][0] = None
        return self

    # -- rendering -----------------------------------------------------------

    def to_constraint(self) -> Constraint:
        """Re-express this canonical zone in the surface constraint grammar."""
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


def window_at(zone: Zone, point: Sequence[int], scale: int
              ) -> Optional[Tuple[int, Optional[int]]]:
    """The delays t >= 0 that carry a point into a zone, or None if there
    are none.  The point is a sequence of ints at ``scale``, a multiple of
    the zone's, read against the zone's ``Zone.listed_bounds``.  The delays
    form one interval, returned as ``(lo, hi)``: -t meets the encoded bound
    lo and t meets hi (None: no upper end), both at scale.  Decided in
    ints: v_i - v_j meets the encoded bound b exactly when
    ``2 (v_i - v_j) + 1 <= b``, the bounds on a clock alone bound t, and the
    clock differences do not move with t."""
    factor = scale // zone.scale
    lo, hi = LE_ZERO, None  # -t <= 0, t unbounded
    it = iter(zone.listed_bounds())
    for i, j, b in zip(it, it, it):
        b = (b & -2) * factor + (b & 1)
        if j == 0:  # point_i + t meets the bound
            b -= 2 * point[i]
            if hi is None or b < hi:
                hi = b
        elif i == 0:  # -(point_j + t) meets the bound
            b += 2 * point[j]
            if b < lo:
                lo = b
        elif 2 * (point[i] - point[j]) + 1 > b:
            return None
    if hi is not None and ((lo & -2) + (hi & -2)) | (lo & hi & 1) < LE_ZERO:
        return None
    return lo, hi


def holds_at(zones: Iterable[Zone], point: Sequence[int], scale: int) -> bool:
    """Is an int point (its index 0 the reference clock, which reads 0) in
    one of the zones?  It is when every listed bound of one of them holds
    at the point, which is when that zone's ``window_at`` window contains
    0; each zone is left at the first bound that fails."""
    for zone in zones:
        factor = scale // zone.scale
        it = iter(zone.listed_bounds())
        for i, j, b in zip(it, it, it):
            if 2 * (point[i] - point[j]) + 1 > (b & -2) * factor + (b & 1):
                break
        else:
            return True
    return False


def int_point(nu: Mapping[str, Fraction], clocks: Sequence[str],
              scale: int) -> Tuple[int, List[int]]:
    """nu on clocks as an int point, the reference clock's 0 first, at the
    LCM of scale and the denominators of nu; returns (that LCM, point)."""
    values = []
    for clock in clocks:
        if clock not in nu:
            raise SpecError(f"valuation lacks clock {clock!r}")
        value = nu[clock]
        values.append(value if isinstance(value, (int, Fraction))
                      else Fraction(value))
    scale = lcm(scale, *(value.denominator for value in values))
    return scale, [0] + [value.numerator * (scale // value.denominator)
                         for value in values]


def _bounds_to_atoms(clock: str, sub: Optional[str],
                     upper: Tuple[Optional[Fraction], bool],
                     lower: Tuple[Optional[Fraction], bool]) -> List[Constraint]:
    """Atoms for  lo <= expr <= hi  where expr is a clock or a difference."""
    uv, ustrict = upper
    lv, lstrict = lower  # bound on -expr: expr >= -lv (strict if lstrict)
    if uv is not None and lv is not None and uv == -lv and not ustrict and not lstrict:
        return [atom_eq(clock, uv, sub)]
    out: List[Constraint] = []
    if uv is not None:  # expr <= uv  (or < uv)
        out.append((atom_lt if ustrict else atom_le)(clock, uv, sub))
    # expr >= -lv (or > -lv), but not a single clock's implicit x >= 0
    if lv is not None and (lstrict or sub is not None or -lv > 0):
        out.append((atom_gt if lstrict else atom_ge)(clock, -lv, sub))
    return out


# ---------------------------------------------------------------------------
# Constraint -> ZoneSet
# ---------------------------------------------------------------------------

ZoneSet = List[Zone]


def to_zones(c: Constraint, clocks: Optional[Iterable[str]] = None) -> ZoneSet:
    """Equivalent ZoneSet over the clocks of c and clocks, built by a pruned
    depth-first walk of c."""
    names, scale = set(clocks or ()), 1
    for atom in atoms_of(c):  # the clocks and the scale in one walk
        names.add(atom.clock)
        if atom.sub is not None:
            names.add(atom.sub)
        scale = lcm(scale, atom.const.denominator)
    ordered = tuple(sorted(names))
    index = {clock: k for k, clock in enumerate(ordered, 1)}
    result: ZoneSet = []
    built = 1  # the zones this call has built, against ZONE_LIMIT
    # A branch is its zone, the (node, positive) literals still to apply as
    # a linked list, and its negated equalities (i, j, encoded c) in order.
    stack = [(Zone.universal(ordered, scale), ((c, True), None), ())]
    while stack:
        if built > ZONE_LIMIT:
            raise ZoneLimitExceeded("a guard", ZONE_LIMIT)
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
                        zone = zone.tighten(j, i, -k)      # x_j - x_i < -c
                    else:
                        zone = zone.tighten(i, j, k + 1)   # x_i - x_j <= c
                elif positive:
                    zone = zone.tighten(i, j, k + 1)
                    if zone is not None:
                        zone = zone.tighten(j, i, 1 - k)
                else:
                    splits += ((i, j, k),)
                if zone is None:
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
                    built += 1
                    stack.append((zone.copy(), (right, todo), splits))
                    todo = (left, todo)
            else:
                raise TypeError(f"not a constraint: {node!r}")
        else:
            pieces = [zone]
            for i, j, k in splits:  # below x_i - x_j < c, then above > c
                built += len(pieces)
                if built > ZONE_LIMIT:
                    raise ZoneLimitExceeded("a guard", ZONE_LIMIT)
                pieces = [part for piece in pieces
                          for part in (piece.copy().tighten(i, j, k),
                                       piece.tighten(j, i, -k))
                          if part is not None]
            result += pieces
    return result


def zoneset_meet(a: ZoneSet, b: ZoneSet) -> ZoneSet:
    """The intersection of two ZoneSets: their non-empty pairwise meets."""
    out: ZoneSet = []
    for x in a:
        out += [zone for zone in map(x.intersect, b) if zone is not None]
        if len(out) > ZONE_LIMIT:
            raise ZoneLimitExceeded("a meet", ZONE_LIMIT)
    return out


def zoneset_meets(a: ZoneSet, b: ZoneSet) -> bool:
    """Do two ZoneSets meet?  Stops at the first non-empty meet."""
    return any(x.intersect(y) is not None for x in a for y in b)


def zoneset_contains(zones: ZoneSet, nu: Mapping[str, Fraction]) -> bool:
    """Is nu in one of the zones?  nu is converted once, on the set's one
    clock tuple at the LCM of the zones' scales, and read by ``holds_at``."""
    if not zones:
        return False
    scale, point = int_point(nu, zones[0].clocks,
                             lcm(*(zone.scale for zone in zones)))
    return holds_at(zones, point, scale)


def zoneset_to_constraint(zones: ZoneSet) -> Constraint:
    if not zones:
        return FALSE
    return disj(*[zone.to_constraint() for zone in zones])


# ---------------------------------------------------------------------------
# Decision operations on constraints
# ---------------------------------------------------------------------------

def zone_minus(w: Zone, z: Zone) -> List[Zone]:
    """w with z removed, as disjoint zones: one piece per listed bound of z
    that w does not meet, in the order z lists them."""
    scale = lcm(w.scale, z.scale)
    remaining, listed = w.rescaled(scale), z.listed_bounds()
    if scale != z.scale:
        listed = _rescaled(listed, scale // z.scale)
    owned = remaining is not w  # remaining may be tightened in place
    pieces: List[Zone] = []
    it = iter(listed)
    for i, j, b in zip(it, it, it):
        have = remaining.m[i][j]
        if have is not None and have <= b:
            continue  # remaining meets the bound: its negation is empty
        # negation of  x_i - x_j (<|<=) c  is  x_j - x_i (<=|<) -c
        piece = remaining.copy().tighten(j, i, 1 - b)
        if piece is not None:
            pieces.append(piece)
        # keep the bound on the remainder so pieces stay disjoint
        if not owned:
            remaining, owned = remaining.copy(), True
        if remaining.tighten(i, j, b) is None:
            return pieces
    return pieces


def zoneset_entails(zs1: ZoneSet, zs2: ZoneSet) -> bool:
    """zs1 within zs2, decided as emptiness of zs1 minus each zone of zs2.

    The negation is distributed bound-wise over zs2's zones, so entailment
    never builds the disjunctive normal form of a negated zone union.
    """
    remaining = zs1
    for z in zs2:
        pieces: ZoneSet = []
        for w in remaining:
            pieces += zone_minus(w, z)
            if len(pieces) > ZONE_LIMIT:
                raise ZoneLimitExceeded("an entailment", ZONE_LIMIT)
        if not pieces:
            return True
        remaining = pieces
    return not remaining


def entails(c1: Constraint, c2: Constraint) -> bool:
    """c1 |= c2, decided on their ZoneSets over the union of their clocks
    (a clock neither names is unconstrained on both sides)."""
    ordered = sorted(clocks_of(c1) | clocks_of(c2))
    return zoneset_entails(to_zones(c1, ordered), to_zones(c2, ordered))


def constraint_equiv(c1: Constraint, c2: Constraint) -> bool:
    return entails(c1, c2) and entails(c2, c1)


def past(c: Constraint) -> Constraint:
    """Weakest constraint over c's clocks holding now iff c holds later."""
    return zoneset_to_constraint([zone.down() for zone in to_zones(c)])


def future(c: Constraint, clocks: Optional[Iterable[str]] = None) -> Constraint:
    """Delay closure upward: satisfiable now or after the clocks advance."""
    return zoneset_to_constraint([zone.up() for zone in to_zones(c, clocks)])


def reset_constraint(c: Constraint, resets: Iterable[str],
                     clocks: Optional[Iterable[str]] = None) -> Constraint:
    """Image of c under zeroing the reset set."""
    resets = list(resets)
    universe = set(resets) | set(clocks or ())
    return zoneset_to_constraint(
        [zone.reset(resets) for zone in to_zones(c, universe)])


def trajectory_zone(nu: Mapping[str, Fraction], t: Fraction,
                    include_end: bool) -> Zone:
    """The zone swept by nu while up to t time passes.

    All pairwise clock differences stay fixed at nu's; the designated first
    clock ranges over [nu(x0), nu(x0)+t), closed at the right end when
    include_end is set.  A negative clock value is refused.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("trajectory needs a positive duration")
    if not nu:
        raise SpecError("trajectory of an empty valuation")
    ordered = tuple(sorted(nu))
    scale, point = int_point(nu, ordered, t.denominator)
    for clock, value in zip(ordered, point[1:]):
        if value < 0:
            raise SpecError(f"clock {clock!r} cannot be negative")
    zone = Zone.universal(ordered, scale)
    m = zone.m
    for a in range(1, len(point)):  # x_a - x_b <= its value at nu
        for b in range(a + 1, len(point)):
            diff = 2 * (point[a] - point[b])
            m[a][b], m[b][a] = diff + 1, 1 - diff
    m[0][1] = min(m[0][1], 1 - 2 * point[1])
    m[1][0] = 2 * (point[1] + t.numerator * (scale // t.denominator)) + (
        1 if include_end else 0)
    return zone.canonicalize()
