"""The integer DBM kernel against a plain Fraction Floyd-Warshall.

The oracle below keeps each bound as (value or None, strict) with exact
Fraction arithmetic, written out here and shared with no production path.
The kernel must agree on emptiness (an operation that would empty a zone
returns None) and, for non-empty zones, on every decoded bound and its
strictness.  The operations that build fewer zones are also held equal,
matrix for matrix, to the plain ones they replace: ``intersect`` to a copy
tightened by every bound of the other zone, ``reset_up`` to
``reset(R).up()``, the int ``trajectory_zone`` to one built from
Fraction differences and ``encode_bound``, and ``zone_minus``, which reads
the other zone's listed bounds, to the scan of its whole matrix.  The
listed bounds, which the meet, the difference and the point reader all
read, are cached per zone, and every in-place change must clear them.
"""

import random
from fractions import Fraction
from math import lcm

from timedsessions.zones import (LE_ZERO as LE_ZERO_CODE, Zone, decode_bound,
                                 holds_at, trajectory_zone, window_at,
                                 zone_minus, zoneset_contains)

F = Fraction
INF = (None, True)
LE_ZERO = (F(0), False)
DENOMINATORS = (1, 1, 2, 3, 4, 6)


def encode_bound(value, strict, scale):
    """The int encoding of ``< value`` (strict) or ``<= value`` at ``scale``:
    the inverse of ``decode_bound``, kept with the tests that build zones
    from Fraction bounds."""
    value = Fraction(value)
    factor, rest = divmod(scale, value.denominator)
    if rest:
        raise ValueError(f"{value} is not a multiple of 1/{scale}")
    return 2 * value.numerator * factor + (0 if strict else 1)


def tighter(a, b):
    if b[0] is None:
        return a[0] is not None
    if a[0] is None:
        return False
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def plus(a, b):
    if a[0] is None or b[0] is None:
        return INF
    return (a[0] + b[0], a[1] or b[1])


def oracle_closure(bounds):
    """Floyd-Warshall on (value, strict) bounds; (closed matrix, empty)."""
    d = [row[:] for row in bounds]
    n = len(d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cand = plus(d[i][k], d[k][j])
                if tighter(cand, d[i][j]):
                    d[i][j] = cand
    return d, any(tighter(d[i][i], LE_ZERO) for i in range(n))


def random_value(rng, integer):
    den = 1 if integer else rng.choice(DENOMINATORS)
    return F(rng.randint(-4 * den, 6 * den), den)


def random_bounds(rng, n, integer):
    """A random DBM; about half of them hold a chosen point, so they are
    non-empty, and the rest are arbitrary."""
    point = [F(0)] + [random_value(rng, integer) for _ in range(n - 1)]
    around_point = rng.random() < 0.5
    bounds = [[LE_ZERO if i == j else INF for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() < 0.3:
                continue
            value = random_value(rng, integer)
            if around_point:
                value = point[i] - point[j] + abs(value) / 2
            bounds[i][j] = (value, rng.random() < 0.5 and value != 0)
    return bounds


def scale_of(bounds):
    return lcm(*(b[0].denominator for row in bounds for b in row
                 if b[0] is not None))


def encoded_zone(bounds):
    scale = scale_of(bounds)
    m = [[None if b[0] is None else encode_bound(b[0], b[1], scale)
          for b in row] for row in bounds]
    clocks = tuple(f"c{k}" for k in range(1, len(bounds)))
    return Zone(clocks, m, scale=scale)


def assert_agrees(zone, bounds):
    """zone is the kernel's result, None when it found the zone empty."""
    expected, empty = oracle_closure(bounds)
    assert (zone is None) == empty
    if empty:
        return
    n = len(bounds)
    for i in range(n):
        for j in range(n):
            value, strict = zone.bound(i, j)
            if expected[i][j][0] is None:
                assert value is None
            else:
                assert (value, strict) == expected[i][j]


def test_encoding_round_trips():
    rng = random.Random(3)
    for _ in range(500):
        value = random_value(rng, integer=False)
        strict = rng.random() < 0.5
        scale = value.denominator * rng.choice((1, 2, 3, 5))
        encoded = encode_bound(value, strict, scale)
        assert decode_bound(encoded, scale) == (value, strict)
        assert encoded % 2 == (0 if strict else 1)


def test_closure_matches_fraction_floyd_warshall():
    rng = random.Random(5)
    empties = 0
    for trial in range(600):
        n = rng.randint(2, 4)  # 1 to 3 clocks plus the reference clock
        bounds = random_bounds(rng, n, integer=trial % 2 == 0)
        zone = encoded_zone(bounds).canonicalize()
        assert_agrees(zone, bounds)
        empties += zone is None
    assert 100 < empties < 500  # both outcomes are exercised


def test_incremental_tighten_matches_full_closure():
    rng = random.Random(7)
    tightened = 0
    for trial in range(600):
        n = rng.randint(2, 4)
        bounds = random_bounds(rng, n, integer=trial % 2 == 0)
        zone = encoded_zone(bounds).canonicalize()
        if zone is None:
            continue
        i, j = rng.sample(range(n), 2)
        value = random_value(rng, integer=trial % 2 == 0)
        strict = rng.random() < 0.5
        zone = zone.rescaled(lcm(zone.scale, value.denominator))
        zone = zone.tighten(i, j, encode_bound(value, strict, zone.scale))
        closed, _ = oracle_closure(bounds)
        if tighter((value, strict), closed[i][j]):
            closed[i][j] = (value, strict)
        assert_agrees(zone, closed)
        tightened += 1
    assert tightened > 200


def reference_contains(bounds, point):
    """Does point (reference clock first) meet every (value, strict) bound?"""
    for i, row in enumerate(bounds):
        for j, (value, strict) in enumerate(row):
            if value is None:
                continue
            diff = point[i] - point[j]
            if not (diff < value if strict else diff <= value):
                return False
    return True


def test_contains_matches_fraction_reference():
    """Valuations on halves, thirds and twelfths against zones at scales 1,
    2, 3 and 6, with bounds on, just above and just below the point."""
    rng = random.Random(13)
    on_strict = on_weak = inside = 0
    trials = 3000
    for _ in range(trials):
        n = rng.randint(2, 4)
        scale = rng.choice((1, 2, 3, 6))
        den = rng.choice((2, 3, 12))
        point = [F(0)] + [F(rng.randint(0, 6 * den), den) for _ in range(n - 1)]
        bounds = [[LE_ZERO if i == j else INF for j in range(n)]
                  for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j or rng.random() < 0.4:
                    continue
                diff = point[i] - point[j]
                value = F(round(diff * scale) + rng.choice((-1, 0, 0, 1, 1)),
                          scale)
                strict = rng.random() < 0.5
                bounds[i][j] = (value, strict)
                if value == diff:
                    on_strict += strict
                    on_weak += not strict
        m = [[None if b[0] is None else encode_bound(b[0], b[1], scale)
              for b in row] for row in bounds]
        clocks = tuple(f"c{k}" for k in range(1, n))
        zone = Zone(clocks, m, scale=scale)
        expected = reference_contains(bounds, point)
        nu = dict(zip(clocks, point[1:]))
        assert zoneset_contains([zone], nu) == expected
        inside += expected
    assert on_strict > 500 and on_weak > 500
    assert trials // 10 < inside < trials - trials // 10


def canonical_pair(rng, n, integer):
    """A random non-empty canonical zone of nonnegative clocks and the
    oracle's closed bounds of it, or None when the random DBM is empty."""
    bounds = random_bounds(rng, n, integer)
    for j in range(1, n):
        if tighter(LE_ZERO, bounds[0][j]):
            bounds[0][j] = LE_ZERO
    closed, empty = oracle_closure(bounds)
    if empty:
        return None
    return encoded_zone(bounds).canonicalize(), closed


def canonical_pairs(seed, trials=600):
    rng = random.Random(seed)
    for trial in range(trials):
        pair = canonical_pair(rng, rng.randint(2, 4), trial % 2 == 0)
        if pair is not None:
            yield rng, pair


def test_up_of_a_canonical_zone_is_the_closure_of_dropping_upper_bounds():
    checked = 0
    for _, (zone, closed) in canonical_pairs(17):
        raw = [row[:] for row in closed]
        for i in range(1, len(raw)):
            raw[i][0] = INF
        assert_agrees(zone.up(), raw)
        checked += 1
    assert checked > 200


def test_down_of_a_canonical_zone_is_the_closure_of_dropping_lower_bounds():
    checked = 0
    for _, (zone, closed) in canonical_pairs(19):
        raw = [row[:] for row in closed]
        for j in range(1, len(raw)):
            raw[0][j] = LE_ZERO
        assert_agrees(zone.down(), raw)
        checked += 1
    assert checked > 200


def test_reset_of_a_canonical_zone_is_the_closure_of_freeing_then_zeroing():
    checked = 0
    for rng, (zone, closed) in canonical_pairs(23):
        n = len(closed)
        resets = rng.sample(range(1, n), rng.randint(1, n - 1))
        raw = [row[:] for row in closed]
        for x in resets:
            for k in range(n):
                if k != x:
                    raw[x][k] = raw[k][x] = INF
            raw[x][0] = raw[0][x] = LE_ZERO
        assert_agrees(zone.reset(zone.clocks[x - 1] for x in resets), raw)
        checked += 1
    assert checked > 200


def test_intersect_of_canonical_zones_is_the_closure_of_the_tighter_bounds():
    rng = random.Random(29)
    met = empties = 0
    for trial in range(1200):
        n = rng.randint(2, 4)
        first = canonical_pair(rng, n, trial % 2 == 0)
        second = canonical_pair(rng, n, trial % 3 == 0)
        if first is None or second is None:
            continue
        (a, closed_a), (b, closed_b) = first, second
        raw = [[x if tighter(x, y) else y for x, y in zip(row_a, row_b)]
               for row_a, row_b in zip(closed_a, closed_b)]
        before = [row[:] for row in a.m], [row[:] for row in b.m]
        meet = a.intersect(b)
        assert_agrees(meet, raw)
        met += 1
        empties += meet is None
        assert (a.m, b.m) == before  # the operands are untouched
    assert met > 200 and 0 < empties < met


def copy_and_tighten_every_bound(a, b):
    """The meet as a copy of a at the common scale tightened by every bound
    of b, or None when it is empty."""
    scale = lcm(a.scale, b.scale)
    out = a.rescaled(scale).copy()
    for i, row in enumerate(b.rescaled(scale).m):
        for j, bound in enumerate(row):
            if bound is not None and out.tighten(i, j, bound) is None:
                return None
    return out


def test_intersect_equals_copy_and_tighten_every_bound():
    rng = random.Random(31)
    met = empties = mixed = 0
    for trial in range(1500):
        n = rng.randint(2, 4)
        first = canonical_pair(rng, n, trial % 2 == 0)
        second = canonical_pair(rng, n, trial % 3 == 0)
        if first is None or second is None:
            continue
        a, b = first[0], second[0]
        meet = a.intersect(b)
        assert meet == copy_and_tighten_every_bound(a, b)
        assert meet is not a and meet is not b
        met += 1
        empties += meet is None
        mixed += a.scale != b.scale
    assert met > 300 and 50 < empties < met - 50 and mixed > 100


def test_reset_up_equals_reset_then_up():
    checked = 0
    for rng, (zone, _) in canonical_pairs(37):
        resets = rng.sample(zone.clocks, rng.randint(0, len(zone.clocks)))
        expected = zone.reset(resets).up()
        built = zone.copy()
        assert built.reset_up(resets) is built
        assert built == expected
        checked += 1
    assert checked > 200


def fraction_trajectory(nu, t, include_end):
    """The trajectory zone of nu over t, built from Fraction differences
    and ``encode_bound``."""
    ordered = tuple(sorted(nu))
    values = [F(nu[clock]) for clock in ordered]
    scale = lcm(F(t).denominator, *(value.denominator for value in values))
    zone = Zone.universal(ordered, scale)
    m = zone.m
    for a in range(1, len(ordered) + 1):
        for b in range(a + 1, len(ordered) + 1):
            diff = values[a - 1] - values[b - 1]
            m[a][b] = encode_bound(diff, False, scale)
            m[b][a] = encode_bound(-diff, False, scale)
    m[0][1] = min(m[0][1], encode_bound(-values[0], False, scale))
    m[1][0] = encode_bound(values[0] + t, not include_end, scale)
    return zone.canonicalize()


def test_int_trajectory_equals_the_fraction_one():
    """Valuations on halves and thirds over one to three clocks."""
    rng = random.Random(41)
    checked = 0
    for _ in range(500):
        den = rng.choice((2, 3))
        nu = {clock: F(rng.randint(0, 6 * den), den)
              for clock in ("x", "y", "z")[:rng.randint(1, 3)]}
        for t in (F(1, 2), F(1), F(3)):
            for include_end in (False, True):
                assert (trajectory_zone(nu, t, include_end)
                        == fraction_trajectory(nu, t, include_end))
                checked += 1
    assert checked == 3000


def scanned_zone_minus(w, z):
    """w minus z, one piece per bound of z found by scanning z's whole matrix
    row by row, at the common scale: the difference as it was written
    before zones listed their bounds."""
    scale = lcm(w.scale, z.scale)
    remaining, z = w.rescaled(scale), z.rescaled(scale)
    owned = remaining is not w
    pieces = []
    for i, row in enumerate(z.m):
        for j, b in enumerate(row):
            if i == j or b is None or (i == 0 and b == LE_ZERO_CODE):
                continue
            have = remaining.m[i][j]
            if have is not None and have <= b:
                continue
            piece = remaining.copy().tighten(j, i, 1 - b)
            if piece is not None:
                pieces.append(piece)
            if not owned:
                remaining, owned = remaining.copy(), True
            if remaining.tighten(i, j, b) is None:
                return pieces
    return pieces


def decoded(zone):
    return [[zone.bound(i, j) for j in range(len(zone.m))]
            for i in range(len(zone.m))]


def test_zone_minus_equals_the_matrix_scan_and_partitions_the_difference():
    """Matrix for matrix and in order against ``scanned_zone_minus``; then,
    on grid points at half the finest step of the two zones, each point of
    w outside z lies in exactly one piece and no other point in any."""
    rng = random.Random(43)
    pairs = mixed = diagonal = split = inside = 0
    for trial in range(1200):
        n = rng.randint(2, 4)
        first = canonical_pair(rng, n, trial % 2 == 0)
        second = canonical_pair(rng, n, trial % 3 == 0)
        if first is None or second is None:
            continue
        (w, closed_w), (z, closed_z) = first, second
        before = [row[:] for row in w.m], [row[:] for row in z.m]
        pieces = zone_minus(w, z)
        assert pieces == scanned_zone_minus(w, z)
        assert (w.m, z.m) == before  # the operands are untouched
        pairs += 1
        mixed += w.scale != z.scale
        diagonal += any(b is not None for row in z.m[1:]
                        for b in row[1:]) and len(pieces) > 0
        split += len(pieces) > 1
        step = F(1, 2 * lcm(w.scale, z.scale))
        grid = [k * step for k in range(int(7 / step) + 1)]
        bounds = [decoded(piece) for piece in pieces]
        for _ in range(40):
            point = [F(0)] + [rng.choice(grid) for _ in range(n - 1)]
            expected = (reference_contains(closed_w, point)
                        and not reference_contains(closed_z, point))
            hits = sum(reference_contains(b, point) for b in bounds)
            assert hits == expected
            inside += expected
    assert pairs > 300 and mixed > 150 and diagonal > 150 and split > 40
    assert inside > 1500


def test_in_place_changes_clear_the_listed_and_the_window_bounds():
    """Read the cached listed bounds, change the zone in place, then meet
    and subtract with it and read its window and membership at a point:
    the results must be those of a zone rebuilt from a copy of its matrix,
    whose cache starts empty."""
    rng, points = random.Random(47), random.Random(59)
    changed = {"tighten": 0, "canonicalize": 0, "zero": 0, "reset_up": 0}

    def tighten(zone):
        i, j = rng.sample(range(len(zone.m)), 2)
        have = zone.m[i][j]
        return zone.tighten(i, j, 2 * rng.randint(0, 4) + 1
                            if have is None else have - rng.randint(1, 3))

    def canonicalize(zone):  # a raw write, as a builder from scratch makes
        i, j = rng.sample(range(1, len(zone.m)), 2) if len(zone.m) > 2 else (
            1, 0)
        have = zone.m[i][j]
        zone.m[i][j] = 2 * rng.randint(0, 4) + 1 if have is None else have - 2
        return zone.canonicalize()

    def zero(zone):
        return zone.zero(rng.sample(zone.clocks,
                                    rng.randint(1, len(zone.clocks))))

    def reset_up(zone):
        return zone.reset_up(rng.sample(zone.clocks,
                                        rng.randint(0, len(zone.clocks))))

    for _, (zone, _) in canonical_pairs(53, trials=900):
        other = canonical_pair(rng, len(zone.m), integer=rng.random() < 0.5)
        if other is None:
            continue
        other = other[0]
        for name, change in (("tighten", tighten),
                             ("canonicalize", canonicalize),
                             ("zero", zero), ("reset_up", reset_up)):
            listed = zone.listed_bounds()
            if change(zone) is None:
                break  # the zone emptied: its builder drops it
            fresh = Zone(zone.clocks, [row[:] for row in zone.m], zone.scale)
            assert other.intersect(zone) == other.intersect(fresh)
            assert zone_minus(other, zone) == zone_minus(other, fresh)
            scale = 2 * zone.scale
            point = [0] + [points.randint(0, 8 * scale) for _ in zone.clocks]
            assert (window_at(zone, point, scale)
                    == window_at(fresh, point, scale))
            assert (holds_at([zone], point, scale)
                    == holds_at([fresh], point, scale))
            assert zone.listed_bounds() == fresh.listed_bounds()
            changed[name] += fresh.listed_bounds() != listed
    assert min(changed.values()) > 150, changed
