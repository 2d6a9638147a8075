"""The integer DBM kernel against a plain Fraction Floyd-Warshall.

The oracle below keeps each bound as (value or None, strict) with exact
Fraction arithmetic, written out here and shared with no production path.
The kernel must agree on emptiness and, for non-empty zones, on every
decoded bound and its strictness.
"""

import random
from fractions import Fraction
from math import lcm

from timedsessions.zones import Zone, decode_bound, encode_bound

F = Fraction
INF = (None, True)
LE_ZERO = (F(0), False)
DENOMINATORS = (1, 1, 2, 3, 4, 6)


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
    expected, empty = oracle_closure(bounds)
    assert zone.empty == empty
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
        empties += zone.empty
    assert 100 < empties < 500  # both outcomes are exercised


def test_incremental_tighten_matches_full_closure():
    rng = random.Random(7)
    tightened = 0
    for trial in range(600):
        n = rng.randint(2, 4)
        bounds = random_bounds(rng, n, integer=trial % 2 == 0)
        zone = encoded_zone(bounds).canonicalize()
        if zone.empty:
            continue
        i, j = rng.sample(range(n), 2)
        value = random_value(rng, integer=trial % 2 == 0)
        strict = rng.random() < 0.5
        zone = zone.rescaled(lcm(zone.scale, value.denominator))
        zone.tighten(i, j, encode_bound(value, strict, zone.scale))
        closed, _ = oracle_closure(bounds)
        if tighter((value, strict), closed[i][j]):
            closed[i][j] = (value, strict)
        assert_agrees(zone, closed)
        tightened += 1
    assert tightened > 200
