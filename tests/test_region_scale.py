"""Region canonicalisation at the scale of the guard constants.

`region_canonical(sys, cap, scale)` replaces both valuations by the
representative of their region after time is scaled by ``scale``.  At
scale 1 it must give exactly the integer-region values it always gave, so
integer systems keep their state digests; at scale d it must be the scale-1
form of the valuations times d, divided by d.  `check_progress` scales by
the LCM of the guard constants' denominators, so dividing every constant of
a system by d must not change its verdict.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import replays_to_stuck, scaled_type
from timedsessions.parser import parse_type
from timedsessions.semantics import (
    QConfig,
    System,
    check_progress,
    digest_system,
    make_system,
    region_canonical,
)
from timedsessions.sessiontypes import dual

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "perfbench" / "corpus"
CLOCKS = ("x", "y", "z")
# A head that reads x, y and z against 108: their ceilings exceed every cap
# drawn here (9 * 12, scaled caps included), so every clock is active and
# the cap alone bounds it, as in the arithmetic that reference_canonical
# states.
ACTIVE = parse_type("rec r . !a(x<108 and y<108 and z<108).r")


def reference_canonical(sys: System, cap: Fraction) -> System:
    """The integer-region canonicalisation as written before it took a
    scale: cap, then rank the distinct non-zero fractional parts."""
    entries, values = [], []
    for side_idx, qc in ((0, sys.left), (1, sys.right)):
        for clock, value in qc.nu.items():
            entries.append((side_idx, clock))
            values.append(min(value, cap))
    fracs = sorted({v - int(v) for v in values if v != int(v)})
    rank = {f: F(i + 1, len(fracs) + 1) for i, f in enumerate(fracs)}
    new_nus = [{}, {}]
    for (side_idx, clock), v in zip(entries, values):
        frac = v - int(v)
        new_nus[side_idx][clock] = F(int(v)) + (rank[frac] if frac else F(0))
    return System(QConfig(new_nus[0], sys.left.node, sys.left.queue),
                  QConfig(new_nus[1], sys.right.node, sys.right.queue))


def valuations(sys: System):
    return sys.left.nu, sys.right.nu


def random_system(rng, denominator):
    """Two valuations over the same one to three clocks, on a grid of the
    given denominator between 0 and 7."""
    clocks = CLOCKS[:rng.randint(1, 3)]
    node = ACTIVE

    def nu():
        return {c: F(rng.randint(0, 7 * denominator), denominator)
                for c in clocks}

    return System(QConfig(nu(), node), QConfig(nu(), node))


def random_cap(rng, denominator):
    """A cap below, within or above the values' range 0..7."""
    return F(rng.randint(1, 9 * denominator), denominator)


@pytest.mark.parametrize("denominator", [2, 3, 12])
def test_scale_one_is_the_integer_region_canonicalisation(denominator):
    rng = random.Random(130 + denominator)
    for _ in range(300):
        sys = random_system(rng, denominator)
        for cap in (random_cap(rng, 1), random_cap(rng, denominator)):
            got = region_canonical(sys, cap)
            assert valuations(got) == valuations(reference_canonical(sys, cap))
            assert digest_system(got) == digest_system(
                reference_canonical(sys, cap))


@pytest.mark.parametrize("denominator", [2, 3, 12])
def test_scale_d_is_the_scale_one_form_of_the_scaled_valuations(denominator):
    rng = random.Random(230 + denominator)
    for _ in range(300):
        sys = random_system(rng, denominator)
        cap = random_cap(rng, denominator)
        for scale in (2, 3, 12):
            scaled = System(
                *(QConfig({c: v * scale for c, v in qc.nu.items()}, qc.node)
                  for qc in (sys.left, sys.right)))
            want = [{c: v / scale for c, v in nu.items()} for nu in
                    valuations(region_canonical(scaled, cap * scale))]
            assert list(valuations(region_canonical(sys, cap, scale))) == want


def test_scaled_values_keep_their_whole_part_and_remainder_order():
    node = ACTIVE
    sys = System(QConfig({"x": F(1, 2), "y": F(7, 6)}, node),
                 QConfig({"x": F(1, 2), "y": F(9)}, node))
    # at scale 2 the values are 1, 2 + 1/3, 1 and 5 (capped): remainders
    # 0 < 1/3, so 2 + 1/3 becomes 2 + 1/2, and all are divided by 2 again
    got = region_canonical(sys, F(5, 2), 2)
    assert valuations(got) == ({"x": F(1, 2), "y": F(5, 4)},
                               {"x": F(1, 2), "y": F(5, 2)})
    # at scale 1 the fractional parts 1/6 < 1/2 are ranked 1/3 and 2/3
    assert valuations(region_canonical(sys, F(5, 2))) == (
        {"x": F(2, 3), "y": F(4, 3)}, {"x": F(2, 3), "y": F(8, 3)})


# -- metamorphic: the verdict does not depend on the unit of time ------------

# The verdicts of `check_progress` on the seeded sample of each corpus that
# test_progress_pinned.py pins, one letter each (ok, counterexample).
SAMPLE_VERDICTS = {
    "progress-20240801-20240802.txt": "o" * 29 + "c" * 11,
    "progress-20240901-20240902.txt": "o" * 29 + "c" * 11,
}
VERDICTS = {"o": "ok", "c": "counterexample"}


@pytest.mark.parametrize("corpus", sorted(SAMPLE_VERDICTS))
def test_dividing_constants_and_horizon_keeps_the_verdict(corpus):
    rows = (CORPORA / corpus).read_text().splitlines()
    chosen = sorted(random.Random(11).sample(range(len(rows)), 40))
    for n, letter in zip(chosen, SAMPLE_VERDICTS[corpus]):
        printed = rows[n].split("\t")[-1]
        for d in (2, 3):
            node = parse_type(scaled_type(printed, d))
            system = make_system(node, dual(node), clocks=("x", "y"))
            report = check_progress(system)
            assert report.verdict == VERDICTS[letter], (printed, d)
            if report.verdict == "counterexample":
                assert replays_to_stuck(system, report.trace), (printed, d)
