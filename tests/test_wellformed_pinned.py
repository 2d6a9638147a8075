"""Well-formedness reports pinned by digest.

Every report (verdict, and each violation's path, condition and witness)
for S and dual(S) is folded into one sha256, over seeded random_type
candidates and hand-written types that random_type never produces:
delegations good, bad and nested, a delegated recursion whose reach
escapes its binder, a mixed choice inside a delegated session reported
from the one walk's universal-reach list, and a clockless type.  The digest was taken from the
checker when it still tracked reach as constraints rendered from zones; any
change in verdicts, violation order or witness text changes it.
"""

import hashlib
import random

from timedsessions.generate import random_type
from timedsessions.parser import parse_type
from timedsessions.sessiontypes import End, check_well_formed, dual

STREAMS = (20240801, 20240901)
PER_STREAM = 150
CLOCKS = ("x", "y")

HAND_WRITTEN = (
    # a good delegation, and one whose session cannot act from its init
    "!hand<(x<2, ?m(x<5).end)>(x<1).end",
    "!hand<(x<9, ?m(2<x<5).end)>(x<1).end",
    # a delegation inside a delegated session
    "!h<(z<1, !k<(w<2, ?m(w<3).end)>(z<2).end)>(x<1).end",
    "!h<(z<1, { !k<(w>2, ?m(w<3).end)>(z<2).end , ?n(z<1).end })>(x<1).end",
    # mixed choices whose guards overlap only where the reach cannot go:
    # after the reset of y, x - y stays in [0, 1) ...
    "!a(x<1, {y}).{ !b(y<1 and x>2).end , ?c(x>2).end }",
    # ... also across a later guard that says nothing about x
    "!a(x<1, {y}).!d(y<=1).{ !b(y<1 and x>2).end , ?c(x>2).end }",
    # an overlap reached only by waiting after the reset
    "!a(x=1, {x}).{ !b(x>2).end , ?c(y>2).end }",
    # feasible only through the reset
    "!a(x>5, {x}).!b(x<1).end",
    # a delegated recursion whose reach leaves the diagonal z = w it was
    # entered on, so the report is the one walk's universal-reach list,
    # which flags b/c; with one clock the reach cannot escape and b/c
    # stays safe
    "!h<(z=0 and w=0, rec r . !a(z<1, {z}).?b(w<9).r)>(x<1, {y})"
    ".{ !b(y<1 and x>2).end , ?c(x>2).end }",
    "!h<(z=0, rec r . !a(z<1, {z}).?b(z<9).r)>(x<1, {y})"
    ".{ !b(y<1 and x>2).end , ?c(x>2).end }",
    # a mixed choice inside a delegated session, while the outer recursion
    # escapes its reach; the universal-reach list must check b/c against
    # the whole region, not against the delegated session's init zones
    "!h<(z=0 and w=0, !a(z<1 and w>0, {z}).{ !b(w-z>0).end , ?c(w-z>0).end })>"
    "(x<1 and y<1).rec r . !d(y<5, {x}).r",
    # a clockless type
    "!a.?b.{ !c.end , ?d.end }",
    "rec r . !a.?b.r",
)


def candidates():
    for stream in STREAMS:
        rng = random.Random(stream)
        found = 0
        while found < PER_STREAM:
            node = random_type(rng, CLOCKS, 3, 5)
            if not isinstance(node, End):
                found += 1
                yield node, CLOCKS


def report_digest(inputs):
    h = hashlib.sha256()
    for node, clocks in inputs:
        for side in (node, dual(node)):
            report = check_well_formed(side, clocks=clocks)
            h.update(repr(report.verdict).encode())
            for v in report.violations:
                h.update(repr((v.path, v.condition, v.witness)).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_random_candidates_match_pinned_reports():
    assert report_digest(candidates()) == (
        "9c3d687bd7a1b50343590a4a43edbac300b0f43ee6fd5d12ec0e7d8f4c556841")


def test_hand_written_types_match_pinned_reports():
    assert report_digest((parse_type(text), None) for text in HAND_WRITTEN) == (
        "d55563693935042ac737e4628ba188967df64f2ff985ebda9b0203de264f5b70")


def test_hand_written_types_exercise_every_condition():
    conditions = set()
    for text in HAND_WRITTEN:
        for side in (parse_type(text), dual(parse_type(text))):
            conditions |= {v.condition
                           for v in check_well_formed(side).violations}
    assert {"feasibility", "mixed-choice", "delegation"} <= conditions
