"""Every small closed type over one clock, exhaustively.

``helpers.closed_types`` enumerates each closed type of at most two options
over the clock x, with guards ``true`` and x <, <=, >, >=, = 1, reset sets
{} and {x}, and an optional top-level rec whose loop both sends and
receives.  For each type S:

* S and dual(S) get equal verdicts, and the report of each equals the
  report of a fresh family, the same type parsed again from its printed
  form, so what a family shares between them changes no report;
* a well-formed S explores to ``ok`` against its dual with no monitor
  violation, which is the paper's progress theorem;
* an ill-formed S gives a counterexample that replays to a stuck state.
  The paper proves only the first direction: that ill-formedness comes
  with a counterexample on this space is an observation, not a theorem.

The counts of types, well-formed types and verdicts are pinned.
"""

import time
from collections import Counter
from fractions import Fraction

from helpers import closed_types, replays_to_stuck
from timedsessions.constraints import (TRUE, atom_eq, atom_ge, atom_gt,
                                       atom_le, atom_lt)
from timedsessions.parser import parse_type
from timedsessions.semantics import ExploreLimits, check_progress, make_system
from timedsessions.sessiontypes import check_well_formed, dual, format_type

GUARDS = [TRUE] + [atom("x", Fraction(1)) for atom in (
    atom_lt, atom_le, atom_gt, atom_ge, atom_eq)]
RESETS = [frozenset(), frozenset({"x"})]
BUDGET_S = 5.0


def test_every_small_type_and_its_dual():
    start = time.monotonic()
    types = list(closed_types(2, GUARDS, RESETS))
    assert len(set(map(format_type, types))) == len(types)  # each once
    verdicts = Counter()
    well_formed = 0
    for node in types:
        printed = format_type(node)
        report = check_well_formed(node)
        dual_report = check_well_formed(dual(node))
        assert report.verdict == dual_report.verdict, printed
        assert report == check_well_formed(parse_type(printed)), printed
        assert dual_report == check_well_formed(
            parse_type(format_type(dual(node)))), printed
        system = make_system(node, dual(node), clocks=("x",))
        progress = check_progress(system, ExploreLimits(), monitor=True)
        verdicts[report.verdict, progress.verdict] += 1
        if report.verdict:
            well_formed += 1
            assert progress.verdict == "ok", (printed, progress.reason)
            assert progress.invariant_violations == [], printed
        else:
            assert progress.verdict == "counterexample", printed
            assert replays_to_stuck(system, progress.trace), printed
    assert (len(types), well_formed) == (1188, 908)
    assert dict(verdicts) == {(True, "ok"): 908,
                              (False, "counterexample"): 280}
    assert time.monotonic() - start < BUDGET_S
