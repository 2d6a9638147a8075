"""Progress exploration pinned on a seeded sample of the stored corpora.

`check_progress` of S | dual(S) is run on 40 systems drawn from each
corpus in ``perfbench/corpus`` (well-formed and singly-ill-formed types),
and the sha256 of every (verdict, states visited, trace, reason) is
compared with a digest taken when states were first canonicalised against
the clock ceilings of their heads (`Choice.clock_ceilings`).  Every one of
the 500 systems is pinned as well, by its report and the total of states
visited.  A change in the admitted waits, in their order or in state
identity shows here.

`simulate` picks a step by drawing an index into the step list, so the
order of that list is pinned through seeded `simulate` runs too; their
digest was taken when a walk began to end on the stuck test of
`check_progress` (`_Space.acts`).
"""

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from timedsessions.cli import main
from timedsessions.parser import parse_type
from timedsessions.semantics import ExploreLimits, check_progress, make_system
from timedsessions.sessiontypes import dual

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "perfbench" / "corpus"
FIXTURES = ROOT / "fixtures"

PINNED_CORPUS = {
    "progress-20240801-20240802.txt":
        "916ce2e8fddaaafb664ffa7929df715bc10c07dcd694f94c31c36c859a33e236",
    "progress-20240901-20240902.txt":
        "c36fa20942a8a354d399566c54b2fb0a17b00a8b21ef1b083901757607ce3326",
}


# every system of both corpora, in file order, the corpora in name order:
# the total of states visited and the digest of the report lines, taken
# before each state was expanded in one pass into canonical successors
PINNED_EVERY_SYSTEM = (
    25899, "630a4da6490c935d24d01a34706e369f1a83bae9d3b186011ceb08b50157d469")


def _report(printed: str):
    node = parse_type(printed)
    return check_progress(make_system(node, dual(node), clocks=("x", "y")),
                          ExploreLimits())


def _line(report) -> str:
    return repr((report.verdict, report.states_visited,
                 [(str(action), key) for action, key in report.trace],
                 report.reason))


@pytest.mark.parametrize("corpus", sorted(PINNED_CORPUS))
def test_progress_on_a_corpus_sample_is_pinned(corpus):
    rows = (CORPORA / corpus).read_text().splitlines()
    chosen = sorted(random.Random(11).sample(range(len(rows)), 40))
    text = "\n".join(_line(_report(rows[n].split("\t")[-1])) for n in chosen)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CORPUS[corpus]


def test_progress_on_every_corpus_system_is_pinned():
    reports = [_report(row.split("\t")[-1]) for corpus in sorted(PINNED_CORPUS)
               for row in (CORPORA / corpus).read_text().splitlines()]
    text = "\n".join(map(_line, reports))
    assert len(reports) == 500
    assert (sum(report.states_visited for report in reports),
            hashlib.sha256(text.encode()).hexdigest()) == PINNED_EVERY_SYSTEM


SIMULATED = [
    ("throttling.toast", "throttle2"),
    ("mixed_pingpong.toast", "mpp"),
    ("weak_persistency.toast", "weak"),
    ("unsafe_mixed.toast", "unsafe"),
    ("pingpong.toast", "pp"),
]
PINNED_SIMULATE = (
    "547ee2acc9e4496c4b0eaa20fc35480c264694890f8dbd904d31f2ae719dc3db")


def test_simulate_walks_are_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for fixture, system in SIMULATED:
            for seed in range(6):
                print(main(["simulate", str(FIXTURES / fixture), system,
                            "--trace-len", "25", "--seed", str(seed)]))
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        PINNED_SIMULATE)
