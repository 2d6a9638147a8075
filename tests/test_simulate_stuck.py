"""`simulate` and `progress` agree on which states are stuck.

Both ask one test, ``_Space.acts``: a state is final, or it can act now
or after one of its sampled waits.  Every fifth system S | dual(S) of the
stored corpora (``perfbench/corpus``, 100 systems) is walked at seeds 0-9
for 30 steps under the CLI's default queue bound.  No walk of a system that
`check_progress` verifies ends stuck, every stuck walk is of a system it
reports a counterexample for, and the number of stuck walks is pinned.  A
walk that was called stuck only where a state had no successor at all
ended stuck 12 times here, and walked on by waiting from the crossing
`unsafe` reaches in ``fixtures/unsafe_mixed.toast``.
"""

import contextlib
import io
from collections import Counter
from pathlib import Path

from timedsessions.cli import main
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import check_progress, make_system, simulate
from timedsessions.sessiontypes import dual

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "perfbench" / "corpus"
UNSAFE = ROOT / "fixtures" / "unsafe_mixed.toast"


def test_walks_of_the_corpora_end_stuck_only_on_counterexamples():
    rows = [row.split("\t")[-1]
            for corpus in sorted(CORPORA.glob("progress-*.txt"))
            for row in corpus.read_text().splitlines()]
    assert len(rows) == 500
    ends = Counter()
    for printed in rows[::5]:
        node = parse_type(printed)
        system = make_system(node, dual(node), clocks=("x", "y"))
        verdict = check_progress(system).verdict
        for seed in range(10):
            ends[verdict, simulate(system, seed, 30, 8)[0]] += 1
    assert ends == {("ok", "ok"): 810, ("counterexample", "stuck"): 85,
                    ("counterexample", "ok"): 105}


def test_a_stuck_walk_ends_on_the_state_progress_reports():
    spec = parse_spec_file(UNSAFE.read_text())
    system = make_system(*spec.resolve_system("unsafe"), spec.clocks)
    report = check_progress(system)
    assert report.verdict == "counterexample"
    action, state = report.trace[-1]
    assert state == "(x=0 | end | [a]) || (x=0 | end | [b])"
    for seed in ("1", "2", "3"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["simulate", str(UNSAFE), "unsafe", "--seed", seed])
        assert code == 1
        assert out.getvalue().splitlines()[-2:] == [
            f"1 {action} {state}", "verdict: stuck"]
