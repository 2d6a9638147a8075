"""The one-walk well-formedness checker against the two-pass reference.

``check_well_formed`` walks a type once and collects two violation lists:
those under the tracked reach and those under the universal reach.  The
reference below is the checker it replaced: a pass that tracks the reach
and, when a recursion is re-entered outside the reach its binder was
analysed with, a second pass over the whole type with a universal reach.
The two must give equal reports (verdict, violation order and witness
text) on a candidate stream the pinned digests do not use, from the zero
valuation and from seeded rational ones, and on the pinned hand-written
delegation and escape types.  The walk must also visit each type node once.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

import pytest

from helpers import options_with_payloads, random_valuation
from reference_semantics import widened
from test_wellformed_pinned import HAND_WRITTEN
from timedsessions.constraints import clocks_of, eval_constraint, zero_valuation
from timedsessions.errors import SpecError
from timedsessions.generate import random_type
from timedsessions.parser import parse_type
from timedsessions.sessiontypes import (Choice, Delegate, End, Rec, TypeNode,
                                        Var, Violation, WfReport, _WfChecker,
                                        check_well_formed, dual, gamma,
                                        gamma_head, type_clocks)
from timedsessions.zones import (Zone, ZoneSet, to_zones, trajectory_zone,
                                 zoneset_entails, zoneset_meet)

STREAM = 11
CANDIDATES = 300
CLOCKS = ("x", "y")
RATIONALS = [Fraction(n, d) for d in (1, 2, 3, 4) for n in range(0, 4 * d + 1)]


class _TwoPassChecker:
    """One pass of the reference: with track_reach, over the reach a
    subterm can be entered with; without it, over the universal region."""

    def __init__(self, clocks, track_reach: bool):
        self.clocks = tuple(sorted(clocks))
        self.track_reach = track_reach
        self.violations: List[Violation] = []
        self.reach_escaped = False

    def widened(self, zones: ZoneSet) -> ZoneSet:
        return [widened(zone, self.clocks) for zone in zones]

    def entry(self, head) -> ZoneSet:
        """gamma of a head over this pass's clocks, compiled here from its
        guards and widened: the down-closure of the guard zones, universal
        for end."""
        if not head.options:
            return [Zone.universal(self.clocks)]
        return [widened(zone, self.clocks).down()
                for opt in head.options for zone in to_zones(opt.guard)]

    def check(self, node: TypeNode, path: Tuple[str, ...],
              gamma_env: Dict[str, TypeNode],
              reach_env: Dict[str, ZoneSet],
              reach: ZoneSet) -> None:
        if isinstance(node, Var):
            if node.var not in gamma_env:
                self.violations.append(
                    Violation(path, "unbound-var", node.var))
                return
            if self.track_reach and not zoneset_entails(
                    reach, reach_env[node.var]):
                self.reach_escaped = True
            return
        if isinstance(node, Rec):
            genv = dict(gamma_env)
            renv = dict(reach_env)
            try:
                genv[node.var] = gamma_head(node.body, genv)
            except SpecError as exc:
                self.violations.append(Violation(path, "unbound-var", str(exc)))
                return
            renv[node.var] = reach
            self.check(node.body, path, genv, renv, reach)
            return
        seen_labels = set()
        for opt in node.options:
            if opt.label in seen_labels:
                self.violations.append(
                    Violation(path, "duplicate-label", opt.label))
            seen_labels.add(opt.label)
        options = node.options
        guards = [self.widened(to_zones(opt.guard)) for opt in options]
        for (a, ga), (b, gb) in combinations(zip(options, guards), 2):
            if (a.direction != b.direction
                    and zoneset_meet(reach, zoneset_meet(ga, gb))):
                self.violations.append(Violation(
                    path, "mixed-choice", f"{a.label}/{b.label}"))
        for opt, guard in zip(options, guards):
            opt_path = path + (opt.label,)
            try:
                cont = gamma_head(opt.continuation, gamma_env)
            except SpecError as exc:
                self.violations.append(
                    Violation(opt_path, "unbound-var", str(exc)))
                continue
            if not zoneset_entails([z.reset(opt.resets) for z in guard],
                                   self.entry(cont)):
                self.violations.append(Violation(
                    opt_path, "feasibility", str(cont.entry)))
            if isinstance(opt.payload, Delegate):
                self.check_delegation(opt.payload, opt_path)
            if self.track_reach:
                next_reach = [z.reset(opt.resets).up()
                              for z in zoneset_meet(reach, guard)]
            else:
                next_reach = reach
            self.check(opt.continuation, opt_path, gamma_env, reach_env,
                       next_reach)

    def check_delegation(self, inner: Delegate, path: Tuple[str, ...]) -> None:
        try:
            inner_head = gamma_head(inner.session)
        except SpecError as exc:
            self.violations.append(Violation(path, "unbound-var", str(exc)))
            return
        sub = _TwoPassChecker(set(self.clocks) | type_clocks(inner.session)
                              | clocks_of(inner.init_constraint),
                              self.track_reach)
        init = to_zones(inner.init_constraint, sub.clocks)
        if not zoneset_entails(init, sub.entry(inner_head)):
            self.violations.append(Violation(
                path, "delegation", str(inner_head.entry)))
        sub.check(inner.session, path, {}, {},
                  [z.up() for z in init] if self.track_reach
                  else [Zone.universal(sub.clocks)])
        self.violations.extend(sub.violations)
        self.reach_escaped |= sub.reach_escaped


def reference_check_well_formed(node, nu=None, clocks=None) -> WfReport:
    """check_well_formed as two passes: the tracked one, and the universal
    one whenever the tracked pass escaped."""
    clock_set = set(clocks) if clocks is not None else set()
    clock_set |= type_clocks(node)
    if nu is None:
        nu = zero_valuation(sorted(clock_set))
    else:
        clock_set |= set(nu)
        nu = {name: Fraction(value) for name, value in nu.items()}
        for name in clock_set - set(nu):
            nu[name] = Fraction(0)
    checker = _TwoPassChecker(clock_set, track_reach=True)
    reach = ([trajectory_zone(nu, 1, include_end=True).up()] if nu
             else [Zone.universal(checker.clocks)])
    checker.check(node, (), {}, {}, reach)
    if checker.reach_escaped:
        checker = _TwoPassChecker(clock_set, track_reach=False)
        checker.check(node, (), {}, {}, [Zone.universal(checker.clocks)])
    violations = list(checker.violations)
    try:
        if not eval_constraint(nu, gamma(node)):
            violations.append(Violation((), "feasibility",
                                        "initial valuation outside entry constraint"))
    except SpecError as exc:
        violations.append(Violation((), "unbound-var", str(exc)))
    return WfReport(not violations, tuple(violations))


def stream_candidates():
    rng = random.Random(STREAM)
    found = 0
    while found < CANDIDATES:
        node = random_type(rng, CLOCKS, 3, 5)
        if not isinstance(node, End):
            found += 1
            yield node


def assert_same_reports(node, **kwargs):
    for side in (node, dual(node)):
        assert (check_well_formed(side, **kwargs)
                == reference_check_well_formed(side, **kwargs)), side


def test_stream_matches_reference_from_zero_and_rational_valuations():
    """Every candidate from the zero valuation, every other one also from a
    seeded rational valuation (all of them would take Tier-1 past 3 s)."""
    rng = random.Random(STREAM)
    for i, node in enumerate(stream_candidates()):
        assert_same_reports(node, clocks=CLOCKS)
        if i % 2:
            assert_same_reports(node,
                                nu=random_valuation(rng, CLOCKS, RATIONALS))


@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_hand_written_types_match_reference(text):
    rng = random.Random(text)
    node = parse_type(text)
    assert_same_reports(node)
    for _ in range(4):
        clocks = sorted(type_clocks(node) | {"x"})
        assert_same_reports(node, nu=random_valuation(rng, clocks, RATIONALS))


def type_nodes(node: TypeNode) -> int:
    """The number of nodes of a type, delegated sessions included."""
    if isinstance(node, Rec):
        return 1 + type_nodes(node.body)
    if isinstance(node, Choice):
        return 1 + sum(
            type_nodes(opt.continuation)
            + (type_nodes(opt.payload.session)
               if isinstance(opt.payload, Delegate) else 0)
            for opt in node.options)
    return 1


@pytest.mark.parametrize("text", [
    "rec r . !a(x<1, {y}).?b(y<1 and x-y<2, {x}).r",
    HAND_WRITTEN[8],  # a delegated recursion whose reach escapes its binder
])
def test_each_node_is_checked_once(monkeypatch, text):
    node = parse_type(text)
    checkers, calls = [], []
    init, check = _WfChecker.__init__, _WfChecker.check

    def counted_init(self, *args):
        init(self, *args)
        checkers.append(self)

    def counted_check(self, node, path, gamma_env, reach_env, reach):
        calls.append((self.escaped, reach))
        return check(self, node, path, gamma_env, reach_env, reach)

    monkeypatch.setattr(_WfChecker, "__init__", counted_init)
    monkeypatch.setattr(_WfChecker, "check", counted_check)
    assert check_well_formed(node) == reference_check_well_formed(node)
    delegations = sum(isinstance(opt.payload, Delegate)
                      for opt in options_with_payloads(node))
    assert len(checkers) == 1 + delegations
    assert checkers[0].escaped
    assert len(calls) == type_nodes(node)
    # after an escape the walk computes no reach
    assert all(reach is None for escaped, reach in calls if escaped)
