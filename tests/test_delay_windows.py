"""Delay windows against the single-delay time rule.

`zones.window_at` on a zone's own clocks is checked against
`eval_constraint` of the shifted valuation on the zone's rendered
constraint and against the `trajectory_zone` sweep, and the per-side
bound `admissible_delays` filters with (`_Head.delay_bound`, read here
through the `delay_bound` converter) against the reference's `Fraction`
rule, `reference_semantics.qconfig_time`, on every boundary sample, the
midpoints between samples and the window endpoints themselves.  The
package's `qconfig_time`, a converter over that bound, and its
`is_future_enabled`, which reads the entry zones, are checked against the
reference's `qconfig_time` and `future_enabled` on seeded
configurations.  The int kernel the progress explorer runs on,
`zones.window_at` and the guard test of its step relation, is checked
against `eval_constraint` directly.  Valuations are drawn in halves and
thirds, guards mix open and closed endpoints, equalities, differences and
`true`.  The early-exit membership test `zones.holds_at` is checked
against the window that contains 0 and against `eval_constraint`.  Once
a type has been explored, admitting waits on its states zones nothing
again and never asks the single-delay rule, and a second progress check
of a system zones no guard at all.
"""

import random
from collections import Counter
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

from helpers import random_constraint, space_steps
import reference_semantics
from reference_semantics import option, qconfig_time
from timedsessions import constraints, semantics, sessiontypes, zones
from timedsessions.constraints import (TRUE, Not, atom_eq, atom_ge, atom_gt,
                                       atom_le, atom_lt, conj, sample_delays,
                                       shift)
from timedsessions.errors import ProtocolError, SpecError
from timedsessions.generate import well_formed_types
from timedsessions.parser import parse_spec_file, parse_type
from timedsessions.semantics import (Message, QConfig, System, _action,
                                     _stepper, unfold_head)
from timedsessions.sessiontypes import (BOOL, END, NONE, RECV, SEND, Choice,
                                        max_constant)
from timedsessions.zones import to_zones, trajectory_zone

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
GRID = sorted({F(n, 2) for n in range(12)} | {F(n, 3) for n in range(18)})
CONSTANTS = [c for c in GRID if c <= 4]
BUILDERS = (atom_gt, atom_ge, atom_lt, atom_le, atom_eq)


def random_guard(rng, clocks):
    """true, an interval with open or closed ends, or a random constraint
    over halves and thirds."""
    if not clocks or rng.random() < 0.1:
        return TRUE if rng.random() < 0.8 else Not(TRUE)
    roll = rng.random()
    clock = rng.choice(clocks)
    if roll < 0.4:
        low, high = sorted(rng.sample(CONSTANTS, 2))
        return conj(rng.choice((atom_gt, atom_ge))(clock, low),
                    rng.choice((atom_lt, atom_le))(clock, high))
    if roll < 0.55:
        return rng.choice(BUILDERS)(clock, rng.choice(CONSTANTS))
    return random_constraint(rng, clocks, CONSTANTS, max_depth=2)


def random_nu(rng, clocks):
    return {clock: rng.choice(GRID) for clock in clocks}


def decoded(bound, scale):
    return F(bound >> 1, scale), bool(bound & 1)


def meets(value, bound, scale):
    limit, closed = decoded(bound, scale)
    return value < limit or (closed and value == limit)


def tau_steps(sys):
    """The internal transitions of sys on the int step relation:
    asynchronous deliveries and queue consumptions, both sides always
    computed."""
    space, state = _stepper(sys)
    return [(_action(action), space.system(succ))
            for action, succ in space_steps(space, state, False)]


def delay_bound(qc, first):
    """The delays t > 0 that the int time rule admits on qc, as their
    upper end (value, closed), or None when it admits every delay: the
    int ``_Head.delay_bound`` of qc's head, with ``first`` the smallest
    delay asked about."""
    first = F(first)
    space, state = _stepper(System(qc, qc), first)
    scale, point, _ = space.points(state)
    bound = space.stepping(state[2]).delay_bound(
        qc.queue, None, point, scale,
        first.numerator * (scale // first.denominator))
    return None if bound is None else decoded(bound, scale)


def in_window(window, t):
    lo, hi, scale = window
    return meets(-t, lo, scale) and (hi is None or meets(t, hi, scale))


def window_ends(window):
    lo, hi, scale = window
    ends = [-decoded(lo, scale)[0]]
    if hi is not None:
        ends.append(decoded(hi, scale)[0])
    return ends


def probe_points(samples, extra):
    """Every sample, the midpoints between samples, each extra point and
    points a little to either side of it."""
    points = set(samples) | set(extra)
    points |= {e + d for e in extra for d in (F(-1, 7), F(1, 7))}
    ordered = sorted(points)
    points |= {(a + b) / 2 for a, b in zip(ordered, ordered[1:])}
    return sorted(t for t in points if t > 0)


CLOCK_SETS = [("x", "y"), ("x",), ()]


def own_window(zone, nu):
    """`window_at` of the zone on nu, as `(lo, hi, scale)` at the LCM of
    the zone's scale and the denominators of nu, or None."""
    scale = lcm(zone.scale, *(nu[clock].denominator for clock in zone.clocks))
    point = [0] + [int(nu[clock] * scale) for clock in zone.clocks]
    window = zones.window_at(zone, point, scale)
    return None if window is None else (*window, scale)


@pytest.mark.parametrize("seed", range(5))
def test_delay_window_is_the_set_of_delays_into_the_zone(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(100):
        clocks = rng.choice(CLOCK_SETS[:2])
        nu = random_nu(rng, clocks)
        for zone in to_zones(random_guard(rng, clocks)):
            window = own_window(zone, nu)
            ends = window_ends(window) if window else []
            rendered = zone.to_constraint()
            for t in probe_points(sorted(GRID), ends):
                inside = constraints.eval_constraint(shift(nu, t), rendered)
                assert (window is not None and in_window(window, t)) == inside
                # some delay in [0, t) reaches the zone: the window's lower
                # end, open or closed, lies before t
                own = {clock: nu[clock] for clock in zone.clocks}
                swept = not own or zone.intersect(trajectory_zone(
                    own, t, include_end=False)) is not None
                assert swept == (window is not None
                                 and window_ends(window)[0] < t)
                checked += 1
    assert checked > 1000


def int_windows(guard_zones, nu, scale):
    """window_at of each zone on nu at scale, a multiple of the zones'
    scales and of the denominators of nu, each on a point in the zone's
    own clock order."""
    return [zones.window_at(
                zone, [0] + [int(nu[clock] * scale) for clock in zone.clocks],
                scale)
            for zone in guard_zones]


def int_window_holds(window, t):
    """Does the int window (lo, hi) at its scale contain the int delay t?"""
    return (window is not None and 2 * -t + 1 <= window[0]
            and (window[1] is None or 2 * t + 1 <= window[1]))


@pytest.mark.parametrize("seed", range(3))
def test_int_guards_and_windows_agree_with_eval_constraint(seed):
    """The int step relation fires a send, and the receive of a queued
    message, exactly when `eval_constraint` holds the guard on nu; and
    `window_at` of the guard's zones contains t exactly when the guard
    holds at nu + t."""
    rng = random.Random(300 + seed)
    fired = probed = 0
    for _ in range(150):
        clocks = rng.choice(CLOCK_SETS[:2])
        nu = random_nu(rng, clocks)
        guard = random_guard(rng, clocks)
        holds = constraints.eval_constraint(nu, guard)
        sender = Choice((option(SEND, "a", guard),))
        receiver = Choice((option(RECV, "a", guard),))
        for system, fires in (
                (System(QConfig(nu, sender), QConfig(dict(nu), END)),
                 "comm-l(a)"),
                (System(QConfig(nu, END),
                        QConfig(dict(nu), receiver, (Message("a", NONE),))),
                 "recv-r(a)")):
            assert [str(action) for action, _ in tau_steps(system)] == (
                [fires] if holds else [])
        fired += holds

        guard_zones = to_zones(guard)
        scale = lcm(*(v.denominator for v in nu.values()),
                    *(zone.scale for zone in guard_zones))
        ends = []
        for window in int_windows(guard_zones, nu, scale):
            if window is not None:
                lo, hi = window
                ends.append(F(-(lo >> 1), scale))
                if hi is not None:
                    ends.append(F(hi >> 1, scale))
        points = [F(0)] + probe_points(sorted(GRID), ends)
        scale = lcm(scale, *(t.denominator for t in points))
        windows = int_windows(guard_zones, nu, scale)
        for t in points:
            inside = any(int_window_holds(w, int(t * scale)) for w in windows)
            assert inside == constraints.eval_constraint(shift(nu, t), guard)
            probed += 1
    assert 30 < fired < 120 and probed > 3000


def membership_guard(rng, clocks):
    """An interval, a random constraint, or a band on x - y, each bound
    open or closed, over halves and thirds."""
    roll = rng.random()
    if roll < 0.3:
        return random_guard(rng, clocks)
    if roll < 0.65:
        return random_constraint(rng, clocks, CONSTANTS, max_depth=3)
    low, high = sorted(rng.sample(CONSTANTS, 2))
    sub = rng.random() < 0.5
    return conj(rng.choice((atom_gt, atom_ge))("x", -low if sub else low,
                                                "y" if sub else None),
                rng.choice((atom_lt, atom_le))("x", high, "y"))


@pytest.mark.parametrize("seed", range(3))
def test_holds_at_is_the_window_that_contains_zero(seed):
    """`holds_at` leaves a zone at its first failing bound without building
    a window; zone by zone it must say what "the `window_at` window
    contains 0" says, and over the zone set what `eval_constraint` says,
    at scales that are multiples of the zones' own."""
    rng = random.Random(900 + seed)
    clocks = ("x", "y")
    seen = set()
    for _ in range(250):
        guard = membership_guard(rng, clocks)
        guard_zones = to_zones(guard, clocks)
        nu = random_nu(rng, clocks)
        scale = rng.choice((1, 2, 3)) * lcm(
            *(v.denominator for v in nu.values()),
            *(zone.scale for zone in guard_zones))
        point = [0] + [int(nu[clock] * scale) for clock in clocks]
        for zone in guard_zones:
            window = zones.window_at(zone, point, scale)
            inside = zones.holds_at([zone], point, scale)
            assert inside == int_window_holds(window, 0) == (
                constraints.eval_constraint(nu, zone.to_constraint()))
            seen.add((inside, window is not None, zone.scale > 1, any(
                atom.sub is not None for atom in constraints.atoms_of(guard))))
        assert zones.holds_at(guard_zones, point, scale) == (
            constraints.eval_constraint(nu, guard))
    # in and out, out with and without a later window, at rational scales
    # and with diagonal bounds
    assert {(True, True), (False, True), (False, False)} <= {
        key[:2] for key in seen}
    assert {key[2] for key in seen} == {key[3] for key in seen} == {
        True, False}


def random_qconfig(rng):
    clocks = rng.choice(CLOCK_SETS)
    nu = random_nu(rng, clocks)
    if rng.random() < 0.15:
        node = END
    else:
        labels = rng.sample("abc", rng.randint(1, 3))
        node = Choice(tuple(
            option(rng.choice((SEND, RECV)), label, random_guard(rng, clocks))
            for label in labels))
    options = node.options if isinstance(node, Choice) else ()
    receives = [opt.label for opt in options if opt.direction == RECV]
    roll = rng.random()
    if roll < 0.35:
        queue = ()
    elif roll < 0.75 and receives:
        queue = (Message(rng.choice(receives), NONE), Message("z", NONE))
    elif roll < 0.9 or not receives:
        queue = (Message("z", NONE),)  # no option receives it
    else:
        queue = (Message(rng.choice(receives), BOOL),)  # wrong payload sort
    return QConfig(nu, node, queue)


def test_delay_bound_agrees_with_qconfig_time():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(500):
        qc = random_qconfig(rng)
        head = unfold_head(qc.node)
        bounds = head.clock_bounds if isinstance(head, Choice) else ()
        samples = sample_delays(qc.nu, bounds, max_constant(qc.node) + 2)
        ends = []
        if isinstance(head, Choice):
            zones = list(head.over(head.compiled.clocks)[1])
            zones += [z for opt in head.options for z in to_zones(opt.guard)]
            windows = [own_window(zone, qc.nu) for zone in zones]
            ends = [e for window in windows if window
                    for e in window_ends(window)]
        points = probe_points(samples, ends)
        first = points[0]
        try:
            bound = delay_bound(qc, first)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                qconfig_time(qc, first)
            kinds.add("protocol-error")
            continue
        if bound is not None:
            points = probe_points(points, [bound[0]])
        for t in points:
            if t < first:
                continue
            try:
                after, reason = qconfig_time(qc, t)
            except ProtocolError:
                pytest.fail(f"qconfig_time raised at {t} but delay_bound "
                            f"did not at {first}")
            admitted = bound is None or (t, True) <= bound
            assert admitted == (after is not None), (qc, t, bound, reason)
            kinds.add(reason or "admitted")
        kinds.add("bounded" if bound is not None else "unbounded")
        if not qc.nu:
            kinds.add("no clocks")
    assert kinds >= {"admitted", "persistency", "urgency", "protocol-error",
                     "bounded", "unbounded", "no clocks"}


def rule_outcome(rule, qc, t):
    """What rule(qc, t) returns, or the type and text of the error it
    raises."""
    try:
        return rule(qc, t)
    except (ProtocolError, SpecError) as exc:
        return type(exc), str(exc)


def test_qconfig_time_is_the_reference_rule():
    """The package's ``qconfig_time``, a converter over ``_Head.delay_bound``,
    is the paper's rule in ``Fraction``: the same waited configuration,
    refused premise or error, at t on the guards' grid and off it; and
    ``is_future_enabled``, which reads the entry zones, says what
    ``future_enabled`` says of the rendered entry."""
    rng = random.Random(49)
    kinds = Counter()
    for _ in range(3000):
        qc = random_qconfig(rng)
        assert semantics.is_future_enabled(qc) == (
            reference_semantics.future_enabled(qc)), qc
        for t in (F(rng.randint(1, 40), rng.choice((1, 2, 3, 5, 7))),
                  F(1, 5), F(13, 2)):
            got = rule_outcome(semantics.qconfig_time, qc, t)
            assert got == rule_outcome(reference_semantics.qconfig_time, qc,
                                       t), (qc, t)
            kinds["protocol-error" if got[0] is ProtocolError
                  else got[1] or "admitted"] += 1
        kinds["no clocks"] += not qc.nu
        kinds["end"] += qc.node is END
    assert min(kinds[kind] for kind in (
        "admitted", "persistency", "urgency", "protocol-error", "no clocks",
        "end")) > 100, kinds


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called on a warm state")
    return call


def test_admissible_delays_on_warm_types_compiles_nothing(monkeypatch):
    """Once a type's nodes have been explored, admitting waits neither asks
    the single-delay rule nor zones or walks a guard again."""
    spec = parse_spec_file((FIXTURES / "mixed_pingpong.toast").read_text())
    pairs = [spec.resolve_system("mpp")]
    pairs += [(node, sessiontypes.dual(node))
              for node in well_formed_types(3, seed=5)]
    states = []
    for left, right in pairs:
        frontier = [semantics.make_system(left, right, clocks=("x", "y"))]
        while frontier and len(states) < 150 * len(pairs):
            state = frontier.pop(0)
            states.append(state)
            frontier += [succ for _, succ in semantics.system_steps(state)
                         if len(succ.left.queue) + len(succ.right.queue) < 3]
    expected = [semantics.admissible_delays(s, F(8)) for s in states]
    for module, name in ((semantics, "qconfig_time"),
                         (zones, "to_zones"), (sessiontypes, "to_zones"),
                         (zones, "trajectory_zone")):
        monkeypatch.setattr(module, name, _forbidden(name))
    assert [semantics.admissible_delays(s, F(8)) for s in states] == expected
    assert any(expected) and not all(expected)


def test_progress_on_warm_types_compiles_nothing(monkeypatch):
    """A second ``check_progress`` of the same systems, mpp and S | dual(S)
    for 60 corpus types, gives the same reports without zoning a guard
    again or asking the single-delay rule."""
    spec = parse_spec_file((FIXTURES / "mixed_pingpong.toast").read_text())
    pairs = [spec.resolve_system("mpp")]
    for corpus in sorted(CORPORA.glob("*")):
        rows = corpus.read_text().splitlines()
        for n in sorted(random.Random(3).sample(range(len(rows)), 30)):
            node = parse_type(rows[n].split("\t")[-1])
            pairs.append((node, sessiontypes.dual(node)))
    systems = [semantics.make_system(left, right, clocks=("x", "y"))
               for left, right in pairs]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return to_zones(*args, **kwargs)

    monkeypatch.setattr(sessiontypes, "to_zones", counted)
    expected = [semantics.check_progress(s) for s in systems]
    assert calls
    calls.clear()
    for module, name in ((semantics, "qconfig_time"),
                         (zones, "trajectory_zone")):
        monkeypatch.setattr(module, name, _forbidden(name))
    assert [semantics.check_progress(s) for s in systems] == expected
    assert not calls
    assert {report.verdict for report in expected} >= {"ok", "counterexample"}
