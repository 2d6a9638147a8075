"""Three-layer transition semantics and the bounded progress verifier.

Layer one: configurations (valuation, type) fire guarded options and let
time pass freely.  Layer two adds a FIFO queue of received messages; its
time rule carries the persistency premise (a future-enabled configuration
must stay future-enabled) and the urgency premise (time may not pass while
the queue head is receivable).  Layer three composes two queued
configurations: sends deliver into the peer queue atomically, queue heads
are consumed as internal steps, and time passes only when both sides agree.

Progress of a system is verified empirically by breadth-first exploration,
sampling delays at guard boundaries, midpoints and one point beyond every
boundary, on int states (``_Space``, ``state_key``): one common
denominator den, each side's clock values over it as an int tuple in
sorted clock order, reduced so that gcd(den, *L, *R) == 1, and each side's
printed head and queue.  A state is expanded in one pass
(``_Space.successors``): each side's int point at S = 2·lcm(den, d), d the
LCM of the guard constants' denominators (every boundary, midpoint and
the horizon is then an int), and its queue head's receive option are built
once for the moves and the time rule.  Points are read by the one reader
of ``zones``: a guard holds where ``zones.holds_at`` says so, and a time
rule admits the initial interval of delays read off the windows
(``zones.window_at``) of its entry and queue-head guard zones.  Successors
are region representatives under the clock ceilings of each side's head
(``Choice.clock_ceilings``, after Behrmann et al., TACAS 2003): a clock no
guard reads before its next reset is inactive and set to 0 (Daws & Yovine,
RTSS 1996), every other clock is capped one above its ceiling.  The waits
are mapped in one loop; a move that resets no clock and keeps the caps
keeps a state canonical.  A diagonal system's states are only reduced.

Compatibility drains a queue by the explorer's own receive move, so
compat, the monitor and simulate all run the int relation.  ``Fraction``
remains only at the boundary: the digest text (``render_key``), the t of
a wait action, and the public converters onto the int step relation
(``system_steps``, ``admissible_delays``, ``region_canonical``,
``state_key``, ``digest_system``).  A system's grid d, region flag and
horizon come from one walk of the guard atoms its sides run
(``guard_atoms``: not those of the sessions a payload delegates),
``_Space.of``, which the explorer, ``default_horizon`` and the steps
without the region map (``_stepper``) all read.  ``qconfig_time`` stays
the single-delay time rule in ``Fraction``.  The step rules of layers one
and two and the compatibility walk in ``Fraction`` are the test suite's
reference (``tests/reference_semantics.py``), which the int relation is
checked against.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .constraints import (
    Struct,
    Valuation,
    eval_constraint,
    format_rational,
    shift,
    zero_valuation,
)
from .errors import ProtocolError, SpecError
from .sessiontypes import (
    ChoiceOption,
    Delegate,
    End,
    PayloadSort,
    RECV,
    SEND,
    TypeNode,
    dual,
    guard_atoms,
    type_clocks,
    unfold_head,
)
from .zones import constraint_equiv, holds_at, trajectory_zone, window_at

# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


class Message(Struct):
    label: str
    sort: PayloadSort

    def __post_init__(self) -> None:
        # hashed once: a queued message is hashed again with every state key
        # that holds it
        object.__setattr__(self, "_hash", hash((self.label, self.sort)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.label if str(self.sort) == "None" else f"{self.label}<{self.sort}>"


class QConfig(Struct, frozen=False):
    nu: Valuation
    node: TypeNode
    queue: Tuple[Message, ...] = ()

    def is_final(self) -> bool:
        return isinstance(unfold_head(self.node), End) and not self.queue


class System(Struct, frozen=False):
    left: QConfig
    right: QConfig


class SysAction(Struct):
    kind: str  # comm-l | comm-r | recv-l | recv-r | wait
    message: Optional[Message] = None
    t: Optional[Fraction] = None

    @property
    def is_tau(self) -> bool:
        return self.kind != "wait"

    def __str__(self) -> str:
        if self.kind == "wait":
            return f"wait({format_rational(self.t)})"
        return f"{self.kind}({self.message})"


class ExploreLimits(Struct):
    max_depth: int = 64
    max_queue: int = 8
    max_states: int = 100000

    def __post_init__(self) -> None:
        if self.max_depth <= 0 or self.max_queue <= 0 or self.max_states <= 0:
            raise ValueError("exploration limits must be positive")


class ProgressReport(Struct, frozen=False):
    verdict: str  # ok | counterexample | bound-exceeded
    states_visited: int
    trace: List[Tuple[SysAction, str]]
    reason: str = ""
    invariant_violations: List[str] = None  # None: a new list

    def __post_init__(self) -> None:
        if self.invariant_violations is None:
            self.invariant_violations = []


# ---------------------------------------------------------------------------
# Configurations with queues
# ---------------------------------------------------------------------------

def is_future_enabled(state) -> bool:
    """Can some delay enable a communication action?  Decided exactly by the
    entry constraint of the unfolded head (``Choice.entry``, the past of its
    guards); end is never future-enabled."""
    head = unfold_head(state.node)
    return bool(head.options) and eval_constraint(state.nu, head.entry)


def _head_receive_option(qc: QConfig) -> Optional[ChoiceOption]:
    """The receive option matching the queue head, if any.

    A label match with a different payload sort is a protocol error: the
    reception is unspecified.
    """
    if not qc.queue:
        return None
    head = qc.queue[0]
    for opt in unfold_head(qc.node).options:
        if opt.direction == RECV and opt.label == head.label:
            if opt.payload != head.sort:
                raise ProtocolError(
                    f"unspecified reception: {head.label!r} carries "
                    f"{head.sort}, type expects {opt.payload}")
            return opt
    return None


def qconfig_time(qc: QConfig, t: Fraction):
    """Let time pass under persistency and urgency.

    Returns (QConfig, None) on success or (None, reason) when a premise
    fails; reason is "persistency" or "urgency".
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("time steps must be positive")
    shifted = shift(qc.nu, t)
    if is_future_enabled(qc) and not is_future_enabled(QConfig(shifted, qc.node)):
        return None, "persistency"
    if qc.queue:
        opt = _head_receive_option(qc)
        if opt is not None and _receivable_during(qc, opt, t):
            return None, "urgency"
    return QConfig(shifted, qc.node, qc.queue), None


def _receivable_during(qc: QConfig, opt: ChoiceOption, t: Fraction) -> bool:
    """Is the guard of the option of qc's head satisfied at nu + t' for
    some 0 <= t' < t?"""
    nu = qc.nu
    if not nu:
        return eval_constraint(nu, opt.guard)
    head = unfold_head(qc.node)
    zones = next(zones for other, zones in zip(
        head.options, head.over(tuple(sorted(nu)))[0]) if other is opt)
    window = trajectory_zone(nu, t, include_end=False)
    return any(zone.intersect(window) is not None for zone in zones)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def make_system(left: TypeNode, right: TypeNode, clocks=None) -> System:
    clock_set = set(clocks) if clocks else set()
    clock_set |= type_clocks(left) | type_clocks(right)
    nu = zero_valuation(sorted(clock_set))
    return System(QConfig(dict(nu), left), QConfig(dict(nu), right))


def default_horizon(sys: System) -> Fraction:
    """The delay sampling horizon, the one ``_Space.of`` gives: the largest
    guard constant + 2.  Clocks are never negative, so no boundary lies
    further away than the largest constant, and the sample beyond the last
    one fits too: a larger horizon samples the same delays, a smaller one
    would cut boundaries."""
    return _Space.of(sys)[1]


# ---------------------------------------------------------------------------
# The int state space
# ---------------------------------------------------------------------------

def state_key(sys: System) -> tuple:
    """The identity of a state, the int state ``check_progress`` memoizes
    on: ``(den, L, printed_l, queue_l, R, printed_r, queue_r)``, the clock
    values over their least common denominator in sorted clock order, the
    printed form of each unfolded head and each queue.  The printed form,
    not the head object, because heads that print the same act the same,
    and two paths can build two such heads."""
    left, right = sys.left, sys.right
    clocks = sorted(left.nu)
    if sorted(right.nu) != clocks:
        raise SpecError("the two sides of a system have different clocks")
    values = [left.nu[clock] for clock in clocks] + [
        right.nu[clock] for clock in clocks]
    den = lcm(*(value.denominator for value in values))
    ints = [value.numerator * (den // value.denominator) for value in values]
    n = len(clocks)
    return (den, tuple(ints[:n]), unfold_head(left.node).printed, left.queue,
            tuple(ints[n:]), unfold_head(right.node).printed, right.queue)


def _region(values: list, caps: Optional[tuple], m: int, d: int,
            state: tuple) -> tuple:
    """state with the values v/(m·d), each clock with a cap c/d (caps at
    scale d, None for an inactive clock, which is set to 0) held at c/d from
    there on, then split into v // m and a remainder v % m: the ordered
    remainders and 0 renumbered 0..k-1 over k·d, and reduced so that
    gcd(den, *L, *R) == 1.  With caps None the values are only reduced."""
    if caps is not None:
        values = [0 if cap is None else cap * m if v >= cap * m else v
                  for v, cap in zip(values, caps)]
    rems = sorted({v % m for v in values}.union((0,)))
    k = len(rems)
    den = k * d
    ints = [v // m * k + rems.index(v % m) for v in values]
    g = gcd(den, *ints)
    if g > 1:
        den, ints = den // g, [value // g for value in ints]
    n = len(ints) >> 1
    return (den, tuple(ints[:n]), state[2], state[3], tuple(ints[n:]),
            state[5], state[6])


def render_key(key: tuple, clocks) -> str:
    """A state key as text, its clocks named in order: the state digest of
    traces and messages."""
    den, left, pl, ql, right, pr, qr = key
    return " || ".join(
        "({} | {} | [{}])".format(
            ",".join(f"{clock}={format_rational(Fraction(value, den))}"
                     for clock, value in zip(clocks, values)),
            printed, ";".join(map(str, queue)))
        for values, printed, queue in ((left, pl, ql), (right, pr, qr)))


def _action(action: tuple) -> SysAction:
    """An int action ``(kind, message, t, scale)`` as a SysAction."""
    kind, message, t, scale = action
    return SysAction(kind, message, None if t is None else Fraction(t, scale))


def _system(clocks, state: tuple, left: TypeNode,
            right: TypeNode) -> System:
    """An int state as a System on the nodes left and right."""
    return System(*(
        QConfig({clock: Fraction(value, state[0])
                 for clock, value in zip(clocks, values)}, node, queue)
        for values, node, queue in ((state[1], left, state[3]),
                                    (state[4], right, state[6]))))


class _Option:
    """One option of a head, compiled for a ``_Space``: its message, its
    guard zones, the positions it resets, the head it continues with, and
    whether it ``keeps`` a canonical state canonical (it resets no clock,
    and its continuation has the caps of its own head)."""

    __slots__ = ("message", "zones", "resets", "head", "keeps")

    def __init__(self, opt: ChoiceOption, zones: list, space: "_Space",
                 caps: Optional[tuple]):
        self.message = Message(opt.label, opt.payload)
        self.zones = zones
        unknown = opt.resets - set(space.clocks)
        if unknown:
            raise SpecError(f"reset of undeclared clock(s): {sorted(unknown)}")
        self.resets = frozenset(space.clocks.index(clock)
                                for clock in opt.resets)
        self.head = space.head(opt.continuation)
        self.keeps = not self.resets and self.head.caps == caps

    def reset(self, values: tuple) -> tuple:
        if not self.resets:
            return values
        values = list(values)
        for i in self.resets:
            values[i] = 0
        return tuple(values)


class _Head:
    """A head (a choice or end) compiled for a ``_Space``: its send options,
    its first receive option per label, its entry zones, its clock bounds
    (position, constant at scale d) and, when the space maps regions, the
    int cap (M_h(x) + 1)·d of each clock x, None if x is inactive: M_h(x)
    is a constant of a guard the sides run, so d makes it an int."""

    __slots__ = ("node", "printed", "final", "sends", "receives", "entry",
                 "bounds", "caps")

    def __init__(self, head, space: "_Space"):
        self.node = head
        self.printed = head.printed
        self.final = not head.options
        self.sends: Optional[List[_Option]] = None  # until ``compile``
        self.caps = None
        if space.regions:
            ceilings = head.clock_ceilings
            self.caps = tuple(space.at_d(ceilings[clock]) + space.d
                              if clock in ceilings else None
                              for clock in space.clocks)

    def compile(self, space: "_Space") -> "_Head":
        """Compile what the step relation reads, on the first step from
        this head (canonicalisation reads only the caps)."""
        self.sends, self.receives = [], {}
        guards, entry, _ = self.node.over(space.clocks)
        self.entry = [zone.window_bounds() for zone in entry]
        for opt, zones in zip(self.node.options, guards):
            compiled = _Option(opt, [zone.window_bounds() for zone in zones],
                               space, self.caps)
            if opt.direction == SEND:
                self.sends.append(compiled)
            else:
                self.receives.setdefault(opt.label, compiled)
        self.bounds = tuple(
            (space.clocks.index(clock) + 1,
             const.numerator * (space.d // const.denominator))
            for clock, const in self.node.clock_bounds)
        return self

    def receive(self, queue: tuple) -> Optional[_Option]:
        """The receive option matching the queue head, if any; a label match
        with a different payload sort is a protocol error."""
        if not queue:
            return None
        message = queue[0]
        opt = self.receives.get(message.label)
        if opt is not None and opt.message.sort != message.sort:
            raise ProtocolError(
                f"unspecified reception: {message.label!r} carries "
                f"{message.sort}, type expects {opt.message.sort}")
        return opt

    def delay_bound(self, queue: tuple, opt: Optional[_Option], point,
                    scale: int, first: int) -> Optional[int]:
        """The delays t > 0 that the time rule admits on this side at the
        int point, as the encoded bound they meet (t is admitted when
        2t + 1 <= bound), or None when it admits every delay.

        Persistency: ``Choice.entry`` is past-closed, so from a point inside
        it the delays that stay inside form one initial interval, ending at
        the largest upper end of the point's windows against the entry
        zones (outside it, no window is non-empty).  Urgency: the queue
        head's guard holds somewhere in [0, t) exactly when t exceeds the
        smallest lower end of the point's windows against its guard zones.
        Without opt, that option is looked up (a mismatched payload raises)
        only when persistency admits ``first``, as in ``qconfig_time``."""
        bound = None
        for zone in self.entry:
            window = window_at(zone, point, scale)
            if window is not None:
                if window[1] is None:  # persistency imposes nothing
                    bound = None
                    break
                if bound is None or window[1] > bound:
                    bound = window[1]
        if bound is not None and 2 * first + 1 > bound:
            return bound  # no delay asked about passes
        opt = opt or self.receive(queue)
        if opt is not None:
            for zone in opt.zones:
                window = window_at(zone, point, scale)
                if window is not None and (bound is None
                                           or 1 - (window[0] & -2) < bound):
                    bound = 1 - (window[0] & -2)
        return bound


class _Space:
    """The int form of the states of one system, and its step relation.

    A state is the tuple ``(den, L, printed_l, queue_l, R, printed_r,
    queue_r)`` of ``state_key``; d is the LCM of the denominators of the
    guard constants (and of the horizon).  ``successors`` expands a state
    in one pass from its ``sides`` and maps each successor as ``canon``
    does, to its region representative (when ``regions`` is set) reduced
    so that gcd(den, *L, *R) == 1: equal valuations give equal states.  The
    heads met are compiled once per space, by printed form, from their
    family's compile over the space's clocks (``Choice.over``): each zone's
    cached ``Zone.window_bounds``, shared by S, dual(S), their unfoldings
    and later spaces on those clocks.  A space belongs to one call."""

    def __init__(self, clocks, d: int, regions: bool):
        self.clocks = tuple(clocks)
        self.d = d
        self.regions = regions
        self.heads: Dict[str, _Head] = {}

    @classmethod
    def of(cls, sys: System, *values: Fraction) -> Tuple["_Space", Fraction]:
        """The space of ``check_progress`` on sys and its horizon, from one
        walk of the guard atoms the sides run (``guard_atoms``, which leaves
        delegated sessions out): d from every atom and from the
        denominators of values, the region map on unless a guard compares
        two clocks (these regions are not sound for diagonal guards: the
        states are then only reduced), and the horizon two above the
        largest constant.  Every grid, region flag and horizon the package
        derives from a system comes from here."""
        atoms = [*guard_atoms(sys.left.node), *guard_atoms(sys.right.node)]
        top = max((abs(atom.const) for atom in atoms), default=Fraction(0))
        return cls(sorted(sys.left.nu), lcm(
            *(value.denominator for value in values),
            *(atom.const.denominator for atom in atoms)),
            all(atom.sub is None for atom in atoms)), top + 2

    # -- tables --------------------------------------------------------------

    def head(self, node: TypeNode) -> _Head:
        """The head of a node, one for all unfolded heads that print alike."""
        head = unfold_head(node)
        compiled = self.heads.get(head.printed)
        if compiled is None:
            compiled = self.heads[head.printed] = _Head(head, self)
        return compiled

    def stepping(self, printed: str) -> _Head:
        """The head of that printed form, compiled for steps."""
        head = self.heads[printed]
        return head if head.sends is not None else head.compile(self)

    def at_d(self, value: Fraction) -> int:
        return value.numerator * (self.d // value.denominator)

    # -- the boundary --------------------------------------------------------

    def encode(self, sys: System) -> tuple:
        """``state_key`` of a system of this space, with both heads met."""
        self.head(sys.left.node)
        self.head(sys.right.node)
        return state_key(sys)

    def system(self, state: tuple) -> System:
        """A state as a System on the heads it names."""
        return _system(self.clocks, state, self.heads[state[2]].node,
                       self.heads[state[5]].node)

    # -- the step relation ---------------------------------------------------

    def is_final(self, state: tuple) -> bool:
        return (not state[3] and not state[6] and self.heads[state[2]].final
                and self.heads[state[5]].final)

    def points(self, state: tuple) -> Tuple[int, tuple, tuple]:
        """(S, point_l, point_r): both valuations at S = 2·lcm(den, d), the
        reference clock's 0 first."""
        scale = 2 * lcm(state[0], self.d)
        up = scale // state[0]
        return (scale, (0,) + tuple([v * up for v in state[1]]),
                (0,) + tuple([v * up for v in state[4]]))

    def sides(self, state: tuple) -> Tuple[int, tuple, tuple]:
        """(S, left, right), per side its compiled head, queue, point at S
        and queue head's receive option, built once for the moves and the
        waits; the left side's payload mismatch raises first."""
        scale, point_l, point_r = self.points(state)
        hl, hr = self.stepping(state[2]), self.stepping(state[5])
        return (scale, (hl, state[3], point_l, hl.receive(state[3])),
                (hr, state[6], point_r, hr.receive(state[6])))

    def moves(self, state: tuple, scale: int, left: tuple, right: tuple):
        """The internal moves of a state from its ``sides``, (action,
        successor, ``_Option.keeps``): the left side's deliveries in option
        order and its queue consumption, then the right side's."""
        for i, (head, queue, point, receive), send, recv in (
                (1, left, "comm-l", "recv-l"), (4, right, "comm-r", "recv-r")):
            for opt in head.sends:  # a side's values, head and queue at
                if holds_at(opt.zones, point, scale):  # i..i+2, its peer's
                    succ = list(state)  # queue at 7 - i
                    succ[i:i + 2] = opt.reset(state[i]), opt.head.printed
                    succ[7 - i] += (opt.message,)
                    yield ((send, opt.message, None, None), tuple(succ),
                           opt.keeps)
            if receive is not None and holds_at(receive.zones, point, scale):
                succ = list(state)
                succ[i:i + 3] = (receive.reset(state[i]), receive.head.printed,
                                 queue[1:])
                yield (recv, queue[0], None, None), tuple(succ), receive.keeps

    def can_move(self, state: tuple) -> bool:
        """Has the state an internal move?  ``moves``, up to the first."""
        return next(self.moves(state, *self.sides(state)), None) is not None

    def successors(self, state: tuple, horizon: int) -> list:
        """The (action, state) transitions of a canonical state, none from
        final|final: its ``moves`` (``canon`` of each that does not keep it
        canonical), then its waits, mapped in one loop against the caps."""
        if self.is_final(state):
            return []
        scale, left, right = self.sides(state)
        out = [(action, succ if kept else self.canon(succ))
               for action, succ, kept in self.moves(state, scale, left, right)]
        delays = self.delays(scale, left, right, horizon)
        if not delays:
            return out
        values = left[2][1:] + right[2][1:]
        m, d, caps = 1, scale, None  # v/S as (v/m)/d; no caps: only reduced
        if self.regions:
            m, d, caps = scale // self.d, self.d, left[0].caps + right[0].caps
        for t in delays:
            out.append((("wait", None, t, scale), _region(
                [v + t for v in values], caps, m, d, state)))
        return out

    def delays(self, scale: int, left: tuple, right: tuple,
               horizon: int) -> List[int]:
        """The admitted waits at S from a state's sides, sorted: the positive
        samples at the boundaries both heads can cross, at their midpoints
        and one beyond the last, from both points, up to the tighter of the
        two sides' ``_Head.delay_bound``."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        step = scale // self.d
        horizon *= step
        if not horizon:
            return []
        bounds = left[0].bounds + right[0].bounds
        cuts, first = [], horizon  # first: the least delay asked about
        for point in {left[2], right[2]}:  # per point: 0 and its distances
            cut = {0}  # c - v to the boundaries in the horizon, 0 if passed
            for i, const in bounds:
                boundary = const * step - point[i]
                if boundary <= horizon:
                    cut.add(boundary if boundary > 0 else 0)
            cuts.append(sorted(cut))
            first = min(first, cuts[-1][1] >> 1 if len(cut) > 1 else scale)
        last = horizon  # no sample lies beyond the horizon
        for head, queue, point, receive in (left, right):
            bound = head.delay_bound(queue, receive, point, scale, first)
            if bound is not None:
                last = min(last, (bound - 1) >> 1)
        out = set()
        for cut in cuts:
            a = 0
            for b in cut[1:]:
                if (a + b) >> 1 > last:
                    break
                out.add((a + b) >> 1)
                if b > last:
                    break
                out.add(b)
                a = b
            else:
                beyond = min(horizon, a + scale)
                if a < beyond <= last:
                    out.add(beyond)
        return sorted(out)

    def canon(self, state: tuple) -> tuple:
        """The representative of a state: with the region map, ``_region``
        of its values v/den as v·d/(den·d) against the two heads' int caps;
        without it the state is only reduced."""
        den, left, pl, _, right, pr, _ = state
        if not self.regions:
            return _region(left + right, None, 1, den, state)
        d = self.d
        return _region([v * d for v in left + right],
                       self.heads[pl].caps + self.heads[pr].caps, den, d,
                       state)


# ---------------------------------------------------------------------------
# The Fraction converters
# ---------------------------------------------------------------------------

def _stepper(sys: System, *values: Fraction
             ) -> Tuple[_Space, tuple, Fraction]:
    """A space for steps from sys, the int state of sys in it and
    ``default_horizon``, from one ``_Space.of(sys, *values)``: the space
    switches its region map off, so it asks for no ``clock_ceilings``."""
    space, horizon = _Space.of(sys, *values)
    space.regions = False
    return space, space.encode(sys), horizon


def admissible_delays(sys: System, horizon: Fraction) -> List[Fraction]:
    """Positive boundary-sample delays that both sides accept: the int
    ``_Space.delays`` of sys."""
    horizon = Fraction(horizon)
    if horizon < 0:  # before a head is compiled, as in ``system_steps``
        raise ValueError("horizon must be nonnegative")
    space, state, _ = _stepper(sys, horizon)
    scale, point_l, point_r = space.points(state)
    return [Fraction(t, scale) for t in space.delays(
        scale, (space.stepping(state[2]), state[3], point_l, None),
        (space.stepping(state[5]), state[6], point_r, None),
        space.at_d(horizon))]


def system_steps(sys: System, horizon: Optional[Fraction] = None
                 ) -> List[Tuple[SysAction, System]]:
    """All system transitions, ``_Space.successors`` with no region map:
    the internal ones (asynchronous deliveries and queue consumptions, both
    sides) and the admissible sampled waits.  A final|final system has no
    steps."""
    values = () if horizon is None else (Fraction(horizon),)
    space, state, default = _stepper(sys, *values)
    horizon = values[0] if values else default
    return [(_action(action), space.system(succ))
            for action, succ in space.successors(state, space.at_d(horizon))]


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------

def _sem_equal_rec(a: TypeNode, b: TypeNode, assumed) -> bool:
    """Coinductive equality up to unfolding, with guards compared as zone
    sets rather than syntax; equal guards need no zones."""
    if (a, b) in assumed:
        return True
    assumed = assumed | {(a, b)}
    ha, hb = unfold_head(a), unfold_head(b)
    if len(ha.options) != len(hb.options):  # end has none, a choice some
        return False
    by_label = {opt.label: opt for opt in hb.options}
    for oa in ha.options:
        ob = by_label.get(oa.label)
        if (ob is None or oa.direction != ob.direction
                or oa.resets != ob.resets
                or not _payload_equal(oa.payload, ob.payload, assumed)
                or (oa.guard != ob.guard
                    and not constraint_equiv(oa.guard, ob.guard))
                or not _sem_equal_rec(oa.continuation, ob.continuation,
                                      assumed)):
            return False
    return True


def _payload_equal(a: PayloadSort, b: PayloadSort, assumed) -> bool:
    if isinstance(a, Delegate) != isinstance(b, Delegate):
        return False
    if isinstance(a, Delegate):
        return ((a.init_constraint == b.init_constraint
                 or constraint_equiv(a.init_constraint, b.init_constraint))
                and _sem_equal_rec(a.session, b.session, assumed))
    return a == b


def compatible(sys: System) -> Tuple[bool, str]:
    """Decide system compatibility; the explanation names the failed clause.

    (1) at most one queue is non-empty; (2) if both are empty the valuations
    agree and the types are dual; (3)/(4) a queued head message is
    receivable immediately and the drained system is compatible again.
    Sides on different clocks fail (1) or (2), or raise with one queue.
    """
    left, right = sys.left, sys.right
    if left.queue and right.queue:
        return False, "both queues non-empty"
    if left.nu.keys() != right.nu.keys() and not (left.queue or right.queue):
        return False, "valuations differ with empty queues"
    return _compatible(*_stepper(sys)[:2], {})


def _compatible(space: _Space, state: tuple, memo: Dict) -> Tuple[bool, str]:
    """`compatible` on a state of space: the queued side drained by the
    explorer's own receive move, the valuations compared after
    ``space.canon`` (so that inactive clocks do not count; without the
    region map it only reduces them).  ``memo`` keeps the duality of each
    printed pair and the answer of each state with a queue, which is the
    answer of the state it drains to, so a drain stops at the first state
    answered."""
    if state[3] and state[6]:
        return False, "both queues non-empty"
    chain = []
    answer = memo.get(state)
    while answer is None and (state[3] or state[6]):
        chain.append(state)
        tag, kind, queue = (("left", "recv-l", state[3]) if state[3]
                            else ("right", "recv-r", state[6]))
        try:
            sides = space.sides(state)
        except ProtocolError as exc:
            answer = False, str(exc)
            break
        state = next((succ for action, succ, _ in space.moves(state, *sides)
                      if action[0] == kind), None)
        if state is None:
            answer = False, f"{tag} queue head {queue[0]} not receivable now"
            break
        answer = memo.get(state)
    if answer is None:
        answer = _drained_compatible(space, state, memo)
    for each in chain:
        memo[each] = answer
    return answer


def _drained_compatible(space: _Space, state: tuple,
                        memo: Dict) -> Tuple[bool, str]:
    """`_compatible` on a state whose queues are empty."""
    _, left, pl, _, right, pr, _ = space.canon(state)
    if left != right:
        return False, "valuations differ with empty queues"
    if (pl, pr) not in memo:
        memo[pl, pr] = _sem_equal_rec(space.heads[pl].node,
                                      dual(space.heads[pr].node), frozenset())
    if not memo[pl, pr]:
        return False, "types are not dual"
    return True, "dual types and same clock valuations"


# ---------------------------------------------------------------------------
# State canonicalization (region representatives)
# ---------------------------------------------------------------------------

def region_canonical(sys: System, cap: Fraction, scale: int = 1) -> System:
    """Replace both valuations jointly by the canonical representative of
    their region with time scaled by ``scale``: ``_region`` at d = scale.
    Each side reads the ``clock_ceilings`` of its unfolded head: a clock
    without a ceiling is set to 0, every other clock is capped at
    min(cap, M_h(x) + 1)·scale, a Fraction where that is off the grid (the
    explorer's caps, ``_Head.caps``, take no cap and are ints); each scaled
    value is split into a whole part and a remainder, and the ordered
    remainders are renormalized.  Sound for diagonal-free guards whose
    constants the scale makes integers (Alur & Dill 1994, with the
    per-location ceilings of Behrmann, Bouyer, Fleury & Larsen 2003); at
    scale 1, integer regions."""
    clocks, cap, caps = sorted(sys.left.nu), Fraction(cap), []
    for side in (sys.left, sys.right):
        ceilings = unfold_head(side.node).clock_ceilings
        caps += [min(cap, ceilings[clock] + 1) * scale
                 if clock in ceilings else None for clock in clocks]
    state = state_key(sys)
    return _system(clocks, _region(
        [v * scale for v in state[1] + state[4]], caps, state[0], scale,
        state), sys.left.node, sys.right.node)


def digest_system(sys: System) -> str:
    return render_key(state_key(sys), sorted(sys.left.nu))


# ---------------------------------------------------------------------------
# Progress checking
# ---------------------------------------------------------------------------

def check_progress(sys: System, limits: Optional[ExploreLimits] = None,
                   monitor: bool = False) -> ProgressReport:
    """Breadth-first verification that every reachable state is final or can
    act, possibly after an admissible delay.

    The exploration runs on the int states of one ``_Space`` (region
    representatives on diagonal-free systems, so exploration terminates),
    memoized as they are; a state is rendered to a digest only for a trace
    or a monitor message.
    Exceeding any bound makes the verdict bound-exceeded, never ok.
    """
    limits = limits or ExploreLimits()
    space, horizon = _Space.of(sys)
    horizon = space.at_d(horizon)

    start = space.canon(space.encode(sys))
    parents: Dict[tuple, Tuple[Optional[tuple], Optional[tuple]]] = {
        start: (None, None)}
    frontier = deque([(start, 0)])
    violations: List[str] = []
    bound_reason = ""

    def render(key: tuple) -> str:
        return render_key(key, space.clocks)

    def build_trace(key: tuple) -> List[Tuple[SysAction, str]]:
        steps: List[Tuple[SysAction, str]] = []
        while True:
            parent, action = parents[key]
            if parent is None:
                break
            steps.append((_action(action), render(key)))
            key = parent
        steps.reverse()
        return steps

    # monitor mode asks for the duality of the same few pairs of heads on
    # every state
    dual_memo: Dict = {}

    def monitor_state(key: tuple) -> None:
        scale, *points = space.points(key)
        for tag, printed, point in zip(("left", "right"), key[2::3], points):
            head = space.stepping(printed)
            if all(any(holds_at(opt.zones, point, scale) for opt in opts)
                   for opts in (head.sends, head.receives.values())):
                violations.append(f"send and receive both enabled on {tag} "
                                  f"at {render(key)}")
        ok, why = _compatible(space, key, dual_memo)
        if not ok:
            violations.append(
                f"incompatible state ({why}) at {render(key)}")

    while frontier:
        key, depth = frontier.popleft()
        if monitor:
            monitor_state(key)
        try:
            steps = space.successors(key, horizon)
        except ProtocolError as exc:
            return ProgressReport("counterexample", len(parents),
                                  build_trace(key), str(exc), violations)
        # a state acts now, or after a wait; a wait keeps the heads and
        # queues, so its moves look up what the state's moves looked up
        if not (steps and steps[0][0][0] != "wait"  # moves come first
                or any(space.can_move(succ) for _, succ in steps)
                or space.is_final(key)):
            return ProgressReport(
                "counterexample", len(parents), build_trace(key),
                "reachable non-final state with no action after any "
                "admissible delay", violations)
        for action, succ in steps:
            if monitor and action[0] == "wait" and (key[3] or key[6]):
                violations.append(
                    f"wait({Fraction(action[2], action[3])}) taken with "
                    f"non-empty queue at {render(key)}")
            if (len(succ[3]) > limits.max_queue
                    or len(succ[6]) > limits.max_queue):
                bound_reason = "queue bound exceeded"
            elif succ in parents:
                continue
            elif len(parents) >= limits.max_states:
                bound_reason = "state bound exceeded"
            elif depth + 1 > limits.max_depth:
                bound_reason = "depth bound exceeded"
            else:
                parents[succ] = (key, action)
                frontier.append((succ, depth + 1))

    if bound_reason:
        return ProgressReport("bound-exceeded", len(parents), [],
                              bound_reason, violations)
    return ProgressReport("ok", len(parents), [], "", violations)
