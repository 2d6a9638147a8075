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
boundary.  One canonicaliser per system (``canonicaliser``) maps each state
to its region representative under the clock ceilings of each side's head
(``Choice.clock_ceilings``, after Behrmann et al., TACAS 2003): a clock no
guard reads before its next reset is inactive and set to 0 (Daws & Yovine,
RTSS 1996), every other clock is capped one above its ceiling.  States
are memoized on a tuple key
(``state_key``: per side the valuation, the printed form of the unfolded
head and the queue), rendered to a digest string only for output
(``render_key``, ``digest_system``).  The sampled waits are admitted by delay
windows: from a point valuation the delays into a zone form one interval,
so each side's time rule admits an initial interval of delays, read off
its entry and queue-head guard ZoneSets once per state (``delay_bound``).
``qconfig_time`` stays the single-delay rule and the reference for it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Optional, Tuple

from .constraints import (
    Valuation,
    apply_reset,
    eval_constraint,
    sample_delays,
    shift,
    zero_valuation,
)
from .errors import ProtocolError
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
    max_constant,
    type_clocks,
    unfold_head,
)
from .rational import format_rational
from .zones import constraint_equiv

# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    label: str
    sort: PayloadSort

    def __str__(self) -> str:
        return self.label if str(self.sort) == "None" else f"{self.label}<{self.sort}>"


@dataclass(frozen=True)
class CommAction:
    direction: str  # SEND or RECV
    message: Message

    def __str__(self) -> str:
        return f"{self.direction}{self.message}"


@dataclass
class Config:
    nu: Valuation
    node: TypeNode


@dataclass
class QConfig:
    nu: Valuation
    node: TypeNode
    queue: Tuple[Message, ...] = ()

    def is_final(self) -> bool:
        return isinstance(unfold_head(self.node), End) and not self.queue


@dataclass
class System:
    left: QConfig
    right: QConfig


@dataclass(frozen=True)
class SysAction:
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


@dataclass(frozen=True)
class ExploreLimits:
    max_depth: int = 64
    max_queue: int = 8
    max_states: int = 100000

    def __post_init__(self) -> None:
        if self.max_depth <= 0 or self.max_queue <= 0 or self.max_states <= 0:
            raise ValueError("exploration limits must be positive")


@dataclass
class ProgressReport:
    verdict: str  # ok | counterexample | bound-exceeded
    states_visited: int
    trace: List[Tuple[SysAction, str]]
    reason: str = ""
    invariant_violations: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def config_comm_steps(config: Config) -> List[Tuple[CommAction, Config]]:
    """Enabled communication actions of a configuration: one per option
    whose guard the valuation satisfies."""
    out: List[Tuple[CommAction, Config]] = []
    for opt in unfold_head(config.node).options:
        if eval_constraint(config.nu, opt.guard):
            action = CommAction(opt.direction, Message(opt.label, opt.payload))
            out.append((action,
                        Config(apply_reset(config.nu, opt.resets),
                               opt.continuation)))
    return out


def config_tick(config: Config, t: Fraction) -> Config:
    """Let t time units pass; unconditional at this layer."""
    return Config(shift(config.nu, Fraction(t)), config.node)


def is_future_enabled(state) -> bool:
    """Can some delay enable a communication action?  Decided exactly by the
    entry constraint of the unfolded head (``Choice.entry``, the past of its
    guards); end is never future-enabled."""
    head = unfold_head(state.node)
    return bool(head.options) and eval_constraint(state.nu, head.entry)


# ---------------------------------------------------------------------------
# Configurations with queues
# ---------------------------------------------------------------------------

def enqueue(qc: QConfig, message: Message) -> QConfig:
    return QConfig(qc.nu, qc.node, qc.queue + (message,))


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


def qconfig_steps(qc: QConfig) -> List[Tuple[CommAction, QConfig]]:
    """Send actions (queue untouched) plus the receive of the queue head
    when its label matches an enabled receive option."""
    out = [(CommAction(SEND, Message(opt.label, opt.payload)),
            QConfig(apply_reset(qc.nu, opt.resets), opt.continuation,
                    qc.queue))
           for opt in unfold_head(qc.node).options
           if opt.direction == SEND and eval_constraint(qc.nu, opt.guard)]
    opt = _head_receive_option(qc)
    if opt is not None and eval_constraint(qc.nu, opt.guard):
        out.append((CommAction(RECV, qc.queue[0]),
                    QConfig(apply_reset(qc.nu, opt.resets), opt.continuation,
                            qc.queue[1:])))
    return out


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
        if opt is not None and _receivable_during(qc.nu, opt, t):
            return None, "urgency"
    return QConfig(shifted, qc.node, qc.queue), None


def _receivable_during(nu: Valuation, opt: ChoiceOption, t: Fraction) -> bool:
    """Is the option's guard satisfied at nu + t' for some 0 <= t' < t?"""
    if not nu:
        return eval_constraint(nu, opt.guard)
    from .zones import trajectory_zone

    window = trajectory_zone(nu, t, include_end=False)
    for zone in opt.guard_zones:
        if not zone.widened(nu).intersect(window).empty:
            return True
    return False


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def make_system(left: TypeNode, right: TypeNode, clocks=None) -> System:
    clock_set = set(clocks) if clocks else set()
    clock_set |= type_clocks(left) | type_clocks(right)
    nu = zero_valuation(sorted(clock_set))
    return System(QConfig(dict(nu), left), QConfig(dict(nu), right))


def delay_bound(qc: QConfig, first: Fraction
                ) -> Optional[Tuple[Fraction, bool]]:
    """The delays t > 0 that ``qconfig_time`` admits on qc, as their upper
    end (value, closed), or None when it admits every delay.

    Persistency: ``Choice.entry`` is past-closed, so from nu inside it the
    delays that stay inside form one initial interval, ending at the largest
    upper end of nu's windows against ``entry_zones``; from nu outside it
    no window is non-empty and persistency imposes nothing.  Urgency: the
    queue head's guard holds somewhere in [0, t) exactly when t exceeds the
    smallest lower end of nu's windows against its ``guard_zones``.  As in
    ``qconfig_time``, the queue head is looked up (and a mismatched payload
    raises ``ProtocolError``) only when persistency admits ``first``, the
    smallest delay asked about.
    """
    bound = None
    windows = _windows(unfold_head(qc.node).entry_zones, qc.nu)
    if windows and all(hi is not None for _, hi, _ in windows):
        bound = max((Fraction(hi >> 1, scale), bool(hi & 1))
                    for _, hi, scale in windows)
        if (first, True) > bound:  # no delay asked about passes
            return bound
    opt = _head_receive_option(qc)
    if opt is not None:
        starts = [Fraction(-(lo >> 1), scale)
                  for lo, _, scale in _windows(opt.guard_zones, qc.nu)]
        if starts:
            urgent = (min(starts), True)
            bound = urgent if bound is None else min(bound, urgent)
    return bound


def _windows(zones, nu: Valuation) -> list:
    """The non-empty delay windows of nu against each zone."""
    return [window for window in (zone.delay_window(nu) for zone in zones)
            if window is not None]


def admissible_delays(sys: System, horizon: Fraction) -> List[Fraction]:
    """Positive boundary-sample delays that both sides accept.

    Each side admits the delays up to its ``delay_bound``, so the admitted
    samples are the sorted samples up to the tighter of the two bounds."""
    bounds = (unfold_head(sys.left.node).clock_bounds
              + unfold_head(sys.right.node).clock_bounds)
    samples = set(sample_delays(sys.left.nu, bounds, horizon))
    if sys.right.nu != sys.left.nu:
        samples.update(sample_delays(sys.right.nu, bounds, horizon))
    samples = sorted(samples)[1:]  # every sample is >= 0, and 0 is one
    if not samples:
        return []
    ends = [end for end in (delay_bound(sys.left, samples[0]),
                            delay_bound(sys.right, samples[0]))
            if end is not None]
    if not ends:
        return samples
    value, closed = min(ends)
    return samples[:(bisect_right if closed else bisect_left)(samples, value)]


def default_horizon(sys: System) -> Fraction:
    """The delay sampling horizon: the largest guard constant + 2.  Clocks
    are never negative, so no boundary lies further away than the largest
    constant, and the sample beyond the last one fits too: a larger horizon
    samples the same delays, a smaller one would cut boundaries."""
    return max(max_constant(sys.left.node), max_constant(sys.right.node)) + 2


def tau_steps(sys: System) -> List[Tuple[SysAction, System]]:
    """The internal transitions: asynchronous deliveries and queue
    consumptions, both sides always computed."""
    out: List[Tuple[SysAction, System]] = []
    for action, left2 in qconfig_steps(sys.left):
        if action.direction == SEND:
            out.append((SysAction("comm-l", action.message),
                        System(left2, enqueue(sys.right, action.message))))
        else:
            out.append((SysAction("recv-l", action.message),
                        System(left2, sys.right)))
    for action, right2 in qconfig_steps(sys.right):
        if action.direction == SEND:
            out.append((SysAction("comm-r", action.message),
                        System(enqueue(sys.left, action.message), right2)))
        else:
            out.append((SysAction("recv-r", action.message),
                        System(sys.left, right2)))
    return out


def system_steps(sys: System, horizon: Optional[Fraction] = None
                 ) -> List[Tuple[SysAction, System]]:
    """All system transitions: the internal ones of ``tau_steps`` and the
    admissible sampled waits.  A final|final system has no steps."""
    if sys.left.is_final() and sys.right.is_final():
        return []
    if horizon is None:
        horizon = default_horizon(sys)
    out = tau_steps(sys)
    # An admitted delay passed qconfig_time on both sides, whose successor
    # is the shifted configuration.
    left, right = sys.left, sys.right
    for t in admissible_delays(sys, horizon):
        out.append((SysAction("wait", t=t),
                    System(QConfig(shift(left.nu, t), left.node, left.queue),
                           QConfig(shift(right.nu, t), right.node,
                                   right.queue))))
    return out


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------

def _sem_equal_rec(a: TypeNode, b: TypeNode, assumed) -> bool:
    """Coinductive equality up to unfolding, with guards compared as zone
    sets rather than syntax."""
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
                or not constraint_equiv(oa.guard, ob.guard)
                or not _sem_equal_rec(oa.continuation, ob.continuation,
                                      assumed)):
            return False
    return True


def _payload_equal(a: PayloadSort, b: PayloadSort, assumed) -> bool:
    if isinstance(a, Delegate) != isinstance(b, Delegate):
        return False
    if isinstance(a, Delegate):
        return (constraint_equiv(a.init_constraint, b.init_constraint)
                and _sem_equal_rec(a.session, b.session, assumed))
    return a == b


def compatible(sys: System) -> Tuple[bool, str]:
    """Decide system compatibility; the explanation names the failed clause.

    (1) at most one queue is non-empty; (2) if both are empty the valuations
    agree and the types are dual; (3)/(4) a queued head message is
    receivable immediately and the drained system is compatible again.
    """
    return _compatible(sys, {}, lambda state: state)


def _compatible(sys: System, memo: Dict,
                canon: Callable[[System], System]) -> Tuple[bool, str]:
    """`compatible` with the valuations of clause (2) compared after the
    state map canon, so that the clocks it leaves inactive do not count,
    keeping in ``memo`` the duality of each pair of type objects it
    decides, with the pair itself so that no id is reused."""
    left, right = sys.left, sys.right
    if left.queue and right.queue:
        return False, "both queues non-empty"
    if not left.queue and not right.queue:
        mapped = canon(sys)
        if mapped.left.nu != mapped.right.nu:
            return False, "valuations differ with empty queues"
        key = (id(left.node), id(right.node))
        if key not in memo:
            memo[key] = (left.node, right.node, _sem_equal_rec(
                left.node, dual(right.node), frozenset()))
        if not memo[key][2]:
            return False, "types are not dual"
        return True, "dual types and same clock valuations"
    side, other, tag = ((left, right, "left") if left.queue
                        else (right, left, "right"))
    try:
        opt = _head_receive_option(side)
    except ProtocolError as exc:
        return False, str(exc)
    if opt is None or not eval_constraint(side.nu, opt.guard):
        return False, f"{tag} queue head {side.queue[0]} not receivable now"
    drained = QConfig(apply_reset(side.nu, opt.resets), opt.continuation,
                      side.queue[1:])
    rebuilt = System(drained, other) if tag == "left" else System(other, drained)
    return _compatible(rebuilt, memo, canon)


# ---------------------------------------------------------------------------
# State canonicalization (region representatives)
# ---------------------------------------------------------------------------

def region_canonical(sys: System, cap: Fraction, scale: int = 1) -> System:
    """Replace both valuations jointly by the canonical representative of
    their region with time scaled by ``scale``.  Each side reads the
    ``clock_ceilings`` of its unfolded head: a clock without a ceiling is
    set to 0, every other clock is capped at the smaller of cap and its
    ceiling + 1; each scaled value is split into a whole part and a
    remainder, and the ordered remainders are renormalized.  Sound for
    diagonal-free guards whose constants the scale makes integers (Alur &
    Dill 1994, with the per-location ceilings of Behrmann, Bouyer, Fleury &
    Larsen 2003); at scale 1, integer regions."""
    parts = {}
    for side, qc in enumerate((sys.left, sys.right)):
        ceilings = unfold_head(qc.node).clock_ceilings
        for clock, value in qc.nu.items():
            if clock not in ceilings:  # inactive
                parts[side, clock] = 0, 0
                continue
            num, den = min(value, cap,
                           ceilings[clock] + 1).as_integer_ratio()
            whole, rem = divmod(num * scale, den)
            parts[side, clock] = whole, Fraction(rem, den) if rem else 0
    rems = sorted({rem for _, rem in parts.values()} | {0})
    k, rank = len(rems), {rem: i for i, rem in enumerate(rems)}
    nus: Tuple[Valuation, Valuation] = ({}, {})
    for (side, clock), (whole, rem) in parts.items():
        nus[side][clock] = Fraction(whole * k + rank[rem], k * scale)
    return System(QConfig(nus[0], sys.left.node, sys.left.queue),
                  QConfig(nus[1], sys.right.node, sys.right.queue))


def canonicaliser(sys: System) -> Callable[[System], System]:
    """The state map of ``check_progress`` on sys: ``region_canonical`` at
    the LCM of the guard constants' denominators, capped one above the
    largest constant and per clock one above the ceilings of each side's
    head, or the identity when a guard compares two clocks (these regions
    are not sound for diagonal guards)."""
    atoms = [*guard_atoms(sys.left.node), *guard_atoms(sys.right.node)]
    if any(atom.sub is not None for atom in atoms):
        return lambda state: state
    scale = lcm(*(atom.const.denominator for atom in atoms))
    cap = max((abs(atom.const) for atom in atoms), default=Fraction(0)) + 1
    return lambda state: region_canonical(state, cap, scale)


def state_key(sys: System) -> tuple:
    """The identity of a state: for each side, its valuation as sorted
    items, the printed form of its unfolded head and its queue.  The
    printed form, not the head object, because heads that print the same
    act the same, and two paths can build two such heads."""
    return _side_key(sys.left), _side_key(sys.right)


def _side_key(qc: QConfig) -> tuple:
    return tuple(sorted(qc.nu.items())), unfold_head(qc.node).printed, qc.queue


def render_key(key: tuple) -> str:
    """A state key as text: the state digest of traces and messages."""
    return " || ".join(
        "({} | {} | [{}])".format(
            ",".join(f"{k}={format_rational(v)}" for k, v in nu), printed,
            ";".join(map(str, queue)))
        for nu, printed, queue in key)


def digest_system(sys: System) -> str:
    return render_key(state_key(sys))


# ---------------------------------------------------------------------------
# Progress checking
# ---------------------------------------------------------------------------

def check_progress(sys: System, limits: Optional[ExploreLimits] = None,
                   monitor: bool = False) -> ProgressReport:
    """Breadth-first verification that every reachable state is final or can
    act, possibly after an admissible delay.

    States are mapped by ``canonicaliser(sys)`` (region representatives on
    diagonal-free systems, so exploration terminates) and memoized on their
    ``state_key``; a key is rendered to a digest only for a trace or a
    monitor message.  Exceeding any bound makes the verdict bound-exceeded,
    never ok.
    """
    limits = limits or ExploreLimits()
    canon = canonicaliser(sys)
    horizon = default_horizon(sys)

    start = canon(sys)
    start_key = state_key(start)
    parents: Dict[tuple, Tuple[Optional[tuple], Optional[SysAction]]] = {
        start_key: (None, None)}
    frontier = deque([(start, start_key, 0)])
    violations: List[str] = []
    bound_reason = ""

    def build_trace(key: tuple) -> List[Tuple[SysAction, str]]:
        steps: List[Tuple[SysAction, str]] = []
        while True:
            parent, action = parents[key]
            if parent is None:
                break
            steps.append((action, render_key(key)))
            key = parent
        steps.reverse()
        return steps

    # the types of one exploration are stable objects, and monitor mode asks
    # for the duality of the same few pairs of them on every state
    dual_memo: Dict = {}

    def monitor_state(state: System, key: tuple) -> None:
        for tag, qc in (("left", state.left), ("right", state.right)):
            dirs = {opt.direction for opt in unfold_head(qc.node).options
                    if eval_constraint(qc.nu, opt.guard)}
            if len(dirs) > 1:
                violations.append(f"send and receive both enabled on {tag} "
                                  f"at {render_key(key)}")
        ok, why = _compatible(state, dual_memo, canon)
        if not ok:
            violations.append(
                f"incompatible state ({why}) at {render_key(key)}")

    while frontier:
        state, key, depth = frontier.popleft()
        if monitor:
            monitor_state(state, key)
        try:
            steps = system_steps(state, horizon)
        except ProtocolError as exc:
            return ProgressReport("counterexample", len(parents),
                                  build_trace(key), str(exc), violations)
        final = state.left.is_final() and state.right.is_final()
        if not final:
            passes = any(action.is_tau for action, _ in steps)
            if not passes:
                # a wait followed by an internal action
                for action, succ in steps:
                    try:
                        passes = bool(tau_steps(succ))
                    except ProtocolError:
                        continue
                    if passes:
                        break
            if not passes:
                return ProgressReport(
                    "counterexample", len(parents), build_trace(key),
                    "reachable non-final state with no action after any "
                    "admissible delay", violations)
        for action, succ in steps:
            if monitor and action.kind == "wait" and action.t > 0:
                if state.left.queue or state.right.queue:
                    violations.append(f"wait({action.t}) taken with non-empty "
                                      f"queue at {render_key(key)}")
            if (len(succ.left.queue) > limits.max_queue
                    or len(succ.right.queue) > limits.max_queue):
                bound_reason = "queue bound exceeded"
                continue
            succ = canon(succ)
            succ_key = state_key(succ)
            if succ_key in parents:
                continue
            if len(parents) >= limits.max_states:
                bound_reason = "state bound exceeded"
                continue
            if depth + 1 > limits.max_depth:
                bound_reason = "depth bound exceeded"
                continue
            parents[succ_key] = (key, action)
            frontier.append((succ, succ_key, depth + 1))

    if bound_reason:
        return ProgressReport("bound-exceeded", len(parents), [],
                              bound_reason, violations)
    return ProgressReport("ok", len(parents), [], "", violations)
