"""Three-layer transition semantics and the bounded progress verifier.

Layer one: configurations (valuation, type) fire guarded options and let
time pass freely.  Layer two adds a FIFO queue of received messages; its
time rule carries the persistency premise (a future-enabled configuration
must stay future-enabled) and the urgency premise (time may not pass while
the queue head is receivable).  Layer three composes two queued
configurations: sends deliver into the peer queue atomically, queue heads
are consumed as internal steps, and time passes only when both sides agree.

Progress of a system is verified empirically by breadth-first exploration
with memoized states, sampling delays at guard boundaries, midpoints and
one point beyond every boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .constraints import (
    Valuation,
    apply_reset,
    boundary_delays,
    disj,
    eval_constraint,
    shift,
    zero_valuation,
)
from .errors import ProtocolError, SpecError
from .sessiontypes import (
    Choice,
    ChoiceOption,
    Delegate,
    End,
    PayloadSort,
    RECV,
    Rec,
    SEND,
    TypeNode,
    Var,
    dual,
    format_type,
    guard_atoms,
    has_diagonal_atoms,
    map_continuations,
    max_constant,
    type_clocks,
)
from .rational import format_rational
from .zones import constraint_equiv, past, to_zones

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
    horizon: Optional[Fraction] = None  # None: max guard constant + 2
    max_states: int = 100000

    def __post_init__(self) -> None:
        if (self.max_depth <= 0 or self.max_queue <= 0 or self.max_states <= 0
                or (self.horizon is not None and self.horizon <= 0)):
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

def _subst_type(node: TypeNode, var: str, repl: TypeNode) -> TypeNode:
    if isinstance(node, Var):
        return repl if node.var == var else node
    if isinstance(node, Rec) and node.var == var:  # shadowed
        return node
    return map_continuations(node, lambda n: _subst_type(n, var, repl))


def unfold_head(node: TypeNode) -> TypeNode:
    """Unfold recursive definitions until the head is a choice or end."""
    while isinstance(node, Rec):
        node = _subst_type(node.body, node.var, node)
    if isinstance(node, Var):
        raise SpecError(f"unguarded recursion variable {node.var!r} at head")
    return node


def head_options(node: TypeNode) -> Tuple[ChoiceOption, ...]:
    head = unfold_head(node)
    return head.options if isinstance(head, Choice) else ()


def config_comm_steps(config: Config) -> List[Tuple[CommAction, Config]]:
    """Enabled communication actions of a configuration: one per option
    whose guard the valuation satisfies."""
    out: List[Tuple[CommAction, Config]] = []
    for opt in head_options(config.node):
        if eval_constraint(config.nu, opt.guard):
            action = CommAction(opt.direction, Message(opt.label, opt.payload))
            out.append((action,
                        Config(apply_reset(config.nu, opt.resets),
                               opt.continuation)))
    return out


def config_tick(config: Config, t: Fraction) -> Config:
    """Let t time units pass; unconditional at this layer."""
    return Config(shift(config.nu, Fraction(t)), config.node)


_GAMMA_HEAD_CACHE: Dict[TypeNode, object] = {}


def _gamma_of_head(node: TypeNode):
    """past of the disjunction of the unfolded head's guards (cached)."""
    head = unfold_head(node)
    if isinstance(head, End):
        return None
    cached = _GAMMA_HEAD_CACHE.get(head)
    if cached is None:
        cached = past(disj(*[opt.guard for opt in head.options]))
        _GAMMA_HEAD_CACHE[head] = cached
    return cached


def is_future_enabled(state) -> bool:
    """Can some delay enable a communication action?  Decided exactly via
    the past of the head guards; end is never future-enabled."""
    gamma_head = _gamma_of_head(state.node)
    if gamma_head is None:
        return False
    return eval_constraint(state.nu, gamma_head)


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
    for opt in head_options(qc.node):
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
    out: List[Tuple[CommAction, QConfig]] = []
    for action, config in config_comm_steps(Config(qc.nu, qc.node)):
        if action.direction == SEND:
            out.append((action, QConfig(config.nu, config.node, qc.queue)))
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
    for zone in to_zones(opt.guard, nu.keys()):
        if not zone.intersect(window).empty:
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


def system_guards(sys: System):
    return ([opt.guard for opt in head_options(sys.left.node)],
            [opt.guard for opt in head_options(sys.right.node)])


def admissible_delays(sys: System, horizon: Fraction) -> List[Fraction]:
    """Positive boundary-sample delays that both sides accept."""
    left_guards, right_guards = system_guards(sys)
    candidates: Set[Fraction] = set()
    candidates.update(boundary_delays(sys.left.nu, left_guards + right_guards,
                                      horizon))
    candidates.update(boundary_delays(sys.right.nu, left_guards + right_guards,
                                      horizon))
    out = []
    for t in sorted(candidates):
        if t <= 0:
            continue
        ok_l, _ = qconfig_time(sys.left, t)
        ok_r, _ = qconfig_time(sys.right, t)
        if ok_l is not None and ok_r is not None:
            out.append(t)
    return out


def default_horizon(sys: System) -> Fraction:
    return max(max_constant(sys.left.node), max_constant(sys.right.node)) + 2


def system_steps(sys: System, horizon: Optional[Fraction] = None
                 ) -> List[Tuple[SysAction, System]]:
    """All system transitions: asynchronous deliveries, queue consumptions,
    and the admissible sampled waits.  A final|final system has no steps."""
    if sys.left.is_final() and sys.right.is_final():
        return []
    if horizon is None:
        horizon = default_horizon(sys)
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
    for t in admissible_delays(sys, horizon):
        left2, _ = qconfig_time(sys.left, t)
        right2, _ = qconfig_time(sys.right, t)
        out.append((SysAction("wait", t=t), System(left2, right2)))
    return out


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------

_SEM_EQUAL_CACHE: Dict[Tuple[TypeNode, TypeNode, Tuple[str, ...]], bool] = {}


def _semantically_equal(a: TypeNode, b: TypeNode,
                        assumed: Set[Tuple[TypeNode, TypeNode]],
                        clocks) -> bool:
    """Coinductive equality up to unfolding, with guards compared as zone
    sets rather than syntax.  Top-level queries are cached."""
    if not assumed:
        key = (a, b, tuple(sorted(clocks)))
        cached = _SEM_EQUAL_CACHE.get(key)
        if cached is None:
            cached = _sem_equal_rec(a, b, frozenset(), clocks)
            _SEM_EQUAL_CACHE[key] = cached
        return cached
    return _sem_equal_rec(a, b, frozenset(assumed), clocks)


def _sem_equal_rec(a: TypeNode, b: TypeNode, assumed, clocks) -> bool:
    if (a, b) in assumed:
        return True
    assumed = assumed | {(a, b)}
    ha, hb = unfold_head(a), unfold_head(b)
    if isinstance(ha, End) or isinstance(hb, End):
        return isinstance(ha, End) and isinstance(hb, End)
    assert isinstance(ha, Choice) and isinstance(hb, Choice)
    if len(ha.options) != len(hb.options):
        return False
    by_label = {opt.label: opt for opt in hb.options}
    for oa in ha.options:
        ob = by_label.get(oa.label)
        if ob is None or oa.direction != ob.direction or oa.resets != ob.resets:
            return False
        if not _payload_equal(oa.payload, ob.payload, assumed, clocks):
            return False
        if not constraint_equiv(oa.guard, ob.guard, clocks):
            return False
        if not _sem_equal_rec(oa.continuation, ob.continuation, assumed,
                              clocks):
            return False
    return True


def _payload_equal(a: PayloadSort, b: PayloadSort, assumed, clocks) -> bool:
    if isinstance(a, Delegate) != isinstance(b, Delegate):
        return False
    if isinstance(a, Delegate):
        return (constraint_equiv(a.init_constraint, b.init_constraint, clocks)
                and _sem_equal_rec(a.session, b.session, assumed, clocks))
    return a == b


def compatible(sys: System) -> Tuple[bool, str]:
    """Decide system compatibility; the explanation names the failed clause.

    (1) at most one queue is non-empty; (2) if both are empty the valuations
    agree and the types are dual; (3)/(4) a queued head message is
    receivable immediately and the drained system is compatible again.
    """
    left, right = sys.left, sys.right
    if left.queue and right.queue:
        return False, "both queues non-empty"
    if not left.queue and not right.queue:
        if left.nu != right.nu:
            return False, "valuations differ with empty queues"
        clocks = set(left.nu) | set(right.nu)
        if not _semantically_equal(left.node, dual(right.node), set(), clocks):
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
    return compatible(rebuilt)


# ---------------------------------------------------------------------------
# State canonicalization (region representatives)
# ---------------------------------------------------------------------------

def _constants_are_integers(node: TypeNode) -> bool:
    return all(atom.const.denominator == 1 for atom in guard_atoms(node))


def region_canonical(sys: System, cap: Fraction) -> System:
    """Replace both valuations jointly by the canonical representative of
    their region: cap values above the largest constant + 1 and renormalize
    the ordered fractional parts.  Sound only for diagonal-free integer
    guards, where regions are bisimilar for guard satisfaction and delay
    boundaries."""
    entries: List[Tuple[int, str, str]] = []  # (which side, clock)
    values: List[Fraction] = []
    for side_idx, qc in ((0, sys.left), (1, sys.right)):
        for clock, value in qc.nu.items():
            entries.append((side_idx, clock))
            values.append(min(value, cap))
    fracs = sorted({v - int(v) for v in values if v != int(v)})
    rank = {f: Fraction(i + 1, len(fracs) + 1) for i, f in enumerate(fracs)}
    new_values = []
    for v in values:
        frac = v - int(v)
        new_values.append(Fraction(int(v)) + (rank[frac] if frac else Fraction(0)))
    new_nus: List[Valuation] = [{}, {}]
    for (side_idx, clock), v in zip(entries, new_values):
        new_nus[side_idx][clock] = v
    return System(QConfig(new_nus[0], sys.left.node, sys.left.queue),
                  QConfig(new_nus[1], sys.right.node, sys.right.queue))


_TYPE_DIGEST_CACHE: Dict[TypeNode, str] = {}


def _type_digest(node: TypeNode) -> str:
    cached = _TYPE_DIGEST_CACHE.get(node)
    if cached is None:
        cached = format_type(unfold_head(node))
        _TYPE_DIGEST_CACHE[node] = cached
    return cached


def digest_qconfig(qc: QConfig) -> str:
    nu = ",".join(f"{k}={format_rational(v)}" for k, v in sorted(qc.nu.items()))
    queue = ";".join(str(m) for m in qc.queue)
    return f"({nu} | {_type_digest(qc.node)} | [{queue}])"


def digest_system(sys: System) -> str:
    return f"{digest_qconfig(sys.left)} || {digest_qconfig(sys.right)}"


# ---------------------------------------------------------------------------
# Progress checking
# ---------------------------------------------------------------------------

def check_progress(sys: System, limits: Optional[ExploreLimits] = None,
                   monitor: bool = False) -> ProgressReport:
    """Breadth-first verification that every reachable state is final or can
    act, possibly after an admissible delay.

    Visited states are memoized on (unfolded types, queues, valuation); on
    diagonal-free integer-constant systems valuations are first replaced by
    canonical region representatives so exploration terminates.  Exceeding
    any bound makes the verdict bound-exceeded, never ok.
    """
    limits = limits or ExploreLimits()
    horizon = limits.horizon if limits.horizon is not None else default_horizon(sys)
    canonical_ok = (not has_diagonal_atoms(sys.left.node)
                    and not has_diagonal_atoms(sys.right.node)
                    and _constants_are_integers(sys.left.node)
                    and _constants_are_integers(sys.right.node))
    cap = max(max_constant(sys.left.node), max_constant(sys.right.node)) + 1

    def canon(state: System) -> System:
        return region_canonical(state, cap) if canonical_ok else state

    start = canon(sys)
    start_key = digest_system(start)
    visited: Dict[str, int] = {start_key: 0}
    parents: Dict[str, Tuple[Optional[str], Optional[SysAction]]] = {
        start_key: (None, None)}
    frontier = deque([(start, 0)])
    violations: List[str] = []
    bound_reason = ""

    def build_trace(key: str) -> List[Tuple[SysAction, str]]:
        steps: List[Tuple[SysAction, str]] = []
        while True:
            parent, action = parents[key]
            if parent is None:
                break
            steps.append((action, key))
            key = parent
        steps.reverse()
        return steps

    def monitor_state(state: System, key: str) -> None:
        for tag, qc in (("left", state.left), ("right", state.right)):
            dirs = {a.direction
                    for a, _ in config_comm_steps(Config(qc.nu, qc.node))}
            if len(dirs) > 1:
                violations.append(
                    f"send and receive both enabled on {tag} at {key}")
        ok, why = compatible(state)
        if not ok:
            violations.append(f"incompatible state ({why}) at {key}")

    while frontier:
        state, depth = frontier.popleft()
        key = digest_system(state)
        if monitor:
            monitor_state(state, key)
        try:
            steps = system_steps(state, horizon)
        except ProtocolError as exc:
            return ProgressReport("counterexample", len(visited),
                                  build_trace(key), str(exc), violations)
        final = state.left.is_final() and state.right.is_final()
        if not final:
            passes = any(action.is_tau for action, _ in steps)
            if not passes:
                for action, succ in steps:
                    try:
                        succ_steps = system_steps(succ, horizon)
                    except ProtocolError:
                        continue
                    if any(a.is_tau for a, _ in succ_steps):
                        passes = True
                        break
            if not passes:
                return ProgressReport(
                    "counterexample", len(visited), build_trace(key),
                    "reachable non-final state with no action after any "
                    "admissible delay", violations)
        for action, succ in steps:
            if monitor and action.kind == "wait" and action.t > 0:
                if state.left.queue or state.right.queue:
                    violations.append(
                        f"wait({action.t}) taken with non-empty queue at {key}")
            if (len(succ.left.queue) > limits.max_queue
                    or len(succ.right.queue) > limits.max_queue):
                bound_reason = "queue bound exceeded"
                continue
            succ = canon(succ)
            succ_key = digest_system(succ)
            if succ_key in visited:
                continue
            if len(visited) >= limits.max_states:
                bound_reason = "state bound exceeded"
                continue
            if depth + 1 > limits.max_depth:
                bound_reason = "depth bound exceeded"
                continue
            visited[succ_key] = depth + 1
            parents[succ_key] = (key, action)
            frontier.append((succ, depth + 1))

    if bound_reason:
        return ProgressReport("bound-exceeded", len(visited), [],
                              bound_reason, violations)
    return ProgressReport("ok", len(visited), [], "", violations)
