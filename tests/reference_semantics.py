"""The paper's rules in ``Fraction`` arithmetic: the test-side reference.

The package runs the layered semantics only through the int explorer of
``semantics``.  The rules here are the paper's, read directly off the
types and valuations, and the suite checks the explorer and the zones
against them:

* ``apply_reset``, which zeroes the clocks an option resets;
* layer one, configurations: ``config_comm_steps`` fires each option whose
  guard ``eval_constraint`` holds, and ``config_tick`` lets time pass;
* layer two, configurations with queues: ``qconfig_steps`` sends as layer
  one does and receives the queue head (``_head_receive_option``),
  ``enqueue`` appends to a queue, and the time rule ``qconfig_time`` lets
  time pass under persistency (``future_enabled``, which evaluates the
  rendered ``Choice.entry``) and urgency (``_receivable_during``, which
  sweeps the queue head's guard zones with ``trajectory_zone``);
* layer three, compatibility: ``compatible`` drains the queued side one
  receive at a time and compares the valuations after a state map and the
  types up to duality;
* ``option``, a choice option with the defaults of a bare send or
  receive;
* ``widened``, a canonical zone over more clocks;
* ``struct_normalize``, the process term modulo structural congruence,
  with the parts of each composition in a canonical order.

Nothing here imports the int kernel (``_Space`` and the point readers of
``zones``), so the two stay independent routes to one verdict.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import is_
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from timedsessions.constraints import (TRUE, Constraint, Valuation,
                                       eval_constraint, shift)
from timedsessions.processes import (Par, ProcNode, _normal_node,
                                     format_process, map_children)
from timedsessions.errors import ProtocolError, SpecError
from timedsessions.semantics import Message, QConfig, System, _sem_equal_rec
from timedsessions.sessiontypes import (END, NONE, RECV, SEND, ChoiceOption,
                                        PayloadSort, TypeNode, dual,
                                        unfold_head)
from timedsessions.zones import LE_ZERO, Zone, trajectory_zone

# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def apply_reset(nu: Mapping[str, Fraction], resets) -> Valuation:
    """Zero the clocks in the reset set, leaving the others unchanged."""
    resets = set(resets)
    unknown = resets - set(nu)
    if unknown:
        raise SpecError(f"reset of undeclared clock(s): {sorted(unknown)}")
    return {name: Fraction(0) if name in resets else value for name, value in nu.items()}


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


# ---------------------------------------------------------------------------
# Configurations with queues
# ---------------------------------------------------------------------------

def enqueue(qc: QConfig, message: Message) -> QConfig:
    return QConfig(qc.nu, qc.node, qc.queue + (message,))


def future_enabled(state) -> bool:
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
    if future_enabled(qc) and not future_enabled(QConfig(shifted, qc.node)):
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


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def compatible(sys: System,
               canon: Callable[[System], System]) -> Tuple[bool, str]:
    """System compatibility with the valuations of clause (2) compared
    after the state map canon: (1) at most one queue is non-empty; (2) if
    both are empty the valuations agree and the types are dual; (3)/(4) a
    queued head message is receivable now and the drained system is
    compatible again."""
    left, right = sys.left, sys.right
    if left.queue and right.queue:
        return False, "both queues non-empty"
    if not left.queue and not right.queue:
        mapped = canon(sys)
        if mapped.left.nu != mapped.right.nu:
            return False, "valuations differ with empty queues"
        if not _sem_equal_rec(left.node, dual(right.node), frozenset()):
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
    return compatible(System(drained, other) if tag == "left"
                      else System(other, drained), canon)


# ---------------------------------------------------------------------------
# Types, zones and process terms
# ---------------------------------------------------------------------------

def option(direction: str, label: str, guard: Constraint = TRUE,
           resets=(), payload: PayloadSort = NONE,
           continuation: TypeNode = END) -> ChoiceOption:
    return ChoiceOption(direction, label, payload, guard, frozenset(resets),
                        continuation)


def widened(zone: Zone, clocks: Iterable[str]) -> Zone:
    """The canonical zone over its clocks and the given ones, which it
    leaves unconstrained (zone itself if they add none).  A new clock y is
    at least 0, so x_i - y meets x_i's upper bound, and the matrix stays
    canonical."""
    ordered = tuple(sorted(set(zone.clocks).union(clocks)))
    if ordered == zone.clocks:
        return zone
    n = len(ordered) + 1
    m = [[LE_ZERO if i == j else None for j in range(n)] for i in range(n)]
    where = [0] + [ordered.index(clock) + 1 for clock in zone.clocks]
    for row, i in zip(zone.m, where):
        m[i] = [row[0]] * n
        for bound, j in zip(row, where):
            m[i][j] = bound
    return Zone(ordered, m, zone.scale)


def struct_normalize(p: ProcNode) -> ProcNode:
    """Canonical form modulo structural congruence: the interpreter's
    normal form (delay(0) dropped, nested compositions flattened), with
    the parts of each composition ordered by their printed form.
    Idempotent, and p itself when p is already canonical."""
    def walk(node: ProcNode) -> ProcNode:
        node = _normal_node(map_children(node, walk))
        if type(node) is not Par:
            return node
        parts = sorted(node.parts, key=format_process)
        return node if all(map(is_, parts, node.parts)) else Par(tuple(parts))

    return walk(p)
