"""The interpreter's whole-term reference: steps found and taken on the
process term, and the scheduler that takes them.

``processes.run`` keeps a running program flat, as thread and buffer
cells, and steps each leaf from a record compiled once from it.  The
helpers here work on the term instead, with a step of their own:
``_classify`` turns a leaf into a redex and ``_reduce`` takes it,
formatting its trace text from the node.  ``collect_redexes`` walks the
term for its active leaves, each with its path and the buffers it sees,
and classifies them; ``apply_redex`` reduces one and puts the new subterm
and buffer back at their paths.  ``instant_step`` lists every instant
successor of a term, and ``reference_run`` is the scheduler over these
steps: it resolves and walks the whole term before every step and
renormalises it after every step, with one definition registry for the
whole run.  ``random_phi_term`` draws the seeded terms the suites step.
"""

import random
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from timedsessions.constraints import eval_constraint, format_rational
from timedsessions.errors import SpecError
from timedsessions.processes import (
    _ACTIVE_KINDS,
    _SHAPES,
    Branch,
    Buffer,
    Call,
    Def,
    DelayConstraint,
    DelayExact,
    IfTimer,
    LinearExpr,
    P_END,
    P_ERR,
    Par,
    PEnd,
    PErr,
    PhiUndefined,
    ProcNode,
    ReceiveAfter,
    RunPolicy,
    RunResult,
    RunStatus,
    Scope,
    Send,
    SetTimer,
    TimerEnv,
    _DelayPicker,
    children,
    instantiate_call,
    resolve_active,
    runtime_normalize,
    substitute,
    time_step,
)

# A path addresses a subterm: each step is an index into the children of
# the node it leaves.  Redexes are found through active children only, so
# the paths of redexes and buffers step through Par and Scope nodes.
Path = Tuple[int, ...]

_ZERO = Fraction(0)


def subterms(p: ProcNode, active: bool = False) -> Iterator[ProcNode]:
    """p and its subterms in preorder (through active children only if
    active is set)."""
    stack = [p]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node, active)))


def get(term: ProcNode, path: Path) -> ProcNode:
    """The subterm of term at path."""
    for i in path:
        term = children(term)[i]
    return term


def put(term: ProcNode, path: Path, new: ProcNode) -> ProcNode:
    """term with new at path, nothing renormalised."""
    if not path:
        return new
    kids = list(children(term))
    kids[path[0]] = put(kids[path[0]], path[1:], new)
    return _SHAPES[type(term)].rebuild(term, kids)


def path_str(term: ProcNode, path: Path) -> str:
    """The path as messages print it: ``par<i>`` and ``scope`` steps."""
    steps = []
    for i in path:
        steps.append(f"par{i}" if type(term) is Par else "scope")
        term = children(term)[i]
    return "/".join(steps) or "top"


class Cell:
    """A buffer of the term as a leaf sees it: the node, and by its
    identity the path it was read at."""

    __slots__ = ("node",)

    def __init__(self, node: Buffer):
        self.node = node


# The buffers a leaf sees, by (source, destination) endpoints.
Buffers = Dict[Tuple[str, str], Cell]


class Redex(NamedTuple):
    kind: str      # set | if | send | recv | det | def | call | err | stuck
    detail: str
    node: ProcNode
    # The cell of the buffer a send appends to or a receive reads.
    queue: Optional[Cell] = None


def _classify(node: ProcNode, buffers: Buffers,
              expired: bool) -> Optional[Redex]:
    """The redex of one active leaf, or None if it cannot act now; expired
    tells whether a receive's timeout has run out."""
    kind = type(node)
    if kind is Def:
        return Redex("def", node.name, node)
    if kind is SetTimer:
        return Redex("set", node.timer, node)
    if kind is Send:
        for chan, queue in buffers.items():
            if chan[0] == node.endpoint:
                return Redex("send", f"{node.endpoint}!{node.label}", node,
                             queue)
        return None
    if kind is ReceiveAfter:
        for chan, queue in buffers.items():
            if chan[1] != node.endpoint:
                continue
            items = queue.node.items
            if not items:
                continue
            label = items[0][0]
            if any(b.label == label for b in node.branches):
                return Redex("recv", f"{node.endpoint}?{label}", node, queue)
            return Redex(
                "stuck", f"unspecified reception: {label!r} at {node.endpoint}",
                node, queue)
        if expired:
            return Redex("recv", f"{node.endpoint} after-timeout", node)
        return None
    if kind is IfTimer:
        return Redex("if", str(node.cond), node)
    if kind is DelayConstraint:
        return Redex("det", str(node.cond), node)
    if kind is Call:
        return Redex("call", node.name, node)
    if kind is PErr:
        return Redex("err", "error process reached", node)
    return None


def _reduce(redex: Redex, rho: Mapping[str, Fraction],
            defs: Dict[str, Def], picker: Optional[_DelayPicker]
            ) -> Tuple[Mapping[str, Fraction], ProcNode, Optional[Buffer],
                       str]:
    """The timers after the step, the subterm that replaces the redex's
    node, the buffer that replaces the one in its queue (None if the step
    rewrites none), and the step as the trace prints it.

    The timers are a ``TimerEnv``: a step reads them as a mapping and sets
    a timer with ``|``, which leaves rho as it was.  The redex's node and
    queue are read as they stand.  A call reads its definition from defs
    only: an unfired ``Def`` is a redex, so its step puts it there before
    any call in its continuation.  Every new subterm is a subterm of the
    term the redex was found in, or a ``substitute`` of one, so it is
    normal below its head when that is.
    """
    node = redex.node
    if redex.kind == "def":
        assert isinstance(node, Def)
        defs[node.name] = node
        return rho, node.cont, None, f"def {redex.detail}"
    if redex.kind == "set":
        assert isinstance(node, SetTimer)
        return rho | {node.timer: _ZERO}, node.cont, None, f"set {redex.detail}"
    if redex.kind == "if":
        assert isinstance(node, IfTimer)
        if eval_constraint(rho, node.cond):
            return rho, node.then_branch, None, f"if ({redex.detail}) -> then"
        return rho, node.else_branch, None, f"if ({redex.detail}) -> else"
    if redex.kind == "send":
        assert isinstance(node, Send) and redex.queue is not None
        buf = redex.queue.node
        new_buf = Buffer(buf.src, buf.dst, buf.items + ((node.label, node.value),))
        return rho, node.cont, new_buf, f"send {redex.detail}"
    if redex.kind == "recv":
        assert isinstance(node, ReceiveAfter)
        if redex.queue is None:  # timeout expiry (expired, empty queue)
            assert node.timeout is not None
            return rho, node.timeout, None, f"recv {redex.detail}"
        buf = redex.queue.node
        assert buf.items
        label, value = buf.items[0]
        branch = next(b for b in node.branches if b.label == label)
        cont = branch.cont
        if branch.binder is not None:
            cont = substitute(cont, {}, {branch.binder: value})
        return (rho, cont, Buffer(buf.src, buf.dst, buf.items[1:]),
                f"recv {redex.detail}")
    if redex.kind == "det":
        assert isinstance(node, DelayConstraint)
        if picker is None:
            raise SpecError("delay(constraint) needs a resolution policy")
        pick = picker.pick(node)
        t = node.durations[pick] if type(pick) is int else pick
        return (rho, DelayExact(t, node.cont), None,
                f"det delay({format_rational(t)}) for {redex.detail}")
    if redex.kind == "call":
        assert isinstance(node, Call)
        defn = defs.get(node.name)
        if defn is None:
            raise SpecError(f"call to undefined process {node.name!r}")
        return rho, instantiate_call(defn, node), None, f"call {redex.detail}"
    raise SpecError(f"redex kind {redex.kind!r} is not reducible")


def is_completed(p: ProcNode) -> bool:
    """All components terminated and every buffer drained."""
    if isinstance(p, PEnd):
        return True
    if isinstance(p, Buffer):
        return not p.items
    return (type(p) in _ACTIVE_KINDS
            and all(map(is_completed, children(p, active=True))))


class SiteRedex(NamedTuple):
    path: Path  # of the leaf
    redex: Redex
    buffer_path: Optional[Path]  # of the buffer in the redex's queue


def collect_redexes(root: ProcNode) -> List[SiteRedex]:
    """The redexes of root's active leaves in leftmost order.

    Buffer lookups respect scoping: a leaf sees the buffers that are
    parallel siblings within its enclosing session scope.
    """
    out: List[SiteRedex] = []
    paths: Dict[Cell, Path] = {}

    def walk(node: ProcNode, path: Path,
             buffers: Buffers) -> None:
        if isinstance(node, Par):
            local = dict(buffers)
            for i, part in enumerate(node.parts):
                if isinstance(part, Buffer):
                    queue = Cell(part)
                    paths[queue] = path + (i,)
                    local[(part.src, part.dst)] = queue
            for i, part in enumerate(node.parts):
                walk(part, path + (i,), local)
        elif isinstance(node, Scope):
            visible = {chan: queue for chan, queue in buffers.items()
                       if node.left not in chan and node.right not in chan}
            walk(node.body, path + (0,), visible)
        elif not isinstance(node, Buffer):
            redex = _classify(node, buffers, type(node) is ReceiveAfter
                              and node.after == 0)
            if redex is not None:
                out.append(SiteRedex(path, redex, paths.get(redex.queue)))

    walk(root, (), {})
    return out


def apply_redex(root: ProcNode, site: SiteRedex, rho: TimerEnv,
                registry: Dict[str, Def],
                picker: Optional[_DelayPicker]) -> Tuple[TimerEnv, ProcNode]:
    """One instant step from the normal term root: the timers after it and
    the normal form of the term it leads to."""
    rho, new, buf, _ = _reduce(site.redex, rho, registry, picker)
    if buf is not None:
        root = put(root, site.buffer_path, buf)
    return rho, runtime_normalize(put(root, site.path, new))


def deadline(node: ProcNode) -> Optional[Fraction]:
    """The positive duration after which node changes as time passes: a
    pending exact delay or a finite timeout; None if it has none."""
    kind = type(node)
    if kind is DelayExact:
        t = node.duration
    elif kind is ReceiveAfter and isinstance(node.after, Fraction):
        t = node.after
    else:
        return None
    return t if t > 0 else None


def time_candidates(root: ProcNode) -> List[Fraction]:
    """Durations after which something changes: pending exact delays and
    finite active timeouts."""
    return [t for t in map(deadline, subterms(root, active=True))
            if t is not None]


def instant_step(rho: TimerEnv, p: ProcNode) -> List[Tuple[TimerEnv, ProcNode]]:
    """All one-step instantaneous reductions of p (deterministic order).

    A delay(constraint) contributes one successor per candidate duration.
    A ``def`` step drops its definition and no registry outlives one call,
    so a later call of the process it defined raises ``SpecError`` (step
    two of ``Main`` in ``fixtures/mixed_pingpong.toast``); ``run`` keeps
    each thread's definitions and steps on.
    """
    p = resolve_active(runtime_normalize(p), rho)
    results: List[Tuple[TimerEnv, ProcNode]] = []
    for site in collect_redexes(p):
        node = site.redex.node
        if site.redex.kind in ("stuck", "err"):
            continue
        if site.redex.kind == "det":
            for t in node.candidates:
                results.append((rho, runtime_normalize(
                    put(p, site.path, DelayExact(t, node.cont)))))
            continue
        results.append(apply_redex(p, site, rho, {}, None))
    return results


def reference_run(program: ProcNode,
                  policy: Optional[RunPolicy] = None) -> RunResult:
    """The scheduler with a whole-term normalise after every step and a
    whole-term resolve before every step."""
    policy = policy or RunPolicy()
    picker = _DelayPicker(policy.seed, policy.delay_resolution)
    registry: Dict[str, Def] = {}
    trace: List[str] = []
    elapsed = Fraction(0)
    rho: TimerEnv = {}
    term = runtime_normalize(program)
    steps = 0

    def result(status: str, detail: str) -> RunResult:
        return RunResult(status, detail, trace, elapsed, term, rho)

    while steps < policy.fuel:
        try:
            term = resolve_active(term, rho)
        except SpecError as exc:
            return result(RunStatus.ERROR, str(exc))
        redexes = collect_redexes(term)
        for path, redex, _ in redexes:
            if redex.kind == "err":
                return result(RunStatus.ERROR,
                              f"err at {path_str(term, path)}")
            if redex.kind == "stuck":
                return result(RunStatus.STUCK,
                              f"{redex.detail} at {path_str(term, path)}")
        if redexes:
            path, redex, buffer_path = redexes[0]
            steps += 1
            before = term
            try:
                rho, new, buf, _ = _reduce(redex, rho, registry, picker)
            except SpecError as exc:
                return result(RunStatus.ERROR, str(exc))
            if buf is not None:
                term = put(term, buffer_path, buf)
            term = put(term, path, new)
            if redex.kind == "det":
                resolved = get(term, path)
                trace.append(f"{steps} det delay("
                             f"{format_rational(resolved.duration)})"
                             f" for {redex.detail}")
            elif redex.kind == "if":
                cond = get(before, path).cond
                taken = "then" if eval_constraint(rho, cond) else "else"
                trace.append(f"{steps} if ({redex.detail}) -> {taken}")
            else:
                trace.append(f"{steps} {redex.kind} {redex.detail}")
            term = runtime_normalize(term)
            continue
        if is_completed(term):
            return result(RunStatus.COMPLETED, "all components terminated")
        candidates = time_candidates(term)
        if not candidates:
            return result(RunStatus.STUCK, "no action and no finite deadline")
        t = min(candidates)
        steps += 1
        try:
            rho, term = time_step(rho, term, t)
        except PhiUndefined as exc:
            return result(RunStatus.STUCK, f"time blocked: {exc.reason}")
        elapsed += t
        trace.append(f"{steps} delay({format_rational(t)})")
    # is_completed reads through an unfired def, which is still a redex
    if is_completed(term) and not collect_redexes(term):
        return result(RunStatus.COMPLETED, "all components terminated")
    return result(RunStatus.FUEL_EXHAUSTED, "fuel exhausted")


def random_phi_term(rng: random.Random, depth: int = 3) -> ProcNode:
    """Random terms over the time-permeable constructors, for exercising
    the time-passing function."""
    endpoints = ("p", "q")

    def go(depth_left: int) -> ProcNode:
        roll = rng.random()
        if depth_left <= 0 or roll < 0.18:
            return P_ERR if rng.random() < 0.2 else P_END
        if roll < 0.40:
            return DelayExact(Fraction(rng.randint(0, 6), rng.choice((1, 2))),
                              go(depth_left - 1))
        if roll < 0.70:
            after: Optional[LinearExpr]
            if rng.random() < 0.25:
                after = None
                timeout = None
            else:
                after = LinearExpr(Fraction(rng.randint(0, 5)))
                timeout = go(depth_left - 1)
            return ReceiveAfter(rng.choice(endpoints),
                                (Branch("m", None, go(depth_left - 1)),),
                                after, timeout)
        if roll < 0.85:
            return Par((go(depth_left - 1), go(depth_left - 1)))
        if roll < 0.95:
            return Buffer("q", "p", (("m", ()),) if rng.random() < 0.4 else ())
        return Scope("p", "q", Par((
            go(depth_left - 1), go(depth_left - 1),
            Buffer("p", "q", ()), Buffer("q", "p", ()))))

    return go(depth)
