"""Timed process calculus: AST, time-passing, and a deterministic interpreter.

Processes set timers, send and receive with an Erlang-style
``receive-after`` timeout, branch on timer conditions, delay for exact or
constrained durations, and recurse through parameterised definitions.
Sessions are pairs of endpoints whose channels carry unbounded FIFO
buffers.

Instantaneous reductions are separated from time-consuming ones.  Time
passes through the partial function ``phi``: it decrements active
timeouts and delays, distributes over parallel compositions only when no
component is waiting on an endpoint whose inbound buffer is non-empty,
and is undefined over sends, conditionals, timer sets and calls.

Which fields of a node are subterms is decided in one place, the shape
table ``_SHAPES``: each node kind's child slots, how to rebuild it from new
children, and which children are active (the positions of ``Par``,
``Scope`` and ``Def`` through which time passes and where redexes are
found).  Every traversal takes its recursion from ``children``,
``map_children`` or ``subterms`` and keeps only its own special cases.
A position is a path of indices into ``children``.  Each redex carries
the subterm it was found at and the buffer it reads or writes, so a step
does not walk its path again.  A receive without a timeout has
``after=None``; there is no infinite timeout value.

Redexes are found in two parts: one walk, ``_sites``, lists the active
leaves with the buffers each sees, and ``_classify`` turns one leaf into
a redex.  The scheduler keeps the classified list across steps and walks
the term again only after a step that puts a composition, a session
scope or a buffer.  A time step is taken from the kept sites: its
duration from their deadlines, and each new leaf from ``phi`` on the old
one, renormalised on its active nodes, the only ones ``phi`` rebuilds.
While some active buffer is non-empty, ``phi``'s Par premise can fail,
and the whole term takes the step through ``time_step``.  A step records
its new leaves and buffer by path; the whole term is rebuilt from those
pending replacements only when something reads it: a walk, the
completion check, the end of the run.

A call and a receive with a binder substitute in one capture-avoiding
walk, ``substitute``; a call reads its definition from the registry that
``run``'s ``def`` steps fill.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import is_
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from .constraints import (Constraint, atoms_of, boundary_delays, eval_constraint,
                          map_clocks)
from .errors import SpecError
from .rational import format_rational

TimerEnv = Dict[str, Fraction]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Timeout expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearExpr:
    """Linear expression over timers: a constant plus integer coefficients."""

    const: Fraction = Fraction(0)
    coeffs: Tuple[Tuple[str, int], ...] = ()

    def __str__(self) -> str:
        bits: List[str] = []
        if self.const or not self.coeffs:
            bits.append(format_rational(self.const))
        for name, coef in self.coeffs:
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            term = name if mag == 1 else f"{mag}*{name}"
            bits.append(f"{sign}{term}")
        out = "".join(bits)
        return out[1:] if out.startswith("+") else out


def eval_timeout(expr: LinearExpr, rho: Mapping[str, Fraction]) -> Fraction:
    """Evaluate against the timers; negative results clamp to 0."""
    total = expr.const
    for name, coef in expr.coeffs:
        if name not in rho:
            raise SpecError(f"unknown timer {name!r} in timeout expression")
        total += coef * rho[name]
    return total if total > 0 else _ZERO


# ---------------------------------------------------------------------------
# Values and process AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Name:
    """A reference to a binder, an endpoint, or a delegated channel."""

    id: str

    def __str__(self) -> str:
        return self.id


UNIT = ()
Value = Union[int, bool, str, Tuple[()], Name]


@dataclass(frozen=True)
class SetTimer:
    timer: str
    cont: "ProcNode"


@dataclass(frozen=True)
class Send:
    endpoint: str
    label: str
    value: Value
    cont: "ProcNode"


@dataclass(frozen=True)
class Branch:
    label: str
    binder: Optional[str]
    cont: "ProcNode"


@dataclass(frozen=True)
class ReceiveAfter:
    endpoint: str
    branches: Tuple[Branch, ...]
    # None means no timeout (wait forever); a LinearExpr is unresolved; a
    # Fraction is the resolved countdown of an activated receive.
    after: Union[None, LinearExpr, Fraction]
    timeout: Optional["ProcNode"]


@dataclass(frozen=True)
class IfTimer:
    cond: Constraint
    then_branch: "ProcNode"
    else_branch: "ProcNode"

    @cached_property
    def cond_text(self) -> str:
        return str(self.cond)


@dataclass(frozen=True)
class DelayConstraint:
    var: str
    cond: Constraint
    cont: "ProcNode"

    @cached_property
    def cond_text(self) -> str:
        return str(self.cond)

    @cached_property
    def candidates(self) -> Tuple[Fraction, ...]:
        """Durations it may resolve to, sorted and computed once: the
        satisfying boundary samples of the constraint."""
        horizon = max([abs(a.const) for a in atoms_of(self.cond)]
                      or [Fraction(0)]) + 2
        return tuple(t for t in boundary_delays({self.var: Fraction(0)},
                                                [self.cond], horizon)
                     if eval_constraint({self.var: t}, self.cond))

    @cached_property
    def interiors(self) -> Tuple[Optional[Fraction], ...]:
        """Beside each adjacent pair of candidates, their midpoint, or None
        where the midpoint fails the constraint; computed once."""
        pool = self.candidates
        mids = ((a + b) / 2 for a, b in zip(pool, pool[1:]))
        return tuple(m if eval_constraint({self.var: m}, self.cond) else None
                     for m in mids)


@dataclass(frozen=True)
class DelayExact:
    duration: Fraction
    cont: "ProcNode"


@dataclass(frozen=True)
class Def:
    name: str
    val_params: Tuple[str, ...]
    timer_params: Tuple[str, ...]
    chan_params: Tuple[str, ...]
    body: "ProcNode"
    cont: "ProcNode"


@dataclass(frozen=True)
class Call:
    name: str
    val_args: Tuple[Value, ...] = ()
    timer_args: Tuple[str, ...] = ()
    chan_args: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PEnd:
    pass


@dataclass(frozen=True)
class PErr:
    pass


@dataclass(frozen=True)
class Scope:
    left: str
    right: str
    body: "ProcNode"


@dataclass(frozen=True)
class Par:
    parts: Tuple["ProcNode", ...]


@dataclass(frozen=True)
class Buffer:
    src: str
    dst: str
    items: Tuple[Tuple[str, Value], ...] = ()


ProcNode = Union[SetTimer, Send, ReceiveAfter, IfTimer, DelayConstraint,
                 DelayExact, Def, Call, PEnd, PErr, Scope, Par, Buffer]

P_END = PEnd()
P_ERR = PErr()


# ---------------------------------------------------------------------------
# Node shapes: the one place that knows which fields are subterms
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    children: Callable[[ProcNode], Tuple[ProcNode, ...]]
    rebuild: Callable[[ProcNode, Sequence[ProcNode]], ProcNode]
    # Children from this index on are active: time passes through them and
    # redexes are found in them.  None: the node itself is a redex or
    # blocks time.
    active: Optional[int]


def _recv_children(p: ReceiveAfter) -> Tuple[ProcNode, ...]:
    kids = tuple(b.cont for b in p.branches)
    return kids if p.timeout is None else kids + (p.timeout,)


def _recv_rebuild(p: ReceiveAfter, kids: Sequence[ProcNode]) -> ReceiveAfter:
    branches = tuple(b if b.cont is k else Branch(b.label, b.binder, k)
                     for b, k in zip(p.branches, kids))
    timeout = None if p.timeout is None else kids[-1]
    return ReceiveAfter(p.endpoint, branches, p.after, timeout)


_SHAPES: Dict[type, _Shape] = {
    SetTimer: _Shape(lambda p: (p.cont,),
                     lambda p, k: SetTimer(p.timer, k[0]), None),
    Send: _Shape(lambda p: (p.cont,),
                 lambda p, k: Send(p.endpoint, p.label, p.value, k[0]), None),
    ReceiveAfter: _Shape(_recv_children, _recv_rebuild, None),
    IfTimer: _Shape(lambda p: (p.then_branch, p.else_branch),
                    lambda p, k: IfTimer(p.cond, k[0], k[1]), None),
    DelayConstraint: _Shape(lambda p: (p.cont,),
                            lambda p, k: DelayConstraint(p.var, p.cond, k[0]),
                            None),
    DelayExact: _Shape(lambda p: (p.cont,),
                       lambda p, k: DelayExact(p.duration, k[0]), None),
    Def: _Shape(lambda p: (p.body, p.cont),
                lambda p, k: Def(p.name, p.val_params, p.timer_params,
                                 p.chan_params, k[0], k[1]), 1),
    Scope: _Shape(lambda p: (p.body,),
                  lambda p, k: Scope(p.left, p.right, k[0]), 0),
    Par: _Shape(lambda p: p.parts, lambda p, k: Par(tuple(k)), 0),
}

# The node kinds without subterms.
_LEAVES = (Call, PEnd, PErr, Buffer)

# The node kinds with active children: Par, Scope and Def.
_ACTIVE_KINDS = frozenset(kind for kind, shape in _SHAPES.items()
                          if shape.active is not None)


def children(p: ProcNode, active: bool = False) -> Tuple[ProcNode, ...]:
    """The direct subterms of p in source order (only the active ones if
    active is set)."""
    shape = _SHAPES.get(type(p))
    if shape is None:
        return ()
    if not active:
        return shape.children(p)
    return () if shape.active is None else shape.children(p)[shape.active:]


def map_children(p: ProcNode, f: Callable[[ProcNode], ProcNode],
                 active: bool = False) -> ProcNode:
    """p with f applied to each child (each active child if active is set).

    f is called once per child, in source order.  Returns p itself when f
    returns every child unchanged, so a walk that changes nothing allocates
    nothing.
    """
    shape = _SHAPES.get(type(p))
    if shape is None or (active and shape.active is None):
        return p
    kids = shape.children(p)
    if not active:
        new = tuple(map(f, kids))
    else:
        new = kids[:shape.active] + tuple(map(f, kids[shape.active:]))
    if all(map(is_, new, kids)):
        return p
    return shape.rebuild(p, new)


def subterms(p: ProcNode, active: bool = False) -> Iterator[ProcNode]:
    """p and its subterms in preorder (through active children only if
    active is set)."""
    stack = [p]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node, active)))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_value(v: Value) -> str:
    if v == UNIT:
        return "()"
    if isinstance(v, Name):
        return v.id
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return '"' + v + '"'
    return str(v)


def format_process(p: ProcNode) -> str:
    if isinstance(p, PEnd):
        return "end"
    if isinstance(p, PErr):
        return "err"
    if isinstance(p, SetTimer):
        return f"set({p.timer}).{format_process(p.cont)}"
    if isinstance(p, Send):
        payload = "" if p.value == UNIT else f"({format_value(p.value)})"
        return f"to {p.endpoint} ! {p.label}{payload}.{format_process(p.cont)}"
    if isinstance(p, ReceiveAfter):
        branches = ", ".join(
            b.label + (f"({b.binder})" if b.binder else "") + f" -> {format_process(b.cont)}"
            for b in p.branches)
        out = f"from {p.endpoint} recv {{ {branches} }}"
        if p.after is not None:  # with no timeout, the body never runs
            expr = format_rational(p.after) if isinstance(p.after, Fraction) else str(p.after)
            out += f" after {expr} {{ {format_process(p.timeout)} }}"
        return out
    if isinstance(p, IfTimer):
        return (f"if ({p.cond}) then {{ {format_process(p.then_branch)} }}"
                f" else {{ {format_process(p.else_branch)} }}")
    if isinstance(p, DelayConstraint):
        return f"delay({p.cond}).{format_process(p.cont)}"
    if isinstance(p, DelayExact):
        return f"delay({format_rational(p.duration)}).{format_process(p.cont)}"
    if isinstance(p, Def):
        params = "; ".join(",".join(g) for g in
                           (p.val_params, p.timer_params, p.chan_params))
        return (f"def {p.name}({params}) = {format_process(p.body)}"
                f" in {format_process(p.cont)}")
    if isinstance(p, Call):
        args = "; ".join((",".join(format_value(v) for v in p.val_args),
                          ",".join(p.timer_args), ",".join(p.chan_args)))
        return f"{p.name}<{args}>"
    if isinstance(p, Scope):
        return f"new ({p.left},{p.right}) {{ {format_process(p.body)} }}"
    if isinstance(p, Par):
        return " | ".join(format_process(part) for part in p.parts)
    if isinstance(p, Buffer):
        items = ", ".join(
            label + ("" if value == UNIT else f"({format_value(value)})")
            for label, value in p.items)
        return f"{p.src}{p.dst}:[{items}]"
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Structural congruence
# ---------------------------------------------------------------------------

def struct_normalize(p: ProcNode) -> ProcNode:
    """Canonical form modulo structural congruence.

    Eliminates delay(0), flattens nested parallel compositions and orders
    their components canonically.  Idempotent.
    """
    p = _normalize(p, reorder=True)
    return p


def runtime_normalize(p: ProcNode) -> ProcNode:
    """Like struct_normalize but preserves the user's parallel order, so the
    deterministic scheduler's leftmost policy is stable."""
    return _normalize(p, reorder=False)


def _normalize(p: ProcNode, reorder: bool, active: bool = False) -> ProcNode:
    """The normal form of p: ``_normal_node`` applied bottom-up to every
    node, so every subterm of a normal term is normal.  If active is set,
    only the active nodes are visited, which gives the normal form when
    every inactive subterm is already normal."""
    def walk(node: ProcNode) -> ProcNode:
        return _normal_node(map_children(node, walk, active), reorder)

    return walk(p)


def _normal_node(node: ProcNode, reorder: bool = False) -> ProcNode:
    """The normal form of a node whose children are normal: delay(0) is
    dropped, a parallel part that is itself parallel is spliced in, and a
    composition of one part is that part."""
    kind = type(node)
    if kind is DelayExact and node.duration == 0:
        return node.cont
    if kind is not Par:
        return node
    flat: List[ProcNode] = []
    for part in node.parts:
        if type(part) is Par:
            flat.extend(part.parts)
        else:
            flat.append(part)
    if reorder:
        flat.sort(key=format_process)
    if len(flat) == 1:
        return flat[0]
    if len(flat) == len(node.parts) and all(map(is_, flat, node.parts)):
        return node
    return Par(tuple(flat))


# ---------------------------------------------------------------------------
# Wait and NEQ
# ---------------------------------------------------------------------------

def wait_set(p: ProcNode) -> FrozenSet[str]:
    """Endpoints on which the process is waiting to receive."""
    if isinstance(p, ReceiveAfter):
        return frozenset({p.endpoint})
    return _union_active(p, wait_set)


def neq_set(p: ProcNode) -> FrozenSet[str]:
    """Endpoints whose inbound queue is non-empty."""
    if isinstance(p, Buffer):
        return frozenset({p.dst}) if p.items else frozenset()
    return _union_active(p, neq_set)


def _union_active(p: ProcNode, f: Callable[[ProcNode], FrozenSet[str]]
                  ) -> FrozenSet[str]:
    """The union of f over the active children of p, without the endpoints
    that p binds."""
    out: FrozenSet[str] = frozenset()
    for child in children(p, active=True):
        out |= f(child)
    if isinstance(p, Scope):
        out -= {p.left, p.right}
    return out


# ---------------------------------------------------------------------------
# Time passing
# ---------------------------------------------------------------------------

class PhiUndefined(Exception):
    """Time cannot pass over the named subterm."""

    def __init__(self, reason: str, subterm: ProcNode):
        self.reason = reason
        self.subterm = subterm
        super().__init__(reason)


def _resolve_after(p: ReceiveAfter, rho: Mapping[str, Fraction],
                   elapsed: Fraction) -> ReceiveAfter:
    """Freeze a symbolic timeout to its numeric value at activation time."""
    if not isinstance(p.after, LinearExpr):
        return p
    if elapsed:
        rho = {name: value + elapsed for name, value in rho.items()}
    return ReceiveAfter(p.endpoint, p.branches, eval_timeout(p.after, rho),
                        p.timeout)


def phi(t: Fraction, p: ProcNode, rho: Optional[Mapping[str, Fraction]] = None,
        elapsed: Fraction = Fraction(0)) -> ProcNode:
    """The time-passing function: p after t units, or PhiUndefined.

    rho is consulted only to resolve symbolic timeouts that become active
    while time is passing; elapsed tracks how far into the step that
    activation happens.
    """
    if t <= 0:
        raise ValueError("phi needs a positive duration")
    rho = rho or {}
    if isinstance(p, (PEnd, PErr, Buffer)):
        return p
    if type(p) in _ACTIVE_KINDS:
        if isinstance(p, Par):
            neqs = [neq_set(b) for b in p.parts]
            for i, a in enumerate(p.parts):
                waits = wait_set(a)
                for j, neq in enumerate(neqs):
                    if i != j and waits & neq:
                        raise PhiUndefined(
                            f"endpoint {sorted(waits & neq)[0]!r} "
                            "is waiting on a non-empty queue", p)
        return map_children(p, lambda child: phi(t, child, rho, elapsed),
                            active=True)
    if isinstance(p, ReceiveAfter):
        p = _resolve_after(p, rho, elapsed)
        if p.after is None:
            return p
        assert isinstance(p.after, Fraction)
        if p.after >= t:
            return replace(p, after=p.after - t)
        assert p.timeout is not None
        return phi(t - p.after, p.timeout, rho, elapsed + p.after)
    if isinstance(p, DelayExact):
        if p.duration >= t:
            return DelayExact(p.duration - t, p.cont)
        return phi(t - p.duration, p.cont, rho, elapsed + p.duration)
    raise PhiUndefined(f"time cannot pass over {type(p).__name__}", p)


def time_step(rho: TimerEnv, p: ProcNode, t: Fraction) -> Tuple[TimerEnv, ProcNode]:
    """Advance every timer by t and distribute t over the composition.

    p must be normal, as ``runtime_normalize`` leaves it.  phi rebuilds
    only active nodes, and every inactive subterm of its result is a
    subterm of p, so only the active nodes of the result are renormalised.
    """
    t = Fraction(t)
    new_p = phi(t, p, rho)
    new_rho = {name: value + t for name, value in rho.items()}
    return new_rho, _normalize(new_p, reorder=False, active=True)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(p: ProcNode, names: Mapping[str, str],
               values: Mapping[str, Value]) -> ProcNode:
    """p with each free endpoint and timer n renamed to names[n] and each
    free value binder v replaced by values[v], all at once (a value that
    is a name is renamed too).  Each binder hides its names below it: a
    ``Def`` its parameters in its body, a ``Scope`` its endpoints, a
    receive branch its binder as a value, and ``delay(c)`` its variable in
    c.  Returns p itself when both maps are empty."""
    def hide(m: Mapping[str, object], bound) -> Mapping[str, object]:
        return {k: v for k, v in m.items() if k not in bound} if m else m

    def walk(node: ProcNode, names: Mapping[str, str],
             vals: Mapping[str, Value]) -> ProcNode:
        if not (names or vals):
            return node
        kind = type(node)
        if kind is Def:
            bound = {*node.val_params, *node.timer_params, *node.chan_params}
            maps = iter(((hide(names, bound), hide(vals, bound)),
                         (names, vals)))
        elif kind is Scope:
            bound = {node.left, node.right}
            maps = repeat((hide(names, bound), hide(vals, bound)))
        elif kind is ReceiveAfter:
            maps = iter([(names, hide(vals, {b.binder}))
                         for b in node.branches] + [(names, vals)])
        else:
            maps = repeat((names, vals))
        node = map_children(node, lambda child: walk(child, *next(maps)))

        def name(n: str) -> str:
            return names.get(n, n)

        def value(v: Value) -> Value:
            return vals.get(v.id, v) if isinstance(v, Name) else v

        if kind is SetTimer:
            return SetTimer(name(node.timer), node.cont)
        if kind is Send:
            return Send(name(node.endpoint), node.label, value(node.value),
                        node.cont)
        if kind is ReceiveAfter:
            after = node.after
            if isinstance(after, LinearExpr):
                after = LinearExpr(after.const,
                                   tuple((name(n), c) for n, c in after.coeffs))
            return ReceiveAfter(name(node.endpoint), node.branches, after,
                                node.timeout)
        if kind is IfTimer:
            return IfTimer(map_clocks(node.cond, names), node.then_branch,
                           node.else_branch)
        if kind is DelayConstraint:
            return DelayConstraint(
                node.var, map_clocks(node.cond, hide(names, {node.var})),
                node.cont)
        if kind is Call:
            return Call(node.name, tuple(map(value, node.val_args)),
                        tuple(map(name, node.timer_args)),
                        tuple(map(name, node.chan_args)))
        if kind is Buffer and node.items:
            return Buffer(node.src, node.dst, tuple(
                (label, value(item)) for label, item in node.items))
        return node

    return walk(p, names, {**{k: Name(v) for k, v in names.items()}, **values})


def instantiate_call(defn: Def, call: Call) -> ProcNode:
    """The body of a definition with the call's arguments bound."""
    if (len(call.val_args) != len(defn.val_params)
            or len(call.timer_args) != len(defn.timer_params)
            or len(call.chan_args) != len(defn.chan_params)):
        raise SpecError(f"arity mismatch calling {defn.name!r}")
    if not (defn.val_params or defn.timer_params or defn.chan_params):
        return defn.body
    names = dict(zip(defn.timer_params + defn.chan_params,
                     call.timer_args + call.chan_args))
    return substitute(defn.body, names,
                      dict(zip(defn.val_params, call.val_args)))


# ---------------------------------------------------------------------------
# Instantaneous reduction
# ---------------------------------------------------------------------------

# A path addresses a subterm: each step is an index into the children of
# the node it leaves.  Redexes are found through active children only, so
# the paths of redexes and buffers step through Par and Scope nodes.
Path = Tuple[int, ...]


def _replace_normal(term: ProcNode, news: Mapping[Path, ProcNode]
                    ) -> ProcNode:
    """The normal form of term with news[path] put at each path, where term
    is normal, each new subterm is normal below its head, and no path is a
    prefix of another.

    Every other subterm is already normal, so only the new heads and the
    nodes on the paths are renormalised, bottom-up, as ``_normalize`` would.
    """
    def put(node: ProcNode, below: List[Tuple[Path, ProcNode]],
            depth: int) -> ProcNode:
        if len(below[0][0]) == depth:  # then it is the only one
            return _normal_node(below[0][1])
        by_child: Dict[int, List[Tuple[Path, ProcNode]]] = {}
        for item in below:
            by_child.setdefault(item[0][depth], []).append(item)
        kids = list(children(node))
        for i, items in by_child.items():
            kids[i] = put(kids[i], items, depth + 1)
        return _normal_node(_SHAPES[type(node)].rebuild(node, kids))

    return put(term, list(news.items()), 0) if news else term


class Redex(NamedTuple):
    kind: str      # set | if | send | recv | det | def | call | err | stuck
    detail: str
    path: Path
    node: ProcNode  # the subterm at path
    # The buffer a send appends to or a receive reads, and its path.
    buffer_path: Optional[Path] = None
    buffer: Optional[Buffer] = None


def _path_str(term: ProcNode, path: Path) -> str:
    """The path as messages print it: ``par<i>`` and ``scope`` steps."""
    steps = []
    for i in path:
        steps.append(f"par{i}" if type(term) is Par else "scope")
        term = children(term)[i]
    return "/".join(steps) or "top"


# The buffers a subterm sees, by (source, destination) endpoints, each with
# its path.
Buffers = Dict[Tuple[str, str], Tuple[Path, Buffer]]

# An active leaf: a subterm reached through Par and Scope nodes only, with
# its path and the buffers it sees.
Site = Tuple[Path, ProcNode, Buffers]


def _sites(root: ProcNode) -> Tuple[List[Site], int]:
    """The active leaves of root other than buffers, in leftmost order, and
    the number of active buffers that are not empty.

    Buffer lookups respect scoping: a leaf sees the buffers that are
    parallel siblings within its enclosing session scope.  Leaves of one
    composition share one buffers dict.
    """
    out: List[Site] = []
    full = 0

    def walk(node: ProcNode, path: Path, buffers: Buffers) -> None:
        nonlocal full
        if isinstance(node, Par):
            local = dict(buffers)
            for i, part in enumerate(node.parts):
                if isinstance(part, Buffer):
                    local[(part.src, part.dst)] = (path + (i,), part)
            for i, part in enumerate(node.parts):
                walk(part, path + (i,), local)
        elif isinstance(node, Scope):
            visible = {chan: p for chan, p in buffers.items()
                       if node.left not in chan and node.right not in chan}
            walk(node.body, path + (0,), visible)
        elif isinstance(node, Buffer):
            full += bool(node.items)
        else:
            out.append((path, node, buffers))

    walk(root, (), {})
    return out, full


def _classify(path: Path, node: ProcNode, buffers: Buffers) -> Optional[Redex]:
    """The redex at one site, or None if the leaf cannot act now."""
    if isinstance(node, Def):
        return Redex("def", node.name, path, node)
    if isinstance(node, SetTimer):
        return Redex("set", node.timer, path, node)
    if isinstance(node, Send):
        for chan, (buf_path, buf) in buffers.items():
            if chan[0] == node.endpoint:
                return Redex("send", f"{node.endpoint}!{node.label}",
                             path, node, buf_path, buf)
        return None
    if isinstance(node, ReceiveAfter):
        for chan, (buf_path, buf) in buffers.items():
            if chan[1] != node.endpoint:
                continue
            if not buf.items:
                continue
            label = buf.items[0][0]
            if any(b.label == label for b in node.branches):
                return Redex("recv", f"{node.endpoint}?{label}",
                             path, node, buf_path, buf)
            return Redex(
                "stuck", f"unspecified reception: {label!r} at {node.endpoint}",
                path, node, buf_path, buf)
        if node.after == 0:
            return Redex("recv", f"{node.endpoint} after-timeout", path, node)
        return None
    if isinstance(node, IfTimer):
        return Redex("if", node.cond_text, path, node)
    if isinstance(node, DelayConstraint):
        return Redex("det", node.cond_text, path, node)
    if isinstance(node, Call):
        return Redex("call", node.name, path, node)
    if isinstance(node, PErr):
        return Redex("err", "error process reached", path, node)
    return None


def _collect_redexes(root: ProcNode) -> List[Redex]:
    """Enumerate instantaneous redexes in deterministic leftmost order."""
    return [redex for redex in (_classify(*site) for site in _sites(root)[0])
            if redex is not None]


class _DelayPicker:
    """Resolves delay(constraint) durations: boundary samples of the
    constraint plus one seeded interior point, or an explicit schedule."""

    def __init__(self, seed: int, schedule: Optional[Sequence[Fraction]]):
        self.rng = random.Random(seed)
        self.schedule = [Fraction(x) for x in schedule] if schedule is not None else None
        self.position = 0

    def pick(self, node: DelayConstraint) -> Fraction:
        var, cond = node.var, node.cond
        if self.schedule is not None:
            if self.position >= len(self.schedule):
                raise SpecError("delay-resolution schedule exhausted")
            t = self.schedule[self.position]
            self.position += 1
            if t < 0:
                raise SpecError(f"scheduled delay {t} is negative")
            if not eval_constraint({var: t}, cond):
                raise SpecError(
                    f"scheduled delay {t} does not satisfy {cond}")
            return t
        pool = node.candidates
        if not pool:
            raise SpecError(f"unsatisfiable delay constraint {cond}")
        if len(pool) > 1:
            interior = node.interiors[self.rng.randrange(len(pool) - 1)]
            if interior is not None:
                pool = pool + (interior,)
        return self.rng.choice(pool)


def _apply_redex(root: ProcNode, redex: Redex, rho: TimerEnv,
                 registry: Dict[str, Def],
                 picker: Optional[_DelayPicker]) -> Tuple[TimerEnv, ProcNode]:
    """One instant step from the normal term root: the timers after it and
    the normal form of the term it leads to."""
    rho, new, buf, _ = _reduce(redex, rho, registry, picker)
    news = {redex.path: new}
    if buf is not None:
        news[redex.buffer_path] = buf
    return rho, _replace_normal(root, news)


def _reduce(redex: Redex, rho: TimerEnv, registry: Dict[str, Def],
            picker: Optional[_DelayPicker]
            ) -> Tuple[TimerEnv, ProcNode, Optional[Buffer], str]:
    """The timers after the step, the subterm that replaces the redex at
    redex.path, the buffer that replaces the one at redex.buffer_path (None
    if the step rewrites none), and the step as the trace prints it.

    The redex's node and buffer are read as found.  A call reads its
    definition from registry only: an unfired ``Def`` is a redex, so its
    step puts it there before any call in its continuation.  Every new
    subterm is a subterm of the term the redex was found in, or a
    ``substitute`` of one, so it is normal below its head when that is.
    """
    node, buf = redex.node, redex.buffer
    if redex.kind == "def":
        assert isinstance(node, Def)
        registry[node.name] = node
        return rho, node.cont, None, f"def {redex.detail}"
    if redex.kind == "set":
        assert isinstance(node, SetTimer)
        new_rho = dict(rho)
        new_rho[node.timer] = _ZERO
        return new_rho, node.cont, None, f"set {redex.detail}"
    if redex.kind == "if":
        assert isinstance(node, IfTimer)
        if eval_constraint(rho, node.cond):
            return rho, node.then_branch, None, f"if ({redex.detail}) -> then"
        return rho, node.else_branch, None, f"if ({redex.detail}) -> else"
    if redex.kind == "send":
        assert isinstance(node, Send) and isinstance(buf, Buffer)
        new_buf = Buffer(buf.src, buf.dst, buf.items + ((node.label, node.value),))
        return rho, node.cont, new_buf, f"send {redex.detail}"
    if redex.kind == "recv":
        assert isinstance(node, ReceiveAfter)
        if buf is None:  # timeout expiry (after 0, empty queue)
            assert node.timeout is not None
            return rho, node.timeout, None, f"recv {redex.detail}"
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
        t = picker.pick(node)
        return (rho, DelayExact(t, node.cont), None,
                f"det delay({format_rational(t)}) for {redex.detail}")
    if redex.kind == "call":
        assert isinstance(node, Call)
        defn = registry.get(node.name)
        if defn is None:
            raise SpecError(f"call to undefined process {node.name!r}")
        return rho, instantiate_call(defn, node), None, f"call {redex.detail}"
    raise SpecError(f"redex kind {redex.kind!r} is not reducible")


def resolve_active(root: ProcNode, rho: TimerEnv) -> ProcNode:
    """Freeze the timeout expression of every active receive to a number."""

    def walk(node: ProcNode) -> ProcNode:
        if isinstance(node, ReceiveAfter) and isinstance(node.after, LinearExpr):
            return _resolve_after(node, rho, _ZERO)
        return map_children(node, walk, active=True)

    return walk(root)


def instant_step(rho: TimerEnv, p: ProcNode) -> List[Tuple[TimerEnv, ProcNode]]:
    """All one-step instantaneous reductions of p (deterministic order).

    A delay(constraint) contributes one successor per candidate duration.
    A ``def`` step drops its definition and no registry outlives one call,
    so a later call of the process it defined raises ``SpecError`` (step
    two of ``Main`` in ``fixtures/mixed_pingpong.toast``); ``run`` keeps a
    registry and steps on.
    """
    p = resolve_active(runtime_normalize(p), rho)
    results: List[Tuple[TimerEnv, ProcNode]] = []
    for redex in _collect_redexes(p):
        if redex.kind in ("stuck", "err"):
            continue
        if redex.kind == "det":
            node = redex.node
            for t in node.candidates:
                results.append((rho, _replace_normal(
                    p, {redex.path: DelayExact(t, node.cont)})))
            continue
        results.append(_apply_redex(p, redex, rho, {}, None))
    return results


# ---------------------------------------------------------------------------
# The deterministic scheduler
# ---------------------------------------------------------------------------

class RunStatus:
    COMPLETED = "completed"
    ERROR = "error"
    STUCK = "stuck"
    FUEL_EXHAUSTED = "fuel-exhausted"


@dataclass
class RunPolicy:
    seed: int = 0
    fuel: int = 10000
    # None: seeded sampling; otherwise the exact durations to use, in order.
    delay_resolution: Optional[Sequence[Fraction]] = None


@dataclass
class RunResult:
    status: str
    detail: str
    trace: List[str]
    elapsed: Fraction
    final: ProcNode
    timers: TimerEnv


def is_completed(p: ProcNode) -> bool:
    """All components terminated and every buffer drained."""
    if isinstance(p, PEnd):
        return True
    if isinstance(p, Buffer):
        return not p.items
    return (type(p) in _ACTIVE_KINDS
            and all(map(is_completed, children(p, active=True))))


def _deadline(node: ProcNode) -> Optional[Fraction]:
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


def _time_candidates(root: ProcNode) -> List[Fraction]:
    """Durations after which something changes: pending exact delays and
    finite active timeouts."""
    return [t for t in map(_deadline, subterms(root, active=True))
            if t is not None]


def run(program: ProcNode, policy: Optional[RunPolicy] = None) -> RunResult:
    """Drive a process to completion, error, stuckness, or fuel exhaustion.

    Instant steps are exhausted in leftmost order before the unique enabled
    time step fires; delay(constraint) durations are resolved by the policy.

    The term's sites (``_sites``) and their redexes are kept from step to
    step.  An instant step rewrites one redex and at most one buffer: it
    replaces its own site and puts the buffer it rewrote into every site
    that sees it.  A time step takes its duration from the sites' deadlines
    and applies ``phi`` to each site's leaf, renormalising the active nodes
    of the result.  Every new leaf is kept by path as a pending replacement
    and reclassified, and only a fresh receive whose timeout is still an
    expression, or a fresh composition, has its timeouts resolved.  The
    whole term is rebuilt from the pending replacements (``_replace_normal``)
    only when it is read: before a walk, for the completion check, for the
    position of an ``err`` or ``stuck``, and for the result.  A new
    composition, session scope or buffer moves paths or changes what sites
    see, so after a step that puts one the term is rebuilt, renormalising
    the nodes above it, and walked again.

    The Par premise of ``phi`` (no waiting endpoint has a non-empty inbound
    queue) can fail only while some active buffer is non-empty, and the
    walk counts those buffers.  In that state the time step is taken by
    ``time_step`` on the whole term, which checks the premise, and the term
    is walked again.  A call finds its definition in the registry that the
    ``def`` steps fill.
    """
    policy = policy or RunPolicy()
    picker = _DelayPicker(policy.seed, policy.delay_resolution)
    registry: Dict[str, Def] = {}
    trace: List[str] = []
    elapsed = Fraction(0)
    rho: TimerEnv = {}
    # The term as last rebuilt, and the replacements made in it since, by
    # path: the leaves and buffers of steps.
    term = runtime_normalize(program)
    pending: Dict[Path, ProcNode] = {}
    # The subterms the last step put in, each with its path and the index
    # of the site it replaces.  Their receives are resolved at the top of
    # the next iteration, so a run that stops first returns them as
    # expressions.  If walk is set, the term is walked again instead of
    # those sites being replaced.
    fresh: List[Tuple[int, Path, ProcNode]] = [(0, (), term)]
    walk = True
    # The sites of the term and their redexes, index for index, and the
    # number of active buffers that are not empty.
    sites: List[Site] = []
    redexes: List[Optional[Redex]] = []
    full = 0
    steps = 0

    def whole() -> ProcNode:
        """The term with the pending replacements put in."""
        nonlocal term
        if pending:
            term = _replace_normal(term, pending)
            pending.clear()
        return term

    def result(status: str, detail: str) -> RunResult:
        return RunResult(status, detail, trace, elapsed, whole(), rho)

    while steps < policy.fuel:
        resolved = []
        try:
            for at, path, node in fresh:
                kind = type(node)
                if kind is ReceiveAfter:
                    node = _resolve_after(node, rho, _ZERO)
                elif kind in _ACTIVE_KINDS:
                    node = resolve_active(node, rho)
                resolved.append((at, path, node))
        except SpecError as exc:
            return result(RunStatus.ERROR, str(exc))
        for at, path, node in resolved:
            pending[path] = node
            if not walk:
                buffers = sites[at][2]
                sites[at] = (path, node, buffers)
                redexes[at] = _classify(path, node, buffers)
        if walk:
            sites, full = _sites(whole())
            redexes = [_classify(*site) for site in sites]
        first = None
        for index, redex in enumerate(redexes):
            if redex is None:
                continue
            if redex.kind == "err":
                return result(RunStatus.ERROR,
                              f"err at {_path_str(whole(), redex.path)}")
            if redex.kind == "stuck":
                where = _path_str(whole(), redex.path)
                return result(RunStatus.STUCK, f"{redex.detail} at {where}")
            if first is None:
                first = index
        if first is not None:
            redex = redexes[first]
            steps += 1
            try:
                rho, new, buf, text = _reduce(redex, rho, registry, picker)
            except SpecError as exc:
                return result(RunStatus.ERROR, str(exc))
            trace.append(f"{steps} {text}")
            new = _normal_node(new)
            pending[redex.path] = new
            fresh = [(first, redex.path, new)]
            walk = isinstance(new, (Par, Scope, Buffer))
            if buf is None:
                continue
            pending[redex.buffer_path] = buf
            full += bool(buf.items) - bool(redex.buffer.items)
            if not walk:
                # Before the new leaf is classified, or a second send would
                # append to the old buffer.
                chan = (buf.src, buf.dst)
                for index, (site_path, node, buffers) in enumerate(sites):
                    seen = buffers.get(chan)
                    if seen is not None and seen[0] == redex.buffer_path:
                        buffers[chan] = (redex.buffer_path, buf)
                        redexes[index] = _classify(site_path, node, buffers)
            continue
        if (all(type(site[1]) is PEnd for site in sites)
                and is_completed(whole())):
            return result(RunStatus.COMPLETED, "all components terminated")
        candidates = [t for t in (_deadline(site[1]) for site in sites)
                      if t is not None]
        if not candidates:
            return result(RunStatus.STUCK, "no action and no finite deadline")
        t = min(candidates)
        steps += 1
        try:
            if full:
                rho, term = time_step(rho, whole(), t)
                fresh, walk = [(0, (), term)], True
            else:
                news = [phi(t, node, rho) for _, node, _ in sites]
                rho = {name: value + t for name, value in rho.items()}
                fresh, walk = [], False
                for at, (new, (path, node, _)) in enumerate(zip(news, sites)):
                    if new is node:
                        continue
                    new = _normalize(new, reorder=False, active=True)
                    pending[path] = new
                    fresh.append((at, path, new))
                    walk = walk or isinstance(new, (Par, Scope, Buffer))
        except PhiUndefined as exc:
            return result(RunStatus.STUCK, f"time blocked: {exc.reason}")
        elapsed += t
        trace.append(f"{steps} delay({format_rational(t)})")
    return result(RunStatus.FUEL_EXHAUSTED, "fuel exhausted")
