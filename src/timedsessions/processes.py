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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from operator import is_
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from .constraints import Constraint, boundary_delays, eval_constraint
from .errors import SpecError
from .rational import format_rational

TimerEnv = Dict[str, Fraction]


# ---------------------------------------------------------------------------
# Timeout expressions
# ---------------------------------------------------------------------------

class _Infinity:
    def __repr__(self) -> str:
        return "inf"


INFTY = _Infinity()


@dataclass(frozen=True)
class LinearExpr:
    """Linear expression over timers with nonnegative integer constants or inf."""

    const: Fraction = Fraction(0)
    coeffs: Tuple[Tuple[str, int], ...] = ()
    infinite: bool = False

    def timers(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.coeffs)

    def __str__(self) -> str:
        if self.infinite:
            return "inf"
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


def eval_timeout(expr: LinearExpr, rho: Mapping[str, Fraction]):
    """Evaluate against the timers; negative results clamp to 0, inf absorbs."""
    if expr.infinite:
        return INFTY
    total = Fraction(expr.const)
    for name, coef in expr.coeffs:
        if name not in rho:
            raise SpecError(f"unknown timer {name!r} in timeout expression")
        total += coef * rho[name]
    return total if total > 0 else Fraction(0)


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


@dataclass(frozen=True)
class DelayConstraint:
    var: str
    cond: Constraint
    cont: "ProcNode"


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
    if shape is None:
        return p
    kids = shape.children(p)
    if not active:
        new = tuple(map(f, kids))
    elif shape.active is None:
        return p
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
        if p.after is not None or p.timeout is not None:
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


def _normalize(p: ProcNode, reorder: bool) -> ProcNode:
    def walk(node: ProcNode) -> ProcNode:
        node = map_children(node, walk)
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

    return walk(p)


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
    shifted = {name: value + elapsed for name, value in rho.items()}
    value = eval_timeout(p.after, shifted)
    if value is INFTY:
        return replace(p, after=None)
    return replace(p, after=value)


def phi(t: Fraction, p: ProcNode, rho: Optional[Mapping[str, Fraction]] = None,
        elapsed: Fraction = Fraction(0)) -> ProcNode:
    """The time-passing function: p after t units, or PhiUndefined.

    rho is consulted only to resolve symbolic timeouts that become active
    while time is passing; elapsed tracks how far into the step that
    activation happens.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("phi needs a positive duration")
    rho = rho or {}
    if isinstance(p, (PEnd, PErr, Buffer)):
        return p
    if type(p) in _ACTIVE_KINDS:
        if isinstance(p, Par):
            for i, a in enumerate(p.parts):
                for j, b in enumerate(p.parts):
                    if i != j and wait_set(a) & neq_set(b):
                        raise PhiUndefined(
                            f"endpoint {sorted(wait_set(a) & neq_set(b))[0]!r} "
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
    """Advance every timer by t and distribute t over the composition."""
    t = Fraction(t)
    new_p = phi(t, p, rho)
    new_rho = {name: value + t for name, value in rho.items()}
    return new_rho, runtime_normalize(new_p)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst_value(p: ProcNode, binder: str, value: Value) -> ProcNode:
    """Replace references to a receive binder with the received value."""
    target = Name(binder)

    def walk(node: ProcNode) -> ProcNode:
        if isinstance(node, Call):
            args = tuple(value if v == target else v for v in node.val_args)
            return Call(node.name, args, node.timer_args, node.chan_args)
        if isinstance(node, Send) and node.value == target:
            node = Send(node.endpoint, node.label, value, node.cont)
        # A definition's value parameter or a branch's binder of the same
        # name shadows the binder in that child.
        if isinstance(node, Def):
            shadowed = iter((binder in node.val_params, False))
        elif isinstance(node, ReceiveAfter):
            shadowed = iter([b.binder == binder for b in node.branches] + [False])
        else:
            return map_children(node, walk)
        return map_children(
            node, lambda child: child if next(shadowed) else walk(child))

    return walk(p)


def rename_names(p: ProcNode, mapping: Mapping[str, str]) -> ProcNode:
    """Rename endpoints and timers (used when a call instantiates a body)."""
    from .constraints import map_clocks

    def walk(node: ProcNode, m: Mapping[str, str]) -> ProcNode:
        if not m:
            return node
        # A definition's timer and channel parameters and a session's
        # endpoints are bound in its body.
        if isinstance(node, Def):
            bound = set(node.timer_params) | set(node.chan_params)
            maps = iter(({k: v for k, v in m.items() if k not in bound}, m))
        elif isinstance(node, Scope):
            maps = iter(({k: v for k, v in m.items()
                          if k not in (node.left, node.right)},))
        else:
            maps = repeat(m)
        node = map_children(node, lambda child: walk(child, next(maps)))
        return rename_fields(node, m)

    def rename_fields(node: ProcNode, m: Mapping[str, str]) -> ProcNode:
        def ren(name: str) -> str:
            return m.get(name, name)

        def ren_value(v: Value) -> Value:
            return Name(m[v.id]) if isinstance(v, Name) and v.id in m else v

        if isinstance(node, SetTimer):
            return SetTimer(ren(node.timer), node.cont)
        if isinstance(node, Send):
            return Send(ren(node.endpoint), node.label, ren_value(node.value),
                        node.cont)
        if isinstance(node, ReceiveAfter):
            after = node.after
            if isinstance(after, LinearExpr):
                after = LinearExpr(after.const,
                                   tuple((ren(n), c) for n, c in after.coeffs),
                                   after.infinite)
            return ReceiveAfter(ren(node.endpoint), node.branches, after,
                                node.timeout)
        if isinstance(node, IfTimer):
            return IfTimer(map_clocks(node.cond, m), node.then_branch,
                           node.else_branch)
        if isinstance(node, DelayConstraint):
            inner = {k: v for k, v in m.items() if k != node.var}
            return DelayConstraint(node.var, map_clocks(node.cond, inner),
                                   node.cont)
        if isinstance(node, Call):
            return Call(node.name, tuple(map(ren_value, node.val_args)),
                        tuple(map(ren, node.timer_args)),
                        tuple(map(ren, node.chan_args)))
        if isinstance(node, Buffer):
            return Buffer(ren(node.src), ren(node.dst), node.items)
        return node

    return walk(p, dict(mapping))


def instantiate_call(defn: Def, call: Call) -> ProcNode:
    """The body of a definition with the call's arguments bound."""
    if (len(call.val_args) != len(defn.val_params)
            or len(call.timer_args) != len(defn.timer_params)
            or len(call.chan_args) != len(defn.chan_params)):
        raise SpecError(f"arity mismatch calling {defn.name!r}")
    body = defn.body
    renames = {}
    renames.update(dict(zip(defn.timer_params, call.timer_args)))
    renames.update(dict(zip(defn.chan_params, call.chan_args)))
    body = rename_names(body, renames)
    for param, arg in zip(defn.val_params, call.val_args):
        body = subst_value(body, param, arg)
    return body


# ---------------------------------------------------------------------------
# Program validation (session shape, timer disjointness, call scoping)
# ---------------------------------------------------------------------------

def set_timers_of(p: ProcNode) -> FrozenSet[str]:
    return frozenset(node.timer for node in subterms(p)
                     if isinstance(node, SetTimer))


def validate_process(p: ProcNode) -> None:
    """Syntactic checks: session shape, pairwise-disjoint timers, call scoping.

    Raises SpecError on the first problem found.
    """

    def walk(node: ProcNode, defs_in_scope) -> None:
        kids = children(node)
        if isinstance(node, Scope):
            body = node.body
            parts = body.parts if isinstance(body, Par) else (body,)
            buffers = [x for x in parts if isinstance(x, Buffer)]
            others = [x for x in parts if not isinstance(x, Buffer)]
            channels = {(b.src, b.dst) for b in buffers}
            expected = {(node.left, node.right), (node.right, node.left)}
            if len(parts) != 4 or len(others) != 2 or channels != expected:
                raise SpecError(
                    f"malformed session shape under new ({node.left},{node.right}): "
                    "expected two processes and the two directed buffers")
            shared = set_timers_of(others[0]) & set_timers_of(others[1])
            if shared:
                raise SpecError(
                    f"timer(s) {sorted(shared)} set by more than one "
                    "parallel component")
            kids = others
        elif isinstance(node, Par):
            timer_sets = [set_timers_of(part) for part in node.parts]
            for i in range(len(timer_sets)):
                for j in range(i + 1, len(timer_sets)):
                    shared = timer_sets[i] & timer_sets[j]
                    if shared:
                        raise SpecError(
                            f"timer(s) {sorted(shared)} set by more than one "
                            "parallel component")
        elif isinstance(node, Def):
            defs_in_scope = defs_in_scope | {node.name}
        elif isinstance(node, Call):
            if node.name not in defs_in_scope:
                raise SpecError(f"call to undefined process {node.name!r}")
        for child in kids:
            walk(child, defs_in_scope)

    walk(p, frozenset())


# ---------------------------------------------------------------------------
# Instantaneous reduction
# ---------------------------------------------------------------------------

# A path addresses a subterm through active children: each step is
# ("par", index), ("scope",) or ("def",) for a definition's continuation.
Path = Tuple[Tuple, ...]


def _active_slot(term: ProcNode, step: Tuple) -> int:
    """The index among the children of term that a path step addresses."""
    return _SHAPES[type(term)].active + (step[1] if len(step) > 1 else 0)


def _get(term: ProcNode, path: Path) -> ProcNode:
    for step in path:
        term = children(term)[_active_slot(term, step)]
    return term


def _replace(term: ProcNode, path: Path, new: ProcNode) -> ProcNode:
    if not path:
        return new
    kids = list(children(term))
    i = _active_slot(term, path[0])
    kids[i] = _replace(kids[i], path[1:], new)
    return _SHAPES[type(term)].rebuild(term, kids)


@dataclass(frozen=True)
class Redex:
    kind: str      # set | if | send | recv | det | def | call | err | stuck
    detail: str
    path: Path
    buffer_path: Optional[Path] = None


def _collect_redexes(root: ProcNode) -> List[Redex]:
    """Enumerate instantaneous redexes in deterministic leftmost order.

    Buffer lookups respect scoping: a send or receive sees the buffers that
    are parallel siblings within its enclosing session scope.
    """
    out: List[Redex] = []

    def walk(node: ProcNode, path: Path,
             buffers: Dict[Tuple[str, str], Path]) -> None:
        if isinstance(node, Par):
            local = dict(buffers)
            for i, part in enumerate(node.parts):
                if isinstance(part, Buffer):
                    local[(part.src, part.dst)] = path + (("par", i),)
            for i, part in enumerate(node.parts):
                walk(part, path + (("par", i),), local)
        elif isinstance(node, Scope):
            visible = {chan: p for chan, p in buffers.items()
                       if node.left not in chan and node.right not in chan}
            walk(node.body, path + (("scope",),), visible)
        elif isinstance(node, Def):
            out.append(Redex("def", node.name, path))
        elif isinstance(node, SetTimer):
            out.append(Redex("set", node.timer, path))
        elif isinstance(node, Send):
            for chan, buf_path in buffers.items():
                if chan[0] == node.endpoint:
                    out.append(Redex("send", f"{node.endpoint}!{node.label}",
                                     path, buf_path))
                    return
        elif isinstance(node, ReceiveAfter):
            for chan, buf_path in buffers.items():
                if chan[1] != node.endpoint:
                    continue
                buf = _get(root, buf_path)
                if not buf.items:
                    continue
                label = buf.items[0][0]
                if any(b.label == label for b in node.branches):
                    out.append(Redex("recv", f"{node.endpoint}?{label}",
                                     path, buf_path))
                else:
                    out.append(Redex(
                        "stuck",
                        f"unspecified reception: {label!r} at {node.endpoint}",
                        path, buf_path))
                return
            if node.after == Fraction(0):
                out.append(Redex("recv", f"{node.endpoint} after-timeout", path))
        elif isinstance(node, IfTimer):
            out.append(Redex("if", str(node.cond), path))
        elif isinstance(node, DelayConstraint):
            out.append(Redex("det", str(node.cond), path))
        elif isinstance(node, Call):
            out.append(Redex("call", node.name, path))
        elif isinstance(node, PErr):
            out.append(Redex("err", "error process reached", path))

    walk(root, (), {})
    return out


class _DelayPicker:
    """Resolves delay(constraint) durations: boundary samples of the
    constraint plus one seeded interior point, or an explicit schedule."""

    def __init__(self, seed: int, schedule: Optional[Sequence[Fraction]]):
        self.rng = random.Random(seed)
        self.schedule = [Fraction(x) for x in schedule] if schedule is not None else None
        self.position = 0

    def pick(self, var: str, cond: Constraint) -> Fraction:
        if self.schedule is not None:
            if self.position >= len(self.schedule):
                raise SpecError("delay-resolution schedule exhausted")
            t = self.schedule[self.position]
            self.position += 1
            if not eval_constraint({var: t}, cond):
                raise SpecError(
                    f"scheduled delay {t} does not satisfy {cond}")
            return t
        pool = det_candidates(var, cond)  # sorted
        if not pool:
            raise SpecError(f"unsatisfiable delay constraint {cond}")
        if len(pool) > 1:
            i = self.rng.randrange(len(pool) - 1)
            interior = (pool[i] + pool[i + 1]) / 2
            if eval_constraint({var: interior}, cond):
                pool = pool + [interior]
        return self.rng.choice(pool)


def _apply_redex(root: ProcNode, redex: Redex, rho: TimerEnv,
                 registry: Dict[str, Def],
                 picker: Optional[_DelayPicker]) -> Tuple[TimerEnv, ProcNode]:
    node = _get(root, redex.path)
    if redex.kind == "def":
        assert isinstance(node, Def)
        registry[node.name] = node
        return rho, _replace(root, redex.path, node.cont)
    if redex.kind == "set":
        assert isinstance(node, SetTimer)
        new_rho = dict(rho)
        new_rho[node.timer] = Fraction(0)
        return new_rho, _replace(root, redex.path, node.cont)
    if redex.kind == "if":
        assert isinstance(node, IfTimer)
        if eval_constraint(rho, node.cond):
            return rho, _replace(root, redex.path, node.then_branch)
        return rho, _replace(root, redex.path, node.else_branch)
    if redex.kind == "send":
        assert isinstance(node, Send) and redex.buffer_path is not None
        buf = _get(root, redex.buffer_path)
        assert isinstance(buf, Buffer)
        new_buf = Buffer(buf.src, buf.dst, buf.items + ((node.label, node.value),))
        root = _replace(root, redex.buffer_path, new_buf)
        return rho, _replace(root, redex.path, node.cont)
    if redex.kind == "recv":
        assert isinstance(node, ReceiveAfter)
        if redex.buffer_path is None:  # timeout expiry (after 0, empty queue)
            assert node.timeout is not None
            return rho, _replace(root, redex.path, node.timeout)
        buf = _get(root, redex.buffer_path)
        assert isinstance(buf, Buffer) and buf.items
        label, value = buf.items[0]
        branch = next(b for b in node.branches if b.label == label)
        cont = branch.cont
        if branch.binder is not None:
            cont = subst_value(cont, branch.binder, value)
        root = _replace(root, redex.buffer_path,
                        Buffer(buf.src, buf.dst, buf.items[1:]))
        return rho, _replace(root, redex.path, cont)
    if redex.kind == "det":
        assert isinstance(node, DelayConstraint)
        if picker is None:
            raise SpecError("delay(constraint) needs a resolution policy")
        t = picker.pick(node.var, node.cond)
        return rho, _replace(root, redex.path, DelayExact(t, node.cont))
    if redex.kind == "call":
        assert isinstance(node, Call)
        defn = registry.get(node.name) or _scan_defs(root, node.name)
        if defn is None:
            raise SpecError(f"call to undefined process {node.name!r}")
        body = instantiate_call(defn, node)
        return rho, _replace(root, redex.path, body)
    raise SpecError(f"redex kind {redex.kind!r} is not reducible")


def _scan_defs(term: ProcNode, name: str) -> Optional[Def]:
    """Find a definition by name anywhere in the term (for standalone
    stepping; the scheduler keeps its own registry)."""
    return next((node for node in subterms(term)
                 if isinstance(node, Def) and node.name == name), None)


def resolve_active(root: ProcNode, rho: TimerEnv) -> ProcNode:
    """Freeze the timeout expression of every active receive to a number."""

    def walk(node: ProcNode) -> ProcNode:
        if isinstance(node, ReceiveAfter) and isinstance(node.after, LinearExpr):
            return _resolve_after(node, rho, Fraction(0))
        return map_children(node, walk, active=True)

    return walk(root)


def det_candidates(var: str, cond: Constraint) -> List[Fraction]:
    """Durations a delay(constraint) may resolve to: the satisfying boundary
    samples of the constraint."""
    from .constraints import atoms_of

    horizon = max([abs(a.const) for a in atoms_of(cond)] or [Fraction(0)]) + 2
    return [t for t in boundary_delays({var: Fraction(0)}, [cond], horizon)
            if eval_constraint({var: t}, cond)]


def instant_step(rho: TimerEnv, p: ProcNode) -> List[Tuple[TimerEnv, ProcNode]]:
    """All one-step instantaneous reductions of p (deterministic order).

    A delay(constraint) contributes one successor per candidate duration.
    """
    p = resolve_active(runtime_normalize(p), rho)
    results: List[Tuple[TimerEnv, ProcNode]] = []
    for redex in _collect_redexes(p):
        if redex.kind in ("stuck", "err"):
            continue
        if redex.kind == "det":
            node = _get(p, redex.path)
            for t in det_candidates(node.var, node.cond):
                new_p = _replace(p, redex.path, DelayExact(t, node.cont))
                results.append((rho, runtime_normalize(new_p)))
            continue
        new_rho, new_p = _apply_redex(p, redex, rho, {}, None)
        results.append((new_rho, runtime_normalize(new_p)))
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

    @property
    def completed(self) -> bool:
        return self.status == RunStatus.COMPLETED


def is_completed(p: ProcNode) -> bool:
    """All components terminated and every buffer drained."""
    if isinstance(p, PEnd):
        return True
    if isinstance(p, Buffer):
        return not p.items
    return (type(p) in _ACTIVE_KINDS
            and all(map(is_completed, children(p, active=True))))


def _time_candidates(root: ProcNode) -> List[Fraction]:
    """Durations after which something changes: pending exact delays and
    finite active timeouts."""
    out: List[Fraction] = []
    for node in subterms(root, active=True):
        if isinstance(node, DelayExact):
            if node.duration > 0:
                out.append(node.duration)
        elif isinstance(node, ReceiveAfter):
            if isinstance(node.after, Fraction) and node.after > 0:
                out.append(node.after)
    return out


def run(program: ProcNode, policy: Optional[RunPolicy] = None) -> RunResult:
    """Drive a process to completion, error, stuckness, or fuel exhaustion.

    Instant steps are exhausted in leftmost order before the unique enabled
    time step fires; delay(constraint) durations are resolved by the policy.
    """
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
        redexes = _collect_redexes(term)
        for redex in redexes:
            if redex.kind == "err":
                return result(RunStatus.ERROR,
                              f"err at {_path_str(redex.path)}")
            if redex.kind == "stuck":
                return result(RunStatus.STUCK,
                              f"{redex.detail} at {_path_str(redex.path)}")
        if redexes:
            redex = redexes[0]
            steps += 1
            before = term
            try:
                rho, term = _apply_redex(term, redex, rho, registry, picker)
            except SpecError as exc:
                return result(RunStatus.ERROR, str(exc))
            if redex.kind == "det":
                resolved = _get(term, redex.path)
                trace.append(f"{steps} det delay({format_rational(resolved.duration)})"
                             f" for {redex.detail}")
            elif redex.kind == "if":
                taken = "then" if eval_constraint(rho, _get(before, redex.path).cond) \
                    else "else"
                trace.append(f"{steps} if ({redex.detail}) -> {taken}")
            else:
                trace.append(f"{steps} {redex.kind} {redex.detail}")
            term = runtime_normalize(term)
            continue
        if is_completed(term):
            return result(RunStatus.COMPLETED, "all components terminated")
        candidates = _time_candidates(term)
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
    return result(RunStatus.FUEL_EXHAUSTED, "fuel exhausted")


def _path_str(path: Path) -> str:
    return "/".join(step[0] + (str(step[1]) if len(step) > 1 else "")
                    for step in path) or "top"
