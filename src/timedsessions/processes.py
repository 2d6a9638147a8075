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
found).  Every traversal takes its recursion from ``children`` or
``map_children`` and keeps only its own special cases.  A receive without
a timeout has ``after=None``; there is no infinite timeout value.

The interpreter does not step the term.  Session scopes can move outward,
so a running program is threads, buffers and timers: ``run`` keeps a
layout of compositions and session scopes whose items are buffer cells,
each holding its items and listing the threads that see it, and thread
cells, each with its active leaf, its own definitions, the buffers it
sees by endpoint, its kept redex and the deadline of its leaf.  Each
leaf is compiled once into a step record cached on it, from which its
thread is classified and its step taken (``_take``); a call and a receive
with a binder substitute in one capture-avoiding walk, ``substitute``.
Time in a run is one int clock at a scale fixed before the first step,
which keeps each timer as the instant it was set, and an ``if`` is decided
on its ints by a test compiled once from its condition
(``constraints.int_test``).  ``phi`` stays the specification of time
passing; a time step of ``run`` moves the clock to the earliest deadline
and changes only the leaves whose deadline it is.  The term is built
from the layout only when something reads it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import is_
from typing import (Callable, Dict, FrozenSet, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from .constraints import (Constraint, Struct, atoms_of, boundary_delays,
                          eval_constraint, format_rational, int_test,
                          map_clocks)
from .errors import SpecError

TimerEnv = Dict[str, Fraction]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Timeout expressions
# ---------------------------------------------------------------------------

class LinearExpr(Struct):
    """Linear expression over timers: a constant plus integer coefficients."""

    const: Fraction = Fraction(0)
    coeffs: Tuple[Tuple[str, int], ...] = ()

    def __str__(self) -> str:
        bits: List[str] = []
        # a 0 leads a negative first term: the grammar has no leading minus
        if self.const or not self.coeffs or self.coeffs[0][1] < 0:
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
            raise _unknown_timer(name)
        total += coef * rho[name]
    return total if total > 0 else _ZERO


def _unknown_timer(name: str) -> SpecError:
    return SpecError(f"unknown timer {name!r} in timeout expression")


# ---------------------------------------------------------------------------
# Values and process AST
# ---------------------------------------------------------------------------

class Name(Struct):
    """A reference to a binder, an endpoint, or a delegated channel."""

    id: str

    def __str__(self) -> str:
        return self.id


UNIT = ()
Value = Union[int, bool, str, Tuple[()], Name]


class _Node(Struct):
    """The base of the process nodes, which caches what ``run`` needs."""

    @cached_property
    def run_prologue(self) -> Tuple["ProcNode", int]:
        """This node as a program: its normal form and its grid."""
        normal = runtime_normalize(self)
        return normal, _run_scale(normal)

    @cached_property
    def step_record(self) -> "_Record":
        """What ``run`` needs to step this node as a thread's leaf."""
        return _compile(self)


class SetTimer(_Node):
    timer: str
    cont: "ProcNode"


class Send(_Node):
    endpoint: str
    label: str
    value: Value
    cont: "ProcNode"


class Branch(Struct):
    label: str
    binder: Optional[str]
    cont: "ProcNode"


class ReceiveAfter(_Node):
    endpoint: str
    branches: Tuple[Branch, ...]
    # None means no timeout (wait forever); a LinearExpr is unresolved; a
    # Fraction is the resolved countdown of an activated receive.
    after: Union[None, LinearExpr, Fraction]
    timeout: Optional["ProcNode"]


class IfTimer(_Node):
    cond: Constraint
    then_branch: "ProcNode"
    else_branch: "ProcNode"


class DelayConstraint(_Node):
    var: str
    cond: Constraint
    cont: "ProcNode"

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
    def durations(self) -> Tuple[Optional[Fraction], ...]:
        """The candidates, then beside each adjacent pair of them their
        midpoint, or None where the midpoint fails the constraint; computed
        once.  A seeded pick is an index into it."""
        pool = self.candidates
        mids = ((a + b) / 2 for a, b in zip(pool, pool[1:]))
        return pool + tuple(m if eval_constraint({self.var: m}, self.cond)
                            else None for m in mids)


class DelayExact(_Node):
    duration: Fraction
    cont: "ProcNode"


class Def(_Node):
    name: str
    val_params: Tuple[str, ...]
    timer_params: Tuple[str, ...]
    chan_params: Tuple[str, ...]
    body: "ProcNode"
    cont: "ProcNode"


class Call(_Node):
    name: str
    val_args: Tuple[Value, ...] = ()
    timer_args: Tuple[str, ...] = ()
    chan_args: Tuple[str, ...] = ()


class PEnd(_Node):
    pass


class PErr(_Node):
    pass


class Scope(_Node):
    left: str
    right: str
    body: "ProcNode"


class Par(_Node):
    parts: Tuple["ProcNode", ...]


class Buffer(_Node):
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

def runtime_normalize(p: ProcNode) -> ProcNode:
    """The normal form of p modulo structural congruence, with the user's
    parallel order kept, so the deterministic scheduler's leftmost policy
    is stable: ``_normal_node`` applied bottom-up to every node, so a
    normal term comes back as it is."""
    def walk(node: ProcNode) -> ProcNode:
        return _normal_node(map_children(node, walk))

    return walk(p)


def _normal_node(node: ProcNode) -> ProcNode:
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
            return ReceiveAfter(p.endpoint, p.branches, p.after - t, p.timeout)
        assert p.timeout is not None
        return phi(t - p.after, p.timeout, rho, elapsed + p.after)
    if isinstance(p, DelayExact):
        if p.duration >= t:
            return DelayExact(p.duration - t, p.cont)
        return phi(t - p.duration, p.cont, rho, elapsed + p.duration)
    raise PhiUndefined(f"time cannot pass over {type(p).__name__}", p)


def time_step(rho: TimerEnv, p: ProcNode, t: Fraction) -> Tuple[TimerEnv, ProcNode]:
    """Advance every timer by t and distribute t over the composition,
    the result in ``runtime_normalize``'s normal form (phi rebuilds only
    active nodes, and the subterms it keeps come back unchanged)."""
    t = Fraction(t)
    new_p = phi(t, p, rho)
    new_rho = {name: value + t for name, value in rho.items()}
    return new_rho, runtime_normalize(new_p)


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

class _DelayPicker:
    """Resolves delay(constraint) durations: boundary samples of the
    constraint plus one seeded interior point, or an explicit schedule."""

    def __init__(self, seed: int, schedule: Optional[Sequence[Fraction]]):
        self.rng = random.Random(seed)
        self.schedule = [Fraction(x) for x in schedule] if schedule is not None else None
        self.position = 0

    def pick(self, node: DelayConstraint) -> Union[int, Fraction]:
        """The next scheduled duration, or else the index in
        ``node.durations`` of a seeded draw: one interior midpoint is drawn,
        then one of the candidates and that midpoint, if it holds."""
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
        count = len(node.candidates)
        if not count:
            raise SpecError(f"unsatisfiable delay constraint {cond}")
        if count > 1:
            interior = count + self.rng.randrange(count - 1)
            if node.durations[interior] is not None:
                pick = self.rng.randrange(count + 1)
                return interior if pick == count else pick
        return self.rng.randrange(count)


class _Record(NamedTuple):
    """What ``run`` needs to step a leaf, free of any run's scale.  The
    continuations of a leaf of a normal term are normal as they stand."""

    kind: Optional[str]  # of its instant step; None if it has none
    # The trace text (of an if, per branch; of a receive, its timeout's)
    # and the continuations (of a receive, its timeout body).
    text: object = None
    conts: tuple = ()
    # A receive's label -> (text, continuation, binder); a delay(c)'s pick,
    # an index into its ``durations`` or (t,) for a scheduled duration t,
    # -> (leaf, text), filled as it picks.
    table: Optional[dict] = None
    # A timeout or exact delay: (numerator, denominator, timer coefficients).
    after: Optional[tuple] = None
    # An if's condition as an int test (``int_test``).
    test: Optional[Callable] = None


def _compile(node: ProcNode) -> _Record:
    """The step record of a leaf."""
    kind = type(node)
    if kind is ReceiveAfter:
        table: dict = {}
        for b in node.branches:  # a label takes its first branch
            table.setdefault(b.label, (f"recv {node.endpoint}?{b.label}",
                                       b.cont, b.binder))
        after, coeffs = node.after, ()
        if isinstance(after, LinearExpr):
            after, coeffs = after.const, after.coeffs
        return _Record("recv", f"recv {node.endpoint} after-timeout",
                       (node.timeout,), table, None if after is None else (
                           after.numerator, after.denominator, coeffs))
    if kind is DelayExact:
        return _Record(None, after=(node.duration.numerator,
                                    node.duration.denominator, ()))
    if kind is IfTimer:
        return _Record("if", (f"if ({node.cond}) -> then",
                              f"if ({node.cond}) -> else"),
                       (node.then_branch, node.else_branch),
                       test=int_test(node.cond))
    if kind is SetTimer:
        return _Record("set", f"set {node.timer}", (node.cont,))
    if kind is Send:
        return _Record("send", f"send {node.endpoint}!{node.label}",
                       (node.cont,))
    if kind is Def:
        return _Record("def", f"def {node.name}", (node.cont,))
    if kind is Call:
        return _Record("call", f"call {node.name}")
    if kind is DelayConstraint:
        return _Record("det", table={})
    return _Record("err" if kind is PErr else None)


def resolve_active(root: ProcNode, rho: Mapping[str, Fraction]) -> ProcNode:
    """Freeze the timeout expression of every active receive to a number."""

    def walk(node: ProcNode) -> ProcNode:
        if isinstance(node, ReceiveAfter) and isinstance(node.after, LinearExpr):
            return _resolve_after(node, rho, _ZERO)
        return map_children(node, walk, active=True)

    return walk(root)


# ---------------------------------------------------------------------------
# The run's time: an int clock and the instants the timers were set
# ---------------------------------------------------------------------------

class _Clock:
    """The time of a run, ``now``, in units of 1/``scale``, fixed before the
    first step (``_run_scale``) so that every instant the run reaches is a
    whole number of units, and its timers, each kept in ``set_at`` as the
    instant it was set, which an ``if``'s int test reads.  ``timers`` gives
    each timer's value now, as ``eval_timeout`` and ``phi`` read timers."""

    __slots__ = ("now", "scale", "set_at")

    def __init__(self, scale: int):
        self.now, self.scale, self.set_at = 0, scale, {}

    def time(self, units: int) -> Fraction:
        return Fraction(units, self.scale)

    def timers(self) -> TimerEnv:
        return {name: self.time(self.now - at)
                for name, at in self.set_at.items()}


def _run_scale(program: ProcNode) -> int:
    """The grid of a program: a common multiple of the denominators of
    every duration it can produce, its exact delays, timeout constants and
    the boundaries of each ``delay(c)``, their midpoints and the midpoints
    of those (``DelayConstraint.durations``), which lie
    on a quarter of the grid of c's constants.  Timers start on the grid
    and timeouts have integer timer coefficients, so with the schedule's
    durations folded in, every instant a run reaches is on it too."""
    scale = 1
    stack = [program]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ReceiveAfter and node.after is not None:
            after = node.after
            if isinstance(after, LinearExpr):
                after = after.const
            scale = lcm(scale, after.denominator)
        elif kind is DelayExact:
            scale = lcm(scale, node.duration.denominator)
        elif kind is DelayConstraint:
            scale = lcm(scale, 4 * lcm(*(atom.const.denominator
                                         for atom in atoms_of(node.cond))))
        stack.extend(children(node))
    return scale


# ---------------------------------------------------------------------------
# The running program: threads, buffers and session scopes
# ---------------------------------------------------------------------------

class _Queue:
    """A buffer cell of a running program: its endpoints and the items it
    holds now; reading the layout sets the threads that see it."""

    __slots__ = ("src", "dst", "items", "readers")

    def __init__(self, buf: Buffer):
        self.src, self.dst, self.items = buf.src, buf.dst, buf.items

    def term(self) -> Buffer:
        return Buffer(self.src, self.dst, self.items)


class _Thread:
    """A thread cell: its active leaf, its own definitions and its run's
    clock; activating its leaf sets the leaf's deadline, reading the
    layout sets the buffers it sees by endpoint, the composition it sits
    in and its position, and classifying its leaf sets its kept redex."""

    __slots__ = ("leaf", "defs", "clock", "deadline", "sends", "recvs",
                 "parent", "position", "redex")

    def __init__(self, leaf: ProcNode, defs: Dict[str, Def], clock: _Clock):
        self.leaf, self.defs, self.clock = leaf, defs, clock
        # The instant the leaf's timeout or exact delay runs out; None
        # while it has none, or has not been activated.
        self.deadline: Optional[int] = None

    def classify(self) -> None:
        """Keep the redex of the leaf: the kind of the step it can take now
        (a receive with no branch for its message is ``stuck``), or None,
        and the buffer cell a send appends to or a receive reads."""
        leaf = self.leaf
        record = leaf.step_record
        kind = record.kind
        if kind == "send":
            queue = self.sends.get(leaf.endpoint)
            self.redex = (kind if queue else None), queue
            return
        if kind == "recv":
            for queue in self.recvs.get(leaf.endpoint, ()):
                items = queue.items
                if items:
                    self.redex = ("recv" if items[0][0] in record.table
                                  else "stuck"), queue
                    return
            if self.deadline != self.clock.now:
                kind = None
        self.redex = kind, None

    def term(self) -> ProcNode:
        """The leaf, with a countdown under way reading what is left."""
        leaf, deadline = self.leaf, self.deadline
        if deadline is None:
            return leaf
        left = self.clock.time(deadline - self.clock.now)
        if type(leaf) is DelayExact:
            return DelayExact(left, leaf.cont)
        return ReceiveAfter(leaf.endpoint, leaf.branches, left, leaf.timeout)


class _Scope(NamedTuple):
    """A session scope of the layout: its endpoints and its composition."""

    left: str
    right: str
    items: List["_Item"]


# A composition is a list of items in parallel, in order: one item stands
# for itself, more for their parallel composition, as in a normal term.
_Item = Union[_Thread, _Queue, _Scope]

# The leaves a step may leave that go into the layout, not into a thread.
_STRUCTURE = frozenset({Par, Scope, Buffer})

# The leaves that are activated when they are new (``_activate``).
_ACTIVATED = frozenset({ReceiveAfter, DelayExact, Def})

# The leaves time can pass over when no step is enabled.
_TIMED = frozenset({PEnd, ReceiveAfter, DelayExact})


def _activate(leaf: ProcNode, clock: _Clock
              ) -> Tuple[ProcNode, Optional[int]]:
    """A new leaf as it becomes active, and its deadline.  A receive and an
    exact delay get the instant they run out, the timeout evaluated as
    ``eval_timeout`` does, in ints; a definition, whose continuation is
    active, resolves the timeouts of the receives there."""
    if type(leaf) is Def:
        return resolve_active(leaf, clock.timers()), None
    after = leaf.step_record.after
    if after is None:
        return leaf, None
    num, den, coeffs = after
    assert clock.scale % den == 0, (den, clock.scale)
    total = num * (clock.scale // den)
    for name, coef in coeffs:
        if name not in clock.set_at:
            raise _unknown_timer(name)
        total += coef * (clock.now - clock.set_at[name])
    return leaf, clock.now + max(total, 0)


def _take(thread: _Thread, clock: _Clock, picker: _DelayPicker
          ) -> Tuple[ProcNode, str]:
    """Take a thread's kept redex: the normal leaf it leads to and the trace
    text.  A set writes its timer, a send or a receive its buffer cell and
    a def the thread's definitions, in place, where a call reads them."""
    leaf, (kind, queue) = thread.leaf, thread.redex
    record = leaf.step_record
    # the kinds in the order of how often a run takes them
    if kind == "set":
        clock.set_at[leaf.timer] = clock.now
    elif kind == "recv" and queue is not None:
        items = queue.items
        label, value = items[0]
        queue.items = items[1:]
        text, cont, binder = record.table[label]
        if binder is not None:
            cont = substitute(cont, {}, {binder: value})
        return cont, text
    elif kind == "call":
        defn = thread.defs.get(leaf.name)
        if defn is None:
            raise SpecError(f"call to undefined process {leaf.name!r}")
        return instantiate_call(defn, leaf), record.text
    elif kind == "send":
        queue.items += ((leaf.label, leaf.value),)
    elif kind == "if":
        taken = 0 if record.test(clock.now, clock.set_at, clock.scale) else 1
        return record.conts[taken], record.text[taken]
    elif kind == "det":
        pick = picker.pick(leaf)
        # a scheduled duration is keyed apart from the indices: Fraction(1) == 1
        key = pick if type(pick) is int else (pick,)
        out = record.table.get(key)
        if out is None:
            t = leaf.durations[pick] if type(pick) is int else pick
            out = record.table[key] = (
                _normal_node(DelayExact(t, leaf.cont)),
                f"det delay({format_rational(t)}) for {leaf.cond}")
        return out
    elif kind == "def":
        thread.defs[leaf.name] = leaf
    return record.conts[0], record.text


def _layout(node: ProcNode, defs: Dict[str, Def], clock: _Clock,
            fresh: List[_Thread]) -> List[_Item]:
    """The items of the normal term node.  Each thread gets its own copy
    of defs and is added to fresh."""
    kind = type(node)
    if kind is Par:
        return [item for part in node.parts
                for item in _layout(part, defs, clock, fresh)]
    if kind is Scope:
        return [_Scope(node.left, node.right,
                       _layout(node.body, defs, clock, fresh))]
    if kind is Buffer:
        return [_Queue(node)]
    thread = _Thread(node, dict(defs), clock)
    fresh.append(thread)
    return [thread]


def _read_layout(root: List[_Item]) -> Tuple[List[_Thread], List[_Queue]]:
    """The threads of the layout in leftmost order, and its buffer cells.

    Each thread is told the composition it sits in, the buffers it sees
    and its position in the term of the layout.  It sees the buffers of
    its own composition and of the compositions around it, less those
    whose endpoints a session scope between them binds, and keeps them by
    endpoint: the first it sees from each source (``sends``) and all it
    sees to each destination, in order (``recvs``).  Each buffer cell is
    told the threads that see it.  A position is printed as messages print
    it, in ``par<i>`` and ``scope`` steps.
    """
    threads: List[_Thread] = []
    queues: List[_Queue] = []

    def walk(items: List[_Item], outer: Dict[Tuple[str, str], _Queue],
             steps: Tuple[str, ...]) -> None:
        buffers = dict(outer)
        for item in items:
            if type(item) is _Queue:
                buffers[item.src, item.dst] = item
                item.readers = []
                queues.append(item)
        sends: Dict[str, _Queue] = {}
        recvs: Dict[str, List[_Queue]] = {}
        for (src, dst), queue in buffers.items():
            sends.setdefault(src, queue)
            recvs.setdefault(dst, []).append(queue)
        for i, item in enumerate(items):
            here = steps + (f"par{i}",) if len(items) > 1 else steps
            kind = type(item)
            if kind is _Thread:
                item.parent, item.sends, item.recvs = items, sends, recvs
                item.position = "/".join(here) or "top"
                threads.append(item)
                for queue in buffers.values():
                    queue.readers.append(item)
            elif kind is _Scope:
                ends = (item.left, item.right)
                walk(item.items, {chan: queue for chan, queue in buffers.items()
                                  if chan[0] not in ends
                                  and chan[1] not in ends}, here + ("scope",))

    walk(root, {}, ())
    return threads, queues


def _build(root: List[_Item]) -> ProcNode:
    """The normal term of the layout, at its clock's now."""

    def term(items: List[_Item]) -> ProcNode:
        parts = tuple(Scope(item.left, item.right, term(item.items))
                      if type(item) is _Scope else item.term()
                      for item in items)
        return parts[0] if len(parts) == 1 else Par(parts)

    return term(root)


# ---------------------------------------------------------------------------
# The deterministic scheduler
# ---------------------------------------------------------------------------

class RunStatus:
    COMPLETED = "completed"
    ERROR = "error"
    STUCK = "stuck"
    FUEL_EXHAUSTED = "fuel-exhausted"


class RunPolicy(Struct, frozen=False):
    seed: int = 0
    fuel: int = 10000
    # None: seeded sampling; otherwise the exact durations to use, in order.
    delay_resolution: Optional[Sequence[Fraction]] = None


class RunResult(Struct, frozen=False):
    status: str
    detail: str
    trace: List[str]
    elapsed: Fraction
    final: ProcNode
    timers: TimerEnv


def run(program: ProcNode, policy: Optional[RunPolicy] = None) -> RunResult:
    """Drive a process to completion, error, stuckness, or fuel exhaustion.

    Instant steps are exhausted in leftmost order before the unique enabled
    time step fires; delay(constraint) durations are resolved by the policy.

    A program is normalised and its grid walked once (``run_prologue``),
    and a leaf compiled once (``step_record``).  Time is an int clock at
    the grid with the schedule's denominators folded in; a timer is the
    instant it was set.  A new leaf is activated at the top of the next
    iteration, so a run that stops first returns its timeouts unresolved.
    New leaves are activated all at once or, on an error, not at all.  An
    instant step (``_take``) rewrites one thread's leaf and at most one
    buffer cell, and reclassifies the threads that cell lists as seeing
    it; a thread finds its buffers by endpoint.  A time step moves the
    clock to the earliest deadline, where a delay becomes its continuation
    and a receive is classified again, once ``phi`` on the built term has
    passed, asked only while a buffer is non-empty or a leaf is one time
    cannot pass over.  A new composition, scope or buffer goes
    into the layout in place of its thread, each new thread with a copy of
    its definitions.  An ``if`` is decided in ints, by the test its step
    record holds; ``Fraction`` is left to the durations a ``delay(c)``
    picks, the timers a definition's timeouts and ``phi`` read, built only
    for them (``_Clock.timers``), a time step's duration as ``phi`` reads
    and the trace prints it, the built term and the result.
    A run whose threads are all ``end`` and whose buffers are all empty has
    completed, out of fuel too.
    """
    policy = policy or RunPolicy()
    picker = _DelayPicker(policy.seed, policy.delay_resolution)
    program, grid = program.run_prologue
    clock = _Clock(lcm(grid, *(t.denominator for t in picker.schedule or ())))
    trace: List[str] = []
    # The threads whose leaves are new since the last iteration.
    fresh: List[_Thread] = []
    root = _layout(program, {}, clock, fresh)
    threads, queues = _read_layout(root)
    relayout = False
    steps = 0

    def result(status: str, detail: str) -> RunResult:
        return RunResult(status, detail, trace, clock.time(clock.now),
                         _build(root), clock.timers())

    def completed() -> bool:
        return (all(type(thread.leaf) is PEnd for thread in threads)
                and not any(queue.items for queue in queues))

    def place(thread: _Thread, new: ProcNode) -> None:
        nonlocal relayout
        if type(new) in _STRUCTURE:
            at = thread.parent.index(thread)
            thread.parent[at:at + 1] = _layout(new, thread.defs, clock, fresh)
            relayout = True
        else:
            thread.leaf, thread.deadline = new, None
            fresh.append(thread)

    while steps < policy.fuel:
        # a list of activations only on a step that has one; all of them,
        # or none on an error
        for thread in fresh:
            if type(thread.leaf) in _ACTIVATED:
                try:
                    activated = [(each, *_activate(each.leaf, clock))
                                 for each in fresh
                                 if type(each.leaf) in _ACTIVATED]
                except SpecError as exc:
                    return result(RunStatus.ERROR, str(exc))
                for each, leaf, deadline in activated:
                    each.leaf, each.deadline = leaf, deadline
                break
        if relayout:
            threads, queues = _read_layout(root)
            fresh[:] = threads
            relayout = False
        for thread in fresh:
            thread.classify()
        fresh.clear()
        first = None
        for thread in threads:
            kind, queue = thread.redex
            if kind is None:
                continue
            if kind == "err":
                return result(RunStatus.ERROR, f"err at {thread.position}")
            if kind == "stuck":
                return result(RunStatus.STUCK, (
                    f"unspecified reception: {queue.items[0][0]!r} "
                    f"at {thread.leaf.endpoint} at {thread.position}"))
            if first is None:
                first = thread
        if first is not None:
            steps += 1
            try:
                new, text = _take(first, clock, picker)
            except SpecError as exc:
                return result(RunStatus.ERROR, str(exc))
            trace.append(f"{steps} {text}")
            place(first, new)
            queue = first.redex[1]
            if queue is not None:  # first is new, and classified at the top
                for thread in queue.readers:
                    if thread is not first:
                        thread.classify()
            continue
        if completed():
            return result(RunStatus.COMPLETED, "all components terminated")
        deadlines = [thread.deadline for thread in threads
                     if thread.deadline is not None]
        if not deadlines:
            return result(RunStatus.STUCK, "no action and no finite deadline")
        then = min(deadlines)
        t = clock.time(then - clock.now)
        steps += 1
        try:
            # phi fails only on a Par premise, which needs a non-empty
            # buffer, or on a leaf that time cannot pass over
            if any(queue.items for queue in queues) or any(
                    type(thread.leaf) not in _TIMED for thread in threads):
                phi(t, _build(root), clock.timers())
        except PhiUndefined as exc:
            return result(RunStatus.STUCK, f"time blocked: {exc.reason}")
        clock.now = then
        for thread in threads:
            if thread.deadline == then:
                if type(thread.leaf) is DelayExact:
                    place(thread, thread.leaf.cont)
                else:
                    thread.classify()
        trace.append(f"{steps} delay({format_rational(t)})")
    if relayout:
        threads, queues = _read_layout(root)
    if completed():
        return result(RunStatus.COMPLETED, "all components terminated")
    return result(RunStatus.FUEL_EXHAUSTED, "fuel exhausted")
