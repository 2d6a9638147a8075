"""The value classes' one written base, ``constraints.Struct``, and ``Zone``.

Each node, report and policy class of the package declares its fields as
annotations and gets ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__`` from ``Struct``, as it got them from ``@dataclass`` before:
equality is class-exact, equal values hash equal, frozen classes refuse
assignment while their ``cached_property`` caches still fill, mutable
classes are unhashable, and a value prints as the dataclass printed it.
``ChoiceOption``, ``Choice`` and ``Violation``, which every well-formedness
walk builds, write their own positional ``__init__`` and keep the rest of
that contract, keyword calls included.
"""

from fractions import Fraction

import pytest

from timedsessions.constraints import And, Atom, Not, Or, TRUE, TrueC
from timedsessions.errors import SpecError
from timedsessions.parser import SpecFile, SystemDecl, parse_type
from timedsessions.processes import (Call, P_END, PEnd, PErr, RunPolicy,
                                     RunResult, SetTimer)
from timedsessions.semantics import (ExploreLimits, Message, ProgressReport,
                                     QConfig, System)
from timedsessions.sessiontypes import (END, NAT, NONE, RECV, SEND, BaseSort,
                                        Choice, ChoiceOption, Violation, dual,
                                        unfold_head)
from timedsessions.zones import Zone, to_zones

X_GT_1 = Atom("x", ">", Fraction(1))


def test_equality_is_class_exact():
    assert PEnd() != PErr() and PEnd() == PEnd()
    assert SetTimer("x", P_END) != Call("x", P_END)
    assert And(TRUE, X_GT_1) != Or(TRUE, X_GT_1)
    assert And(TRUE, X_GT_1) == And(TrueC(), Atom("x", ">", Fraction(1)))
    assert BaseSort("Nat") == NAT and BaseSort("Nat") is not NAT
    assert Message("a", NAT) != Message("a", NONE)
    assert X_GT_1 != ("x", ">", Fraction(1), None)


@pytest.mark.parametrize("make", [
    TrueC, PEnd,
    lambda: Not(Atom("y", "=", Fraction(3, 2))),
    lambda: Atom("x", ">", Fraction(1), "y"),
    lambda: ChoiceOption(SEND, "a", NONE, X_GT_1, frozenset({"x"}), END),
    lambda: Choice((ChoiceOption(SEND, "a", NONE, X_GT_1, frozenset(), END),
                    ChoiceOption(RECV, "b", NAT, TRUE, frozenset(), END))),
    lambda: Violation(("a", "b"), "mixed-choice", "a/b"),
    lambda: Call("P", (1,), ("t",), ("c",)),
    lambda: ExploreLimits(max_queue=3),
], ids=["TrueC", "PEnd", "Not", "Atom", "ChoiceOption", "Choice", "Violation",
        "Call", "ExploreLimits"])
def test_equal_values_hash_equal(make):
    first, second = make(), make()
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1 and {first: 1}[second] == 1


def test_a_frozen_value_refuses_assignment_and_keeps_its_caches():
    with pytest.raises(AttributeError, match="clock"):
        X_GT_1.clock = "y"
    with pytest.raises(AttributeError):
        del X_GT_1.const
    assert X_GT_1.clock == "x"
    head = unfold_head(parse_type("rec a . { !m(x<1,{x}).a , ?n(x>2).end }"))
    with pytest.raises(AttributeError):
        head.options = ()
    assert head.printed == vars(head)["printed"]
    assert head.clock_ceilings == {"x": 2}
    assert vars(head)["clock_ceilings"] is head.clock_ceilings
    flipped = unfold_head(dual(parse_type(
        "rec a . { !m(x<1,{x}).a , ?n(x>2).end }")))
    compiled = head.compiled
    rebuilt = dual(head)
    assert vars(rebuilt)["compiled"] is compiled  # handed on, not rebuilt
    assert flipped.printed == rebuilt.printed
    for mine, theirs in zip(head.options, rebuilt.options):  # new options
        assert type(theirs) is ChoiceOption and theirs.guard is mine.guard
        assert theirs.direction != mine.direction
    assert dual(rebuilt) == head


@pytest.mark.parametrize("value", [
    QConfig({}, END), System(QConfig({}, END), QConfig({}, END)),
    ProgressReport("ok", 1, []), SpecFile(), SystemDecl(None, None),
    RunPolicy(), RunResult("completed", "", [], Fraction(0), P_END, {}),
    Zone.universal(("x",)),
], ids=lambda value: type(value).__name__)
def test_a_mutable_value_is_unhashable_and_assignable(value):
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    if not isinstance(value, Zone):
        name = value._fields[0]
        setattr(value, name, getattr(value, name))


def test_defaults_and_keywords_fill_fields():
    assert RunPolicy(fuel=3) == RunPolicy(0, 3, None)
    assert Atom("x", ">", Fraction(1)).sub is None
    first, second = SpecFile(), SpecFile()
    assert first.types == {} and first.types is not second.types
    assert ProgressReport("ok", 1, []).invariant_violations == []
    with pytest.raises(ValueError, match="core atoms"):  # __post_init__
        Atom("x", "<", Fraction(1))


@pytest.mark.parametrize("call", [
    lambda: Atom("x", ">"),  # missing const
    lambda: Atom("x", ">", Fraction(1), None, "extra"),
    lambda: PEnd(1),
    lambda: Not(),
    lambda: RunPolicy(budget=3),
    lambda: Atom("x", ">", Fraction(1), clock="y"),  # given twice
    lambda: Zone(("x",)),
    lambda: ChoiceOption(SEND, "a", NONE, X_GT_1, frozenset()),  # 5 of 6
    lambda: Violation((), "feasibility", "x>1", "extra"),
    lambda: Choice(),
])
def test_a_missing_or_extra_argument_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_repr_is_the_dataclass_text():
    assert repr(Atom("x", ">", Fraction(3, 2), "y")) == (
        "Atom(clock='x', op='>', const=Fraction(3, 2), sub='y')")
    assert repr(ChoiceOption(SEND, "a", NONE, Atom("x", "=", Fraction(1)),
                             frozenset({"x"}), END)) == (
        "ChoiceOption(direction='!', label='a', payload=BaseSort(name='None'), "
        "guard=Atom(clock='x', op='=', const=Fraction(1, 1), sub=None), "
        "resets=frozenset({'x'}), continuation=End())")
    zone = to_zones(X_GT_1, ("x", "y"))[0]
    zone.listed_bounds()  # fills the cache, which repr leaves out
    assert repr(zone) == ("Zone(clocks=('x', 'y'), "
                          "m=[[1, -2, 1], [None, 1, None], [None, None, 1]], "
                          "scale=1)")
    assert repr(Zone.universal(("x",), 2)) == (
        "Zone(clocks=('x',), m=[[1, 1], [None, 1]], scale=2)")
    assert repr(ProgressReport("ok", 1, [])) == (
        "ProgressReport(verdict='ok', states_visited=1, trace=[], reason='', "
        "invariant_violations=[])")


def test_zones_compare_their_matrices_not_their_caches():
    zone = to_zones(X_GT_1, ("x", "y"))[0]
    copy = zone.copy()
    zone.listed_bounds()
    assert zone == copy and zone.bounds is not None and copy.bounds is None
    assert zone != Zone.universal(("x", "y"))
    assert zone.rescaled(2) != zone
    with pytest.raises(AttributeError):
        zone.extra = 1  # slotted


def test_the_written_constructors_keep_the_struct_contract():
    option = ChoiceOption(SEND, "a", NONE, X_GT_1, frozenset({"x"}), END)
    assert option == ChoiceOption(
        continuation=END, resets=frozenset({"x"}), guard=X_GT_1,
        payload=NONE, label="a", direction=SEND)
    assert Violation((), "feasibility", "x>1") == Violation(
        witness="x>1", condition="feasibility", path=())
    assert Choice(options=(option,)) == Choice((option,))
    assert Choice((option,)) != Violation((), "feasibility", "x>1")
    assert repr(Violation(("a",), "mixed-choice", "a/b")) == (
        "Violation(path=('a',), condition='mixed-choice', witness='a/b')")
    assert repr(Choice((option,))) == f"Choice(options=({option!r},))"
    for value, name in ((option, "label"), (Choice((option,)), "options"),
                        (Violation((), "feasibility", "x>1"), "witness")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(SpecError) as raised:
        Choice(())
    assert str(raised.value) == "a choice needs at least one option"

