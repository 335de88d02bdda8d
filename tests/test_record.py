"""The engine's value classes: constructors, equality, hashing, repr,
immutability, pickling, and what importing the engine loads; and the
same for the test s-expression tree that `references` builds."""

import copy
import os
import pickle
import subprocess
import sys
import weakref
from operator import attrgetter
from types import MemberDescriptorType

import pytest

import redsem
from redsem import (
    HOLE,
    HOLE_PAT,
    Bindings,
    ContextDecomposition,
    CtxTerm,
    Grammar,
    HeadCtx,
    Hole,
    HolePat,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    MatchResult,
    NamePat,
    NtPat,
    Production,
    TailCtx,
    Trace,
    UnboundTemplateVariableError,
    new_grammar,
    print_term,
)
from redsem._record import record
from redsem.language import LanguageDef
from redsem.matching import EMPTY_BINDINGS, EMPTY_DECOMPOSITION, EmptyDecomposition
from redsem.reduction import RefTemplate, Rule
from references import Atom, SList

SRC = os.path.dirname(os.path.dirname(redsem.__file__))
A, B = Literal("a"), Literal("b")
CTX = TailCtx(A, HeadCtx(HOLE, (B,)))
RULE = Rule("r", NamePat("x", HOLE_PAT), RefTemplate("x"))
GRAMMAR = new_grammar([("e", HOLE_PAT), ("e", LitPat(A))])

# one instance of every value class of the engine
FROZEN = [
    A,
    ListTerm((A, B)),
    CtxTerm(CTX),
    HOLE,
    HeadCtx(HOLE, (A,)),
    CTX,
    LitPat(A),
    HOLE_PAT,
    ListPat((HOLE_PAT, LitPat(B))),
    NamePat("x", HOLE_PAT),
    NtPat("e"),
    InHolePat(NtPat("e"), HOLE_PAT),
    RefTemplate("x"),
    RULE,
    Bindings((("x", A),)),
    EMPTY_DECOMPOSITION,
    ContextDecomposition(CTX, A),
    MatchResult(ContextDecomposition(CTX, A), EMPTY_BINDINGS),
    Production("e", HOLE_PAT),
    GRAMMAR,
    LanguageDef("L", GRAMMAR, (RULE,)),
]
TRACE = Trace([A, B], ["reduced", "normal-form"], [(0, "r", 1)])
# the test tree is a frozen dataclass pair, not engine records
TREE = [Atom("a", 2, 3), SList((Atom("a"),), 1, 1)]


def test_every_class_is_covered():
    modules = [redsem.terms, redsem.grammar, redsem.matching, redsem.reduction]
    modules += [redsem.language]
    classes = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and "__match_args__" in vars(value)
    }
    assert classes == {type(x) for x in FROZEN + [TRACE]}
    assert len(classes) == 22


# the slots each class declares besides its fields
CACHES = {ListTerm: ("_hash", "_text"), Grammar: ("_index",)}
CACHES.update(
    dict.fromkeys([CtxTerm, HeadCtx, TailCtx, ListPat, NamePat, InHolePat], ("_hash",))
)


@pytest.mark.parametrize("x", FROZEN + [TRACE], ids=lambda x: type(x).__name__)
def test_every_record_is_slotted_and_weakly_referable(x):
    cls = type(x)
    assert cls.__slots__ == cls.__match_args__ + CACHES.get(cls, ()) + ("__weakref__",)
    assert not hasattr(x, "__dict__")
    assert weakref.ref(x)() is x


def test_a_record_with_only_annotations_gets_slots():
    @record
    class Pair:
        a: int
        b: int

    p = Pair(1, 2)
    assert Pair.__slots__ == ("a", "b", "__weakref__") and not hasattr(p, "__dict__")
    assert repr(p).endswith(".<locals>.Pair(a=1, b=2)")


def test_no_field_has_a_class_attribute_default():
    # a field is a slot's member descriptor or no class attribute at all
    for cls in {type(x) for x in FROZEN + [TRACE]}:
        for name in cls.__match_args__:
            if name in vars(cls):
                assert type(vars(cls)[name]) is MemberDescriptorType, (cls, name)


@pytest.mark.parametrize("x", FROZEN + [TRACE] + TREE, ids=lambda x: type(x).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(x):
    for name in x.__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("x", FROZEN + [TRACE] + TREE, ids=lambda x: type(x).__name__)
def test_pickle_and_deepcopy_give_an_equal_object(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert y == x and type(y) is type(x) and y is not x
        assert repr(y) == repr(x)


@pytest.mark.parametrize("x", FROZEN, ids=lambda x: type(x).__name__)
def test_equality_and_hash_are_those_of_the_field_getter(x):
    if isinstance(x, Literal):
        return  # their own rules, tested elsewhere
    fields = tuple(getattr(x, name) for name in x.__match_args__)
    # one field's value, or the tuple of none, two or three
    got = attrgetter(*x.__match_args__)(x) if fields else ()
    twin = type(x)(*fields)
    assert twin == x and hash(twin) == hash(x) == hash(got)
    assert type(x)(**dict(zip(x.__match_args__, fields))) == x
    assert x.__eq__(fields) is NotImplemented
    assert x != fields


def test_atom_and_slist_compare_without_their_position():
    assert Atom("a", 1, 2) == Atom("a") and hash(Atom("a", 1, 2)) == hash(("a",))
    assert Atom("a") != Atom("b") and Atom("a").line == Atom("a").col == 0
    items = (Atom("a"),)
    assert SList(items, 3, 4) == SList(items) and hash(SList(items, 3, 4)) == hash(
        (items,)
    )
    assert repr(Atom("a", 1, 2)) == "Atom(text='a', line=1, col=2)"
    assert repr(SList(items, col=4)) == (
        "SList(items=(Atom(text='a', line=0, col=0),), line=0, col=4)"
    )


def test_pinned_reprs():
    assert repr(CtxTerm(CTX)) == (
        "CtxTerm(context=TailCtx(head=Literal('a'), "
        "rest=HeadCtx(hole_side=Hole(), tail=(Literal('b'),))))"
    )
    assert repr(HeadCtx(HOLE, ())) == "HeadCtx(hole_side=Hole(), tail=())"
    assert repr(InHolePat(NtPat("E"), ListPat((HOLE_PAT,)))) == (
        "InHolePat(context_pat=NtPat(name='E'), hole_pat=ListPat(items=(HolePat(),)))"
    )
    assert repr(GRAMMAR) == (
        "Grammar(productions=(Production(nonterminal='e', pattern=HolePat()), "
        "Production(nonterminal='e', pattern=LitPat(lit=Literal('a')))))"
    )
    assert repr(RULE) == (
        "Rule(name='r', lhs=NamePat(var='x', pattern=HolePat()), "
        "rhs=RefTemplate(var='x'))"
    )
    assert repr(MatchResult(ContextDecomposition(HOLE, A), Bindings((("x", A),)))) == (
        "MatchResult(decomposition=ContextDecomposition(context=Hole(), "
        "subterm=Literal('a')), bindings=Bindings(entries=(('x', Literal('a')),)))"
    )
    assert repr(TRACE) == (
        "Trace(nodes=[Literal('a'), Literal('b')], "
        "statuses=['reduced', 'normal-form'], edges=[(0, 'r', 1)])"
    )


def test_classes_without_fields_are_all_equal():
    assert Hole() == HOLE and HolePat() == HOLE_PAT
    assert EmptyDecomposition() == EMPTY_DECOMPOSITION
    assert hash(Hole()) == hash(()) and Hole() != HolePat()


@pytest.mark.parametrize(
    "make, field, cls",
    [
        (LitPat, lambda: Literal("a"), Literal),
        (CtxTerm, lambda: HeadCtx(HOLE, (Literal("b"),)), HeadCtx),
    ],
    ids=["LitPat", "CtxTerm"],
)
def test_a_shared_field_is_not_compared(monkeypatch, make, field, cls):
    # a one-field record compares its field by identity first, as the
    # tuple of the fields does for each of its items: a field the two
    # sides share calls no `__eq__`, and an equal copy calls it once
    eq, calls = cls.__eq__, [0]

    def counted(self, other):
        calls[0] += 1
        return eq(self, other)

    monkeypatch.setattr(cls, "__eq__", counted)
    shared = field()
    assert make(shared) == make(shared) and calls[0] == 0
    assert make(shared) == make(field()) and calls[0] == 1


def test_a_trace_grows_its_lists_in_place_and_is_unhashable():
    # the fields have no defaults: `trace` passes all three
    with pytest.raises(TypeError, match=r"Trace\.__init__"):
        Trace()
    tr, other = Trace([], [], []), Trace([], [], [])
    tr.nodes.append(A)
    assert tr == Trace([A], [], []) and tr != other and other.nodes == []
    tr.statuses.append("pending")
    tr.edges.append((0, "r", 0))
    assert tr == Trace([A], ["pending"], [(0, "r", 0)])
    with pytest.raises(TypeError):
        hash(tr)


def test_rule_checks_its_template_by_position_and_by_keyword(lam):
    with pytest.raises(UnboundTemplateVariableError, match="variable.*: y"):
        Rule("r", NamePat("x", HOLE_PAT), RefTemplate("y"))
    with pytest.raises(UnboundTemplateVariableError, match="variable.*: y"):
        Rule(rhs=RefTemplate("y"), lhs=NamePat("x", HOLE_PAT), name="r")
    # the check runs in Rule.__new__, before record's __init__ sets the fields
    with pytest.raises(TypeError, match=r"Rule\.__new__"):
        Rule("r", NamePat("x", HOLE_PAT))
    with pytest.raises(TypeError, match=r"Rule\.__new__"):
        Rule("r", NamePat("x", HOLE_PAT), RefTemplate("x"), None)
    with pytest.raises(AttributeError):
        RULE.rhs = RefTemplate("y")
    # pickle and copy rebuild a rule through its constructor, which checks
    # the template again
    (beta,) = lam.rules
    for rule in (RULE, beta):
        assert rule.__reduce__() == (Rule, (rule.name, rule.lhs, rule.rhs))
        for twin in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
            assert twin == rule and twin is not rule and repr(twin) == repr(rule)

    class Forged:
        def __reduce__(self):
            return Rule, ("r", NamePat("x", HOLE_PAT), RefTemplate("y"))

    with pytest.raises(UnboundTemplateVariableError, match="variable.*: y"):
        pickle.loads(pickle.dumps(Forged()))


def test_constructors_take_the_fields_in_order():
    assert ListTerm(items=(A,)) == ListTerm((A,))
    assert TailCtx(rest=HeadCtx(HOLE, ()), head=A) == TailCtx(A, HeadCtx(HOLE, ()))
    with pytest.raises(TypeError, match="ListTerm.__init__"):
        ListTerm()
    with pytest.raises(TypeError):
        HeadCtx(HOLE)
    with pytest.raises(TypeError):
        Production("e", HOLE_PAT, HOLE_PAT)
    with pytest.raises(TypeError):
        NtPat(nonterminal="e")
    with pytest.raises(TypeError):
        Hole(1)


def test_a_shape_with_no_template_is_a_type_error():
    no_template = r"^no record template for \S*\b"
    with pytest.raises(TypeError, match=no_template + "Three: 3 fields with _hash$"):

        @record
        class Three:
            __slots__ = ("_hash",)
            a: int
            b: int
            c: int

    with pytest.raises(TypeError, match=no_template + "Four: 4 fields$"):

        @record
        class Four:
            a: int
            b: int
            c: int
            d: int

    @record
    class Two:
        __slots__ = ("_hash",)
        a: int
        b: int

    assert Two(1, 2) == Two(1, 2) and hash(Two(1, 2)) == hash((1, 2))

    @record
    class Three:
        a: int
        b: int
        c: int

    three = Three(1, 2, 3)
    assert three == Three(c=3, b=2, a=1) and hash(three) == hash((1, 2, 3))


def test_record_takes_no_options():
    with pytest.raises(TypeError):
        record(frozen=False)
    with pytest.raises(TypeError):
        record(compare=("a",))


def test_the_caches_outside_the_fields_still_work():
    t = ListTerm((A, B))
    object.__setattr__(t, "_hash", 3)
    assert hash(t) == 3 and t._hash == 3 and t == ListTerm((A, B))
    object.__setattr__(t, "_text", "(kept)")
    assert print_term(t) == "(kept)" and t == ListTerm((A, B))
    g = Grammar((Production("e", HOLE_PAT),))
    object.__setattr__(g, "_index", "cached")
    assert g._index == "cached" and g == Grammar(g.productions)


def test_importing_the_engine_generates_and_loads_no_code_tools():
    # `site` imports typing on some installs, so run without it
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, redsem; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_engine_source_runs_generated_code():
    for name in sorted(os.listdir(os.path.join(SRC, "redsem"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "redsem", name), encoding="utf-8") as f:
                text = f.read()
            assert "exec(" not in text and "eval(" not in text, name


def test_no_engine_source_calls_object_setattr():
    # every field is set by record's generated __init__, and every cache
    # through its slot's setter
    for name in sorted(os.listdir(os.path.join(SRC, "redsem"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "redsem", name), encoding="utf-8") as f:
                assert "object.__setattr__" not in f.read(), name


def test_only_the_matcher_session_keys_a_table_by_id():
    # a table keyed by id must hold each key's object alive, so the engine
    # keeps one: the matcher session's (`matching._Session`)
    for name in sorted(os.listdir(os.path.join(SRC, "redsem"))):
        if name.endswith(".py") and name != "matching.py":
            with open(os.path.join(SRC, "redsem", name), encoding="utf-8") as f:
                assert "id(" not in f.read(), name
