import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

import redsem.oracle
from check_oracle_reference import SLICE, disagreements
from genterms import gen_case, gen_term, oracle_case
from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    Bindings,
    CtxTerm,
    HeadCtx,
    Hole,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    NamePat,
    NtPat,
    OracleFuelError,
    TailCtx,
    decompose,
    enumerate_decompositions,
    matches,
    new_grammar,
    oracle_decompose,
    oracle_match,
    oracle_match_original,
    parse_pattern,
    parse_term,
    plug,
    remove_prod,
)
from redsem.matching import EMPTY_BINDINGS
from redsem.oracle import _union
from references import is_proper_subterm, is_subgrammar

A, B = Literal("a"), Literal("b")
AB = ListTerm((A, B))
EMPTY_G = new_grammar([])

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def bnd(**kw):
    return Bindings(tuple(sorted(kw.items())))


def count_positions(t):
    """Independent position count: one per term plus nested list element
    positions (context values are opaque), or one per cut of a context's
    hole path."""
    if isinstance(t, ListTerm):
        return 1 + sum(
            count_positions(item) for item in t.items if not isinstance(item, CtxTerm)
        )
    if isinstance(t, CtxTerm):
        return 1 + spine_length(t.context)
    return 1


def spine_length(c):
    if isinstance(c, Hole):
        return 0
    if isinstance(c, HeadCtx):
        return 1 + spine_length(c.hole_side)
    return spine_length(c.rest)


def count_atoms(t):
    if isinstance(t, Literal):
        return 1
    if isinstance(t, ListTerm):
        return sum(count_atoms(i) for i in t.items if not isinstance(i, CtxTerm))
    return 0


class TestIndependence:
    def test_no_engine_function_is_used(self):
        # a bug shared with the engine would be invisible to agreement checks
        borrowed = [
            name
            for name, obj in vars(redsem.oracle).items()
            if inspect.isfunction(obj) and obj.__module__ == "redsem.matching"
        ]
        assert borrowed == []


class TestUnion:
    def test_empty_sides(self):
        assert _union(EMPTY_BINDINGS, EMPTY_BINDINGS) == EMPTY_BINDINGS
        assert _union(EMPTY_BINDINGS, bnd(x=A)) == bnd(x=A)
        assert _union(bnd(x=A), EMPTY_BINDINGS) == bnd(x=A)

    def test_conflict_is_absent(self):
        assert _union(bnd(x=A), bnd(x=B)) is None
        assert _union(bnd(x=A, y=B), bnd(y=A)) is None

    def test_consistent_repeat(self):
        assert _union(bnd(x=A), bnd(x=A)) == bnd(x=A)
        assert _union(bnd(x=A, y=B), bnd(y=B)) == bnd(x=A, y=B)

    def test_disjoint_merge_sorted(self):
        assert _union(bnd(y=B), bnd(x=A)) == Bindings((("x", A), ("y", B)))
        assert _union(bnd(x=A, z=A), bnd(y=B)) == Bindings(
            (("x", A), ("y", B), ("z", A))
        )


class TestEnumerateDecompositions:
    def test_literal(self):
        assert enumerate_decompositions(A) == [(HOLE, A)]

    def test_pair(self):
        assert enumerate_decompositions(AB) == [
            (HOLE, AB),
            (HeadCtx(HOLE, (B,)), A),
            (TailCtx(A, HeadCtx(HOLE, ())), B),
        ]

    def test_context_term_cuts_along_spine(self):
        t = CtxTerm(HeadCtx(HOLE, (B,)))
        assert enumerate_decompositions(t) == [
            (HOLE, t),
            (HeadCtx(HOLE, (B,)), HOLE_TERM),
        ]

    @given(seeds)
    def test_roundtrip_unique_and_counted(self, seed):
        t = gen_term(random.Random(seed))
        splits = enumerate_decompositions(t)
        assert splits[0] == (HOLE, t)
        assert len(set(splits)) == len(splits)
        for c, sub in splits:
            assert plug(c, sub) == t
        assert len(splits) == count_positions(t)

    @given(seeds)
    def test_at_least_atoms_plus_one(self, seed):
        # each reachable atom is its own split position, plus the trivial one
        t = gen_term(random.Random(seed))
        if isinstance(t, ListTerm):
            assert len(enumerate_decompositions(t)) >= count_atoms(t) + 1


class TestOracleMatch:
    def test_literal_axiom(self):
        assert oracle_match(EMPTY_G, A, LitPat(A)) == {EMPTY_BINDINGS}

    def test_name_rule(self):
        assert oracle_match(EMPTY_G, A, NamePat("x", LitPat(A))) == {bnd(x=A)}

    def test_consistent_repeat(self):
        p = ListPat((NamePat("x", LitPat(A)), NamePat("x", LitPat(A))))
        assert oracle_match(EMPTY_G, ListTerm((A, A)), p) == {bnd(x=A)}

    def test_hole_axiom(self):
        assert oracle_match(EMPTY_G, HOLE_TERM, HOLE_PAT) == {EMPTY_BINDINGS}
        assert oracle_match(EMPTY_G, A, HOLE_PAT) == set()


class TestOracleDecompose:
    def test_hole_pattern_trivial_split(self):
        assert oracle_decompose(EMPTY_G, AB, HOLE_PAT) == {
            (HOLE, AB, EMPTY_BINDINGS)
        }

    def test_head_split(self):
        p = ListPat((HOLE_PAT, LitPat(B)))
        assert oracle_decompose(EMPTY_G, AB, p) == {
            (HeadCtx(HOLE, (B,)), A, EMPTY_BINDINGS)
        }

    def test_literals_never_split(self):
        assert oracle_decompose(EMPTY_G, A, LitPat(A)) == set()

    @pytest.mark.parametrize(
        "pattern", ["(in-hole hole ((hole)))", "(in-hole (hole) (hole))", "(in-hole ((hole)) hole)"]
    )
    def test_an_in_hole_cuts_its_context_at_every_level(self, pattern):
        # ((a)) splits at a along a two-level context, which each pattern
        # cuts at another level: above it, in the middle and below it
        t, p = parse_term("((a))"), parse_pattern(pattern)
        split = (HeadCtx(HeadCtx(HOLE, ()), ()), A, EMPTY_BINDINGS)
        assert oracle_decompose(EMPTY_G, t, p) == decompose(EMPTY_G, t, p) == {split}

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_subterm_characterization(self, seed):
        g, t, p = gen_case(random.Random(seed))
        for c, sub, _ in oracle_decompose(g, t, p):
            assert (sub == t and c == HOLE) or is_proper_subterm(sub, t)
            assert plug(c, sub) == t


class TestOriginalSystem:
    def test_literal(self):
        assert oracle_match_original(EMPTY_G, A, LitPat(A)) == {EMPTY_BINDINGS}

    @pytest.mark.parametrize("term", ["a", "(a a)"])
    @pytest.mark.parametrize(
        "productions",
        [
            [("n", NtPat("n"))],
            [("n", NamePat("x", NtPat("n"))), ("n", LitPat(A))],
            # the loop runs through the decomposition judgment
            [("n", InHolePat(NtPat("n"), HOLE_PAT)), ("n", LitPat(A))],
        ],
        ids=["nt", "name", "in-hole"],
    )
    def test_left_recursive_grammar_reenters_a_goal(self, productions, term):
        # without production removal, (nt n) is read at the same term
        # forever; the generalized judgment (and the engine) remove the
        # production and fall through to the others.  The ungeneralized
        # search re-enters the goal it is deriving, and must stop there
        # with its own error, not overflow the Python stack.
        g, t = new_grammar(productions), parse_term(term)
        # only n -> a can match, and only the term a
        matchable = t == A and ("n", LitPat(A)) in productions
        expected = {EMPTY_BINDINGS} if matchable else set()
        assert matches(g, t, NtPat("n")) == oracle_match(g, t, NtPat("n")) == expected
        with pytest.raises(OracleFuelError):
            oracle_match_original(g, t, NtPat("n"))

    def test_a_long_chain_that_consumes_no_input_reenters_no_goal(self):
        # n0 -> (nt n1), ..., n119 -> (nt n120), n120 -> (in-hole hole
        # (name x a)): not left recursive, yet over 120 steps in a row consume
        # no input, through both judgments, before the literal is read; each
        # non-terminal goal is new, so the search does not stop
        productions = [(f"n{i}", NtPat(f"n{i + 1}")) for i in range(120)]
        productions.append(("n120", InHolePat(HOLE_PAT, NamePat("x", LitPat(A)))))
        g, p = new_grammar(productions), NtPat("n0")
        assert oracle_match_original(g, A, p) == oracle_match(g, A, p)
        assert oracle_match(g, A, p) == {EMPTY_BINDINGS}
        one = ListTerm((A,))
        assert oracle_match_original(g, one, p) == oracle_match(g, one, p) == set()

    def test_a_goal_derived_again_as_a_sibling_is_not_reentered(self):
        # s -> ((nt m) (nt m)), m -> a | b: the goal (a, m) is derived
        # twice, one after the other; its first derivation returns early,
        # at m -> a, and must unmark the goal all the same
        g = new_grammar(
            [("s", ListPat((NtPat("m"), NtPat("m")))), ("m", LitPat(A)), ("m", LitPat(B))]
        )
        assert oracle_match_original(g, ListTerm((A, A)), NtPat("s")) == {EMPTY_BINDINGS}

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_equals_generalized_at_original_grammar(self, seed):
        g, t, p = gen_case(random.Random(seed))
        assert oracle_match_original(g, t, p) == oracle_match(g, t, p, g)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_equals_engine_matches(self, seed):
        g, t, p = gen_case(random.Random(seed))
        assert oracle_match_original(g, t, p) == matches(g, t, p)


class TestGrammarWeakening:
    @pytest.mark.parametrize(
        "term, pattern, matched, splits",
        [
            ("a", "(nt m)", set(), set()),
            # consuming input restores the original grammar
            ("(a)", "((nt m))", {EMPTY_BINDINGS}, {(HeadCtx(HOLE, ()), A, EMPTY_BINDINGS)}),
            # and so does an in-hole's context side, for its hole side:
            # (nt m) decomposes a at the bare hole by m -> hole, which only
            # the original grammar has
            (
                "(a)",
                "(in-hole (hole) (nt m))",
                {EMPTY_BINDINGS},
                {(HeadCtx(HOLE, ()), A, EMPTY_BINDINGS)},
            ),
        ],
    )
    def test_an_empty_current_grammar_is_a_grammar(self, term, pattern, matched, splits):
        # m -> a | hole under the empty current grammar: an empty grammar
        # has length 0, and must not be read as no current grammar
        g = new_grammar([("m", LitPat(A)), ("m", HOLE_PAT)])
        t, p = parse_term(term), parse_pattern(pattern)
        assert oracle_match(g, t, p, EMPTY_G) == matches(g, t, p, current=EMPTY_G) == matched
        assert oracle_decompose(g, t, p, EMPTY_G) == decompose(g, t, p, current=EMPTY_G) == splits

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_fewer_productions_derive_fewer_matches(self, seed):
        rng = random.Random(seed)
        g, t, p = gen_case(rng)
        if len(g) == 0:
            return
        smaller = remove_prod(g, rng.choice(g.productions))
        assert is_subgrammar(smaller, g)
        assert oracle_match(g, t, p, smaller) <= oracle_match(g, t, p, g)


class TestInHoleFactorizations:
    """The in-hole decomposition rule walks the factorizations of its
    goal's context, where its generate-and-filter reference tries every
    pair of splits (tests/check_oracle_reference.py)."""

    @pytest.mark.parametrize("seed", range(SLICE))
    def test_agrees_with_the_generate_and_filter_rule(self, seed):
        assert list(disagreements(seed)) == []

    def test_every_decomposition_goal_plugs_back(self, monkeypatch):
        # the premise that makes the factorizations exact
        decomp, goals = redsem.oracle._Search.decomp, []

        def checked(search, t, c, sub, p, mask):
            goals.append(plug(c, sub) == t)
            return decomp(search, t, c, sub, p, mask)

        monkeypatch.setattr(redsem.oracle._Search, "decomp", checked)
        rng = random.Random(39)
        for _ in range(1_000):
            g, t, p, current = oracle_case(rng)
            oracle_match(g, t, p, current)
            oracle_decompose(g, t, p, current)
        assert len(goals) > 5_000 and all(goals)

    # the two cases of the benchmark's seed-606 corpus stream on which the
    # generate-and-filter rule cost most: 6,498 and 5,382 calls of
    # enumerate_decompositions, 25,022 and 12,903 of decomp
    HEAVY = [
        (
            [
                ("n1", "a"),
                ("n1", "(name x 0)"),
                ("n2", "(in-hole (nt n1) hole)"),
                ("n2", "(in-hole (in-hole (nt n1) b) (nt n1))"),
                ("n2", "(hole)"),
            ],
            "((#t hole) hole (((#t b a) #t (c c b)) c (1 0)))",
            "(nt n2)",
            (18, 1_093),
        ),
        (
            [
                ("n1", "b"),
                ("n2", "c"),
                ("n2", "(in-hole ((nt n3)) hole)"),
                ("n3", "hole"),
                ("n3", "(in-hole ((nt n1) #t a) (#t (nt n1)))"),
            ],
            "(((b (0 c c) a) (hole #t)) ((() #t) (() hole (c)) hole) ((()) a))",
            "(name x (name y (nt n2)))",
            (313, 1_076),
        ),
    ]

    @pytest.mark.parametrize("productions, term, pattern, calls", HEAVY, ids=["n2", "n3"])
    def test_calls_on_the_heaviest_corpus_cases(
        self, monkeypatch, productions, term, pattern, calls
    ):
        # calls counted through the module's names, recursive ones too
        counts = {"enumerate_decompositions": 0, "decomp": 0}
        splits, decomp = redsem.oracle.enumerate_decompositions, redsem.oracle._Search.decomp

        def counted_splits(t):
            counts["enumerate_decompositions"] += 1
            return splits(t)

        def counted_decomp(search, *goal):
            counts["decomp"] += 1
            return decomp(search, *goal)

        monkeypatch.setattr(redsem.oracle, "enumerate_decompositions", counted_splits)
        monkeypatch.setattr(redsem.oracle._Search, "decomp", counted_decomp)
        g = new_grammar([(nt, parse_pattern(rhs)) for nt, rhs in productions])
        t, p = parse_term(term), parse_pattern(pattern)
        assert oracle_decompose(g, t, p) == set()
        assert tuple(counts.values()) == calls
        assert decompose(g, t, p) == set()
