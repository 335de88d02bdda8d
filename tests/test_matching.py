import copy
import hashlib
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import redsem
from conftest import LAMBDA_FILE
from genterms import gen_case, gen_pattern, gen_term, maybe_left_recursive_grammar
from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    Bindings,
    ContextDecomposition,
    CtxTerm,
    HeadCtx,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    MatchResult,
    NamePat,
    NtPat,
    SoundnessCheckError,
    TailCtx,
    decompose,
    enumerate_decompositions,
    is_left_recursive,
    match_decompose,
    matches,
    new_grammar,
    oracle_decompose,
    oracle_match,
    parse_pattern,
    parse_term,
    plug,
    print_term,
    remove_prod,
    trace,
)
from redsem.grammar import GrammarIndex
from redsem.matching import (
    EMPTY_BINDINGS,
    EMPTY_DECOMPOSITION,
    MATCH,
    SAME_TERM,
    _list_count,
    bind_name,
    bindings_union,
    child,
    combine,
    grammar_index,
    select,
)
from redsem.reduction import RefTemplate
from redsem.terms import compose, subpatterns
from references import (
    Problem,
    from_immediate_part,
    general_order_decreases,
    immediate_subterms,
    is_proper_subterm,
    parse_sexpr,
    proper_subterms,
    reference_order,
    sexpr_term,
)

A, B = Literal("a"), Literal("b")
AB = ListTerm((A, B))
EMPTY_G = new_grammar([])

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def bnd(**kw):
    return Bindings(tuple(sorted(kw.items())))


class TestBindingsUnion:
    def test_empty_with_empty(self):
        assert bindings_union(EMPTY_BINDINGS, EMPTY_BINDINGS) == EMPTY_BINDINGS

    def test_consistent_repeat(self):
        assert bindings_union(bnd(x=A), bnd(x=A)) == bnd(x=A)

    def test_conflict_is_absent(self):
        assert bindings_union(bnd(x=A), bnd(x=B)) is None

    def test_disjoint_merge_sorted(self):
        assert bindings_union(bnd(y=B), bnd(x=A)) == Bindings((("x", A), ("y", B)))


def select_level(*args):
    """select's level on args, the same with the checks on and off."""
    checked, unchecked = select(*args, True), select(*args, False)
    assert checked == unchecked
    return checked


class TestSelect:
    def test_both_matches(self):
        assert select_level(A, [MATCH], (B,), [MATCH], AB) == [MATCH]

    def test_head_split(self):
        got = select_level(A, [(HOLE, A, EMPTY_BINDINGS)], (B,), [MATCH], AB)
        assert got == [(HeadCtx(HOLE, (B,)), A, EMPTY_BINDINGS)]

    def test_tail_split(self):
        tails = [(HeadCtx(HOLE, ()), B, EMPTY_BINDINGS)]
        got = select_level(A, [MATCH], (B,), tails, AB)
        assert got == [(TailCtx(A, HeadCtx(HOLE, ())), B, EMPTY_BINDINGS)]

    def test_two_splits_absent(self):
        found = [(HOLE, A, EMPTY_BINDINGS)]
        tails = [(HeadCtx(HOLE, ()), B, EMPTY_BINDINGS)]
        assert select_level(A, found, (B,), tails, AB) == []

    def test_context_value_never_torn_from_plain_list(self):
        whole = ListTerm((HOLE_TERM, B))
        found = [(HOLE, HOLE_TERM, EMPTY_BINDINGS)]
        assert select_level(HOLE_TERM, found, (B,), [MATCH], whole) == []

    def test_head_tagged_context_splits_only_on_its_hole_side(self):
        whole = CtxTerm(HeadCtx(HOLE, (B,)))
        found = [(HOLE, HOLE_TERM, EMPTY_BINDINGS)]
        got = select_level(HOLE_TERM, found, (B,), [MATCH], whole)
        assert got == [(HeadCtx(HOLE, (B,)), HOLE_TERM, EMPTY_BINDINGS)]
        tails = [(HeadCtx(HOLE, ()), B, EMPTY_BINDINGS)]
        assert select_level(HOLE_TERM, [MATCH], (B,), tails, whole) == []

    def test_pairs_in_order_without_conflicting_bindings(self):
        # head results outside, tail results inside; a pair whose
        # bindings disagree gives nothing
        x_a, x_b = (None, None, bnd(x=A)), (None, None, bnd(x=B))
        split = (HeadCtx(HOLE, ()), B, bnd(y=B))
        got = select_level(A, [x_a, x_b], (B,), [x_a, split, x_b], AB)
        assert got == [
            x_a,
            (TailCtx(A, HeadCtx(HOLE, ())), B, bnd(x=A, y=B)),
            (TailCtx(A, HeadCtx(HOLE, ())), B, bnd(x=B, y=B)),
            x_b,
        ]

    def test_tail_that_is_not_whole_tail_is_refused_with_checks_on(self):
        found = [(HOLE, A, EMPTY_BINDINGS)]
        with pytest.raises(SoundnessCheckError, match="list split"):
            select(A, found, (A,), [MATCH], AB, True)
        assert select(A, found, (A,), [MATCH], AB, False) == [
            (HeadCtx(HOLE, (A,)), A, EMPTY_BINDINGS)
        ]

    @pytest.mark.parametrize(
        "cls, wrong",
        [
            (HeadCtx, lambda init, node, side, tail: init(node, side, tail + (A,))),
            (TailCtx, lambda init, node, head, rest: init(node, B, rest)),
        ],
        ids=["HeadCtx", "TailCtx"],
    )
    def test_wrongly_built_node_is_refused_with_checks_on(self, monkeypatch, cls, wrong):
        # a head split over (B,) and a tail split under A, each built
        # with a node other than the one asked for
        found = [MATCH, (HOLE, A, EMPTY_BINDINGS)]
        tails = [MATCH, (HeadCtx(HOLE, ()), B, EMPTY_BINDINGS)]
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda node, *f: wrong(init, node, *f))
        with pytest.raises(SoundnessCheckError, match="list split"):
            select(A, found, (B,), tails, AB, True)
        assert len(select(A, found, (B,), tails, AB, False)) == 3


class TestCombine:
    def test_inner_match_is_whole_match(self):
        assert combine(HOLE, MATCH, bnd(x=A)) == (None, None, bnd(x=A))

    def test_inner_hole_split_keeps_context(self):
        c = HeadCtx(HOLE, (B,))
        got = combine(c, (HOLE, A, EMPTY_BINDINGS), EMPTY_BINDINGS)
        assert got == (c, A, EMPTY_BINDINGS)

    def test_composes_contexts(self):
        outer = TailCtx(A, HeadCtx(HOLE, ()))
        inner = (HOLE, B, EMPTY_BINDINGS)
        got = combine(outer, inner, EMPTY_BINDINGS)
        assert got == (outer, B, EMPTY_BINDINGS)


class TestBindName:
    def test_match_binds_term(self):
        assert bind_name("x", A, None, EMPTY_BINDINGS) == bnd(x=A)

    def test_split_binds_context(self):
        got = bind_name("x", AB, HeadCtx(HOLE, (B,)), EMPTY_BINDINGS)
        assert got == bnd(x=CtxTerm(HeadCtx(HOLE, (B,))))

    def test_conflict_is_absent(self):
        assert bind_name("x", A, None, bnd(x=B)) is None


class TestMatchDecompose:
    def test_hole_against_hole_orders_split_first(self):
        got = match_decompose(EMPTY_G, HOLE_TERM, HOLE_PAT)
        assert got == [
            MatchResult(ContextDecomposition(HOLE, HOLE_TERM), EMPTY_BINDINGS),
            MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS),
        ]

    def test_hole_pattern_splits_any_term(self):
        got = match_decompose(EMPTY_G, AB, HOLE_PAT)
        assert got == [
            MatchResult(ContextDecomposition(HOLE, AB), EMPTY_BINDINGS)
        ]

    def test_literal_match(self):
        got = match_decompose(EMPTY_G, A, LitPat(A))
        assert got == [MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS)]

    def test_literal_mismatch_is_empty(self):
        assert match_decompose(EMPTY_G, A, LitPat(B)) == []

    def test_nil_against_nil(self):
        got = match_decompose(EMPTY_G, ListTerm(()), ListPat(()))
        assert got == [MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS)]

    def test_in_hole_over_trivial_split(self):
        p = InHolePat(HOLE_PAT, ListPat((LitPat(A), LitPat(B))))
        got = match_decompose(EMPTY_G, AB, p)
        assert got == [MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS)]
        assert matches(EMPTY_G, AB, p) == oracle_match(EMPTY_G, AB, p)

    def test_duplicate_results_permitted(self):
        g = new_grammar([("n", LitPat(A)), ("n", LitPat(A))])
        got = match_decompose(g, A, NtPat("n"))
        assert got == [
            MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS),
            MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS),
        ]

    def test_nonterminal_strips_bindings(self):
        g = new_grammar([("n", NamePat("x", LitPat(A)))])
        got = match_decompose(g, A, NtPat("n"))
        assert got == [MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS)]

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, seed):
        g, t, p = gen_case(random.Random(seed))
        assert match_decompose(g, t, p) == match_decompose(g, t, p)

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_reference_oracle(self, seed):
        g, t, p = gen_case(random.Random(seed))
        assert matches(g, t, p) == oracle_match(g, t, p)
        assert decompose(g, t, p) == oracle_decompose(g, t, p)

    def test_left_recursive_grammar_still_terminates(self):
        # production removal shrinks the grammar on every non-consuming
        # lookup, so even a left-recursive grammar cannot loop; it only
        # loses the correspondence with the ungeneralized judgments
        g = new_grammar([("n", NamePat("x", NtPat("n"))), ("n", LitPat(A))])
        assert is_left_recursive(g)
        assert matches(g, A, NtPat("n"), debug=True) == {EMPTY_BINDINGS}

        # n -> (nt n) derives nothing: its one production is removed on the
        # first lookup, so the second finds none
        g = new_grammar([("n", NtPat("n"))])
        assert is_left_recursive(g)
        assert matches(g, A, NtPat("n"), debug=True) == set()
        assert decompose(g, A, NtPat("n"), debug=True) == set()
        assert oracle_match(g, A, NtPat("n")) == set()
        assert oracle_decompose(g, A, NtPat("n")) == set()


class TestMatches:
    def test_name_binds(self):
        assert matches(EMPTY_G, A, NamePat("x", LitPat(A))) == {bnd(x=A)}

    def test_mismatch_empty(self):
        assert matches(EMPTY_G, A, LitPat(B)) == set()

    def test_lambda_value(self, lam):
        t, p = parse_term("(λ x x)"), parse_pattern("(nt v)")
        got = matches(lam.grammar, t, p)
        assert got == {EMPTY_BINDINGS}
        assert got == oracle_match(lam.grammar, t, p)

    def test_repeated_name_requires_equal_terms(self):
        p = ListPat((NamePat("x", LitPat(A)), NamePat("x", LitPat(A))))
        assert matches(EMPTY_G, ListTerm((A, A)), p) == {bnd(x=A)}
        p2 = ListPat((NamePat("x", LitPat(A)), NamePat("x", LitPat(B))))
        assert matches(EMPTY_G, ListTerm((A, B)), p2) == set()


class TestDecompose:
    def test_hole_pattern(self):
        assert decompose(EMPTY_G, AB, HOLE_PAT) == {(HOLE, AB, EMPTY_BINDINGS)}

    def test_literals_never_split(self):
        assert decompose(EMPTY_G, A, LitPat(A)) == set()

    def test_lambda_contexts(self, lam):
        t, p = parse_term("((λ x x) (λ y y))"), parse_pattern("(nt E)")
        got = decompose(lam.grammar, t, p)
        assert (HOLE, t, EMPTY_BINDINGS) in got
        assert len(got) == 3
        assert got == oracle_decompose(lam.grammar, t, p)


def subsequence_mask(productions, g):
    """The bits that spell g's productions in order among `productions`,
    matched right to left; None when g is not a sub-sequence of them.

    Matching from the right maps ``remove_prod(h, q)`` to the bits of h
    less the first occurrence of q, the bit the engine clears.
    """
    m, i = 0, len(productions) - 1
    for prod in reversed(g.productions):
        while i >= 0 and productions[i] != prod:
            i -= 1
        if i < 0:
            return None
        m |= 1 << i
        i -= 1
    return m


def order_decreases(g, nxt, prev):
    """The order on masks, `references.general_order_decreases`, on
    Grammar values.

    prev's grammar maps to its mask of g's index, or is indexed on its own
    when it is not a sub-sequence of g.  nxt's grammar is spelled among
    prev's productions, the only ones a step can keep, and each of those
    takes the bit it holds in prev's mask; a grammar that is not a
    sub-sequence of prev's maps to -1, which no step reaches.
    """
    index = grammar_index(g)
    m_prev = subsequence_mask(g.productions, prev.grammar)
    if m_prev is None:
        index = grammar_index(prev.grammar)
        m_prev = index.full
    within = subsequence_mask(prev.grammar.productions, nxt.grammar)
    m_next = -1
    if within is not None:
        bits = [i for i in range(m_prev.bit_length()) if m_prev >> i & 1]
        m_next = sum(1 << b for j, b in enumerate(bits) if within >> j & 1)
    return general_order_decreases(
        index, nxt.term, nxt.pattern, m_next, prev.term, prev.pattern, m_prev
    )


class TestTupleOrder:
    def test_subterm_component(self):
        g = new_grammar([("n", LitPat(A))])
        nxt = Problem(A, LitPat(A), g)
        prev = Problem(AB, ListPat((LitPat(A), LitPat(B))), g)
        assert order_decreases(g, nxt, prev)

    def test_in_hole_component(self):
        g = EMPTY_G
        p = InHolePat(HOLE_PAT, LitPat(A))
        assert order_decreases(g, Problem(AB, HOLE_PAT, g), Problem(AB, p, g))
        assert order_decreases(g, Problem(AB, LitPat(A), g), Problem(AB, p, g))

    def test_name_body(self):
        g = EMPTY_G
        p = NamePat("x", LitPat(A))
        assert order_decreases(g, Problem(A, LitPat(A), g), Problem(A, p, g))

    def test_production_removal(self):
        g = new_grammar([("n", LitPat(A)), ("n", LitPat(B))])
        nxt = Problem(A, LitPat(A), remove_prod(g, ("n", LitPat(A))))
        assert order_decreases(g, nxt, Problem(A, NtPat("n"), g))

    def test_strict(self):
        g = EMPTY_G
        tup = Problem(A, LitPat(A), g)
        assert not order_decreases(g, tup, tup)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_order_on_grammar_values(self, seed):
        rng = random.Random(seed)
        g, t, p = gen_case(rng)
        prods = list(g.productions)
        for _ in range(rng.randint(0, 2) if prods else 0):
            prods.insert(rng.randint(0, len(prods)), rng.choice(prods))
        g = new_grammar(prods)
        prev_g = g
        for _ in range(rng.randint(0, 2)):
            if prev_g.productions:
                prev_g = remove_prod(prev_g, rng.choice(prev_g.productions))
        if seed % 4 == 0:  # mostly not a sub-grammar of g
            prev_g = new_grammar(reversed(prev_g.productions))
        grammars = [g, prev_g, new_grammar(reversed(prev_g.productions))]
        grammars += [remove_prod(prev_g, q) for q in prev_g.productions]
        patterns = list(subpatterns(p)) + [q.pattern for q in prods]
        patterns += [NtPat(q.nonterminal) for q in prods]
        terms = [t, *list(proper_subterms(t))[:3]]
        pairs = [  # every production step, and random pairs
            (
                Problem(t, q.pattern, h),
                Problem(t, NtPat(q.nonterminal), prev_g),
            )
            for q in prods
            for h in grammars
        ]
        for _ in range(40):
            nxt = Problem(rng.choice(terms), rng.choice(patterns), rng.choice(grammars))
            prev = Problem(rng.choice(terms), rng.choice(patterns), prev_g)
            pairs.append((nxt, prev))
        for nxt, prev in pairs:
            assert order_decreases(g, nxt, prev) == reference_order(nxt, prev)

    def test_grammar_must_shrink_for_nt(self):
        g = new_grammar([("n", LitPat(A))])
        assert not order_decreases(
            g, Problem(A, LitPat(A), g), Problem(A, NtPat("n"), g)
        )


def flattened(t):
    """t's items as the list rule flattens it: a plain list's items, or a
    context term's heads down its tail-tagged path, then its hole side and
    the tail of its head-tagged node."""
    if isinstance(t, ListTerm):
        return list(t.items)
    items, c = [], t.context
    while isinstance(c, TailCtx):
        items.append(c.head)
        c = c.rest
    return [*items, CtxTerm(c.hole_side), *c.tail]


def edge_facts(index, t, p, m):
    """(kind, fact) for every edge that a rule of the judgment may make from
    (t, p, m), a hole side for every split of t."""
    if isinstance(p, NtPat):
        for entry in index[p.name][0]:
            if m & entry[0]:
                yield "production", entry
    elif isinstance(p, NamePat):
        yield "name body", SAME_TERM
    elif isinstance(p, InHolePat):
        yield "context side", SAME_TERM
        for c, u in enumerate_decompositions(t):
            kind = "bare-hole side" if c == HOLE else "hole side"
            yield kind, (c, u, EMPTY_BINDINGS)
    elif isinstance(p, ListPat) and _list_count(t) == len(p.items):
        items = flattened(t)
        for i in range(len(items)):
            yield "list item", (i, items)


class TestChild:
    """Every edge is made by `child`, so its goal must lie below its parent
    in the tuple order read on Grammar values, for every kind of fact."""

    KINDS = {
        "production",
        "name body",
        "context side",
        "bare-hole side",
        "hole side",
        "list item",
    }

    @staticmethod
    def cases(rng, n):
        """gen_case's, and a grammar that may be left recursive with a
        random term and pattern; each grammar with some productions
        repeated, so that removal has a first occurrence to pick."""
        for k in range(n):
            if k % 2:
                g, t, p = gen_case(rng)
            else:
                g = maybe_left_recursive_grammar(rng)
                nts = tuple(sorted({q.nonterminal for q in g.productions}))
                t, p = gen_term(rng, rng.randint(1, 4)), gen_pattern(rng, 3, nts)
            prods = list(g.productions)
            for _ in range(rng.randint(0, 2)):
                prods.insert(rng.randint(0, len(prods)), rng.choice(prods))
            yield new_grammar(prods), t, p

    @staticmethod
    def masks(rng, g):
        """g's index, or the index of g followed by a current grammar one
        production short; the original grammar's mask; and the masks a
        goal may have: the index's full mask, which a filter query reads,
        the current grammar's half, and a random sub-mask of each."""
        if rng.random() < 0.5:
            index = grammar_index(g)
            starts = [index.full]
        else:
            current = remove_prod(g, rng.choice(g.productions))
            index = GrammarIndex(g.productions + current.productions)
            starts = [index.full, index.full ^ grammar_index(g).full]
        orig = grammar_index(g).full
        starts += [m & rng.getrandbits(index.full.bit_length()) for m in starts]
        return index, orig, starts

    def test_every_goal_lies_below_its_parent(self):
        rng, seen, edges = random.Random(20261022), set(), 0
        for g, t, p in self.cases(rng, 120):
            index, orig, starts = self.masks(rng, g)
            grammars = {}

            def problem(t, p, m):
                if m not in grammars:
                    prods = index.productions
                    grammars[m] = new_grammar(q for i, q in enumerate(prods) if m >> i & 1)
                return Problem(t, p, grammars[m])

            terms = [t, *list(proper_subterms(t))[:6]]
            patterns = [*subpatterns(p), *(q.pattern for q in g.productions)]
            patterns += [NtPat(q.nonterminal) for q in g.productions]
            counts = {_list_count(s) for s in terms} - {None}
            patterns += [ListPat((HOLE_PAT,) * n) for n in counts]
            for s in terms:
                for q in patterns:
                    for m in starts:
                        for kind, fact in edge_facts(index, s, q, m):
                            goal = child(s, q, m, fact, orig)
                            assert reference_order(problem(*goal), problem(s, q, m)), kind
                            seen.add(kind)
                            edges += 1
        assert seen == self.KINDS
        assert edges > 1000


class TestImmediatePart:
    """The general order's identity path: a term built from one of the
    parent term's immediate parts is accepted without a scan."""

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_identity_path_is_sound_and_needs_the_same_objects(self, seed):
        rng = random.Random(seed)
        t = gen_term(rng, 5)
        terms = [t, *list(proper_subterms(t))[:30]]
        index = grammar_index(EMPTY_G)
        for prev in terms[:10]:
            parts = list(immediate_subterms(prev))
            assert all(from_immediate_part(sub, prev) for sub in parts)
            for sub in parts + [rng.choice(terms), gen_term(rng, 3)]:
                if not from_immediate_part(sub, prev):
                    continue
                assert is_proper_subterm(sub, prev)
                # an equal copy is found by the scan; only the empty
                # list's items, the shared (), are the same object
                twin = copy.deepcopy(sub)
                if twin != ListTerm(()):
                    assert not from_immediate_part(twin, prev)
                assert general_order_decreases(
                    index, twin, HOLE_PAT, 0, prev, HOLE_PAT, 0
                )


def right_chain_src(n):
    """The source text of ((λ v v) (... ((λ x x) (λ x x)))), n applications."""
    src = "(λ x x)"
    for i in range(1, n + 1):
        v = "xyzwfg"[i % 6]
        src = f"((λ {v} {v}) {src})"
    return src


def right_chain(n):
    return parse_term(right_chain_src(n))


def unshared_right_chain(n):
    """right_chain(n) with one object per node, as the recursive reference
    converter reads it: its equal sub-terms are not the same object."""
    return sexpr_term(parse_sexpr(right_chain_src(n)))


def balanced_tree_src(depth):
    """A complete application tree of 2**depth identity functions."""
    leaves = [f"(λ {v} {v})" for v in ("xyzwfg"[i % 6] for i in range(2**depth))]
    while len(leaves) > 1:
        leaves = [f"({a} {b})" for a, b in zip(leaves[::2], leaves[1::2])]
    return leaves[0]


def left_chain(n):
    """(((λ x x) (λ y y)) ... (λ v v)) with n applications."""
    src = "(λ x x)"
    for i in range(1, n + 1):
        v = "xyzwfg"[i % 6]
        src = f"({src} (λ {v} {v}))"
    return parse_term(src)


CHAIN_PATTERNS = {
    "redex": "(in-hole (name E (nt E)) ((name f (nt v)) (name a (nt v))))",
    "E": "(nt E)",
    "e": "(nt e)",
}

# (shape, n, pattern) -> (raw, distinct) match_decompose results, recorded
# before non-terminal subproblems were memoized.
CHAIN_RESULT_COUNTS = {
    ("right", 4, "redex"): (1, 1),
    ("right", 4, "E"): (9, 9),
    ("right", 4, "e"): (1, 1),
    ("right", 8, "redex"): (1, 1),
    ("right", 8, "E"): (17, 17),
    ("right", 8, "e"): (1, 1),
    ("right", 16, "redex"): (1, 1),
    ("right", 16, "E"): (33, 33),
    ("right", 16, "e"): (1, 1),
    ("left", 4, "redex"): (1, 1),
    ("left", 4, "E"): (6, 6),
    ("left", 4, "e"): (1, 1),
    ("left", 8, "redex"): (1, 1),
    ("left", 8, "E"): (10, 10),
    ("left", 8, "e"): (1, 1),
    ("left", 16, "redex"): (1, 1),
    ("left", 16, "E"): (18, 18),
    ("left", 16, "e"): (1, 1),
}


class TestRawResults:
    @pytest.mark.parametrize("key", sorted(CHAIN_RESULT_COUNTS))
    def test_chain_counts_pinned(self, lam, key):
        shape, n, name = key
        t = (right_chain if shape == "right" else left_chain)(n)
        p = parse_pattern(CHAIN_PATTERNS[name])
        checked = match_decompose(lam.grammar, t, p, debug=True)
        unchecked = match_decompose(lam.grammar, t, p, debug=False)
        assert checked == unchecked
        assert (len(checked), len(set(checked))) == CHAIN_RESULT_COUNTS[key]

    def test_duplicate_production_removes_first_occurrence(self):
        # n -> R | a | R | hole with R = (in-hole hole (nt n)): inside the
        # second R the first R must be the one removed, else the inner
        # lookup sees (R a) instead of (a R) and the results come reordered
        r = InHolePat(HOLE_PAT, NtPat("n"))
        g = new_grammar([("n", r), ("n", LitPat(A)), ("n", r), ("n", HOLE_PAT)])
        got = match_decompose(g, A, NtPat("n"), debug=True)
        kinds = "".join(
            "s" if isinstance(x.decomposition, ContextDecomposition) else "m"
            for x in got
        )
        assert kinds == "mmssmmmsss"

    def test_current_grammar_is_read_before_input_is_consumed(self):
        g = new_grammar([("n", LitPat(A)), ("n", LitPat(B))])
        smaller = remove_prod(g, ("n", LitPat(A)))
        assert match_decompose(g, A, NtPat("n"), smaller) == []
        assert match_decompose(g, B, NtPat("n"), smaller) == [
            MatchResult(EMPTY_DECOMPOSITION, EMPTY_BINDINGS)
        ]
        # a current grammar that is not a sub-sequence of g
        other = new_grammar([("n", LitPat(B)), ("n", ListPat((NtPat("n"),)))])
        for t in (A, B, ListTerm((A,)), ListTerm((ListTerm((B,)),))):
            assert matches(g, t, NtPat("n"), current=other) == oracle_match(
                g, t, NtPat("n"), other
            )


# sha256 over the repr of every raw list of the query set below, in its
# order, recorded before the list rule took one step per list pattern
QUERY_SET_DIGEST = "d3db5e58a0cad36986d52fc226c9198fde2ac385f8da52639cc61031c95683b6"


def query_set(lam):
    """3,000 generated cases, the same cases under the grammar less its
    first production as the current grammar, and right and left chains 0
    to 24 under the chain patterns and the nested in-hole patterns."""
    rng = random.Random(20261018)
    cases = [gen_case(rng) for _ in range(3000)]
    for g, t, p in cases:
        yield g, t, p, None
    for g, t, p in cases:
        yield g, t, p, new_grammar(g.productions[1:])
    sources = [CHAIN_PATTERNS[k] for k in ("redex", "E", "e")]
    patterns = [parse_pattern(src) for src in sources + list(TestExactPruning.NESTED)]
    for n in range(25):
        for t in (right_chain(n), left_chain(n)):
            for p in patterns:
                yield lam.grammar, t, p, None


@pytest.mark.parametrize("debug", [True, False])
def test_raw_lists_of_the_query_set_are_pinned(lam, debug):
    digest = hashlib.sha256()
    for g, t, p, current in query_set(lam):
        digest.update(repr(match_decompose(g, t, p, current, debug=debug)).encode())
    assert digest.hexdigest() == QUERY_SET_DIGEST


# sha256 over the repr of every raw list of the chain patterns on right
# chains 32, 48, 64 and 100 and left chains 32, 48 and 64, in that order:
# the query set stops at 24.  Recorded before the matcher carried its
# results as tuples.
CHAIN_LADDER_DIGEST = "939ca22e9220e3a0de5d96b0896cc8779a98f14e869914299a0d04d313b04dd7"


@pytest.mark.parametrize("debug", [True, False])
def test_raw_lists_of_the_chain_ladder_are_pinned(lam, debug):
    patterns = [parse_pattern(CHAIN_PATTERNS[k]) for k in ("redex", "E", "e")]
    chains = [right_chain(n) for n in (32, 48, 64, 100)]
    chains += [left_chain(n) for n in (32, 48, 64)]
    digest = hashlib.sha256()
    for t in chains:
        for p in patterns:
            digest.update(repr(match_decompose(lam.grammar, t, p, debug=debug)).encode())
    assert digest.hexdigest() == CHAIN_LADDER_DIGEST


class TestWorkColumns:
    """The records and context nodes one call builds on right chain 64,
    counted at each class's initializer.  The matcher carries its results
    as tuples and builds one MatchResult, and one ContextDecomposition
    per split, for each result it returns.  Before, (nt E) built 8,743
    MatchResults and 8,326 ContextDecompositions, and the redex pattern
    301 MatchResults and 127 ContextDecompositions; the context nodes
    are the same."""

    BUILT = {
        "E": (129, {MatchResult: 129, ContextDecomposition: 129, HeadCtx: 4160, TailCtx: 4096}),
        "redex": (1, {MatchResult: 1, ContextDecomposition: 0, HeadCtx: 63, TailCtx: 63}),
    }

    @pytest.mark.parametrize("debug", [True, False])
    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_records_built_per_returned_result(self, lam, monkeypatch, name, debug):
        t, p = right_chain(64), parse_pattern(CHAIN_PATTERNS[name])
        results, expected = self.BUILT[name]
        built = dict.fromkeys(expected, 0)
        for cls in built:

            def counted(obj, *fields, cls=cls, init=cls.__init__):
                built[cls] += 1
                init(obj, *fields)

            monkeypatch.setattr(cls, "__init__", counted)
        assert len(match_decompose(lam.grammar, t, p, debug=debug)) == results
        assert built == expected


class TestDebugChecksUnderMemo:
    # edges on right chain 16 under (nt E) when every non-terminal
    # subproblem was solved afresh, before memoization
    UNMEMOIZED_EDGES = 8566

    def query(self, lam):
        return lam.grammar, right_chain(16), NtPat("E")

    def test_each_distinct_edge_is_made_once(self, lam, monkeypatch):
        g, t, p = self.query(lam)
        calls = inject(monkeypatch, "child")
        for debug in (True, False):
            calls[0] = 0
            assert len(match_decompose(g, t, p, debug=debug)) == 33
            assert 0 < calls[0] < self.UNMEMOIZED_EDGES // 2

    def test_broken_plug_leaves_checked_list_unchanged(self, lam, monkeypatch):
        # the checks compare each split with the pieces it is built from
        # and plug nothing back, so a plug that answers the hole term for
        # every input changes no result
        g, t, p = self.query(lam)
        expected = repr(match_decompose(g, t, p, debug=True))
        patch_plug(monkeypatch, lambda c, s: HOLE_TERM)
        assert repr(match_decompose(g, t, p, debug=True)) == expected


def patch_plug(monkeypatch, wrong=None):
    """Count the calls of plug, as redsem.terms.plug and under the name
    redsem.matching.plug that an import of it would bind; answer
    wrong(*args) in place of the real result, if given."""
    import redsem.matching as matching
    import redsem.terms as terms

    real, calls = terms.plug, [0]

    def wrapped(*args):
        calls[0] += 1
        return (wrong or real)(*args)

    monkeypatch.setattr(terms, "plug", wrapped)
    monkeypatch.setattr(matching, "plug", wrapped, raising=False)
    return calls


def inject(monkeypatch, name, at=None, wrong=None):
    """Count the calls of redsem.matching.<name>; at call `at`, answer
    wrong(*args) in place of the real result."""
    import redsem.matching as matching

    real, calls = getattr(matching, name), [0]

    def wrapped(*args):
        calls[0] += 1
        return wrong(*args) if calls[0] == at else real(*args)

    monkeypatch.setattr(matching, name, wrapped)
    return calls


def inject_split(monkeypatch, rule, at=None, wrong=None):
    """Count the splits that rule, "select" or "combine", builds; build
    split `at` wrong.

    combine builds one split per call: its call `at` answers wrong(*args).
    select builds a whole level of the list fold per call, each split's
    context node by one constructor call: the `at`-th head-tagged node it
    builds is initialized by wrong(init, node, hole_side, tail) in place
    of HeadCtx's own initializer init.
    """
    import redsem.matching as matching

    if rule == "combine":
        return inject(monkeypatch, rule, at, wrong)
    real, init, calls, inside = matching.select, HeadCtx.__init__, [0], [False]

    def selecting(*args):
        inside[0] = True
        try:
            return real(*args)
        finally:
            inside[0] = False

    def building(node, hole_side, tail):
        if inside[0]:
            calls[0] += 1
            if calls[0] == at:
                return wrong(init, node, hole_side, tail)
        return init(node, hole_side, tail)

    monkeypatch.setattr(matching, "select", selecting)
    monkeypatch.setattr(HeadCtx, "__init__", building)
    return calls


def select_one_item_too_many(init, node, hole_side, tail):
    # a head split whose tail has an item that whole's tail lacks: it
    # plugs back to a list one item longer than whole
    return init(node, hole_side, tail + (A,))


def combine_wrong_inner(context, hole, bindings):
    # the hole result's context wrapped in a one-item list: the split
    # plugs back to a term with one list node too many
    c, s, _ = hole
    assert c is not None
    return compose(context, HeadCtx(c, ())), s, bindings


class TestInductiveDebugChecks:
    # every hole result of (in-hole (nt E) (nt E)) on a closed term is a
    # split, so every combine call composes two contexts; the message
    # names the rule whose check caught the split
    @pytest.mark.parametrize(
        "name, pattern, wrong, message",
        [
            ("select", "(nt E)", select_one_item_too_many, "list split"),
            (
                "combine",
                "(in-hole (nt E) (nt E))",
                combine_wrong_inner,
                "in-hole split",
            ),
        ],
    )
    def test_wrong_split_is_caught_where_it_is_built(
        self, lam, monkeypatch, name, pattern, wrong, message
    ):
        g, t, p = lam.grammar, right_chain(16), parse_pattern(pattern)
        calls = inject_split(monkeypatch, name)
        match_decompose(g, t, p, debug=True)
        total = calls[0]
        assert total > 1
        for k in (1, total // 2, total):
            monkeypatch.undo()
            inject_split(monkeypatch, name, k, wrong)
            with pytest.raises(SoundnessCheckError, match=message):
                match_decompose(g, t, p, debug=True)

    def test_checked_call_plugs_no_split_back(self, lam, monkeypatch):
        # the one-level checks above already give plug(c, s) = t for
        # every returned split, so nothing is plugged back to re-derive it
        calls = patch_plug(monkeypatch)
        got = match_decompose(lam.grammar, right_chain(16), NtPat("E"), debug=True)
        splits = [r for r in got if isinstance(r.decomposition, ContextDecomposition)]
        assert len(splits) == 33
        assert calls[0] == 0


class TestEdgeFacts:
    """The tuple order read on Grammar values, which criterion 5 and
    `TestChild` check each edge against, accepts every edge that `child`
    makes on a chain and refuses it with one part changed.  The parent term
    is a fault on an edge that leaves it from a list pattern (on an in-hole
    hole side the same term under the smaller hole pattern still lies
    below its parent), and the parent's mask on a production edge, which
    must remove its production."""

    FAULTS = {
        "parent term": (
            lambda goal, parent: goal[0] is not parent[0] and isinstance(parent[1], ListPat),
            lambda goal, parent: (parent[0], goal[1], goal[2]),
        ),
        "mask with no bit cleared": (
            lambda goal, parent: isinstance(parent[1], NtPat),
            lambda goal, parent: (goal[0], goal[1], parent[2]),
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("name", ["E", "redex", "e"])
    def test_changed_edge_is_refused(self, lam, monkeypatch, name, fault):
        import redsem.matching as matching

        g, t, p = lam.grammar, right_chain(16), parse_pattern(CHAIN_PATTERNS[name])
        applies, change = self.FAULTS[fault]
        real, edges = matching.child, []

        def recorded(t, p, m, fact, orig):
            goal = real(t, p, m, fact, orig)
            edges.append((goal, (t, p, m)))
            return goal

        monkeypatch.setattr(matching, "child", recorded)
        match_decompose(g, t, p, debug=True)
        grammars = {}

        def problem(t, p, m):
            if m not in grammars:
                grammars[m] = new_grammar(q for i, q in enumerate(g.productions) if m >> i & 1)
            return Problem(t, p, grammars[m])

        faulty = [(goal, parent) for goal, parent in edges if applies(goal, parent)]
        assert len(faulty) > 2
        for goal, parent in faulty:
            assert reference_order(problem(*goal), problem(*parent))
            assert not reference_order(problem(*change(goal, parent)), problem(*parent))


def test_deep_right_chain_within_default_recursion_limit(lam):
    # about ten Python frames per chain level: the memo must add none
    assert len(decompose(lam.grammar, right_chain(80), NtPat("E"))) == 161


# Builds chains without the parser and runs the matcher on them at the
# default recursion limit, with the debug checks on when argv[3] is "1".
# The results are not hashed, compared or printed: the term layer still
# recurses on the Python stack.
UNPARSED_CHAIN_SCRIPT = """\
import sys
from redsem import ListTerm, Literal, load_language, match_decompose, parse_pattern
g = load_language(sys.argv[1]).grammar
n, debug = int(sys.argv[2]), sys.argv[3] == "1"
def lam(i):
    v = Literal("xyzwfg"[i % 6])
    return ListTerm((Literal("λ"), v, v))
for pattern in sys.argv[4:]:
    for right in (True, False):
        t = ListTerm((Literal("λ"), Literal("x"), Literal("x")))
        for i in range(1, n + 1):
            t = ListTerm((lam(i), t) if right else (t, lam(i)))
        print(len(match_decompose(g, t, parse_pattern(pattern), debug=debug)))
"""


def same_without_recursion(a, b) -> bool:
    """a == b for results, terms and contexts, compared on an explicit
    stack, field by field: `__eq__` recurses a frame or two per level."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, (list, tuple)):
            if len(x) != len(y):
                return False
            todo.extend(zip(x, y))
        elif hasattr(x, "__match_args__") and not isinstance(x, Literal):
            for name in x.__match_args__:
                todo.append((getattr(x, name), getattr(y, name)))
        elif x != y:
            return False
    return True


def run_unparsed_chains(debug):
    src = os.path.dirname(os.path.dirname(redsem.__file__))
    patterns = [CHAIN_PATTERNS["e"], CHAIN_PATTERNS["redex"]]
    argv = [LAMBDA_FILE, "2000", "1" if debug else "0", *patterns]
    return subprocess.run(
        [sys.executable, "-c", UNPARSED_CHAIN_SCRIPT, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )


# Runs checked and unchecked (nt E) on one term and compares the raw lists
# without recursion, since `==` and `repr` recurse from about 250 levels:
# contexts by their printed text, sub-terms by identity.  (nt E) binds
# nothing.
CHECKED_DEPTH_SCRIPT = """\
import sys
from redsem import ContextDecomposition, load_language, match_decompose
from redsem import parse_pattern, parse_term, print_context
g = load_language(sys.argv[1]).grammar
t, p = parse_term(sys.argv[2]), parse_pattern("(nt E)")
checked = match_decompose(g, t, p, debug=True)
unchecked = match_decompose(g, t, p, debug=False)
same = len(checked) == len(unchecked) and all(
    type(a.decomposition) is type(b.decomposition) is ContextDecomposition
    and print_context(a.decomposition.context) == print_context(b.decomposition.context)
    and a.decomposition.subterm is b.decomposition.subterm
    and not a.bindings
    and not b.bindings
    for a, b in zip(checked, unchecked)
)
print(len(checked), same)
"""


def run_fresh(*args):
    """Run a fresh interpreter, at its default recursion limit, on args."""
    src = os.path.dirname(os.path.dirname(redsem.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )


class TestDepth:
    def test_matcher_needs_no_python_stack_per_level(self):
        # matching on the Python stack took about ten frames per chain
        # level, so 2,000 levels need the work stack
        proc = run_unparsed_chains(debug=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n" * 4

    def test_checked_matcher_needs_no_python_stack_per_level(self):
        # each edge's order check finds the new term among the parts of
        # the old one by identity
        proc = run_unparsed_chains(debug=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n" * 4

    # right chain n under (nt E) has 2n+1 splits and left chain n has n+2
    @pytest.mark.parametrize("shape, splits", [("right", 401), ("left", 202)])
    def test_chain_200_splits_checked_and_unchecked(self, lam, shape, splits):
        t = (right_chain if shape == "right" else left_chain)(200)
        checked = match_decompose(lam.grammar, t, NtPat("E"), debug=True)
        unchecked = match_decompose(lam.grammar, t, NtPat("E"), debug=False)
        kinds = {type(r.decomposition) for r in checked}
        assert (len(checked), kinds) == (splits, {ContextDecomposition})
        assert same_without_recursion(checked, unchecked)

    def test_checked_call_answers_right_chain_300(self):
        # the checks compare each split with its pieces by identity, so a
        # checked call goes as deep as an unchecked one
        proc = run_fresh("-c", CHECKED_DEPTH_SCRIPT, LAMBDA_FILE, right_chain_src(300))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "601 True\n"  # 2n + 1 splits

    def test_cli_match_on_right_chain_300_finds_no_whole_match(self):
        argv = ["match", "-g", LAMBDA_FILE, "-p", "(nt E)", "-t", right_chain_src(300)]
        proc = run_fresh("-m", "redsem.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")

    def test_slotted_classes_have_no_dict_and_round_trip(self):
        ctx = HeadCtx(HOLE, (A,))
        items, tail = ListTerm((A,)), TailCtx(A, ctx)
        term = CtxTerm(tail)
        pattern = InHolePat(NamePat("x", ListPat((NtPat("e"),))), HOLE_PAT)
        template = InHolePat(RefTemplate("x"), ListPat((RefTemplate("x"),)))
        # fill the _hash slots, and the _text slot of items
        for obj in (items, term, pattern, template):
            hash(obj)
        assert print_term(items) == "(a)"
        for obj in (
            items,
            term,
            ctx,
            tail,
            pattern,
            pattern.context_pat,
            pattern.context_pat.pattern,
            template,
            template.hole_pat,
            Bindings((("x", A),)),
            ContextDecomposition(ctx, B),
            MatchResult(ContextDecomposition(ctx, B), EMPTY_BINDINGS),
        ):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            # frozen slots are restored without assignment
            assert pickle.loads(pickle.dumps(obj)) == obj
            assert copy.deepcopy(obj) == obj

    def test_no_source_file_sets_the_recursion_limit(self):
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        for root, _, files in os.walk(src):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name), encoding="utf-8") as f:
                        assert "setrecursionlimit" not in f.read(), name


# n -> (in-hole (nt n) (nt n)) | hole | a | (in-hole (nt m) (nt n))
# m -> (in-hole hole (nt n)) | (hole (nt n)) | ((nt n) hole)
# is left recursive through in-hole, so a filter query asked at a hole
# leaf reaches the same hole leaf with the same filter again.
REENTRY_PRODUCTIONS = (
    ("n", "(in-hole (nt n) (nt n))"),
    ("n", "hole"),
    ("n", "a"),
    ("n", "(in-hole (nt m) (nt n))"),
    ("m", "(in-hole hole (nt n))"),
    ("m", "(hole (nt n))"),
    ("m", "((nt n) hole)"),
)

# (term, pattern) -> raw match_decompose results, recorded before
# decomposition was hole-directed
REENTRY_RAW_COUNTS = {
    ("a", "(nt n)"): 18,
    ("a", "(nt m)"): 4,
    ("a", "(in-hole (nt m) (nt n))"): 36,
    ("(a a)", "(nt n)"): 3897,
    ("(a a)", "(nt m)"): 3584,
}


class TestHoleDirected:
    @pytest.mark.parametrize("key", sorted(REENTRY_RAW_COUNTS))
    def test_reentered_filter_query_keeps_the_split(self, key):
        g = new_grammar([(nt, parse_pattern(rhs)) for nt, rhs in REENTRY_PRODUCTIONS])
        assert is_left_recursive(g)
        term, pattern = key
        got = match_decompose(g, parse_term(term), parse_pattern(pattern), debug=True)
        assert len(got) == REENTRY_RAW_COUNTS[key]

    @pytest.mark.parametrize("key", sorted(REENTRY_RAW_COUNTS))
    def test_agrees_with_oracle_on_left_recursive_grammar(self, key):
        # left recursive: the oracle's generalized search ends by production
        # removal alone
        g = new_grammar([(nt, parse_pattern(rhs)) for nt, rhs in REENTRY_PRODUCTIONS])
        t, p = parse_term(key[0]), parse_pattern(key[1])
        assert matches(g, t, p) == oracle_match(g, t, p)
        assert decompose(g, t, p) == oracle_decompose(g, t, p)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_results_are_monotone_in_the_grammar(self, seed):
        # the lemma that lets a filter query read the full grammar
        g, t, p = gen_case(random.Random(seed))
        under_full = set(match_decompose(g, t, p))
        for prod in g.productions:
            smaller = remove_prod(g, prod)
            assert set(match_decompose(g, t, p, smaller)) <= under_full


def count_hole_sides(monkeypatch):
    """Record the in-hole hole-side edges that `child` makes, the edges
    whose fact is the context side's split, each as its
    (t_next, p_next, m_next, t_prev, p_prev, m_prev)."""
    import redsem.matching as matching

    real, made = matching.child, []

    def counted(t, p, m, fact, orig):
        goal = real(t, p, m, fact, orig)
        if isinstance(p, InHolePat) and fact is not matching.SAME_TERM:
            made.append((*goal, t, p, m))
        return goal

    monkeypatch.setattr(matching, "child", counted)
    return made


def agrees_with_oracle(g, t, p, current=None):
    return matches(g, t, p, current=current) == oracle_match(g, t, p, current) and decompose(
        g, t, p, current=current
    ) == oracle_decompose(g, t, p, current)


class TestHoleSideReuse:
    """The in-hole rule reads its hole side from the results of the filter
    query that derived it when the hole side is that query's subproblem:
    the same term object and hole pattern object, no inherited filter,
    the full grammar and a finished query.  Elsewhere it makes the edge
    and derives the hole side, as before."""

    # the redex pattern and a current grammar on right chains 4 and 16,
    # each read with one object per node and as parse_term reads it; the
    # oracle takes seconds on chain 16, so it checks chain 4
    CHAINS = (
        (unshared_right_chain(4), True),
        (right_chain(4), True),
        (unshared_right_chain(16), False),
        (right_chain(16), False),
    )

    def test_redex_hole_side_is_read(self, lam, monkeypatch):
        # 1 hole-side edge on each chain before the reuse
        made = count_hole_sides(monkeypatch)
        p = parse_pattern(CHAIN_PATTERNS["redex"])
        for t, oracle in self.CHAINS:
            for debug in (True, False):
                got = match_decompose(lam.grammar, t, p, debug=debug)
                assert len(got) == 1 and made == []
            assert not oracle or agrees_with_oracle(lam.grammar, t, p)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_each_call_of_a_trace_reads_its_hole_sides(self, lam_nd, monkeypatch, depth):
        # the 26 calls of the depth-3 trace made 4, 3, ..., 1, 0 hole-side
        # edges before the reuse.  The trace reads only the pure matches;
        # decompositions are checked on the depth-2 trace, as the oracle
        # takes seconds on the depth-3 terms
        import redsem.matching as matching

        made = count_hole_sides(monkeypatch)
        monkeypatch.setitem(matching.match_decompose.__kwdefaults__, "debug", True)
        real, calls = matching.match_decompose, []

        def recording(*args, **kwargs):
            del made[:]
            result = real(*args, **kwargs)
            calls.append((args, len(made)))
            return result

        monkeypatch.setattr(matching, "match_decompose", recording)
        trace(lam_nd.grammar, list(lam_nd.rules), parse_term(balanced_tree_src(depth)), 10)
        monkeypatch.undo()
        assert len(calls) == {2: 5, 3: 26}[depth]
        for (g, t, p), edges in calls:
            assert edges == 0
            assert matches(g, t, p) == oracle_match(g, t, p)
            if depth == 2:
                assert decompose(g, t, p) == oracle_decompose(g, t, p)

    def test_a_current_grammar_derives_the_hole_side(self, lam, monkeypatch):
        # the hole side reads the original grammar, not the full index of
        # both grammars that its filter query read
        g, p = lam.grammar, parse_pattern(CHAIN_PATTERNS["redex"])
        smaller = remove_prod(g, g.productions[0])
        made = count_hole_sides(monkeypatch)
        for t, oracle in self.CHAINS:
            del made[:]
            got = match_decompose(g, t, p, smaller, debug=True)
            assert len(got) == 1 and [e[4] for e in made] == [p]
            assert not oracle or agrees_with_oracle(g, t, p, smaller)

    def test_an_inherited_filter_derives_the_hole_side(self, lam, monkeypatch):
        # the inner in-hole is the outer one's context side, so its hole
        # side runs under the outer hole pattern as its filter: 3 edges,
        # as before, while the outer in-hole's 2 are read
        g, t = lam.grammar, right_chain(3)
        p = parse_pattern(TestExactPruning.NESTED[1])
        made = count_hole_sides(monkeypatch)
        got = match_decompose(g, t, p, debug=True)
        assert len(got) == 2 and [e[4] for e in made] == [p.context_pat] * 3
        assert agrees_with_oracle(g, t, p)

    def test_a_query_still_being_answered_is_derived(self, monkeypatch):
        # the reader reads the production's two (nt n) as one object X, so
        # under its own hole pattern H = (in-hole hole X) the query (t, X)
        # that H's context side asks reaches H again at the full grammar,
        # with no filter, while (t, X) is still being answered: that hole
        # side is derived, and the root's, once (t, X) is answered, is
        # read (2 edges at the full grammar before the reuse, 6 in all)
        g = new_grammar(
            [
                ("n", parse_pattern("(in-hole (nt n) (in-hole hole (nt n)))")),
                ("n", parse_pattern("hole")),
                ("n", parse_pattern("a")),
            ]
        )
        h = g.productions[0].pattern.hole_pat
        assert h.hole_pat is g.productions[0].pattern.context_pat
        full = grammar_index(g).full
        made = count_hole_sides(monkeypatch)
        # raw results, as before the reuse; reading the open query as no
        # result halves them
        for src, raw in (("a", 4), ("(a a)", 2), ("(hole a)", 2)):
            t = parse_term(src)
            del made[:]
            assert len(match_decompose(g, t, h, debug=True)) == raw
            assert len(made) == 5
            assert [e[:3] for e in made if e[2] == full] == [(t, h.hole_pat, full)]
            assert agrees_with_oracle(g, t, h)

    # hole-side edges per re-entry key, 869, 883, 25, 23 and 27 before the
    # reuse.  n's in-hole productions run under a mask without their own
    # production, so a bare-hole context's hole side is not its query's
    # full-grammar subproblem, and under a context side they inherit its
    # filter; the oracle agreement on these keys is TestHoleDirected's
    REENTRY_HOLE_SIDES = {
        ("(a a)", "(nt n)"): 131,
        ("(a a)", "(nt m)"): 127,
        ("a", "(in-hole (nt m) (nt n))"): 23,
        ("a", "(nt m)"): 23,
        ("a", "(nt n)"): 27,
    }

    @pytest.mark.parametrize("key", sorted(REENTRY_HOLE_SIDES))
    def test_reentry_grammar_derives_hole_sides(self, monkeypatch, key):
        g = new_grammar([(nt, parse_pattern(rhs)) for nt, rhs in REENTRY_PRODUCTIONS])
        made = count_hole_sides(monkeypatch)
        t, p = parse_term(key[0]), parse_pattern(key[1])
        for debug in (True, False):
            del made[:]
            assert len(match_decompose(g, t, p, debug=debug)) == REENTRY_RAW_COUNTS[key]
            assert len(made) == self.REENTRY_HOLE_SIDES[key]


def list_count(t):
    """Item count of t as a list: a list context counts the items of the
    list it plugs to, and a bare hole plugs to no list."""
    if isinstance(t, CtxTerm):
        t = plug(t.context, A)
    return len(t.items) if isinstance(t, ListTerm) else None


class TestExactPruning:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_unread_productions_do_not_change_results(self, seed):
        # read-set lemma: (nt N) reads the grammar only at reads(N)
        g, t, _ = gen_case(random.Random(seed))
        index = grammar_index(g)
        for nt in {q.nonterminal for q in g.productions}:
            reads = index[nt][1]
            under_g = match_decompose(g, t, NtPat(nt))
            for i, q in enumerate(g.productions):
                if not reads >> i & 1:
                    smaller = remove_prod(g, q)
                    assert match_decompose(g, t, NtPat(nt), smaller) == under_g

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_productions_of_another_shape_give_nothing(self, seed):
        # shape lemma: a production the loop skips would give no result
        g, t, _ = gen_case(random.Random(seed))
        for s in [t, *proper_subterms(t)]:
            assert _list_count(s) == list_count(s)
            for q in g.productions:
                rhs = q.pattern
                if (isinstance(rhs, LitPat) and s != rhs.lit) or (
                    isinstance(rhs, ListPat) and list_count(s) != len(rhs.items)
                ):
                    assert match_decompose(g, s, rhs) == []

    # nested in-hole patterns: the inner in-hole's non-terminals read the
    # outer one's filter, so a memo key without the filter mixes them up
    # (pattern, shape) -> (raw, distinct) results on chain 4, recorded
    # before the pruning
    NESTED = (
        "(in-hole (nt E) (in-hole (nt E) ((nt v) (nt v))))",
        "(in-hole (in-hole (nt E) ((nt v) (nt E))) ((nt v) (nt v)))",
        "(in-hole (name C (nt E)) (in-hole (name D ((nt v) (nt E))) ((nt v) (nt v))))",
        "(in-hole (nt E) (in-hole ((nt v) (nt E)) hole))",
    )
    NESTED_COUNTS = {
        (0, "right"): (4, 1),
        (0, "left"): (4, 1),
        (1, "right"): (3, 1),
        (1, "left"): (0, 0),
        (2, "right"): (3, 3),
        (2, "left"): (0, 0),
        (3, "right"): (16, 7),
        (3, "left"): (1, 1),
    }

    @pytest.mark.parametrize("key", sorted(NESTED_COUNTS))
    def test_nested_in_hole_counts_pinned(self, lam, key):
        i, shape = key
        t = (right_chain if shape == "right" else left_chain)(4)
        got = match_decompose(lam.grammar, t, parse_pattern(self.NESTED[i]))
        assert (len(got), len(set(got))) == self.NESTED_COUNTS[key]

    @pytest.mark.parametrize("i", [0, 2, 3])
    def test_nested_in_hole_agrees_with_oracle(self, lam, i):
        g, t, p = lam.grammar, right_chain(3), parse_pattern(self.NESTED[i])
        assert matches(g, t, p) == oracle_match(g, t, p)
        assert decompose(g, t, p) == oracle_decompose(g, t, p)

    # edges that `child` makes on right chain 16, the same with the checks
    # on and off, the chain read with one object per node.  Before the pruning the same
    # queries made 1,210, 1,591 and 971, and 455, 517 and 333 while a list
    # pattern split its list into a head and a tail: 101, 145 and 83 of
    # those were tail edges, and under the redex pattern 34 more were
    # items on lists whose length differs from the pattern's, and the
    # steps below them.  The redex pattern's in-hole rule reads its hole
    # side from the filter query that derived it, not from 5 more edges
    # (320 and 215 before)
    PRUNED_EDGES = {"redex": 315, "E": 372, "e": 250}
    # the same calls on the chain as parse_term reads it, one object per
    # distinct sub-term: the memo, keyed by term object, solves and checks
    # each distinct (nt N) subproblem once
    SHARED_EDGES = {"redex": 210, "E": 247, "e": 134}

    @pytest.mark.parametrize("name", sorted(PRUNED_EDGES))
    def test_edge_counts_pinned(self, lam, monkeypatch, name):
        calls = inject(monkeypatch, "child")
        p = parse_pattern(CHAIN_PATTERNS[name])
        for t, edges, debug in (
            (unshared_right_chain(16), self.PRUNED_EDGES, True),
            (unshared_right_chain(16), self.PRUNED_EDGES, False),
            (right_chain(16), self.SHARED_EDGES, True),
            (right_chain(16), self.SHARED_EDGES, False),
        ):
            calls[0] = 0
            got = match_decompose(lam.grammar, t, p, debug=debug)
            assert len(got) == CHAIN_RESULT_COUNTS[("right", 16, name)][0]
            assert calls[0] == edges[name]

    # structural comparisons of terms or patterns made inside `child` in
    # the same queries: it builds each goal from the objects it is handed,
    # and scans no term for the goal's
    CHILD_COMPARISONS = {"redex": 0, "E": 0, "e": 0}

    @pytest.mark.parametrize("name", sorted(CHILD_COMPARISONS))
    def test_subterm_scans_pinned(self, lam, monkeypatch, name):
        import redsem.matching as matching

        real, inside, compared, made = matching.child, [False], [0, 0], [0]

        def building(*args):
            inside[0] = True
            made[0] += 1
            try:
                return real(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(matching, "child", building)
        for cls in (Literal, ListTerm, CtxTerm, HeadCtx, TailCtx, type(HOLE)):
            self.count_eq(monkeypatch, cls, inside, compared)
        for cls in (LitPat, type(HOLE_PAT), ListPat, NamePat, NtPat, InHolePat):
            self.count_eq(monkeypatch, cls, inside, compared)
        t, p = right_chain(16), parse_pattern(CHAIN_PATTERNS[name])
        match_decompose(lam.grammar, t, p, debug=True)
        assert made[0] == self.SHARED_EDGES[name]
        assert compared[0] == self.CHILD_COMPARISONS[name]
        assert compared[1] > 0  # the hole rule compares t with the hole term

    @staticmethod
    def count_eq(monkeypatch, cls, inside, compared):
        eq = cls.__eq__

        def counted(self, other):
            compared[0 if inside[0] else 1] += 1
            return eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counted)


# the code of match_decompose's judgment step, a generator
EV = next(c for c in match_decompose.__code__.co_consts if getattr(c, "co_name", "") == "ev")


def count_steps(g, t, p, debug):
    """match_decompose(g, t, p)'s results and its steps: the sub-queries
    that ev yields, each of which starts one more ev generator.  cProfile
    counts 2 * steps + 1 calls of ev: the root, each step's start, and
    the resume of its parent."""
    steps = [0]

    def profile(frame, event, arg):
        # a yield reaches the profiler as a "return" of the value yielded
        if event == "return" and frame.f_code is EV and type(arg) is tuple:
            steps[0] += 1

    sys.setprofile(profile)
    try:
        got = match_decompose(g, t, p, debug=debug)
    finally:
        sys.setprofile(None)
    return got, steps[0]


class TestReaderSharing:
    """The memo keys on the term object, so a chain read with one object
    per distinct sub-term solves each distinct (nt N) subproblem once."""

    @pytest.mark.parametrize("debug", [True, False])
    def test_steps_of_decompose_e_on_right_chain_64_pinned(self, lam, debug):
        g, p = lam.grammar, NtPat("E")
        unshared, before = count_steps(g, unshared_right_chain(64), p, debug)
        shared, after = count_steps(g, right_chain(64), p, debug)
        assert (before, after) == (1476, 823)
        assert repr(shared) == repr(unshared) and len(shared) == 129


DEPTH_SCRIPT = """\
import sys
from redsem import load_language, match_decompose, parse_pattern, parse_term
g = load_language(sys.argv[1]).grammar
for i in range(2, len(sys.argv), 2):
    p, t = parse_pattern(sys.argv[i]), parse_term(sys.argv[i + 1])
    print(len(match_decompose(g, t, p, debug=True)))
"""


def test_recursion_cliff_does_not_move_down():
    # the deepest right chains a fresh interpreter decides today, at its
    # default recursion limit, called from module level; the checks add
    # frames, so the unchecked calls go deeper still
    src = os.path.dirname(os.path.dirname(redsem.__file__))
    queries = [
        (CHAIN_PATTERNS["redex"], 96),
        (CHAIN_PATTERNS["E"], 97),
        (CHAIN_PATTERNS["e"], 97),
    ]
    argv = [a for pat, n in queries for a in (pat, print_term(right_chain(n)))]
    proc = subprocess.run(
        [sys.executable, "-c", DEPTH_SCRIPT, LAMBDA_FILE, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n195\n1\n"


def test_cli_decomposes_right_chain_200():
    # a fresh interpreter at its default recursion limit; the term layer,
    # not the matcher, bounds the CLI's depth, and the argv text is built
    # without print_term, which recurses
    src = os.path.dirname(os.path.dirname(redsem.__file__))
    argv = ["decompose", "-g", LAMBDA_FILE, "-p", "(nt E)", "-t", right_chain_src(200)]
    proc = subprocess.run(
        [sys.executable, "-m", "redsem.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 401  # 2n + 1 splits


def test_cli_finds_the_redex_of_right_chain_200():
    # a fresh interpreter at its default recursion limit; the redex's E
    # binding is a freshly built context 199 levels deep
    def chain(k, inner):
        return "((λ x x) " * k + inner + ")" * k

    n = 200
    bindings = f"(E {chain(n - 1, 'hole')}) (a (λ y y)) (f (λ x x))"
    term = chain(n, "(λ y y)")
    for argv, want in [
        (["match", "-p", CHAIN_PATTERNS["redex"]], f"(bindings {bindings})\n"),
        (["reduce"], f"(beta {chain(n - 1, '(λ y y)')})\n"),
    ]:
        proc = run_fresh("-m", "redsem.cli", *argv, "-g", LAMBDA_FILE, "-t", term)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_cli_answers_the_redex_and_a_trace_300_deep():
    # the CLI compares the redex's E binding only with results of its own
    # line, and a rule tells its matches apart by their text, so neither
    # hashes that context; from a little past 300 the printer, which still
    # recurses, bounds the depth
    def chain(k, inner):
        return "((λ x x) " * k + inner + ")" * k

    def levels(k, n):  # right chain n's levels k to n around (λ x x)
        src = "(λ x x)"
        for i in range(k, n + 1):
            src = "((λ {0} {0}) {1})".format("xyzwfg"[i % 6], src)
        return src

    n = 300
    term = chain(n, "(λ y y)")
    bindings = f"(bindings (E {chain(n - 1, 'hole')}) (a (λ y y)) (f (λ x x)))"
    statuses = ("reduced", "reduced", "cutoff")
    trace = [f"(node {k} {levels(k + 1, n)} {statuses[k]})" for k in range(3)]
    trace += ["(edge 0 beta 1)", "(edge 1 beta 2)"]
    for argv, want in [
        (["match", "-p", CHAIN_PATTERNS["redex"], "-t", term], [bindings]),
        (["reduce", "-t", term], [f"(beta {chain(n - 1, '(λ y y)')})"]),
        (["trace", "--max-steps", "2", "-t", levels(1, n)], trace),
    ]:
        proc = run_fresh("-m", "redsem.cli", *argv, "-g", LAMBDA_FILE)
        got = (proc.returncode, proc.stdout.splitlines(), proc.stderr)
        assert got == (0, want, "")
