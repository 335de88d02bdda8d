import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from genterms import NONTERMINALS, gen_case, gen_grammar, maybe_left_recursive_grammar
from redsem import (
    HOLE_PAT,
    Bindings,
    EmptyDecomposition,
    InHolePat,
    ListPat,
    Literal,
    LitPat,
    MatchResult,
    NamePat,
    NtPat,
    Production,
    ProductionNotFoundError,
    find_left_recursion,
    hole_matchable,
    is_left_recursive,
    match_decompose,
    new_grammar,
    productions_of,
    remove_prod,
)
import redsem.grammar
from redsem.grammar import GrammarIndex, grammar_index
from references import (
    grammar_entries,
    is_subgrammar,
    reference_hole_matchable,
    reference_index_sets,
    reference_left_recursion,
)

A, B, C = LitPat(Literal("a")), LitPat(Literal("b")), LitPat(Literal("c"))

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def rnd_grammar(seed):
    return gen_grammar(random.Random(seed))


class TestConstruction:
    def test_empty(self):
        assert len(new_grammar([])) == 0

    def test_single(self):
        assert len(new_grammar([("e", A)])) == 1

    def test_lambda_grammar_counts_every_rhs(self, lam):
        # 3 for e, 1 for v, 6 variable literals, 3 for E
        assert len(lam.grammar) == 13

    def test_duplicates_preserved(self):
        g = new_grammar([("e", A), ("e", A)])
        assert len(g) == 2


class TestProductionsOf:
    def test_empty(self):
        assert productions_of(new_grammar([]), "e") == ()

    def test_filters_in_order(self):
        g = new_grammar([("e", A), ("e", B), ("v", C)])
        assert productions_of(g, "e") == (A, B)

    def test_unknown_nonterminal(self):
        assert productions_of(new_grammar([("e", A)]), "v") == ()


class TestRemoveProd:
    def test_to_empty(self):
        g = remove_prod(new_grammar([("e", A)]), ("e", A))
        assert len(g) == 0

    def test_removes_one_occurrence(self):
        g = remove_prod(new_grammar([("e", A), ("e", B)]), ("e", A))
        assert g == new_grammar([("e", B)])

    def test_missing_production_raises(self):
        with pytest.raises(ProductionNotFoundError):
            remove_prod(new_grammar([("e", A)]), ("v", C))

    def test_length_decreases_by_one(self):
        g = new_grammar([("e", A), ("e", A), ("v", C)])
        assert len(remove_prod(g, ("e", A))) == len(g) - 1

    def test_membership_after_removal(self):
        g = new_grammar([("e", A), ("e", B)])
        g2 = remove_prod(g, ("e", A))
        assert Production("e", A) not in g2.productions
        assert Production("e", B) in g2.productions


class TestSubgrammar:
    def test_reflexive(self):
        g = new_grammar([("e", A), ("v", C)])
        assert is_subgrammar(g, g)

    def test_removal_shrinks(self):
        g = new_grammar([("e", A), ("v", C)])
        assert is_subgrammar(remove_prod(g, ("e", A)), g)

    def test_not_subgrammar_of_empty(self):
        assert not is_subgrammar(new_grammar([("e", A)]), new_grammar([]))

    @given(seeds, seeds, seeds)
    @settings(max_examples=60)
    def test_transitive(self, s1, s2, s3):
        g1, g2, g3 = rnd_grammar(s1), rnd_grammar(s2), rnd_grammar(s3)
        if is_subgrammar(g1, g2) and is_subgrammar(g2, g3):
            assert is_subgrammar(g1, g3)

    @given(seeds)
    def test_membership_transport(self, seed):
        g = rnd_grammar(seed)
        if len(g) == 0:
            return
        rng = random.Random(seed)
        smaller = remove_prod(g, rng.choice(g.productions))
        assert is_subgrammar(smaller, g)
        for p in smaller.productions:
            assert p in g.productions


class TestHoleMatchable:
    def test_hole_pattern_in(self):
        assert HOLE_PAT in hole_matchable(new_grammar([("n", HOLE_PAT)]))

    def test_literal_not_in(self):
        assert A not in hole_matchable(new_grammar([("n", A)]))

    def test_lambda_contexts_match_hole(self, lam):
        # E has a hole production, so (nt E) can match a bare hole; both
        # non-terminals occur in the grammar's own productions
        m = hole_matchable(lam.grammar)
        assert NtPat("E") in m
        assert NtPat("e") not in m

    @given(seeds)
    @settings(max_examples=60)
    def test_monotone_in_grammar(self, seed):
        g = rnd_grammar(seed)
        if len(g) == 0:
            return
        rng = random.Random(seed)
        smaller = remove_prod(g, rng.choice(g.productions))
        assert is_subgrammar(smaller, g)
        assert hole_matchable(smaller) <= hole_matchable(g)

    @given(seeds)
    def test_same_set_as_the_full_passes(self, seed):
        g = rnd_grammar(seed)
        assert hole_matchable(g) == reference_hole_matchable(g)


class TestLeftRecursion:
    def test_direct_cycle(self):
        g = new_grammar([("n", NtPat("n"))])
        # edge: (nt n) -> (nt n) because (nt n) is n's own right-hand side
        assert find_left_recursion(g) == (NtPat("n"),)

    def test_cons_patterns_break_cycles(self):
        g = new_grammar([("e", ListPat((NtPat("e"), NtPat("e"))))])
        # list patterns have no non-consumption successors: no cycle
        assert find_left_recursion(g) is None

    def test_lambda_grammar_is_not_left_recursive(self, lam):
        assert not is_left_recursive(lam.grammar)

    def test_in_hole_cycle_through_hole_matchable_context(self):
        g = new_grammar(
            [("e", InHolePat(NtPat("E"), NtPat("e"))), ("E", HOLE_PAT)]
        )
        # (nt e) -> (in-hole (nt E) (nt e)) -> (nt e), the second edge because
        # (nt E) reaches hole through E's hole production
        cycle = find_left_recursion(g)
        assert cycle is not None
        assert NtPat("e") in cycle
        assert InHolePat(NtPat("E"), NtPat("e")) in cycle

    def test_indirect_cycle(self):
        g = new_grammar([("a", NtPat("b")), ("b", NtPat("a"))])
        cycle = find_left_recursion(g)
        assert cycle is not None
        assert set(cycle) == {NtPat("a"), NtPat("b")}

    def test_same_witness_as_the_recursive_search(self):
        rng = random.Random(20261018)
        recursive = 0
        for _ in range(2000):
            g = maybe_left_recursive_grammar(rng)
            assert hole_matchable(g) == reference_hole_matchable(g)
            witness = find_left_recursion(g)
            assert witness == reference_left_recursion(g)
            recursive += witness is not None
        assert 500 < recursive < 1500  # both answers are exercised

    @given(seeds)
    def test_generated_corpus_grammars_are_filtered(self, seed):
        assert not is_left_recursive(rnd_grammar(seed))


class TestGrammarIndex:
    def test_in_hole_cycle_sets(self):
        # 0: e -> (in-hole (nt E) (nt e)), 1: E -> hole,
        # 2: E -> ((nt e) (nt E)), 3: v -> (name x (nt e))
        g = new_grammar(
            [
                ("e", InHolePat(NtPat("E"), NtPat("e"))),
                ("E", HOLE_PAT),
                ("E", ListPat((NtPat("e"), NtPat("E")))),
                ("v", NamePat("x", NtPat("e"))),
            ]
        )
        index = grammar_index(g)
        # e reads both sides of its in-hole; only its hole side, (nt e)
        # again, inherits the filter, and that reaches no hole pattern
        assert index["e"][1:] == (0b0111, False)
        assert index["E"][1:] == (0b0110, True)
        assert index["v"][1:] == (0b1111, False)
        assert index["u"] == ((), 0, False)
        for nt in ("e", "E", "v", "u"):
            assert index[nt][1:] == reference_index_sets(g, nt)

    def test_entries_equal_the_pairwise_grouping(self):
        # each grammar, and the grammar followed by itself less its first
        # production, whose equal right-hand sides share their `same` bits
        rng = random.Random(20261018)
        grouped = 0
        for _ in range(3000):
            g = gen_case(rng)[0]
            for prods in (g.productions, g.productions + g.productions[1:]):
                index = GrammarIndex(prods)
                for nt in {p.nonterminal for p in prods}:
                    rows = [
                        (1 << i, p.pattern)
                        for i, p in enumerate(prods)
                        if p.nonterminal == nt
                    ]
                    assert index[nt][0] == grammar_entries(rows)
                    grouped += sum(e[2] != e[0] for e in index[nt][0])
        assert grouped > 3000

    def test_analyses_leave_the_engine_index_unbuilt(self, lam):
        # the engine's cached index is built by the engine's first query,
        # whatever grammar analyses ran on the grammar before
        g = new_grammar(lam.grammar.productions)
        hole_matchable(g)
        find_left_recursion(g)
        assert not hasattr(g, "_index")

    def test_find_left_recursion_groups_the_productions_once(self, lam, monkeypatch):
        # one grouping and one set of sub-patterns per call, which the
        # hole-matchable analysis inside it reads too
        calls = Counter()
        for name in ("_group", "_universe"):

            def counted(arg, real=getattr(redsem.grammar, name), name=name):
                calls[name] += 1
                return real(arg)

            monkeypatch.setattr(redsem.grammar, name, counted)
        assert find_left_recursion(lam.grammar) is None
        assert calls == Counter({"_group": 1, "_universe": 1})

    def test_reads_and_filtered_are_exact(self):
        # a superset of reads would still pass the read-set lemma test of
        # test_matching but split the memo: only equality catches it
        rng = random.Random(20261019)
        for i in range(1000):
            if i % 2:
                g = maybe_left_recursive_grammar(rng)
            else:
                g = gen_grammar(rng)
            both = new_grammar(g.productions + g.productions[1:])
            for grammar, index in (
                (g, grammar_index(g)),
                (both, GrammarIndex(g.productions + g.productions[1:])),
            ):
                for nt in NONTERMINALS:
                    assert index[nt][1:] == reference_index_sets(grammar, nt)


class TestDeepChains:
    # a chain n0 -> (nt n1) -> ... -> (nt n3000) is grouped once and closed
    # in one search, with no rescan of the grammar per non-terminal; listed
    # leaf first, it takes no longer
    N = 3000

    def chains(self, last):
        rows = [(f"n{i}", NtPat(f"n{i + 1}")) for i in range(self.N)]
        rows.append((f"n{self.N}", last))
        return new_grammar(rows), new_grammar(rows[::-1])

    def test_match_on_chain_ending_in_literal(self):
        for g in self.chains(A):
            start = time.perf_counter()
            got = match_decompose(g, Literal("a"), NtPat("n0"))
            assert time.perf_counter() - start < 10
            assert got == [MatchResult(EmptyDecomposition(), Bindings(()))]

    def test_hole_matchable_on_chain_ending_in_hole(self):
        # (nt n0) is in no right-hand side; (nt n1) is 3,000 steps from hole
        expected = {HOLE_PAT, *(NtPat(f"n{i}") for i in range(1, self.N + 1))}
        for g in self.chains(HOLE_PAT):
            start = time.perf_counter()
            got = hole_matchable(g)
            assert time.perf_counter() - start < 10
            assert got == expected
