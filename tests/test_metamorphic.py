"""Metamorphic relations: two engine runs whose answers must agree, on
inputs that differ in a way the judgment cannot see.  They need no
reference answer, so they check the engine wherever it runs.

A grammar is a set of productions per non-terminal, read in grammar
order: the order and the multiplicity of productions decide at most the
order and the duplicates of the raw result list, never the sets that
`matches` and `decompose` return.  The judgment of a pattern reads only
the non-terminals that the pattern reaches, so productions of a
non-terminal it cannot reach change nothing, not even the raw list.
Names are only compared with each other, so a bijective renaming of the
non-terminals and of the pattern variables renames the answers and
changes nothing else.
"""

import random

import pytest

from genterms import NONTERMINALS, VARS, gen_case, gen_pattern
from redsem import (
    Bindings,
    InHolePat,
    ListPat,
    NamePat,
    NtPat,
    Production,
    decompose,
    match_decompose,
    matches,
    new_grammar,
)

CASES = 2000
UNREACHED = "unreached"
assert UNREACHED not in NONTERMINALS


@pytest.fixture(scope="module")
def cases():
    rng = random.Random(11)
    return [gen_case(rng) for _ in range(CASES)]


def answers(g, t, p):
    return matches(g, t, p), decompose(g, t, p)


def test_shuffling_the_productions_leaves_the_answers_unchanged(cases):
    rng = random.Random(12)
    for g, t, p in cases:
        shuffled = new_grammar(rng.sample(g.productions, len(g.productions)))
        assert answers(shuffled, t, p) == answers(g, t, p), (g, t, p, shuffled)


def test_duplicating_a_production_leaves_the_answers_unchanged(cases):
    rng = random.Random(13)
    for g, t, p in cases:
        i = rng.randrange(len(g.productions))
        prods = g.productions
        doubled = new_grammar(prods[: i + 1] + prods[i:])
        assert answers(doubled, t, p) == answers(g, t, p), (g, t, p, doubled)


def test_an_unreachable_nonterminal_leaves_the_raw_list_unchanged(cases):
    rng = random.Random(14)
    for g, t, p in cases:
        nts = (*sorted({prod.nonterminal for prod in g.productions}), UNREACHED)
        prods = list(g.productions)
        for _ in range(rng.randint(1, 2)):
            rhs = gen_pattern(rng, 2, nts)
            prods.insert(rng.randint(0, len(prods)), Production(UNREACHED, rhs))
        wider = new_grammar(prods)
        raw = match_decompose(g, t, p)
        assert match_decompose(wider, t, p) == raw, (g, t, p, wider)


def renamed(p, nts, names):
    """p with each non-terminal n renamed nts[n] and each variable v
    renamed names[v]."""
    if isinstance(p, NtPat):
        return NtPat(nts[p.name])
    if isinstance(p, NamePat):
        return NamePat(names[p.var], renamed(p.pattern, nts, names))
    if isinstance(p, ListPat):
        return ListPat(tuple(renamed(q, nts, names) for q in p.items))
    if isinstance(p, InHolePat):
        return InHolePat(
            renamed(p.context_pat, nts, names), renamed(p.hole_pat, nts, names)
        )
    return p


def test_renaming_the_nonterminals_and_variables_renames_the_answers(cases):
    # fresh names and the old ones, drawn so that the renaming may reverse
    # the order the names sort in, and with it the bindings' entries
    rng = random.Random(15)
    for g, t, p in cases:
        nts = dict(zip(NONTERMINALS, rng.sample([*NONTERMINALS, "a", "m", "z"], 3)))
        names = dict(zip(VARS, rng.sample([*VARS, "b", "w"], 2)))
        prods = [
            Production(nts[q.nonterminal], renamed(q.pattern, nts, names))
            for q in g.productions
        ]

        def rename(b):
            return Bindings(tuple(sorted((names[v], value) for v, value in b.entries)))

        got = answers(new_grammar(prods), t, renamed(p, nts, names))
        want = answers(g, t, p)
        assert got == (
            {rename(b) for b in want[0]},
            {(c, s, rename(b)) for c, s, b in want[1]},
        ), (g, t, p, nts, names)
