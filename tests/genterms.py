"""Deterministic random corpus for property and acceptance tests."""

from __future__ import annotations

import random

from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    Bindings,
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
    NamePat,
    NtPat,
    Production,
    TailCtx,
    enumerate_decompositions,
    hole_matchable,
    is_left_recursive,
    new_grammar,
    productions_of,
    remove_prod,
)
from redsem.reduction import RefTemplate, Template
from redsem.terms import Context, ListContext, Pattern, Term

LITERALS = (Literal("a"), Literal("b"), Literal("c"), Literal(0), Literal(1), Literal(True))
VARS = ("x", "y")
NONTERMINALS = ("n1", "n2", "n3")


def gen_term(rng: random.Random, depth: int = 4) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return rng.choice(LITERALS)
    if roll < 0.85:
        width = rng.randint(0, 3)
        return ListTerm(tuple(gen_term(rng, depth - 1) for _ in range(width)))
    return CtxTerm(gen_context(rng, depth - 1))


def gen_context(rng: random.Random, depth: int = 3) -> Context:
    if depth <= 0 or rng.random() < 0.4:
        return HOLE
    return gen_list_context(rng, depth)


def gen_list_context(rng: random.Random, depth: int) -> ListContext:
    if depth <= 1 or rng.random() < 0.6:
        tail = tuple(gen_term(rng, depth - 1) for _ in range(rng.randint(0, 2)))
        return HeadCtx(gen_context(rng, depth - 1), tail)
    return TailCtx(gen_term(rng, depth - 1), gen_list_context(rng, depth - 1))


def gen_pattern(
    rng: random.Random, depth: int = 4, nonterminals: tuple[str, ...] = ()
) -> Pattern:
    roll = rng.random()
    if depth <= 0:
        roll = min(roll, 0.49)
    if roll < 0.30:
        return LitPat(rng.choice(LITERALS))
    if roll < 0.42:
        return HOLE_PAT
    if roll < 0.50:
        if nonterminals:
            return NtPat(rng.choice(nonterminals))
        return LitPat(rng.choice(LITERALS))
    if roll < 0.72:
        width = rng.randint(0, 3)
        return ListPat(tuple(gen_pattern(rng, depth - 1, nonterminals) for _ in range(width)))
    if roll < 0.85:
        return NamePat(rng.choice(VARS), gen_pattern(rng, depth - 1, nonterminals))
    return InHolePat(
        gen_pattern(rng, depth - 1, nonterminals),
        gen_pattern(rng, depth - 1, nonterminals),
    )


def context_pattern(
    rng: random.Random, c: Context, nonterminals: tuple[str, ...]
) -> Pattern:
    """A pattern that decomposes terms along the split context c."""
    if isinstance(c, Hole):
        return HOLE_PAT
    return ListPat(tuple(_context_pattern_elements(rng, c, nonterminals)))


def _context_pattern_elements(
    rng: random.Random, lc: ListContext, nonterminals: tuple[str, ...]
) -> list[Pattern]:
    if isinstance(lc, HeadCtx):
        return [context_pattern(rng, lc.hole_side, nonterminals)] + [
            abstract_pattern(rng, t, nonterminals) for t in lc.tail
        ]
    return [abstract_pattern(rng, lc.head, nonterminals)] + _context_pattern_elements(
        rng, lc.rest, nonterminals
    )


def abstract_pattern(
    rng: random.Random,
    t: Term,
    nonterminals: tuple[str, ...],
    ctx_nonterminals: tuple[str, ...] = (),
) -> Pattern:
    """A pattern shaped after t with random holes, names, non-terminals, and
    in-hole splits taken from t's real decompositions.

    Keeps random (term, pattern) pairs from being trivial mismatches.
    """
    roll = rng.random()
    if roll < 0.08:
        return HOLE_PAT
    if roll < 0.16 and nonterminals:
        return NtPat(rng.choice(nonterminals))
    if roll < 0.28:
        return NamePat(
            rng.choice(VARS),
            abstract_pattern(rng, t, nonterminals, ctx_nonterminals),
        )
    if roll < 0.40:
        c, sub = rng.choice(enumerate_decompositions(t))
        if ctx_nonterminals and rng.random() < 0.5:
            ctx_pat: Pattern = NtPat(rng.choice(ctx_nonterminals))
        else:
            ctx_pat = context_pattern(rng, c, nonterminals)
        if rng.random() < 0.3:
            ctx_pat = NamePat(rng.choice(VARS), ctx_pat)
        return InHolePat(
            ctx_pat, abstract_pattern(rng, sub, nonterminals, ctx_nonterminals)
        )
    if isinstance(t, Literal):
        return LitPat(t)
    if isinstance(t, ListTerm):
        return ListPat(
            tuple(
                abstract_pattern(rng, item, nonterminals, ctx_nonterminals)
                for item in t.items
            )
        )
    return context_pattern(rng, t.context, nonterminals)


def term_from_grammar(
    rng: random.Random, g: Grammar, nonterminal: str, depth: int = 4
) -> Term:
    """A term the grammar can actually produce (for non-trivial nt matches)."""
    rhss = productions_of(g, nonterminal)
    if not rhss or depth <= 0:
        return rng.choice(LITERALS)
    return _expand(rng, g, rng.choice(rhss), depth)


def _expand(rng: random.Random, g: Grammar, p: Pattern, depth: int) -> Term:
    if isinstance(p, LitPat):
        return p.lit
    if isinstance(p, HolePat):
        return HOLE_TERM
    if isinstance(p, ListPat):
        return ListTerm(tuple(_expand(rng, g, item, depth - 1) for item in p.items))
    if isinstance(p, NamePat):
        return _expand(rng, g, p.pattern, depth)
    if isinstance(p, NtPat):
        if depth <= 0:
            return rng.choice(LITERALS)
        return term_from_grammar(rng, g, p.name, depth - 1)
    return gen_term(rng, max(depth - 1, 0))


def gen_grammar(rng: random.Random, max_attempts: int = 50) -> Grammar:
    """A random non-left-recursive grammar, up to 3 non-terminals x 3 productions."""
    if rng.random() < 0.3:
        return _gen_context_grammar(rng)
    for _ in range(max_attempts):
        nts = NONTERMINALS[: rng.randint(1, 3)]
        prods = []
        for nt in nts:
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.15:
                    rhs: Pattern = HOLE_PAT
                elif roll < 0.30:
                    rhs = ListPat(tuple(NtPat(rng.choice(nts)) for _ in range(rng.randint(1, 2))))
                else:
                    rhs = gen_pattern(rng, 2, nts)
                prods.append(Production(nt, rhs))
        g = new_grammar(prods)
        if not is_left_recursive(g):
            return g
    return new_grammar([Production("n1", LitPat(Literal("a")))])


def maybe_left_recursive_grammar(rng: random.Random) -> Grammar:
    """A random grammar of 1-3 non-terminals; unlike `gen_grammar`, it
    keeps the left-recursive ones."""
    nts = NONTERMINALS[: rng.randint(1, 3)]
    prods = []
    for nt in nts:
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.1:
                rhs: Pattern = NtPat(rng.choice(nts))
            elif roll < 0.15:
                rhs = NamePat(rng.choice(VARS), NtPat(rng.choice(nts)))
            elif roll < 0.25:
                rhs = InHolePat(NtPat(rng.choice(nts)), NtPat(rng.choice(nts)))
            else:
                rhs = gen_pattern(rng, 2, nts)
            prods.append((nt, rhs))
    return new_grammar(prods)


def _gen_context_grammar(rng: random.Random) -> Grammar:
    """Evaluation-context style: a hole production plus recursive list shapes.

    Cons patterns have no non-consumption successors, so these grammars are
    never left recursive.
    """
    leaf = rng.choice((LitPat(Literal("a")), LitPat(Literal("b")), NtPat("n2")))
    prods = [Production("n1", HOLE_PAT)]
    if rng.random() < 0.8:
        prods.append(Production("n1", ListPat((NtPat("n1"), leaf))))
    if rng.random() < 0.8:
        prods.append(Production("n1", ListPat((leaf, NtPat("n1")))))
    prods.append(Production("n2", LitPat(Literal("a"))))
    prods.append(Production("n2", LitPat(Literal("b"))))
    return new_grammar(prods)


def gen_case(rng: random.Random) -> tuple[Grammar, Term, Pattern]:
    g = gen_grammar(rng)
    nts = tuple(sorted({p.nonterminal for p in g.productions}))
    matchable = hole_matchable(g)
    ctx_nts = tuple(n for n in nts if NtPat(n) in matchable)
    if rng.random() < 0.35:
        t = term_from_grammar(rng, g, rng.choice(nts), rng.randint(1, 4))
    else:
        t = gen_term(rng, rng.randint(1, 4))
    if rng.random() < 0.6:
        p = abstract_pattern(rng, t, nts, ctx_nts)
    else:
        p = gen_pattern(rng, rng.randint(1, 4), nts)
    return g, t, p


def oracle_case(
    rng: random.Random,
) -> tuple[Grammar, Term, Pattern, Grammar | None]:
    """A case to compare two statements of the oracle on: a third each of
    `gen_case`'s, of a grammar that may be left recursive with a random
    term and pattern, and of a term with a pattern abstracted from it.
    The last item is a current grammar one production short in about 30%
    of the cases, and None in the others."""
    roll = rng.random()
    if roll < 1 / 3:
        g, t, p = gen_case(rng)
    elif roll < 2 / 3:
        g = maybe_left_recursive_grammar(rng)
        nts = tuple(sorted({prod.nonterminal for prod in g.productions}))
        t = gen_term(rng, rng.randint(1, 4))
        p = gen_pattern(rng, rng.randint(1, 4), nts)
    else:
        g = gen_grammar(rng)
        nts = tuple(sorted({prod.nonterminal for prod in g.productions}))
        ctx_nts = tuple(n for n in nts if NtPat(n) in hole_matchable(g))
        t = gen_term(rng, rng.randint(1, 4))
        p = abstract_pattern(rng, t, nts, ctx_nts)
    current = None
    if len(g) and rng.random() < 0.3:
        current = remove_prod(g, rng.choice(g.productions))
    return g, t, p, current


TEMPLATE_VARS = ("E", "x", "y")  # in sorted order, as Bindings keeps them


def gen_template(rng: random.Random, depth: int = 4) -> Template:
    """A random template over `TEMPLATE_VARS`.  An in-hole's context slot
    is a reference to E or a hole more often than chance would make it, so
    that many templates instantiate and many faults lie deep."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        leaf = rng.random()
        if leaf < 0.4:
            return LitPat(rng.choice(LITERALS))
        if leaf < 0.55:
            return HOLE_PAT
        return RefTemplate(rng.choice(TEMPLATE_VARS))
    if roll < 0.65:
        width = rng.randint(0, 3)
        return ListPat(tuple(gen_template(rng, depth - 1) for _ in range(width)))
    slot = rng.random()
    if slot < 0.3:
        context: Template = RefTemplate("E")
    elif slot < 0.45:
        context = HOLE_PAT
    else:
        context = gen_template(rng, depth - 1)
    return InHolePat(context, gen_template(rng, depth - 1))


def gen_template_bindings(rng: random.Random) -> Bindings:
    """Bindings for `gen_template`'s variables: each is unbound at times,
    and E is bound to a context more often than to another term."""
    entries = []
    for var in TEMPLATE_VARS:
        if rng.random() < 0.15:
            continue
        if var == "E" and rng.random() < 0.75:
            entries.append((var, CtxTerm(gen_context(rng))))
        else:
            entries.append((var, gen_term(rng, 2)))
    return Bindings(tuple(entries))


def corpus(seed: int, n: int) -> list[tuple[Grammar, Term, Pattern]]:
    rng = random.Random(seed)
    return [gen_case(rng) for _ in range(n)]


# the keyword forms of the pattern and template syntaxes: head ->
# (number of arguments, whether the first is a symbol)
READER_FORMS = {
    "name": (2, True),
    "nt": (1, True),
    "in-hole": (2, False),
    "ref": (1, True),
}
LONG_INT = "9" * 5000  # past int()'s default limit of 4,300 digits
READER_ATOMS = ("a", "x", "λ", "-", "+a", "0", "-3", "+7", "#t", "#f", "hole")
NOT_SYMBOLS = ("5", "-1", "#t", "#f", "()", "(x)", LONG_INT)


def gen_reader_text(
    rng: random.Random, keywords: frozenset[str], depth: int = 4
) -> tuple[str, int]:
    """A random s-expression text, and the faults in it for the syntax
    whose keyword forms have the heads `keywords`: a reserved word or a
    5,000-digit integer where a literal goes, a keyword form with the wrong
    number of arguments, or a non-symbol where a symbol goes.  Nothing
    inside a form with the wrong number of arguments counts, since a reader
    reads no further into it."""
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        word = rng.random()
        if word < 0.15:
            text = rng.choice(tuple(READER_FORMS))
        else:
            text = LONG_INT if word < 0.27 else rng.choice(READER_ATOMS)
        return text, int(text in keywords or text == LONG_INT)
    sep = rng.choice((" ", " ", " ", "\n", "  ; c\n"))
    if roll < 0.7:  # a keyword form, whatever the syntax
        head = rng.choice(tuple(READER_FORMS))
        arity, symbol = READER_FORMS[head]
        if rng.random() < 0.2:
            arity = rng.choice([k for k in range(4) if k != arity])
        args = [gen_reader_text(rng, keywords, depth - 1) for _ in range(arity)]
        if symbol and args and head in keywords:
            bad = rng.random() < 0.15
            names = NOT_SYMBOLS if bad else ("x", "q", "λ", "hole", "nt", "ref")
            args[0] = rng.choice(names), int(bad)
        faults = sum(n for _, n in args)
        if head in keywords and len(args) != READER_FORMS[head][0]:
            faults = 1
        items = [head] + [text for text, _ in args]
    else:  # a plain list: its first item is no keyword
        width = rng.randint(0, 5)
        args = [gen_reader_text(rng, keywords, depth - 1) for _ in range(width)]
        while args and args[0][0] in READER_FORMS:
            args[0] = gen_reader_text(rng, keywords, depth - 1)
        faults = sum(n for _, n in args)
        items = [text for text, _ in args]
    return "(" + sep.join(items) + ")", faults
