"""Brute-force ground truth for matching and decomposition.

Transcribes the two mutually inductive judgment systems directly: every
candidate split of the input term is enumerated exhaustively and checked
rule by rule, with none of the engine's select/combine machinery.  This
keeps the oracle independent of the matcher so that agreement between the
two is a meaningful check.  Exponential; intended for desk-scale inputs.
"""

from __future__ import annotations

from .errors import EngineError
from .grammar import Grammar, Production, productions_of, remove_prod
from .matching import EMPTY_BINDINGS, Bindings
from .terms import (
    HOLE,
    HOLE_TERM,
    Context,
    CtxTerm,
    HeadCtx,
    Hole,
    HolePat,
    InHolePat,
    ListContext,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    NamePat,
    NtPat,
    Pattern,
    TailCtx,
    Term,
    compose,
    pattern_size,
)


class OracleFuelError(EngineError):
    """The oracle's non-consumption budget ran out (suspected left recursion)."""


def _union(b1: Bindings, b2: Bindings) -> Bindings | None:
    """Disjoint union: defined iff shared variables agree on their terms."""
    if not b1.entries:
        return b2
    if not b2.entries:
        return b1
    merged = dict(b1.entries)
    for var, value in b2.entries:
        if merged.setdefault(var, value) != value:
            return None
    return Bindings(tuple(sorted(merged.items())))


def enumerate_decompositions(t: Term) -> list[tuple[Context, Term]]:
    """All (context, sub-term) pairs that plug back to t.

    Always starts with the trivial (hole, t) split.  Plain lists split at
    every reachable element position; a context term splits at every cut
    point along its hole path (the extracted sub-term is the inner
    context).  Context values sitting inside plain lists are opaque: no
    split reaches into or extracts them, because no plug could rebuild the
    plain list from such a split.
    """
    out: list[tuple[Context, Term]] = [(HOLE, t)]
    if isinstance(t, ListTerm):
        out.extend(_list_splits(t.items))
    elif isinstance(t, CtxTerm) and not isinstance(t.context, Hole):
        out.extend(
            (outer, CtxTerm(inner)) for outer, inner in _context_cuts(t.context)
        )
    return out


def _list_splits(items: tuple[Term, ...]) -> list[tuple[ListContext, Term]]:
    if not items:
        return []
    head, tail = items[0], items[1:]
    out: list[tuple[ListContext, Term]] = []
    if not isinstance(head, CtxTerm):
        out.extend(
            (HeadCtx(c, tail), sub) for c, sub in enumerate_decompositions(head)
        )
    out.extend((TailCtx(head, lc), sub) for lc, sub in _list_splits(tail))
    return out


def _context_cuts(lc: ListContext) -> list[tuple[ListContext, Context]]:
    """Nontrivial (outer, inner) pairs with compose(outer, inner) == lc."""
    if isinstance(lc, HeadCtx):
        cuts: list[tuple[Context, Context]] = [(HOLE, lc.hole_side)]
        if not isinstance(lc.hole_side, Hole):
            cuts.extend(_context_cuts(lc.hole_side))
        return [(HeadCtx(outer, lc.tail), inner) for outer, inner in cuts]
    return [(TailCtx(lc.head, outer), inner) for outer, inner in _context_cuts(lc.rest)]


def _grammar_weight(g: Grammar) -> int:
    return sum(1 + pattern_size(p.pattern) for p in g.productions)


# The budget is what stops the ungeneralized search on a left-recursive
# grammar.  The generalized search removes a production on every step that
# consumes no input, so it never runs out.
def _phase_budget(p: Pattern, g: Grammar) -> int:
    return pattern_size(p) + _grammar_weight(g) + 1


class _Search:
    """Rule-by-rule derivability search for both judgment forms.

    With `removal` off, a non-terminal keeps the grammar it was read
    against: the ungeneralized judgment, which loops on a left-recursive
    grammar until the budget runs out.
    """

    def __init__(self, original: Grammar, removal: bool = True):
        self.original = original
        self.removal = removal
        self.reset_weight = _grammar_weight(original)

    def _reset(self, p: Pattern) -> int:
        return pattern_size(p) + self.reset_weight + 1

    def match(self, t: Term, p: Pattern, g_cur: Grammar, fuel: int) -> set[Bindings]:
        if fuel < 0:
            raise OracleFuelError(
                "oracle ran out of non-consumption budget; "
                "the grammar is probably left recursive"
            )
        g1 = self.original

        if isinstance(p, LitPat):
            if isinstance(t, Literal) and t == p.lit:
                return {EMPTY_BINDINGS}
            return set()

        if isinstance(p, HolePat):
            if t == HOLE_TERM:
                return {EMPTY_BINDINGS}
            return set()

        if isinstance(p, NamePat):
            out = set()
            for b in self.match(t, p.pattern, g_cur, fuel - 1):
                merged = _union(b, Bindings(((p.var, t),)))
                if merged is not None:
                    out.add(merged)
            return out

        if isinstance(p, NtPat):
            for rhs in productions_of(g_cur, p.name):
                shrunk = g_cur
                if self.removal:
                    shrunk = remove_prod(g_cur, Production(p.name, rhs))
                if self.match(t, rhs, shrunk, fuel - 1):
                    return {EMPTY_BINDINGS}
            return set()

        if isinstance(p, ListPat):
            return self._match_list(t, p, fuel)

        if isinstance(p, InHolePat):
            out = set()
            for c_ctx, t_ctx in enumerate_decompositions(t):
                if isinstance(c_ctx, Hole):
                    # the context pattern matched a bare hole: no input was
                    # consumed, so the focused match keeps the current grammar
                    bcs = self.decomp(t, HOLE, t, p.context_pat, g_cur, fuel - 1)
                    if not bcs:
                        continue
                    bhs = self.match(t, p.hole_pat, g_cur, fuel - 1)
                else:
                    bcs = self.decomp(t, c_ctx, t_ctx, p.context_pat, g_cur, fuel - 1)
                    if not bcs:
                        continue
                    bhs = self.match(t_ctx, p.hole_pat, g1, self._reset(p.hole_pat))
                for bc in bcs:
                    for bh in bhs:
                        merged = _union(bc, bh)
                        if merged is not None:
                            out.add(merged)
            return out

        return set()

    def _match_list(self, t: Term, p: ListPat, fuel: int) -> set[Bindings]:
        g1 = self.original
        if isinstance(t, ListTerm):
            if not t.items and not p.items:
                return {EMPTY_BINDINGS}
            if not t.items or not p.items:
                return set()
            head, tail_term = t.items[0], ListTerm(t.items[1:])
        elif isinstance(t, CtxTerm) and isinstance(t.context, HeadCtx):
            if not p.items:
                return set()
            head, tail_term = CtxTerm(t.context.hole_side), ListTerm(t.context.tail)
        elif isinstance(t, CtxTerm) and isinstance(t.context, TailCtx):
            if not p.items:
                return set()
            head, tail_term = t.context.head, CtxTerm(t.context.rest)
        else:
            return set()
        p_head, p_tail = p.items[0], ListPat(p.items[1:])
        heads = self.match(head, p_head, g1, self._reset(p_head))
        if not heads:
            return set()
        tails = self.match(tail_term, p_tail, g1, self._reset(p_tail))
        out = set()
        for bh in heads:
            for bt in tails:
                merged = _union(bh, bt)
                if merged is not None:
                    out.add(merged)
        return out

    def decomp(
        self,
        t: Term,
        c: Context,
        sub: Term,
        p: Pattern,
        g_cur: Grammar,
        fuel: int,
    ) -> set[Bindings]:
        """Bindings for which t = c[sub] is derivable against p."""
        if fuel < 0:
            raise OracleFuelError(
                "oracle ran out of non-consumption budget; "
                "the grammar is probably left recursive"
            )
        g1 = self.original

        if isinstance(p, HolePat):
            if isinstance(c, Hole) and sub == t:
                return {EMPTY_BINDINGS}
            return set()

        if isinstance(p, LitPat):
            return set()

        if isinstance(p, NamePat):
            out = set()
            for b in self.decomp(t, c, sub, p.pattern, g_cur, fuel - 1):
                merged = _union(b, Bindings(((p.var, CtxTerm(c)),)))
                if merged is not None:
                    out.add(merged)
            return out

        if isinstance(p, NtPat):
            for rhs in productions_of(g_cur, p.name):
                shrunk = g_cur
                if self.removal:
                    shrunk = remove_prod(g_cur, Production(p.name, rhs))
                if self.decomp(t, c, sub, rhs, shrunk, fuel - 1):
                    return {EMPTY_BINDINGS}
            return set()

        if isinstance(p, ListPat):
            return self._decomp_list(t, c, sub, p)

        if isinstance(p, InHolePat):
            return self._decomp_inhole(t, c, sub, p, g_cur, fuel)

        return set()

    def _decomp_list(self, t: Term, c: Context, sub: Term, p: ListPat) -> set[Bindings]:
        g1 = self.original
        if not p.items:
            return set()
        p_head, p_tail = p.items[0], ListPat(p.items[1:])

        # A context term splits only along its own hole path: the head rule
        # applies to head-tagged contexts, the tail rule to tail-tagged ones.
        if isinstance(t, ListTerm) and t.items:
            head, tail_items = t.items[0], t.items[1:]
            tail_term: Term = ListTerm(tail_items)
            head_rule = tail_rule = True
        elif isinstance(t, CtxTerm) and isinstance(t.context, HeadCtx):
            head, tail_items = CtxTerm(t.context.hole_side), t.context.tail
            tail_term = ListTerm(tail_items)
            head_rule, tail_rule = True, False
        elif isinstance(t, CtxTerm) and isinstance(t.context, TailCtx):
            head, tail_items = t.context.head, ()
            tail_term = CtxTerm(t.context.rest)
            head_rule, tail_rule = False, True
        else:
            return set()

        out: set[Bindings] = set()
        if head_rule and isinstance(c, HeadCtx) and c.tail == tail_items:
            inner = self.decomp(head, c.hole_side, sub, p_head, g1, self._reset(p_head))
            if inner:
                tails = self.match(tail_term, p_tail, g1, self._reset(p_tail))
                for bh in inner:
                    for bt in tails:
                        merged = _union(bh, bt)
                        if merged is not None:
                            out.add(merged)
        if tail_rule and isinstance(c, TailCtx) and c.head == head:
            heads = self.match(head, p_head, g1, self._reset(p_head))
            if heads:
                inner = self.decomp(
                    tail_term, c.rest, sub, p_tail, g1, self._reset(p_tail)
                )
                for bh in heads:
                    for bt in inner:
                        merged = _union(bh, bt)
                        if merged is not None:
                            out.add(merged)
        return out

    def _decomp_inhole(
        self, t: Term, c: Context, sub: Term, p: InHolePat, g_cur: Grammar, fuel: int
    ) -> set[Bindings]:
        g1 = self.original
        out: set[Bindings] = set()
        for c_outer, t_mid in enumerate_decompositions(t):
            if isinstance(c_outer, Hole):
                # the context pattern matched a bare hole: the nested split
                # works on the whole term under the current grammar
                bcs = self.decomp(t, HOLE, t, p.context_pat, g_cur, fuel - 1)
                if not bcs:
                    continue
                bhs = self.decomp(t, c, sub, p.hole_pat, g_cur, fuel - 1)
            else:
                bcs = self.decomp(t, c_outer, t_mid, p.context_pat, g_cur, fuel - 1)
                if not bcs:
                    continue
                bhs: set[Bindings] = set()
                for c_inner, t_inner in enumerate_decompositions(t_mid):
                    if compose(c_outer, c_inner) == c and t_inner == sub:
                        bhs |= self.decomp(
                            t_mid,
                            c_inner,
                            t_inner,
                            p.hole_pat,
                            g1,
                            self._reset(p.hole_pat),
                        )
            for bc in bcs:
                for bh in bhs:
                    merged = _union(bc, bh)
                    if merged is not None:
                        out.add(merged)
        return out


def oracle_match(
    grammar: Grammar, term: Term, pattern: Pattern, current: Grammar | None = None
) -> set[Bindings]:
    """Bindings derivable for the matching judgment, by exhaustive search."""
    if current is None:
        current = grammar
    search = _Search(grammar)
    return search.match(term, pattern, current, _phase_budget(pattern, current))


def oracle_decompose(
    grammar: Grammar, term: Term, pattern: Pattern, current: Grammar | None = None
) -> set[tuple[Context, Term, Bindings]]:
    """Derivable (context, sub-term, bindings) triples, by exhaustive search."""
    if current is None:
        current = grammar
    search = _Search(grammar)
    budget = _phase_budget(pattern, current)
    out: set[tuple[Context, Term, Bindings]] = set()
    for c, sub in enumerate_decompositions(term):
        for b in search.decomp(term, c, sub, pattern, current, budget):
            out.add((c, sub, b))
    return out


def oracle_match_original(
    grammar: Grammar, term: Term, pattern: Pattern
) -> set[Bindings]:
    """Matching under the ungeneralized judgment form, by exhaustive search.

    Non-terminals are always read against the full grammar and no
    production is ever removed.  On a grammar that is not left recursive
    this agrees with the generalized judgment; on a left-recursive one the
    search can loop without consuming input, and then raises
    OracleFuelError.
    """
    search = _Search(grammar, removal=False)
    return search.match(term, pattern, grammar, _phase_budget(pattern, grammar))
