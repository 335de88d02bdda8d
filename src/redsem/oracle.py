"""Brute-force ground truth for matching and decomposition.

Transcribes the two mutually inductive judgment systems directly, rule
by rule, with none of the engine's select/combine machinery; each rule is
written once, in `_Search`.  Each rule's existential is enumerated
exhaustively: the in-hole matching rule tries every split of the input
term, and the in-hole decomposition rule every factorization
``c = c1 ∘ c2`` of the split's context, as the rule's side condition
states it.  This keeps the oracle independent of the matcher so that
agreement between the two is a meaningful check.  The generalized search
ends by production removal alone, as the judgment does; the ungeneralized
one stops where it re-enters a goal.  Exponential; intended for
desk-scale inputs.
"""

from __future__ import annotations

from .errors import EngineError
from .grammar import Grammar, _group
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
    plug,
)


class OracleFuelError(EngineError):
    """The ungeneralized oracle search re-entered a goal it was still
    deriving: it would loop forever (the grammar is left recursive)."""


_REENTERED = (
    "oracle re-entered a goal it is still deriving; the grammar is left recursive"
)


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


def _cross(xs, ys) -> set[Bindings]:
    """Every defined union of a binding in xs with a binding in ys."""
    return {m for x in xs for y in ys if (m := _union(x, y)) is not None}


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
    """Every (outer, inner) pair with compose(outer, inner) == lc whose
    outer is not the bare hole: one cut at each head level of lc's hole
    path, outermost first."""
    if isinstance(lc, HeadCtx):
        cuts: list[tuple[Context, Context]] = [(HOLE, lc.hole_side)]
        if not isinstance(lc.hole_side, Hole):
            cuts.extend(_context_cuts(lc.hole_side))
        return [(HeadCtx(outer, lc.tail), inner) for outer, inner in cuts]
    return [(TailCtx(lc.head, outer), inner) for outer, inner in _context_cuts(lc.rest)]


def _list_parts(t: Term):
    """The list rule's cases: (head, tail term, tail items, head rule applies,
    tail rule applies), or None when t has no head.  A context term splits
    only along its own hole path, a plain list at both of its rules."""
    if isinstance(t, ListTerm) and t.items:
        tail_items = t.items[1:]
        return t.items[0], ListTerm(tail_items), tail_items, True, True
    if isinstance(t, CtxTerm) and isinstance(t.context, HeadCtx):
        ctx = t.context
        return CtxTerm(ctx.hole_side), ListTerm(ctx.tail), ctx.tail, True, False
    if isinstance(t, CtxTerm) and isinstance(t.context, TailCtx):
        return t.context.head, CtxTerm(t.context.rest), (), False, True
    return None


class _Search:
    """Rule-by-rule derivability search for both judgment forms.

    `match` states the matching rules; `decomp` the decomposition rules,
    with its list and in-hole rules in `_decomp_list` and `_decomp_inhole`.
    `_alternatives` is the non-terminal rule of both.

    A grammar state is an int mask over the original grammar's productions
    followed by the current grammar's (only the original's when the two
    are one object), production i as bit ``1 << i``.  The non-terminal rule
    clears the bit of the production it tries, and a step that consumes
    input restarts from the original grammar's bits, so the search ends by
    production removal alone.

    With `removal` off, a non-terminal keeps the grammar it was read
    against: the ungeneralized judgment, which can loop on a left-recursive
    grammar.  Its search raises OracleFuelError when it re-enters a
    non-terminal goal that it is still deriving: ``(t, name)`` for
    matching, ``(t, c, sub, name)`` for decomposition.  The stop is exact.
    The search is deterministic, so a re-entered goal loops forever; and a
    chain of steps that consume no input keeps its term and meets only
    finitely many patterns and splits, so every such loop re-enters a goal.
    The in-hole decomposition rule asks for the context side only at the
    factorizations of its goal's context, never at a split of the term
    that no factorization gives, so the search stops only on goals that
    the rule's own existential reaches.
    """

    def __init__(self, original: Grammar, current: Grammar, removal: bool = True):
        productions = original.productions
        self.original = self.current = (1 << len(productions)) - 1
        if current is not original:
            productions += current.productions
            self.current = ((1 << len(productions)) - 1) ^ self.original
        self.rows = _group(productions)
        self.removal = removal
        self.deriving: set[tuple] = set()

    def _alternatives(
        self, name: str, mask: int, goal: tuple | None
    ) -> list[tuple[Pattern, int]]:
        """The non-terminal rule: each live rhs of `name`, with the mask it
        is read against, less the rhs's own bit.  With removal off the mask
        stays as it is, and `goal` is marked as being derived until the
        caller unmarks it."""
        rows = self.rows.get(name, ())
        if self.removal:
            return [(rhs, mask ^ bit) for bit, rhs in rows if mask & bit]
        if goal in self.deriving:
            raise OracleFuelError(_REENTERED)
        self.deriving.add(goal)
        return [(rhs, mask) for _, rhs in rows]

    def match(self, t: Term, p: Pattern, mask: int) -> set[Bindings]:
        if isinstance(p, LitPat):
            return {EMPTY_BINDINGS} if isinstance(t, Literal) and t == p.lit else set()
        if isinstance(p, HolePat):
            return {EMPTY_BINDINGS} if t == HOLE_TERM else set()

        if isinstance(p, NamePat):
            bound = (Bindings(((p.var, t),)),)
            return _cross(self.match(t, p.pattern, mask), bound)

        if isinstance(p, NtPat):
            goal = None if self.removal else (t, p.name)
            alternatives = self._alternatives(p.name, mask, goal)
            found = any(self.match(t, rhs, m) for rhs, m in alternatives)
            self.deriving.discard(goal)
            return {EMPTY_BINDINGS} if found else set()

        if isinstance(p, ListPat):
            parts = _list_parts(t) if p.items else None
            if parts is None:
                return {EMPTY_BINDINGS} if not p.items and t == ListTerm(()) else set()
            g1 = self.original
            heads = self.match(parts[0], p.items[0], g1)
            if not heads:
                return set()
            return _cross(heads, self.match(parts[1], ListPat(p.items[1:]), g1))

        if isinstance(p, InHolePat):
            out = set()
            for c_ctx, t_ctx in enumerate_decompositions(t):
                bcs = self.decomp(t, c_ctx, t_ctx, p.context_pat, mask)
                if not bcs:
                    continue
                # a bare-hole context consumed no input: the focused match
                # keeps the current grammar state
                m = mask if isinstance(c_ctx, Hole) else self.original
                out |= _cross(bcs, self.match(t_ctx, p.hole_pat, m))
            return out

        return set()

    def decomp(
        self, t: Term, c: Context, sub: Term, p: Pattern, mask: int
    ) -> set[Bindings]:
        """Bindings for which t = c[sub] is derivable against p."""
        if isinstance(p, HolePat):
            return {EMPTY_BINDINGS} if isinstance(c, Hole) and sub == t else set()

        if isinstance(p, NamePat):
            bound = (Bindings(((p.var, CtxTerm(c)),)),)
            return _cross(self.decomp(t, c, sub, p.pattern, mask), bound)

        if isinstance(p, NtPat):
            goal = None if self.removal else (t, c, sub, p.name)
            alternatives = self._alternatives(p.name, mask, goal)
            found = any(self.decomp(t, c, sub, rhs, m) for rhs, m in alternatives)
            self.deriving.discard(goal)
            return {EMPTY_BINDINGS} if found else set()

        if isinstance(p, ListPat):
            return self._decomp_list(t, c, sub, p)
        if isinstance(p, InHolePat):
            return self._decomp_inhole(t, c, sub, p, mask)

        return set()  # a literal has no decomposition rule

    def _decomp_list(self, t: Term, c: Context, sub: Term, p: ListPat) -> set[Bindings]:
        parts = _list_parts(t) if p.items else None
        if parts is None:
            return set()
        head, tail_term, tail_items, head_rule, tail_rule = parts
        p_head, p_tail = p.items[0], ListPat(p.items[1:])
        g1 = self.original
        out: set[Bindings] = set()
        if head_rule and isinstance(c, HeadCtx) and c.tail == tail_items:
            inner = self.decomp(head, c.hole_side, sub, p_head, g1)
            if inner:
                out = _cross(inner, self.match(tail_term, p_tail, g1))
        if tail_rule and isinstance(c, TailCtx) and c.head == head:
            heads = self.match(head, p_head, g1)
            if heads:
                inner = self.decomp(tail_term, c.rest, sub, p_tail, g1)
                out |= _cross(heads, inner)
        return out

    def _decomp_inhole(
        self, t: Term, c: Context, sub: Term, p: InHolePat, mask: int
    ) -> set[Bindings]:
        """The in-hole rule: t = c[sub] against (in-hole Pc Ph) when
        c = c1 ∘ c2, t = c1[t_mid] against Pc and t_mid = c2[sub] against Ph.

        The rule's existential ranges over the factorizations of c: the
        bare hole with c, then a cut at each head level of c's hole path,
        outermost first (`_context_cuts`), with t_mid = plug(c2, sub).  So
        a goal costs O(depth of c) factorizations, where trying every split
        (c1, t_mid) of t and every split (c2, t_inner) of t_mid costs their
        product.  The two give the same pairs, by this lemma: every goal
        `decomp` is asked has plug(c, sub) == t (its callers take (c, sub)
        from `enumerate_decompositions`, peel one list level off such a
        goal, or build it from a factorization as below), and the splits
        of a term are exactly the pairs that plug back to it.
        Then a factorization gives plug(c1, t_mid) == plug(c, sub) == t, a
        split of t, and (c2, sub), a split of t_mid; and two splits with
        compose(c1, c2) == c and t_inner == sub have
        t_mid == plug(c2, t_inner) == plug(c2, sub).
        """
        factorizations = [(HOLE, c)]
        if not isinstance(c, Hole):
            factorizations.extend(_context_cuts(c))
        out: set[Bindings] = set()
        for c1, c2 in factorizations:
            # a bare-hole c1 consumed no input: the nested split is the
            # whole split, under the current grammar state
            if isinstance(c1, Hole):
                t_mid, m = t, mask
            else:
                t_mid, m = plug(c2, sub), self.original
            bcs = self.decomp(t, c1, t_mid, p.context_pat, mask)
            if bcs:
                out |= _cross(bcs, self.decomp(t_mid, c2, sub, p.hole_pat, m))
        return out


def oracle_match(
    grammar: Grammar, term: Term, pattern: Pattern, current: Grammar | None = None
) -> set[Bindings]:
    """Bindings derivable for the matching judgment, by exhaustive search."""
    search = _Search(grammar, grammar if current is None else current)
    return search.match(term, pattern, search.current)


def oracle_decompose(
    grammar: Grammar, term: Term, pattern: Pattern, current: Grammar | None = None
) -> set[tuple[Context, Term, Bindings]]:
    """Derivable (context, sub-term, bindings) triples, by exhaustive search."""
    search = _Search(grammar, grammar if current is None else current)
    out: set[tuple[Context, Term, Bindings]] = set()
    for c, sub in enumerate_decompositions(term):
        for b in search.decomp(term, c, sub, pattern, search.current):
            out.add((c, sub, b))
    return out


def oracle_match_original(
    grammar: Grammar, term: Term, pattern: Pattern
) -> set[Bindings]:
    """Matching under the ungeneralized judgment form, by exhaustive search.

    Non-terminals are always read against the full grammar and no
    production is ever removed.  On a grammar that is not left recursive
    this agrees with the generalized judgment; on a left-recursive one the
    search can loop without consuming input, and raises OracleFuelError
    when it re-enters a goal that it is still deriving.
    """
    search = _Search(grammar, grammar, removal=False)
    return search.match(term, pattern, search.current)
