"""Reference definitions that the tests check the engine against.

Each one follows its definition directly.  The grammar analyses here
rescan the grammar's productions where the engine groups them once, and
share no code with `redsem.grammar`'s index, so the tests compare the
engine's one-pass analyses with an independent statement of the same
thing.
"""

from redsem import (
    Hole,
    HeadCtx,
    HolePat,
    InHolePat,
    ListPat,
    NamePat,
    NtPat,
    productions_of,
)
from redsem.terms import immediate_subterms, subpatterns


def proper_subterms(t):
    """All proper subterms of t (transitive closure of immediate_subterms)."""
    for sub in immediate_subterms(t):
        yield sub
        yield from proper_subterms(sub)


def context_hole_count(c):
    """Number of holes reachable along the context's own path structure.

    Embedded context terms sitting in term slots are opaque values; their
    holes belong to them, not to this context.
    """
    if isinstance(c, Hole):
        return 1
    if isinstance(c, HeadCtx):
        return context_hole_count(c.hole_side)
    return context_hole_count(c.rest)


def is_subgrammar(g1, g2):
    """True iff every production of g1 is a member of g2."""
    return all(p in g2.productions for p in g1.productions)


def universe(g):
    """Every sub-pattern of g's productions, once each, in first-seen order."""
    return {sp: None for prod in g.productions for sp in subpatterns(prod.pattern)}


def reference_hole_matchable(g):
    """`hole_matchable` as full passes over the grammar until none adds a
    pattern: a hole pattern can match a bare hole; a name pattern can iff
    its body can; a non-terminal can iff one of its productions can; an
    in-hole pattern can iff both components can."""
    patterns = universe(g)
    matchable = {p for p in patterns if isinstance(p, HolePat)}
    changed = True
    while changed:
        changed = False
        for p in patterns:
            if p in matchable:
                continue
            if isinstance(p, NamePat) and p.pattern in matchable:
                matchable.add(p)
                changed = True
            elif isinstance(p, NtPat) and any(
                rhs in matchable for rhs in productions_of(g, p.name)
            ):
                matchable.add(p)
                changed = True
            elif (
                isinstance(p, InHolePat)
                and p.context_pat in matchable
                and p.hole_pat in matchable
            ):
                matchable.add(p)
                changed = True
    return matchable


def successors(g, p, matchable):
    """The non-consumption steps from p, in the order the search takes."""
    if isinstance(p, NtPat):
        return list(productions_of(g, p.name))
    if isinstance(p, NamePat):
        return [p.pattern]
    if isinstance(p, InHolePat):
        out = [p.context_pat]
        if p.context_pat in matchable:
            out.append(p.hole_pat)
        return out
    return []


def reference_left_recursion(g):
    """`find_left_recursion` as a recursive three-colour search: the
    reference whose witnesses the explicit-path search must reproduce."""
    matchable = reference_hole_matchable(g)
    patterns = universe(g)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {p: WHITE for p in patterns}

    def visit(start):
        on_stack = []

        def dfs(node):
            color[node] = GRAY
            on_stack.append(node)
            for succ in successors(g, node, matchable):
                if color.get(succ, BLACK) == GRAY:
                    i = on_stack.index(succ)
                    return tuple(on_stack[i:])
                if color.get(succ, BLACK) == WHITE:
                    found = dfs(succ)
                    if found is not None:
                        return found
            on_stack.pop()
            color[node] = BLACK
            return None

        return dfs(start)

    for p in patterns:
        if color[p] == WHITE:
            cycle = visit(p)
            if cycle is not None:
                return cycle
    return None


def same_term(p):
    """The sub-patterns that match p's own term: no input is consumed."""
    if isinstance(p, NamePat):
        return [p.pattern]
    if isinstance(p, InHolePat):
        return [p.context_pat, p.hole_pat]
    return []


def same_filter(p):
    """The sub-patterns that inherit p's filter."""
    if isinstance(p, NamePat):
        return [p.pattern]
    if isinstance(p, InHolePat):
        return [p.hole_pat]
    if isinstance(p, ListPat):
        return list(p.items)
    return []


def reference_reach(g, nt, edges):
    """The bits of every production of every non-terminal reachable from
    nt along `edges`, production i holding bit ``1 << i``, and whether a
    hole pattern is reached: one walk from nt that rescans the grammar for
    each non-terminal it reaches."""
    bits, hole = 0, False
    seen, todo = {nt}, [nt]
    while todo:
        name = todo.pop()
        for i, prod in enumerate(g.productions):
            if prod.nonterminal != name:
                continue
            bits |= 1 << i
            stack = [prod.pattern]
            while stack:
                p = stack.pop()
                if isinstance(p, NtPat):
                    if p.name not in seen:
                        seen.add(p.name)
                        todo.append(p.name)
                elif isinstance(p, HolePat):
                    hole = True
                else:
                    stack.extend(edges(p))
    return bits, hole


def reference_index_sets(g, nt):
    """(reads, filtered) of nt, as `GrammarIndex` must hold them."""
    return reference_reach(g, nt, same_term)[0], reference_reach(g, nt, same_filter)[1]
