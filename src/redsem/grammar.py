"""Grammars as ordered lists of (non-terminal, pattern) productions."""

from __future__ import annotations

from collections.abc import Iterable

from ._record import record
from .errors import EngineError
from .terms import HolePat, InHolePat, NamePat, NtPat, Pattern, subpatterns


class ProductionNotFoundError(EngineError):
    """Raised when removing a production that is not in the grammar."""


@record
class Production:
    nonterminal: str
    pattern: Pattern


@record
class Grammar:
    productions: tuple[Production, ...]

    def __len__(self) -> int:
        return len(self.productions)


def _as_production(p: Production | tuple[str, Pattern]) -> Production:
    if isinstance(p, Production):
        return p
    nt, pat = p
    return Production(nt, pat)


def new_grammar(productions: Iterable[Production | tuple[str, Pattern]]) -> Grammar:
    """Build a grammar from productions, preserving order and duplicates."""
    return Grammar(tuple(_as_production(p) for p in productions))


def productions_of(g: Grammar, nonterminal: str) -> tuple[Pattern, ...]:
    """Right-hand sides of the non-terminal's productions, in grammar order."""
    return tuple(p.pattern for p in g.productions if p.nonterminal == nonterminal)


def remove_prod(g: Grammar, production: Production | tuple[str, Pattern]) -> Grammar:
    """Grammar with one occurrence of the production removed."""
    production = _as_production(production)
    for i, p in enumerate(g.productions):
        if p == production:
            return Grammar(g.productions[:i] + g.productions[i + 1 :])
    raise ProductionNotFoundError(
        f"production for {production.nonterminal!r} is not in the grammar"
    )


def is_subgrammar(g1: Grammar, g2: Grammar) -> bool:
    """True iff every production of g1 is a member of g2."""
    return all(p in g2.productions for p in g1.productions)


def hole_matchable(g: Grammar) -> set[Pattern]:
    """Sub-patterns of the grammar's productions that can match a bare hole.

    Least fixed point: a hole pattern always can; a name pattern can iff
    its body can; a non-terminal can iff one of its productions can; an
    in-hole pattern can iff both components can.  Everything else cannot.
    """
    universe: dict[Pattern, None] = {}
    for prod in g.productions:
        for sp in subpatterns(prod.pattern):
            universe[sp] = None

    matchable: set[Pattern] = {p for p in universe if isinstance(p, HolePat)}
    changed = True
    while changed:
        changed = False
        for p in universe:
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


def _successors(g: Grammar, p: Pattern, matchable: set[Pattern]) -> list[Pattern]:
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


def find_left_recursion(g: Grammar) -> tuple[Pattern, ...] | None:
    """Witness cycle of the non-consumption relation, or None.

    The relation steps from a non-terminal pattern to each of its
    right-hand sides, from a name pattern to its body, from an in-hole
    pattern to its context component, and to its hole component when the
    context component can match a hole.  A cycle means matching could loop
    without consuming input.
    """
    matchable = hole_matchable(g)
    universe: dict[Pattern, None] = {}
    for prod in g.productions:
        for sp in subpatterns(prod.pattern):
            universe[sp] = None

    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Pattern, int] = {p: WHITE for p in universe}

    def visit(start: Pattern) -> tuple[Pattern, ...] | None:
        on_stack: list[Pattern] = []

        def dfs(node: Pattern) -> tuple[Pattern, ...] | None:
            color[node] = GRAY
            on_stack.append(node)
            for succ in _successors(g, node, matchable):
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

    for p in universe:
        if color[p] == WHITE:
            cycle = visit(p)
            if cycle is not None:
                return cycle
    return None


def is_left_recursive(g: Grammar) -> bool:
    return find_left_recursion(g) is not None
