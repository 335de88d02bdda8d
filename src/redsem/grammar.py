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


def _universe(g: Grammar) -> dict[Pattern, None]:
    """Every sub-pattern of g's productions, once each, in first-seen order."""
    return {sp: None for prod in g.productions for sp in subpatterns(prod.pattern)}


def hole_matchable(g: Grammar) -> set[Pattern]:
    """Sub-patterns of the grammar's productions that can match a bare hole.

    Least fixed point: a hole pattern always can; a name pattern can iff
    its body can; a non-terminal can iff one of its productions can; an
    in-hole pattern can iff both components can.  Everything else cannot.
    """
    universe = _universe(g)
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

    One depth-first search (Tarjan 1972) from each sub-pattern not yet
    done, on an explicit path: a successor on the path closes the witness
    cycle, and a pattern is done once all its successors are.
    """
    matchable = hole_matchable(g)
    done: set[Pattern] = set()
    for root in _universe(g):
        if root in done:
            continue
        # path[i] waits on its unexplored successors todo[i]; on_path maps
        # each pattern of the path to its position
        path, todo, on_path = [root], [iter(_successors(g, root, matchable))], {root: 0}
        while path:
            for succ in todo[-1]:
                if succ in on_path:
                    return tuple(path[on_path[succ] :])
                if succ not in done:
                    on_path[succ] = len(path)
                    path.append(succ)
                    todo.append(iter(_successors(g, succ, matchable)))
                    break
            else:
                todo.pop()
                del on_path[path[-1]]
                done.add(path.pop())
    return None


def is_left_recursive(g: Grammar) -> bool:
    return find_left_recursion(g) is not None
