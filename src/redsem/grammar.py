"""Grammars as ordered lists of (non-terminal, pattern) productions."""

from __future__ import annotations

from collections.abc import Iterable

from ._record import record
from .errors import EngineError
from .terms import (
    HolePat, InHolePat, ListPat, Literal, LitPat, NamePat, NtPat, Pattern, subpatterns
)


class ProductionNotFoundError(EngineError):
    """Raised when removing a production that is not in the grammar."""


@record
class Production:
    nonterminal: str
    pattern: Pattern


@record
class Grammar:
    __slots__ = ("_index",)  # see `grammar_index`
    productions: tuple[Production, ...]

    def __len__(self) -> int:
        return len(self.productions)


def _as_production(p: Production | tuple[str, Pattern]) -> Production:
    return p if isinstance(p, Production) else Production(*p)


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


Entry = tuple[int, Pattern, int, Literal | int | None]
Groups = dict[str, list[tuple[int, Pattern]]]


def _same_term(p: Pattern) -> tuple[Pattern, ...]:
    """The sub-patterns that match p's own term: no input is consumed."""
    if isinstance(p, NamePat):
        return (p.pattern,)
    if isinstance(p, InHolePat):
        return (p.context_pat, p.hole_pat)
    return ()


def _group(productions: tuple[Production, ...]) -> Groups:
    """Each non-terminal's ``(bit, rhs)`` pairs in grammar order, production
    i as bit ``1 << i``: the one grouping every analysis reads."""
    groups: Groups = {}
    for i, prod in enumerate(productions):
        groups.setdefault(prod.nonterminal, []).append((1 << i, prod.pattern))
    return groups


def _entries(rows: list[tuple[int, Pattern]]) -> tuple[Entry, ...]:
    """A non-terminal's ``(bit, rhs, same, shape)`` entries (see
    `GrammarIndex`) from its ``(bit, rhs)`` pairs."""
    same: dict[Pattern, int] = {}
    for bit, rhs in rows:
        same[rhs] = same.get(rhs, 0) | bit
    entries: list[Entry] = []
    for bit, rhs in rows:
        shape = len(rhs.items) if isinstance(rhs, ListPat) else None
        if isinstance(rhs, LitPat):
            shape = rhs.lit
        entries.append((bit, rhs, same[rhs], shape))
    return tuple(entries)


def _walk(
    rows: list[tuple[int, Pattern]], names: Groups
) -> tuple[int, list, list, int]:
    """One walk over a non-terminal's right-hand sides, for both kinds of
    edge at once: the bits of its productions, the non-terminals that its
    same-term edges reach (`_same_term`) and that its filter edges reach
    (the sub-patterns that inherit a filter: name bodies, list items and
    an in-hole's hole side), and 1 if a filter edge reaches a hole
    pattern."""
    bits, same, filt, hole = 0, [], [], 0
    stack = []  # (pattern, kinds): bit 1 same-term, bit 2 filter
    for bit, rhs in rows:
        bits |= bit
        stack.append((rhs, 3))
    while stack:
        p, kinds = stack.pop()
        cls = p.__class__
        if cls is NtPat:
            if p.name in names:
                if kinds & 1:
                    same.append(p.name)
                if kinds & 2:
                    filt.append(p.name)
        elif cls is ListPat:
            if kinds & 2:
                stack += [(q, 2) for q in p.items]
        elif cls is InHolePat:
            if kinds & 1:
                stack.append((p.context_pat, 1))
            stack.append((p.hole_pat, kinds))
        elif cls is NamePat:
            stack.append((p.pattern, kinds))
        elif cls is HolePat:
            hole |= kinds >> 1
    return bits, same, filt, hole


class GrammarIndex(dict):
    """A grammar's productions, addressed by bit.

    Production i is bit ``1 << i``.  A grammar reached from this one by
    removing productions is the int mask of the bits still live, so
    removing a production clears one bit and comparing two grammar states
    compares two ints.  The index maps each non-terminal N to
    ``(entries, reads, filtered)``, filled on N's first lookup:

    - ``entries`` are N's ``(bit, rhs, same, shape)`` in grammar order.
      ``same`` holds the bits of every production equal to this one:
      removal clears the lowest live bit of ``same``, which is the first
      occurrence, as ``remove_prod`` removes it.  ``shape`` is the literal
      of a literal rhs, the item count of a list rhs, else None.
    - ``reads`` holds the bits of every production of every non-terminal
      reachable from N without consuming input: through non-terminals,
      name bodies and both sides of an in-hole.
    - ``filtered`` tells whether a hole pattern is reachable from N
      through the sub-patterns that inherit the filter: non-terminals,
      name bodies, list items and the hole side of an in-hole.

    The first lookup groups the productions by non-terminal.  A lookup
    walks the right-hand sides of only the non-terminals that N reaches,
    each once for both kinds of edge (`_walk`), and closes ``reads`` and
    ``filtered`` in one search per kind from N: each strongly connected
    component of the non-terminal graph closes after every component it
    reaches, and its members share the union of their values and of those
    components'.  The values of every component a search closes are kept,
    so no non-terminal is walked or closed twice.
    """

    __slots__ = ("productions", "full", "_groups", "_walks", "_closed")

    def __init__(self, productions: tuple[Production, ...]):
        self.productions = productions
        self.full = (1 << len(productions)) - 1
        self._groups: Groups | None = None
        self._walks: dict[str, tuple[int, list, list, int]] = {}
        # by kind, the closed value of every non-terminal a search closed
        self._closed: tuple[None, dict[str, int], dict[str, int]] = (None, {}, {})

    def __missing__(self, nt: str) -> tuple[tuple[Entry, ...], int, bool]:
        if self._groups is None:
            self._groups = _group(self.productions)
        rows = self._groups.get(nt)
        if rows is None:
            return self.setdefault(nt, ((), 0, False))
        reads, filtered = self._close(nt, 1), self._close(nt, 2)
        return self.setdefault(nt, (_entries(rows), reads, bool(filtered)))

    def _walked(self, nt: str) -> tuple[int, list, list, int]:
        w = self._walks.get(nt)
        if w is None:
            w = self._walks[nt] = _walk(self._groups[nt], self._groups)
        return w

    def _close(self, root: str, kind: int) -> int:
        """root's value closed over the edges of kind: kind 1 closes the
        production bits over same-term edges, kind 2 the hole flag over
        filter edges (the positions of `_walk`'s result).

        A depth-first search from root on explicit stacks (Tarjan 1972, in
        Gabow's path-based form) that enters no non-terminal an earlier
        search closed.  `open_` holds the non-terminals of the strongly
        connected components not yet closed, `starts` the positions where
        they begin; an edge back into `open_` merges every component from
        its target's on.  A component closes after every component it
        reaches, with the union of its members' values and of theirs.  A
        root whose every edge leads to itself or to a closed non-terminal
        is a search of one step.
        """
        value = self._closed[kind]
        if root in value:
            return value[root]
        own, walk = (0 if kind == 1 else 3), self._walked
        where = {root: 0}  # position in open_
        open_, starts = [root], [0]
        work = [(root, iter(walk(root)[kind]))]
        while work:
            nt, todo = work[-1]
            for succ in todo:
                if succ in value:
                    continue
                i = where.get(succ)
                if i is None:
                    where[succ] = len(open_)
                    starts.append(len(open_))
                    open_.append(succ)
                    work.append((succ, iter(walk(succ)[kind])))
                    break
                while starts[-1] > i:
                    starts.pop()
            else:
                work.pop()
                if starts[-1] == where[nt]:
                    i = starts.pop()
                    union = 0
                    for member in open_[i:]:
                        w = walk(member)
                        union |= w[own]
                        for succ in w[kind]:  # 0 for the component's own
                            union |= value.get(succ, 0)
                    value.update(dict.fromkeys(open_[i:], union))
                    del open_[i:]
        return value[root]


_keep_index = Grammar._index.__set__


def grammar_index(g: Grammar) -> GrammarIndex:
    """The index of g, built once and kept in its ``_index`` slot, which
    its constructor leaves unset."""
    try:
        return g._index
    except AttributeError:
        _keep_index(g, GrammarIndex(g.productions))
        return g._index


def _universe(g: Grammar) -> dict[Pattern, None]:
    """Every sub-pattern of g's productions, once each, in first-seen order."""
    return {sp: None for prod in g.productions for sp in subpatterns(prod.pattern)}


def hole_matchable(g: Grammar) -> set[Pattern]:
    """Sub-patterns of the grammar's productions that can match a bare hole.

    Least fixed point: a hole pattern always can; a name pattern can iff
    its body can; a non-terminal can iff one of its productions can; an
    in-hole pattern can iff both components can.  Everything else cannot.
    """
    return _hole_matchable(_group(g.productions), _universe(g))


def _hole_matchable(groups: Groups, universe: dict[Pattern, None]) -> set[Pattern]:
    """`hole_matchable` from the grammar's `_group` and `_universe`.

    A counter worklist over its Horn clauses (Dowling & Gallier 1984):
    each pattern counts the premises it still waits on, and each pattern
    found matchable lowers the counts of the patterns waiting on it.
    """
    pending: dict[Pattern, int] = {}
    waiting: dict[Pattern, list[Pattern]] = {}
    for p in universe:
        premises = _same_term(p)
        pending[p] = len(premises)
        if isinstance(p, NtPat):  # any one production will do
            premises, pending[p] = [e[1] for e in groups.get(p.name, ())], 1
        for q in premises:
            waiting.setdefault(q, []).append(p)
    todo = [p for p in universe if isinstance(p, HolePat)]
    matchable = set(todo)
    while todo:
        for u in waiting.get(todo.pop(), ()):
            pending[u] -= 1
            if pending[u] == 0:
                matchable.add(u)
                todo.append(u)
    return matchable


def find_left_recursion(g: Grammar) -> tuple[Pattern, ...] | None:
    """Witness cycle of the non-consumption relation, or None.

    The relation steps from a non-terminal pattern to each of its
    right-hand sides, from a name pattern to its body, from an in-hole
    pattern to its context component, and to its hole component when the
    context component can match a hole.  A cycle means matching could loop
    without consuming input.  The witness is the first cycle that a
    depth-first search from each sub-pattern not yet reached closes: the
    search path from the target of the first edge back into it.
    """
    groups, universe = _group(g.productions), _universe(g)
    matchable = _hole_matchable(groups, universe)

    def successors(p: Pattern) -> Iterable[Pattern]:
        if isinstance(p, NtPat):
            return [e[1] for e in groups.get(p.name, ())]
        if isinstance(p, InHolePat) and p.context_pat not in matchable:
            return (p.context_pat,)
        return _same_term(p)

    # the position of each pattern on the search path, -1 once left
    where: dict[Pattern, int] = {}
    for root in universe:
        if root in where:
            continue
        where[root], path, work = 0, [root], [iter(successors(root))]
        while work:
            for succ in work[-1]:
                i = where.get(succ)
                if i is None:
                    where[succ] = len(path)
                    path.append(succ)
                    work.append(iter(successors(succ)))
                    break
                if i >= 0:
                    return tuple(path[i:])
            else:
                work.pop()
                where[path.pop()] = -1
    return None


def is_left_recursive(g: Grammar) -> bool:
    return find_left_recursion(g) is not None
