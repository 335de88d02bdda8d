"""Grammars as ordered lists of (non-terminal, pattern) productions."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

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
Groups = dict[str, list[Entry]]


def _same_term(p: Pattern) -> tuple[Pattern, ...]:
    """The sub-patterns that match p's own term: no input is consumed."""
    if isinstance(p, NamePat):
        return (p.pattern,)
    if isinstance(p, InHolePat):
        return (p.context_pat, p.hole_pat)
    return ()


def _same_filter(p: Pattern) -> tuple[Pattern, ...]:
    """The sub-patterns that inherit p's filter (see `match_decompose`)."""
    if isinstance(p, NamePat):
        return (p.pattern,)
    if isinstance(p, InHolePat):
        return (p.hole_pat,)
    if isinstance(p, ListPat):
        return p.items
    return ()


def _group(productions: tuple[Production, ...]) -> Groups:
    """Each non-terminal's entries ``(bit, rhs, same, shape)`` in grammar
    order (see `GrammarIndex`): the one grouping every analysis reads."""
    groups: Groups = {}
    for i, prod in enumerate(productions):
        bit, rhs = 1 << i, prod.pattern
        shape = len(rhs.items) if isinstance(rhs, ListPat) else None
        if isinstance(rhs, LitPat):
            shape = rhs.lit
        entries, same = groups.setdefault(prod.nonterminal, []), bit
        for j, (b, r, s, f) in enumerate(entries):
            if r == rhs:
                entries[j] = (b, r, s | bit, f)
                same |= b
        entries.append((bit, rhs, same, shape))
    return groups


def _search(roots: Iterable, successors) -> Iterator[tuple[bool, list]]:
    """Depth-first search from each root not yet reached, on explicit
    stacks (Tarjan 1972, in Gabow's path-based form).

    `open_` holds the nodes of the strongly connected components not yet
    closed, `starts` the positions where they begin.  An edge into `open_`
    yields ``(True, nodes)``, `open_` from the edge's target on: until the
    first such edge `open_` is the search path, so it closes a cycle.  A
    component yields ``(False, nodes)`` as it closes, after every
    component it reaches."""
    where: dict = {}  # position in open_, or -1 once closed
    open_: list = []
    starts: list[int] = []
    work = [(None, iter(roots))]  # the roots follow a start node never open
    while work:
        node, todo = work[-1]
        for succ in todo:
            if succ not in where:
                where[succ] = len(open_)
                starts.append(len(open_))
                open_.append(succ)
                work.append((succ, iter(successors(succ))))
                break
            if where[succ] >= 0:
                yield True, open_[where[succ] :]
                while starts[-1] > where[succ]:
                    starts.pop()
        else:
            work.pop()
            if starts and starts[-1] == where.get(node):
                i = starts.pop()
                where.update(dict.fromkeys(open_[i:], -1))
                yield False, open_[i:]
                del open_[i:]


def _closure(groups: Groups, edges, hole: int) -> dict[str, int]:
    """For each non-terminal N, the bits of every production of every
    non-terminal reachable from N along `edges`, with `hole`, a bit above
    every production's, set if a hole pattern is reached: each strongly
    connected component of the non-terminal graph closes after the
    components it reaches, and its members share the union of their bits
    and of those components'."""
    value: dict[str, int] = {}
    succs: dict[str, list[str]] = {}
    for nt, entries in groups.items():
        bits, stack, succs[nt] = 0, [], []
        for bit, rhs, _, _ in entries:
            bits |= bit
            stack.append(rhs)
        while stack:
            p = stack.pop()
            if isinstance(p, NtPat) and p.name in groups:
                succs[nt].append(p.name)
            elif isinstance(p, HolePat):
                bits |= hole
            else:
                stack.extend(edges(p))
        value[nt] = bits
    for cyclic, component in _search(groups, succs.__getitem__):
        if not cyclic:
            union = 0
            for nt in component:
                union |= value[nt]
                for name in succs[nt]:
                    union |= value[name]
            for nt in component:
                value[nt] = union
    return value


class GrammarIndex(dict):
    """A grammar's productions, addressed by bit.

    Production i is bit ``1 << i``.  A grammar reached from this one by
    removing productions is the int mask of the bits still live, so
    removing a production clears one bit and comparing two grammar states
    compares two ints.  The index maps each non-terminal N to
    ``(entries, reads, filtered)``, every non-terminal filled at once on
    the first lookup from one grouping of the productions:

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
    """

    __slots__ = ("productions", "full")

    def __init__(self, productions: tuple[Production, ...]):
        super().__init__()
        self.productions = productions
        self.full = (1 << len(productions)) - 1

    def __missing__(self, nt: str) -> tuple[tuple[Entry, ...], int, bool]:
        if not self:
            groups, full = _group(self.productions), self.full
            reads = _closure(groups, _same_term, full + 1)
            filtered = _closure(groups, _same_filter, full + 1)
            for name, entries in groups.items():
                self[name] = (tuple(entries), reads[name] & full, filtered[name] > full)
        return self.setdefault(nt, ((), 0, False))


def grammar_index(g: Grammar) -> GrammarIndex:
    """The index of g, built once and cached on the grammar object."""
    if "_index" not in g.__dict__:
        object.__setattr__(g, "_index", GrammarIndex(g.productions))
    return g.__dict__["_index"]


def _universe(g: Grammar) -> dict[Pattern, None]:
    """Every sub-pattern of g's productions, once each, in first-seen order."""
    return {sp: None for prod in g.productions for sp in subpatterns(prod.pattern)}


def hole_matchable(g: Grammar) -> set[Pattern]:
    """Sub-patterns of the grammar's productions that can match a bare hole.

    Least fixed point: a hole pattern always can; a name pattern can iff
    its body can; a non-terminal can iff one of its productions can; an
    in-hole pattern can iff both components can.  Everything else cannot.

    A counter worklist over these Horn clauses (Dowling & Gallier 1984):
    each pattern counts the premises it still waits on, and each pattern
    found matchable lowers the counts of the patterns waiting on it.
    """
    groups, universe = _group(g.productions), _universe(g)
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
    without consuming input.  The witness is the first cycle that one
    search from each sub-pattern not yet reached closes.
    """
    groups, matchable = _group(g.productions), hole_matchable(g)

    def successors(p: Pattern) -> Iterable[Pattern]:
        if isinstance(p, NtPat):
            return [e[1] for e in groups.get(p.name, ())]
        if isinstance(p, InHolePat) and p.context_pat not in matchable:
            return (p.context_pat,)
        return _same_term(p)

    for cyclic, nodes in _search(_universe(g), successors):
        if cyclic:
            return tuple(nodes)
    return None


def is_left_recursive(g: Grammar) -> bool:
    return find_left_recursion(g) is not None
