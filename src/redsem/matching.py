"""Terminating matching and decomposition over grammars.

The engine answers, for a term, a pattern, and a grammar: which bindings
make the pattern match the term, and which (context, sub-term) splits of
the term the pattern describes.  Recursion is justified by a lexicographic
order (consume input first; otherwise consume pattern structure or grammar
productions): `child` makes every recursive edge from the one-level fact
of the rule that made it, and that fact puts the edge below its parent
in the order.  The order is well founded, so matching terminates on
every grammar, left-recursive ones included.
"""

from __future__ import annotations

import threading
from collections.abc import Generator

from ._record import record
from .errors import EngineError
from .grammar import Grammar, GrammarIndex, grammar_index
from .terms import (
    HOLE,
    HOLE_TERM,
    Context,
    CtxTerm,
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
    Pattern,
    TailCtx,
    Term,
    compose,
)


class SoundnessCheckError(EngineError):
    """A split failed the one-level equation of the rule that built it."""


@record
class Bindings:
    """Finite map from pattern variables to terms, sorted by variable."""

    entries: tuple[tuple[str, Term], ...]

    def get(self, var: str) -> Term | None:
        for v, t in self.entries:
            if v == var:
                return t
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


EMPTY_BINDINGS = Bindings(())


def bindings_union(b1: Bindings, b2: Bindings) -> Bindings | None:
    """Disjoint union: defined iff shared variables agree on their terms."""
    if not b1.entries:
        return b2
    merged = dict(b1.entries)
    for var, value in b2.entries:
        if merged.setdefault(var, value) != value:
            return None
    if len(merged) == len(b1.entries):
        return b1
    return Bindings(tuple(sorted(merged.items())))


@record
class EmptyDecomposition:
    """The pattern matched the whole term; nothing was split off."""


@record
class ContextDecomposition:
    """The term was split into a context and the sub-term in its hole."""

    context: Context
    subterm: Term


Decomposition = EmptyDecomposition | ContextDecomposition

EMPTY_DECOMPOSITION = EmptyDecomposition()


@record
class MatchResult:
    decomposition: Decomposition
    bindings: Bindings


# Inside the engine a result is one plain tuple (context, sub-term,
# bindings), the context and sub-term None for a match of the whole term;
# `match_decompose` builds the records only for the list it returns.
Result = tuple[Context | None, Term | None, Bindings]

MATCH: Result = (None, None, EMPTY_BINDINGS)


def _list_count(t: Term) -> int | None:
    """The item count a list pattern needs to have a result on t, if any."""
    if isinstance(t, ListTerm):
        return len(t.items)
    if not isinstance(t, CtxTerm):
        return None
    c, n = t.context, 1
    while isinstance(c, TailCtx):
        c, n = c.rest, n + 1
    if isinstance(c, HeadCtx):
        return n + len(c.tail)
    return None  # a bare hole


# the fact of a name body's edge and of an in-hole context side's edge
SAME_TERM = "same term"


def child(
    t: Term, p: Pattern, m: int, fact: object, orig: int
) -> tuple[Term, Pattern, int]:
    """The goal of an edge from (t, p, m), built from fact, the one-level
    fact of the rule that makes the edge; grammars are masks, and orig is
    the original grammar's.  Every edge of the judgment is made here, and
    each kind of fact puts the goal strictly below (t, p, m) in the
    matching tuple order:

    - *List item* (fact: position i and t's items as the list rule
      flattens them): item i, a proper sub-term of t, under item i of p
      and the original grammar.
    - *Production* (fact: an entry ``(bit, rhs, same, shape)`` of the
      non-terminal p whose bit m holds): t under rhs, with the lowest live
      bit of ``same`` cleared, which removes the production as
      `remove_prod` does.  The term is kept and the grammar shrinks.
    - *Name body, in-hole context side* (fact: `SAME_TERM`): t under the
      name body or the context pattern, with the mask kept.
    - *In-hole hole side* (fact: the context side's split (c, u, b) of t):
      u under the hole pattern and `hole_side_mask`.  After a bare hole,
      u is t and the mask is kept; otherwise u is a proper sub-term of t,
      as every split is sound (see *Inductive checks* in
      `match_decompose`), under the original grammar.
    """
    if isinstance(p, ListPat):
        i, items = fact
        return items[i], p.items[i], orig
    if isinstance(p, NtPat):
        _, rhs, same, _ = fact
        live = m & same
        return t, rhs, m ^ (live & -live)
    if fact is SAME_TERM:
        return t, p.pattern if isinstance(p, NamePat) else p.context_pat, m
    c, u, _ = fact
    return u, p.hole_pat, hole_side_mask(c, m, orig)


def hole_side_mask(c: Context, m: int, orig: int) -> int:
    """The mask of an in-hole's hole side, after its context side split
    the term with context c under mask m: a bare hole consumed no input,
    so m is kept; any other context did, so the original grammar."""
    return m if isinstance(c, Hole) else orig


_LIST_SPLIT_ERROR = "list split is not built from its input's pieces"


def select(
    head: Term,
    found: list[Result],
    t_tail: tuple[Term, ...],
    tails: list[Result],
    whole: Term,
    debug: bool,
) -> list[Result]:
    """One level of the list rule's fold: each result of the head item,
    in order, against each result of the list after it, in order, whole
    being the list of both.

    Both matched: the whole list matched.  Exactly one side split: the
    split is lifted into a head- or tail-tagged list context built from
    the other side, t_tail or head.  No result when the bindings conflict
    or when no single-hole context exists for the pair: both sides split,
    or the split falls on the opposite side of a context's own hole path,
    or extracting the sub-term would tear a context value out of a plain
    list.  The side a split may fall on is a fact of whole, so it is
    decided once per level, as the equation below states it.

    With debug checks on, the level is checked against the list rule's
    one-level equation where it is built: t_tail is whole's tail and head
    its head, on each side a split may fall on; a head split's context
    holds the head result's context over that tail; a tail split's
    context holds that head over the tail result's context, which is a
    list context, not a bare hole.
    """
    plain = isinstance(whole, ListTerm)
    w = None if plain else whole.context
    head_side = plain or isinstance(w, HeadCtx)
    tail_side = plain or isinstance(w, TailCtx)
    if debug and not (
        (not head_side or t_tail == (whole.items[1:] if plain else w.tail))
        and (not tail_side or head == (whole.items[0] if plain else w.head))
    ):
        raise SoundnessCheckError(_LIST_SPLIT_ERROR)
    level = []
    for c_head, s_head, b_head in found:
        if c_head is None:
            for c_tail, s_tail, b_tail in tails:
                if c_tail is not None and not tail_side:
                    continue
                b = bindings_union(b_head, b_tail)
                if b is None:
                    continue
                if c_tail is None:
                    level.append((None, None, b))
                    continue
                c = TailCtx(head, c_tail)
                if debug and not (
                    c.head is head and c.rest is c_tail and not isinstance(c_tail, Hole)
                ):
                    raise SoundnessCheckError(_LIST_SPLIT_ERROR)
                level.append((c, s_tail, b))
        elif head_side and not (plain and isinstance(s_head, CtxTerm)):
            for c_tail, _, b_tail in tails:
                if c_tail is not None:
                    continue
                b = bindings_union(b_head, b_tail)
                if b is None:
                    continue
                c = HeadCtx(c_head, t_tail)
                if debug and not (c.hole_side is c_head and c.tail is t_tail):
                    raise SoundnessCheckError(_LIST_SPLIT_ERROR)
                level.append((c, s_head, b))
    return level


def combine(context: Context, hole: Result, bindings: Bindings) -> Result:
    """Resolve an in-hole result from the hole side's result: a match of
    the focused sub-term means the in-hole pattern matched the whole term;
    a further split composes the two contexts."""
    c, s, _ = hole
    if c is None:
        return None, None, bindings
    return compose(context, c), s, bindings


def check_combine(r: Result, context: Context, hole: Result) -> None:
    """The in-hole rule's one-level equation for a split that `combine`
    built: its context follows context's path with the same heads and
    tails and holds the hole result's context object at its hole, and its
    sub-term is the hole result's sub-term object."""
    c, outer = r[0], context
    if c is None:
        return
    while not isinstance(outer, Hole) and type(c) is type(outer):
        if isinstance(outer, HeadCtx):
            if c.tail is not outer.tail:
                break
            c, outer = c.hole_side, outer.hole_side
        else:
            if c.head is not outer.head:
                break
            c, outer = c.rest, outer.rest
    if not (
        isinstance(outer, Hole)
        and hole[0] is not None
        and c is hole[0]
        and r[1] is hole[1]
    ):
        raise SoundnessCheckError("in-hole split is not the composition of its parts")


def bind_name(
    var: str, whole: Term, context: Context | None, bindings: Bindings
) -> Bindings | None:
    """Extend bindings with the value a name pattern captured: the whole
    term for a match (no context), the extracted context for a split."""
    value = whole if context is None else CtxTerm(context)
    return bindings_union(bindings, Bindings(((var, value),)))


class _Session:
    """The one table of subproblems that `match_decompose` calls on one
    grammar object share: non-terminal subproblems and filter queries.

    A call answers from the session open for its grammar object when it
    has no ``current`` grammar and its ``debug`` is the session's, which
    the first call to join fixes; any other call starts with its own
    empty table.  ``with _Session(grammar):`` opens a session until the
    block exits, unless one is already open, which the block then leaves
    as it is: a `step` inside a `trace` uses the trace's.  An open
    session is kept per thread: a block runs synchronously, so the calls
    that see it are the block's own.  The table holds every object whose
    ``id`` is in one of its keys, and is emptied when the block that
    opened it exits, by return or by raise.
    """

    __slots__ = ("grammar", "debug", "memo")

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.debug: bool | None = None
        # an (nt N) subproblem under (id(term), N, mask & reads, id(filter)
        # or None), and a filter query under (id(term), id(filter)), each ->
        # (term, filter, results), each result a `Result` tuple; a query's
        # results are None while it is being answered
        self.memo: dict[tuple, tuple[Term, Pattern | None, list | None]] = {}

    def __enter__(self) -> None:
        if _open.session is None:
            _open.session = self

    def __exit__(self, *exc) -> None:
        if _open.session is self:
            _open.session = None
        self.memo.clear()


class _Open(threading.local):
    session: _Session | None = None  # the session open in this thread


_open = _Open()


def match_decompose(
    grammar: Grammar,
    term: Term,
    pattern: Pattern,
    current: Grammar | None = None,
    *,
    debug: bool = __debug__,
) -> list[MatchResult]:
    """All matches and decompositions of term against pattern.

    Non-terminals are interpreted against `current` until input is
    consumed, then against the original grammar.  The result list is
    deterministic and may contain duplicates.  Every recursive edge is
    made by `child` from the fact of the rule that made it, which puts it
    below its parent in the tuple order.  With debug checks on, each
    split is checked where it is built against the one-level equation of
    the rule that built it, which by induction makes every returned split
    plug back to the term (see *Inductive checks*).  The steps of the
    judgment run on a work stack, not on the Python stack, so the depth of
    the recursion is bounded by memory alone.

    Each distinct non-terminal subproblem is solved, and checked, once per
    session: its results are memoized under a key that holds only what the
    subproblem reads.  A session lives for one call, or, inside
    `reduction.trace` and `reduction.step`, for every call on the same
    grammar object with no `current` grammar and the same `debug`
    (`_Session`; see *Sharing* below).  Two lemmas make that key, and the
    pruning of the production loop, exact:

    - *Read set.*  ev(t, (nt N), m, f) reads the grammar mask m only at
      the bits in ``reads(N)``, the productions of the non-terminals
      reachable from N without consuming input (`GrammarIndex`): list
      items, and an in-hole's hole side on a proper sub-term, start
      again from the original grammar, and a filter query from the full
      one.  It reads the filter f only at hole leaves, and only when
      ``filtered(N)``.  So the key is (term object, N, m & reads(N), f),
      with None for f when N is not filtered.
    - *Shape.*  A literal pattern has no result on any term but its
      literal, and a list pattern of k items none on a term that is not a
      list, or a list context, of k items; a bare hole has no item
      count.  So a production of that shape is skipped on a term that
      cannot have it: it would give no result.  For the same reason the
      list rule answers no result on such a term before it tries any
      item.

    Neither lemma changes a result, so the raw list, order and duplicates
    included, is the one the plain judgment gives, and every split still
    produced is checked where it is built.

    Decomposition is hole-directed.  An in-hole pattern evaluates its
    context pattern with its own hole pattern as the *filter*, and its
    hole pattern with the filter it inherited; name, non-terminal and
    list patterns pass the filter on.  A hole pattern on a term t under a
    filter f drops its (hole, t) split when the query "has f any result
    on t under the full grammar?" answers no; it never drops its match of
    the hole term.  Every split that a filtered evaluation yields carries
    the sub-term of some hole pattern's split, and the in-hole rule keeps
    only the splits on whose sub-term its hole pattern has a result under
    a sub-grammar of the full one.

    The filter drops nothing that the in-hole rule would keep, because
    matching is monotone in the grammar: no rule is negative, so the
    results under a sub-grammar are among the results under the grammar.
    Hence the raw result list, order and duplicates included, is the one
    the unfiltered judgment gives.  Each query is answered once per
    session and its results are memoized under (term object, filter
    object), in the table that holds the non-terminal subproblems.  A
    query re-entered while it is still being answered answers "keep",
    which is always sound; so each query is entered at most once per
    session, the tuple order bounds the recursion between queries, and
    matching terminates on every grammar.  Queries are fresh roots, not
    edges of the judgment: the tuple order bounds the steps inside each,
    and the debug checks apply to every split built inside them.

    A split (c, u) that a context side yields under its hole pattern H
    carries the sub-term of a hole leaf that asked the query (u, H).  The
    in-hole rule's hole side ev(u, H, m, f) is that query's subproblem
    ev(u, H, full, None) when f is None and m is the full grammar, which
    a `current` grammar's mask never is.  Then, if the query is answered,
    the rule reads the query's results and makes no edge; otherwise it
    derives the hole side.  The two give the same raw list (see
    *Sharing*), the query's splits were checked when they were derived,
    and each split the rule builds from the results is checked where it
    is built.

    *Sharing.*  A later call may answer from the table an earlier call of
    its session left, and its raw list is still the one a fresh call
    derives.  The table holds each subproblem's and query's results as
    `Result` tuples, which every call reads and none changes; a call
    builds its own `MatchResult` records for the list it returns:

    - An (nt N) subproblem's raw list is a function of its key under one
      index.  Every call of a session reads the same index, the grammar's
      own, and the session holds each term and filter object whose id is
      in a key, so no id is reused while the session lives.
    - A filter answer only drops splits that the in-hole rule would drop
      anyway.  An entry derived while a query was still answering "keep"
      may hold splits that a later derivation drops, but each of them
      carries a sub-term on which the in-hole pattern that set the filter
      has no result, so that rule drops it, in the call that hits the
      entry as in the call that made it.
    - So a hit from an earlier call gives the call the raw list a fresh
      derivation gives, and each subproblem's splits are checked once per
      session, where they are built.
    - A query's results are the raw list a fresh derivation of its
      subproblem gives: the query starts with no filter, so every filter
      inside it is set by an in-hole pattern inside it, which by the
      second point drops each split that a re-entered query kept.  So an
      in-hole hole side that reads them gets the raw list its own
      derivation, in the same session, gives.
    - The identity keys also meet equal sub-terms of one input:
      `parse_term` reads one object per distinct sub-term, so a
      subproblem on a sub-term that recurs in the input is solved and
      checked once, and by the first point each hit gives the raw list a
      fresh derivation gives.

    *Inductive checks.*  Every split (c, s) that ev yields on a term t is
    sound: plug(c, s) = t, and s is t under a bare hole or a proper
    sub-term of t.  By induction over ev's recursion, with each rule's
    children sound, the one-level check of the rule is what is left to
    show; it compares objects by identity in O(1) per split, or in the
    depth of the outer context at an in-hole, as `compose` itself does.

    - *Hole.*  The split is built as (hole, t) from t itself: there is
      nothing to check.
    - *Name, non-terminal.*  The results are the child's splits of the
      same term, unchanged: there is nothing to check.
    - *List* (`select`, inline).  A list pattern flattens t into its items
      and folds their results from the right as the binary head/tail rule
      would, whole at level i being the list of items i onwards.  `select`
      builds one level and checks it as it builds it: the tail and head it
      builds from against whole's, once per level, and each split's
      context node against the result it holds, so every split of every
      level is checked.  A head split (HeadCtx(c, tail), s) holds the head
      result's c and s under whole's tail.  For a plain list, plug gives
      the list (plug(c, s), *tail) = whole when s is not a context term,
      and a context term when it is, so that split is refused.  A
      head-tagged context term whole has a context term for its head, so s
      is a context term too, and plug gives
      CtxTerm(HeadCtx(compose(c, s.context), tail)) = whole.  A tail split
      (TailCtx(head, c), s) holds whole's head and the tail result's c, a
      list context, and s, and plugs back the same way.  In both, s is the
      head or the tail or inside it, so a proper sub-term of whole.
    - *In-hole* (`check_combine`, on each split `combine` builds).  The
      split (compose(c1, c2), s) of t holds the context result's split
      (c1, u) of t, followed along c1's path, and the hole result's split
      (c2, s) of u at its hole.  By the compose lemma
      plug(compose(c1, c2), s) = plug(c1, plug(c2, s)) = plug(c1, u) = t,
      and s is u or inside u, which is t or inside t.

    So every split of the returned list plugs back to the input, and
    nothing is plugged back to show it: the one-level checks are the
    whole check.  `plug` itself is tested apart from the matcher, on
    every split of the acceptance corpus (acceptance criterion 2).
    """
    # a current grammar is the second half of an index of both grammars:
    # its bits start live, and consuming input resets to the first half's
    index = grammar_index(grammar)
    orig = start = index.full
    if current is not None:
        index = GrammarIndex(grammar.productions + current.productions)
        start = index.full ^ orig
    session = _open.session
    if (
        session is None
        or current is not None
        or session.grammar is not grammar
        or session.debug not in (None, debug)
    ):
        memo = {}  # see `_Session` for its keys
    else:
        session.debug = debug
        memo = session.memo
    full = index.full

    def ev(
        t: Term, p: Pattern, mask: int, filt: Pattern | None
    ) -> Generator[tuple, list[Result], list[Result]]:
        """One step of the judgment on (t, p, mask) under filter filt.

        A generator: it yields each recursion edge as ``(fact, f2)``, the
        one-level fact of the rule that makes it, from which `child` builds
        the goal, and the goal's filter; it is sent the goal's results and
        returns its own.  A filter query yields ``(None, filt)``: a fresh
        root on (t, filt) under the full grammar and no filter, which the
        tuple order does not bound.
        """
        if isinstance(p, HolePat):
            keep = True
            if filt is not None:
                key = (id(t), id(filt))
                if key not in memo:
                    # a re-entered query finds this entry and keeps the split
                    memo[key] = (t, filt, None)
                    memo[key] = (t, filt, (yield None, filt))
                found = memo[key][2]
                keep = found is None or bool(found)
            results = [(HOLE, t, EMPTY_BINDINGS)] if keep else []
            if t == HOLE_TERM:
                results.append(MATCH)
            return results

        if isinstance(p, LitPat):
            if isinstance(t, Literal) and t == p.lit:
                return [MATCH]
            return []

        # name and non-terminal results carry their child's splits of the
        # same term unchanged, so they have no equation of their own
        if isinstance(p, NamePat):
            results = []
            for c, s, b in (yield SAME_TERM, filt):
                extended = bind_name(p.var, t, c, b)
                if extended is not None:
                    results.append((c, s, extended))
            return results

        # the key holds only what the subproblem reads, and a production
        # whose shape t cannot have is not tried (see the docstring)
        if isinstance(p, NtPat):
            entries, reads, filtered = index[p.name]
            key = (id(t), p.name, mask & reads, id(filt) if filtered else None)
            hit = memo.get(key)
            if hit is not None:
                return hit[2]
            results = []
            shape = t if isinstance(t, Literal) else _list_count(t)
            for entry in entries:
                bit, _, _, fit = entry
                if mask & bit and (fit is None or fit == shape):
                    for r in (yield entry, filt):
                        if r[2].entries:
                            r = r[0], r[1], EMPTY_BINDINGS
                        results.append(r)
            memo[key] = (t, filt, results)
            return results

        if isinstance(p, InHolePat):
            results = []
            for split in (yield SAME_TERM, p.hole_pat):
                c, u, b = split
                if c is None:
                    continue
                # a hole side that is an answered filter query's subproblem
                # reads its results; `child` gives its edge the same mask
                query = None
                if filt is None and hole_side_mask(c, mask, orig) == full:
                    query = memo.get((id(u), id(p.hole_pat)))
                found = query and query[2]
                if found is None:
                    found = yield split, filt
                for rh in found:
                    merged = bindings_union(b, rh[2])
                    if merged is None:
                        continue
                    r = combine(c, rh, merged)
                    if debug:
                        check_combine(r, c, rh)
                    results.append(r)
            return results

        if not isinstance(p, ListPat) or _list_count(t) != len(p.items):
            return []
        # one step per list pattern: t flattened into its items once, a
        # context term's heads down its tail-tagged path, then the hole
        # side and the tail of its head-tagged node
        nodes, items = [], []
        if isinstance(t, ListTerm):
            tail = t.items
        else:
            c = t.context
            while isinstance(c, TailCtx):
                nodes.append(c)
                items.append(c.head)
                c = c.rest
            nodes.append(c)
            items.append(CtxTerm(c.hole_side))
            tail = c.tail
        items += tail
        found = []
        for i in range(len(items)):
            r = yield (i, items), filt
            if not r:
                return []
            found.append(r)
        # folded from the right: level i is items[i] over the list of the
        # items after it, and whole is the list of items i onwards
        results = [MATCH]
        off = len(nodes)
        for i in range(len(items) - 1, -1, -1):
            if i < off:
                node = nodes[i]
                t_tail = node.tail if isinstance(node, HeadCtx) else ()
                whole = CtxTerm(node) if i else t
            else:
                t_tail = tail[i - off + 1 :]
                whole = ListTerm(tail[i - off :]) if i else t
            results = select(items[i], found[i], t_tail, results, whole, debug)
            if not results:
                return []
        return results

    # The suspended steps wait on a list, each under the (t, p, mask) it
    # runs on, so the depth of a query costs heap, not Python stack; each
    # edge's goal is built from the running step's own.
    waiting: list[tuple] = []
    t, p, m = term, pattern, start
    step, sent = ev(t, p, m, None), None
    try:
        while True:
            try:
                fact, f = step.send(sent)
            except StopIteration as done:
                if not waiting:
                    results = done.value
                    break
                step, t, p, m = waiting.pop()
                sent = done.value
                continue
            waiting.append((step, t, p, m))
            if fact is None:  # a filter query: a fresh root
                p, m, f = f, full, None
            else:
                t, p, m = child(t, p, m, fact, orig)
            step, sent = ev(t, p, m, f), None
    except BaseException:
        # an exception's traceback holds this frame, and a query it left
        # unanswered would keep every split: clearing now frees the
        # memoized results and the suspended steps
        waiting.clear()
        memo.clear()
        raise
    return [
        MatchResult(
            EMPTY_DECOMPOSITION if c is None else ContextDecomposition(c, s), b
        )
        for c, s, b in results
    ]


def matches(
    grammar: Grammar, term: Term, pattern: Pattern, **kwargs
) -> set[Bindings]:
    """Deduplicated bindings of the pure matches of term against pattern."""
    return {
        r.bindings
        for r in match_decompose(grammar, term, pattern, **kwargs)
        if isinstance(r.decomposition, EmptyDecomposition)
    }


def decompose(
    grammar: Grammar, term: Term, pattern: Pattern, **kwargs
) -> set[tuple[Context, Term, Bindings]]:
    """Deduplicated (context, sub-term, bindings) splits of term."""
    return {
        (r.decomposition.context, r.decomposition.subterm, r.bindings)
        for r in match_decompose(grammar, term, pattern, **kwargs)
        if isinstance(r.decomposition, ContextDecomposition)
    }
