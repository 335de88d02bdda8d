"""Context-sensitive reduction rules on top of matching.

A rule pairs a pattern with a template; applying it instantiates the
template under every set of bindings the pattern produces.  Templates can
plug instantiated terms into bound contexts, which is how rules rewrite
inside evaluation contexts without a substitution function.  The rule
syntax, `Rule` and the template nodes, is defined in `redsem.terms`,
which the reader uses without this module, and is importable from here
too.
"""

from __future__ import annotations

from . import matching
from ._record import record
from .errors import EngineError
from .grammar import Grammar
from .matching import Bindings, EmptyDecomposition, _Session
from .terms import (
    HOLE_TERM,
    CtxTerm,
    HolePat,
    InHolePat,
    ListPat,
    ListTerm,
    LitPat,
    RefTemplate,
    Rule,
    Template,
    Term,
    UnboundTemplateVariableError,
    pattern_binding_vars,
    plug,
    template_vars,
)


class TemplateContextError(EngineError):
    """The context slot of an in-hole template produced a non-context."""


_CHECK, _PLUG = object(), object()  # the steps of an in-hole after its parts


def instantiate(tpl: Template, bindings: Bindings) -> Term:
    """Build the term a template denotes under the given bindings, on an
    explicit stack.  An in-hole's context is built and checked before its
    hole side is built, so the first fault in that order is the one
    raised, at any depth."""
    done: list[Term] = []  # the terms built, innermost last
    # templates to build, and steps: a list's length, `_CHECK` or `_PLUG`
    todo: list = [tpl]
    while todo:
        tpl = todo.pop()
        if isinstance(tpl, LitPat):
            done.append(tpl.lit)
        elif isinstance(tpl, RefTemplate):
            value = bindings.get(tpl.var)
            if value is None:
                raise UnboundTemplateVariableError(
                    f"template variable {tpl.var!r} is unbound"
                )
            done.append(value)
        elif isinstance(tpl, ListPat):
            todo += (len(tpl.items), *reversed(tpl.items))
        elif isinstance(tpl, InHolePat):
            todo += (_PLUG, tpl.hole_pat, _CHECK, tpl.context_pat)
        elif isinstance(tpl, HolePat):
            done.append(HOLE_TERM)
        elif tpl is _CHECK:
            if not isinstance(done[-1], CtxTerm):
                raise TemplateContextError(
                    "the context slot of an in-hole template must instantiate"
                    " to a context"
                )
        elif tpl is _PLUG:
            body = done.pop()
            done.append(plug(done.pop().context, body))
        else:
            items = done[len(done) - tpl :]
            del done[len(done) - tpl :]
            done.append(ListTerm(tuple(items)))
    return done[0]


def apply_rule(grammar: Grammar, rule: Rule, term: Term) -> list[Term]:
    """All reducts of term under one rule, deduplicated, deterministic: in
    the order of the texts (reprs) of their distinct bindings.

    The matches are told apart by their text, not by a set: `repr` is
    injective and agrees with `==`, and a set would hash each match's
    freshly built contexts, which recurses a frame per level.  One match
    needs no text."""
    found = [
        r.bindings
        for r in matching.match_decompose(grammar, term, rule.lhs)
        if isinstance(r.decomposition, EmptyDecomposition)
    ]
    if len(found) > 1:
        by_text: dict[str, Bindings] = {}
        for b in found:
            by_text.setdefault(repr(b), b)
        found = [by_text[text] for text in sorted(by_text)]
    return list(dict.fromkeys([instantiate(rule.rhs, b) for b in found]))


def step(grammar: Grammar, rules: list[Rule], term: Term) -> list[tuple[str, Term]]:
    """One-step reducts under all rules, tagged with the rule name.

    The rules' matching calls share one session (`matching._Session`), or
    the one a `trace` has open."""
    out: list[tuple[str, Term]] = []
    with _Session(grammar):
        for rule in rules:
            out.extend((rule.name, t2) for t2 in apply_rule(grammar, rule, term))
    return out


NORMAL_FORM = "normal-form"
CUTOFF = "cutoff"
CYCLE = "cycle"
REDUCED = "reduced"


@record
class Trace:
    """Breadth-first reduction graph up to a depth bound.

    nodes[i] is the i-th term discovered; statuses[i] is 'reduced' for
    expanded interior nodes and a leaf status otherwise; edges hold
    (source, rule name, target) triples.  The fields are fixed, and
    `trace` grows the three lists in place.
    """

    nodes: list[Term]
    statuses: list[str]
    edges: list[tuple[int, str, int]]


def trace(grammar: Grammar, rules: list[Rule], term: Term, max_steps: int) -> Trace:
    """Expand the reduction graph from term, at most max_steps layers deep.

    A successor term equal to an already-discovered one becomes a 'cycle'
    leaf and is not expanded again.  Terms at the depth bound are 'cutoff'
    leaves unless they are normal forms; a negative bound counts as 0.  The
    loop stops when the frontier empties, however large the bound.

    Every matching call of every step shares one session
    (`matching._Session`): a step rebuilds only the spine from the root to
    its redex, so the terms of one trace share most of their sub-terms by
    identity, and each non-terminal subproblem on them is solved once.
    """
    with _Session(grammar):
        tr = Trace(nodes=[term], statuses=["pending"], edges=[])
        seen: set[Term] = {term}
        frontier = [0]
        depth = 0
        while frontier:
            next_frontier: list[int] = []
            for i in frontier:
                successors = step(grammar, rules, tr.nodes[i])
                if not successors:
                    tr.statuses[i] = NORMAL_FORM
                elif depth >= max_steps:
                    tr.statuses[i] = CUTOFF
                else:
                    tr.statuses[i] = REDUCED
                    for rule_name, t2 in successors:
                        j = len(tr.nodes)
                        tr.nodes.append(t2)
                        tr.edges.append((i, rule_name, j))
                        if t2 in seen:
                            tr.statuses.append(CYCLE)
                        else:
                            seen.add(t2)
                            tr.statuses.append("pending")
                            next_frontier.append(j)
            frontier = next_frontier
            depth += 1
    return tr
