"""Terms, contexts, and patterns of the object language.

Terms are literals, lists of terms, or embedded contexts.  A context is a
term with exactly one hole; every list node of a context carries a tag
(head/tail) pointing toward the hole, so plugging and decomposition can
follow a path instead of searching.  Every class here is a slotted
record (see `redsem._record`): its slots are its fields, the caches its
body declares in ``__slots__``, and ``__weakref__``.  List and context
nodes, and the list, name and in-hole patterns, declare a ``_hash``
cache, None when a node is built and filled by its first hash: the
engine shares sub-terms by identity, so a shared node is hashed once,
and a node built after its parts is hashed in time in its arity.  A list
term also declares ``_text``, which starts unset until
`redsem.language.print_term` fills it with the term's printed text; like
``_hash``, it takes no part in equality, hash or repr, and pickle and
copy drop it.

The rule syntax sits here too, next to the pattern nodes a template is
read into: a template is those nodes plus `RefTemplate`, and `Rule`
checks at construction that its template uses only variables its
pattern binds.  So reading a language file needs no reducer;
`redsem.reduction` gives rules their meaning.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import record
from .errors import EngineError


@record
class Literal:
    """Atomic term: a symbol (str), an integer, or a boolean.

    Booleans are kept distinct from integers even though Python's bool is
    an int subclass.
    """

    value: str | int | bool

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value).__name__, self.value))

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@record
class ListTerm:
    """A list of zero or more terms."""

    __slots__ = ("_hash", "_text")
    items: tuple["Term", ...]


@record
class CtxTerm:
    """A context embedded in term position."""

    __slots__ = ("_hash",)
    context: "Context"


@record
class Hole:
    """The marked position of a context."""


@record
class HeadCtx:
    """List context whose hole lies inside the head element."""

    __slots__ = ("_hash",)
    hole_side: "Context"
    tail: tuple["Term", ...]


@record
class TailCtx:
    """List context whose hole lies somewhere in the tail."""

    __slots__ = ("_hash",)
    head: "Term"
    rest: "ListContext"


Term = Literal | ListTerm | CtxTerm
Context = Hole | HeadCtx | TailCtx
ListContext = HeadCtx | TailCtx

HOLE = Hole()
HOLE_TERM = CtxTerm(HOLE)


@record
class LitPat:
    """Matches exactly one literal; as a template, instantiates to it."""

    lit: Literal


@record
class HolePat:
    """Matches the hole context; decomposes any term trivially.  As a
    template, instantiates to the bare hole context term."""


@record
class ListPat:
    """Matches a list of terms element-wise; as a template, instantiates
    to the list of its items' terms."""

    __slots__ = ("_hash",)
    items: tuple["Pattern", ...]


@record
class NamePat:
    """Matches the sub-pattern and binds the matched value to a variable."""

    __slots__ = ("_hash",)
    var: str
    pattern: "Pattern"


@record
class NtPat:
    """Matches any term produced by a grammar non-terminal."""

    name: str


@record
class InHolePat:
    """Matches terms decomposable into a context and a focused sub-term.
    As a template, plugs the term of its hole side into the context its
    context side instantiates to."""

    __slots__ = ("_hash",)
    context_pat: "Pattern"
    hole_pat: "Pattern"


Pattern = LitPat | HolePat | ListPat | NamePat | NtPat | InHolePat

HOLE_PAT = HolePat()


def subpatterns(p: Pattern) -> Iterator[Pattern]:
    """Yield p and every pattern nested inside it, in pre-order.  A
    template is read into the same nodes, so this walks templates too; a
    node it does not know, such as a template's reference, is a leaf."""
    todo = [p]
    while todo:
        p = todo.pop()
        yield p
        if isinstance(p, ListPat):
            todo += reversed(p.items)
        elif isinstance(p, NamePat):
            todo.append(p.pattern)
        elif isinstance(p, InHolePat):
            todo += (p.hole_pat, p.context_pat)


class UnboundTemplateVariableError(EngineError):
    """A template references a variable the bindings do not supply."""


@record
class RefTemplate:
    """Instantiates to the term bound to the variable."""

    var: str


# A template is read into the pattern nodes, plus `RefTemplate` (see
# `redsem.reduction.instantiate`); the reader alone decides which nodes a
# template holds.
Template = LitPat | HolePat | ListPat | RefTemplate | InHolePat


def template_vars(tpl: Template) -> set[str]:
    return {q.var for q in subpatterns(tpl) if isinstance(q, RefTemplate)}


def pattern_binding_vars(p: Pattern) -> set[str]:
    return {q.var for q in subpatterns(p) if isinstance(q, NamePat)}


@record
class Rule:
    name: str
    lhs: Pattern
    rhs: Template

    def __new__(cls, name: str, lhs: Pattern, rhs: Template) -> Rule:
        free = template_vars(rhs) - pattern_binding_vars(lhs)
        if free:
            raise UnboundTemplateVariableError(
                f"rule {name!r} uses unbound template variable(s): "
                + ", ".join(sorted(free))
            )
        return object.__new__(cls)


def plug(c: Context, t: Term) -> Term:
    """Replace the hole of c with t.

    Plugging a context-valued term rewires the two contexts into one (the
    result is again a context); plugging anything else fills in the hole
    structurally and always yields a non-context term shape.
    """
    if isinstance(t, CtxTerm):
        return CtxTerm(compose(c, t.context))
    # down the path: each list level's heads before the hole, and its tail
    levels = []
    while not isinstance(c, Hole):
        heads = []
        while isinstance(c, TailCtx):
            heads.append(c.head)
            c = c.rest
        levels.append((heads, c.tail))
        c = c.hole_side
    for heads, tail in reversed(levels):
        t = ListTerm((*heads, t, *tail))
    return t


def compose(outer: Context, inner: Context) -> Context:
    """Replace outer's hole with inner.

    Satisfies plug(compose(c1, c2), t) == plug(c1, plug(c2, t)).  Walks
    outer's hole path once, then rebuilds it bottom-up around inner,
    unless inner is the very hole that ends the path: then outer itself
    is the composition.
    """
    path, c = [], outer
    while not isinstance(c, Hole):
        path.append(c)
        c = c.hole_side if isinstance(c, HeadCtx) else c.rest
    # only the innermost level can be a tail context whose rest is the hole
    if path and isinstance(inner, Hole) and not isinstance(path[-1], HeadCtx):
        raise TypeError("composition erased the tail path of a context")
    if inner is c:
        return outer
    c = inner
    for node in reversed(path):
        if isinstance(node, HeadCtx):
            c = HeadCtx(c, node.tail)
        else:
            c = TailCtx(node.head, c)
    return c
