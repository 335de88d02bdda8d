"""Text syntax for terms, patterns, templates, and language files.

Terms, patterns and templates share one s-expression surface, read by one
loop from a table per syntax.  A syntax reserves the atom `hole` and the
heads of its table's keyword forms.  A language file is one
`(define-language <name> (<nt> <pat> ...) ...)` form followed by any
number of `(rule <name> <lhs> <rhs>)` forms; every name is a symbol, and
no two rules share a name.
"""

from __future__ import annotations

import re
import threading

from ._record import record
from .errors import EngineError
from .grammar import Grammar, Production, new_grammar
from .matching import Bindings
from .reduction import (
    HoleTemplate,
    InHoleTemplate,
    ListTemplate,
    LitTemplate,
    RefTemplate,
    Rule,
    Template,
)
from .sexpr import Atom, ParseError, SExpr, SList, parse_sexpr, parse_sexprs
from .terms import (
    HOLE,
    HOLE_PAT,
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
    subpatterns,
)


class NoHoleError(EngineError):
    """The term converted to a context contains no hole."""


class MultipleHolesError(EngineError):
    """The term converted to a context contains more than one hole."""


class LanguageError(EngineError):
    """A language file is malformed."""


_INT_RE = re.compile(r"^[+-]?[0-9]+$")


def _atom_literal(a: Atom) -> Literal:
    if a.text == "#t":
        return Literal(True)
    if a.text == "#f":
        return Literal(False)
    if _INT_RE.match(a.text):
        try:
            return Literal(int(a.text))
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("integer literal too long", a.line, a.col) from None
    return Literal(a.text)


def print_literal(lit: Literal) -> str:
    if lit.value is True:
        return "#t"
    if lit.value is False:
        return "#f"
    return str(lit.value)


def _arguments(e: SList, form: str) -> tuple[SExpr, ...]:
    """e's arguments, one for each parameter of `form`, as in "(nt n)"."""
    params, args = form[1:-1].split()[1:], e.items[1:]
    if len(args) != len(params):
        noun = "argument" if len(params) == 1 else "arguments"
        what = f"arity error: {form} takes {len(params)} {noun}, got {len(args)}"
        raise ParseError(what, e.line, e.col)
    return args


def _is_symbol(e: SExpr) -> bool:
    return isinstance(e, Atom) and isinstance(_atom_literal(e).value, str)


# A syntax's table: what `hole`, a literal and a plain list read as, the noun
# in its reserved-word error, and its keyword forms by head symbol, each as
# (signature for `_arguments`, symbol parameter or "", class built).
_TERM = (HOLE_TERM, lambda lit: lit, ListTerm, "", {})
_PATTERN_FORMS = {
    "name": ("(name x p)", "x", NamePat),
    "nt": ("(nt n)", "n", NtPat),
    "in-hole": ("(in-hole pc ph)", "", InHolePat),
}
_PATTERN = (HOLE_PAT, LitPat, ListPat, "pattern", _PATTERN_FORMS)
_TEMPLATE_FORMS = {
    "ref": ("(ref x)", "x", RefTemplate),
    "in-hole": ("(in-hole c t)", "", InHoleTemplate),
}
_TEMPLATE = (HoleTemplate(), LitTemplate, ListTemplate, "template", _TEMPLATE_FORMS)


def _read(e: SExpr, syntax: tuple) -> Term | Pattern | Template:
    """e read in a syntax's table, on an explicit stack.  A list is checked
    when it is first met and built after its items, so the first fault in
    source pre-order is the one raised, at any depth.

    The value is read with one object per distinct sub-tree: each atom and
    node is replaced by the first equal one built in this call.  A node is
    built after its parts and caches its hash, so hashing it, and
    comparing it on a hit, take time in its arity: its parts are already
    shared."""
    hole, literal, plain, noun, forms = syntax
    shared: dict = {}
    done: list = []  # the values read, innermost last
    # nodes to read, and builds: (class, the texts of its symbol argument,
    # or None for a plain list, the number of values read that it takes)
    todo: list = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Atom):
            if e.text in forms:
                what = f"reserved word {e.text!r} cannot be a literal {noun}"
                raise ParseError(what, e.line, e.col)
            v = hole if e.text == "hole" else literal(_atom_literal(e))
            done.append(shared.setdefault(v, v))
        elif isinstance(e, tuple):
            cls, symbol, n = e
            parts = done[len(done) - n :]
            del done[len(done) - n :]
            v = cls(tuple(parts)) if symbol is None else cls(*symbol, *parts)
            done.append(shared.setdefault(v, v))
        elif e.items and isinstance(e.items[0], Atom) and e.items[0].text in forms:
            signature, param, cls = forms[e.items[0].text]
            args, symbol = _arguments(e, signature), ()
            if param:
                if not _is_symbol(args[0]):
                    what = f"{signature} needs a symbol for {param}"
                    raise ParseError(what, e.line, e.col)
                symbol, args = (args[0].text,), args[1:]
            todo += ((cls, symbol, len(args)), *reversed(args))
        else:
            todo += ((plain, None, len(e.items)), *reversed(e.items))
    return done[0]


def parse_term(src: str) -> Term:
    """The term src reads as.  Like every parse, it has one object per
    distinct sub-tree, so a caller must not rely on equal parts of it
    being distinct objects."""
    return _read(parse_sexpr(src), _TERM)


def parse_pattern(src: str) -> Pattern:
    return _read(parse_sexpr(src), _PATTERN)


def parse_template(src: str) -> Template:
    return _read(parse_sexpr(src), _TEMPLATE)


class _Printing(threading.local):
    memo: dict[int, tuple[Term, str]] | None = None  # the open scope's


_printing = _Printing()


class _PrintScope:
    """A memo of the text of every list term printed while the scope is
    open.

    ``with _PrintScope():`` opens a scope until the block exits, unless one
    is already open in this thread, which the block then leaves as it is.
    Inside it `print_term` prints each list term once, keyed by ``id``,
    and reuses its text wherever the term is shared, in a term, in a
    context's heads and tails, or across results.  The memo holds every
    term it keys, so no id is reused while the scope is open, and it is
    emptied when the block that opened it exits.

    Context nodes are printed in full: the engine builds each split's
    context path afresh, so their text would almost never be reused, and
    keeping it would hold about n^2 characters per context of depth n.
    """

    __slots__ = ("memo",)

    def __init__(self) -> None:
        self.memo: dict[int, tuple[Term, str]] = {}  # id -> (term, text)

    def __enter__(self) -> None:
        if _printing.memo is None:
            _printing.memo = self.memo

    def __exit__(self, *exc) -> None:
        if _printing.memo is self.memo:
            _printing.memo = None
        self.memo.clear()


def print_term(t: Term) -> str:
    if isinstance(t, Literal):
        return print_literal(t)
    if isinstance(t, CtxTerm):
        return print_context(t.context)
    memo = _printing.memo
    if memo is not None and (hit := memo.get(id(t))) is not None:
        return hit[1]
    text = "(" + " ".join(print_term(item) for item in t.items) + ")"
    if memo is not None:
        memo[id(t)] = t, text
    return text


def print_context(c: Context) -> str:
    before, after = [], []  # the text on each side of the hole, by level
    while not isinstance(c, Hole):
        before.append("(")
        while isinstance(c, TailCtx):
            before.append(print_term(c.head) + " ")
            c = c.rest
        after.append("".join([" " + print_term(t) for t in c.tail]) + ")")
        c = c.hole_side
    return "".join(before) + "hole" + "".join(reversed(after))


def to_context(t: Term) -> Context:
    """Interpret a term with exactly one hole as a context.

    The head/tail tags of the result encode the path to the hole, so
    plugging the hole term back reprints as the original source.
    """
    if isinstance(t, CtxTerm):
        return t.context
    # one walk: each hole's path is the chain of (list, index, parent path)
    n, path, work = 0, None, [(t, None)]
    while work:
        u, up = work.pop()
        if isinstance(u, ListTerm):
            work += [(item, (u, i, up)) for i, item in enumerate(u.items)]
        elif isinstance(u, CtxTerm) and isinstance(u.context, Hole):
            n, path = n + 1, up
    if n == 0:
        raise NoHoleError("the term contains no hole")
    if n > 1:
        raise MultipleHolesError(f"the term contains {n} holes, expected exactly 1")
    ctx: Context = HOLE
    while path is not None:
        u, i, path = path
        ctx = HeadCtx(ctx, u.items[i + 1 :])
        for head in reversed(u.items[:i]):
            ctx = TailCtx(head, ctx)  # type: ignore[arg-type]
    return ctx


def print_pattern(p: Pattern) -> str:
    if isinstance(p, LitPat):
        return print_literal(p.lit)
    if isinstance(p, HolePat):
        return "hole"
    if isinstance(p, ListPat):
        return "(" + " ".join(print_pattern(item) for item in p.items) + ")"
    if isinstance(p, NamePat):
        return f"(name {p.var} {print_pattern(p.pattern)})"
    if isinstance(p, NtPat):
        return f"(nt {p.name})"
    return f"(in-hole {print_pattern(p.context_pat)} {print_pattern(p.hole_pat)})"


def print_bindings(b: Bindings) -> str:
    return _bindings_text({var: print_term(value) for var, value in b.entries})


def _bindings_text(printed: dict[str, str]) -> str:
    """`print_bindings` from each variable's already printed term."""
    pairs = "".join(f" ({var} {text})" for var, text in printed.items())
    return f"(bindings{pairs})"


@record
class LanguageDef:
    name: str
    grammar: Grammar
    rules: tuple[Rule, ...]


def _check_nonterminals(defined: set[str], p: Pattern, where: str) -> None:
    for sp in subpatterns(p):
        if isinstance(sp, NtPat) and sp.name not in defined:
            raise LanguageError(f"undefined non-terminal {sp.name!r} in {where}")


def check_pattern_nonterminals(grammar: Grammar, p: Pattern) -> None:
    """Raise LanguageError if p references a non-terminal the grammar lacks."""
    defined = {prod.nonterminal for prod in grammar.productions}
    _check_nonterminals(defined, p, "the pattern")


def parse_language(src: str) -> LanguageDef:
    forms = parse_sexprs(src)
    if not forms:
        raise LanguageError("missing (define-language ...) form")
    head = forms[0]
    if (
        not isinstance(head, SList)
        or not head.items
        or head.items[0] != Atom("define-language")
    ):
        raise LanguageError("the first form must be (define-language ...)")
    if len(head.items) < 2 or not _is_symbol(head.items[1]):
        raise LanguageError("define-language needs a name")
    name = head.items[1].text

    productions: list[Production] = []
    for clause in head.items[2:]:
        if (
            not isinstance(clause, SList)
            or len(clause.items) < 2
            or not _is_symbol(clause.items[0])
        ):
            raise LanguageError(
                "each grammar clause must be (<nonterminal> <pattern> ...)"
            )
        nt = clause.items[0].text
        for rhs in clause.items[1:]:
            productions.append(Production(nt, _read(rhs, _PATTERN)))
    grammar = new_grammar(productions)
    defined = {p.nonterminal for p in grammar.productions}
    for prod in grammar.productions:
        _check_nonterminals(
            defined, prod.pattern, f"the productions of {prod.nonterminal!r}"
        )

    rules: dict[str, Rule] = {}
    for form in forms[1:]:
        if (
            not isinstance(form, SList)
            or len(form.items) != 4
            or form.items[0] != Atom("rule")
            or not _is_symbol(form.items[1])
        ):
            raise LanguageError("each rule must be (rule <name> <lhs> <rhs>)")
        rule_name = form.items[1].text
        if rule_name in rules:
            raise LanguageError(f"rule {rule_name!r} is defined twice")
        lhs = _read(form.items[2], _PATTERN)
        _check_nonterminals(defined, lhs, f"rule {rule_name!r}")
        rules[rule_name] = Rule(rule_name, lhs, _read(form.items[3], _TEMPLATE))

    return LanguageDef(name, grammar, tuple(rules.values()))


def load_language(path: str) -> LanguageDef:
    with open(path, encoding="utf-8") as f:
        try:
            src = f.read()
        except UnicodeDecodeError as e:
            raise LanguageError(f"{path}: not valid UTF-8 at byte {e.start}") from None
    # a leading byte-order mark is dropped after decoding, not by the
    # utf-8-sig codec, which counts error offsets from the end of the mark
    return parse_language(src.removeprefix("\ufeff"))
