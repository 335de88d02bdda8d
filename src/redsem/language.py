"""Text syntax for terms, patterns, templates, and language files.

Every reader starts from `_tokens`: one regex scan cuts the text into
tokens, and one pass over them checks the brackets, raising every
s-expression fault, and counts the items of each list.  A reader works
out a token's line and column only when it raises an error.  Terms,
patterns and templates are read by one forward loop over the tokens,
from a table per syntax; a syntax reserves the atom `hole` and the heads
of its table's keyword forms.  A language file is one `(define-language
<name> (<nt> <pat> ...) ...)` form followed by any number of `(rule
<name> <lhs> <rhs>)` forms; every name is a symbol, and no two rules
share a name.  Its forms are checked in place on the same tokens, and
each pattern and template in them is read by that loop.
"""

from __future__ import annotations

import re

from ._record import record
from .errors import EngineError
from .grammar import Grammar, Production, new_grammar
from .matching import Bindings
from .reduction import RefTemplate, Rule, Template
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


class ParseError(EngineError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# A delimiter, an atom or a comment; whitespace matches nothing and is
# skipped.  Atoms end only at the characters listed here; `\s` would also
# end them at \x0b, \x0c or a no-break space.  No token holds a newline.
_TOKENS = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _tokens(src: str) -> tuple[list[str], list[int], int]:
    """The tokens of src, comments left out; at the index of each '(' the
    number of items of its list; and the number of top-level items.
    Raises a ParseError at an unbalanced ')' when it is met, and at the
    innermost '(' still open at the end."""
    tokens = _TOKENS.findall(src)
    if ";" in src:
        tokens = [t for t in tokens if t[0] != ";"]
    counts = [0] * len(tokens)
    opens: list[tuple[int, int]] = []  # each open '(' and the items before it
    n = 0  # items read so far in the innermost open list
    for k, t in enumerate(tokens):
        if t == "(":
            opens.append((k, n))
            n = 0
        elif t == ")":
            if not opens:
                raise _fault(src, k, "unbalanced ')'")
            j, n_before = opens.pop()
            counts[j] = n
            n = n_before + 1
        else:
            n += 1
    if opens:
        raise _fault(src, opens[-1][0], "unbalanced '(': missing ')'")
    return tokens, counts, n


def _one_datum(src: str) -> tuple[list[str], list[int]]:
    """`_tokens` of a text of exactly one item; rejects empty or trailing
    input."""
    tokens, counts, n = _tokens(src)
    if n == 0:
        raise ParseError("empty input", 1, 1)
    if n > 1:
        k, depth = 0, 0  # the first item ends where its depth returns to 0
        while True:
            depth += (tokens[k] == "(") - (tokens[k] == ")")
            k += 1
            if depth == 0:
                raise _fault(src, k, "trailing input after expression")
    return tokens, counts


def _fault(src: str, k: int, message: str) -> ParseError:
    """A ParseError at token k of src."""
    for m in _TOKENS.finditer(src):
        if src[m.start()] != ";":
            if k == 0:
                break
            k -= 1
    start = m.start()
    col = start - src.rfind("\n", 0, start)
    return ParseError(message, src.count("\n", 0, start) + 1, col)


_INT_RE = re.compile(r"^[+-]?[0-9]+$")


def _literal(src: str, tokens: list[str], k: int) -> Literal:
    """The literal token k of src reads as."""
    text = tokens[k]
    if text == "#t":
        return Literal(True)
    if text == "#f":
        return Literal(False)
    if _INT_RE.match(text):
        try:
            return Literal(int(text))
        except ValueError:  # past the interpreter's limit on digits
            raise _fault(src, k, "integer literal too long") from None
    return Literal(text)


def print_literal(lit: Literal) -> str:
    if lit.value is True:
        return "#t"
    if lit.value is False:
        return "#f"
    return str(lit.value)


def _is_symbol(src: str, tokens: list[str], k: int) -> bool:
    """Whether the item at token k is an atom that reads as a symbol."""
    return tokens[k] != "(" and isinstance(_literal(src, tokens, k).value, str)


# A syntax's table: what `hole`, a literal and a plain list read as, the noun
# in its reserved-word error, and its keyword forms by head symbol, each as
# (signature, symbol parameter or "", class built).  A form takes one
# argument per word of its signature after the head, as in "(nt n)".
_TERM = (HOLE_TERM, lambda lit: lit, ListTerm, "", {})
_PATTERN_FORMS = {
    "name": ("(name x p)", "x", NamePat),
    "nt": ("(nt n)", "n", NtPat),
    "in-hole": ("(in-hole pc ph)", "", InHolePat),
}
_PATTERN = (HOLE_PAT, LitPat, ListPat, "pattern", _PATTERN_FORMS)
# a template reads into pattern nodes, plus `(ref x)`, its one node of its own
_TEMPLATE_FORMS = {
    "ref": ("(ref x)", "x", RefTemplate),
    "in-hole": ("(in-hole c t)", "", InHolePat),
}
_TEMPLATE = (HOLE_PAT, LitPat, ListPat, "template", _TEMPLATE_FORMS)


def _read(
    src: str, tokens: list[str], counts: list[int], k: int, syntax: tuple
) -> tuple[Term | Pattern | Template, int]:
    """The item at token k of src (see `_tokens`) read in a syntax's
    table, and the index of the token after it.  The tokens are read
    forward and each list is built at its ')' from the values of its items,
    on an explicit stack.  A list is checked at its '(' and an atom where
    it stands, so the first fault in source order, which is pre-order, is
    the one raised, at any depth.

    The value is read with one object per distinct sub-tree: each atom text
    is read once, and each atom and node is replaced by the first equal one
    built in this call.  A node is built after its parts and caches its
    hash, so hashing it, and comparing it on a hit, take time in its arity:
    its parts are already shared."""
    hole, literal, plain, noun, forms = syntax
    shared: dict = {}
    atoms: dict[str, object] = {}  # each atom text read, and its value
    items: list = []  # the values read in the innermost open list
    # each open list: (the class built at its ')'; None for a plain list,
    # else the texts of its keyword form's symbol argument, if it has one;
    # and the items of the list around it)
    frames: list = []
    while True:
        t = tokens[k]
        k += 1
        if t == "(":
            form = forms.get(tokens[k])
            if form is None:
                frames.append((plain, None, items))
            else:
                signature, param, cls = form
                params, args = signature.count(" "), counts[k - 1] - 1
                if args != params:
                    noun_s = "argument" if params == 1 else "arguments"
                    what = f"arity error: {signature} takes {params} {noun_s}"
                    raise _fault(src, k - 1, f"{what}, got {args}")
                symbol = ()
                if param:
                    if not _is_symbol(src, tokens, k + 1):
                        what = f"{signature} needs a symbol for {param}"
                        raise _fault(src, k - 1, what)
                    symbol = (tokens[k + 1],)
                    k += 1
                frames.append((cls, symbol, items))
                k += 1
            items = []
            continue
        if t == ")":
            cls, symbol, up = frames.pop()
            v = cls(tuple(items)) if symbol is None else cls(*symbol, *items)
            v = shared.setdefault(v, v)
            items = up
        else:
            v = atoms.get(t)
            if v is None:
                if t in forms:
                    what = f"reserved word {t!r} cannot be a literal {noun}"
                    raise _fault(src, k - 1, what)
                v = hole if t == "hole" else literal(_literal(src, tokens, k - 1))
                v = atoms[t] = shared.setdefault(v, v)
        if not frames:
            return v, k
        items.append(v)


def parse_term(src: str) -> Term:
    """The term src reads as.  Like every parse, it has one object per
    distinct sub-tree, so a caller must not rely on equal parts of it
    being distinct objects."""
    return _read(src, *_one_datum(src), 0, _TERM)[0]


def parse_pattern(src: str) -> Pattern:
    return _read(src, *_one_datum(src), 0, _PATTERN)[0]


def parse_template(src: str) -> Template:
    return _read(src, *_one_datum(src), 0, _TEMPLATE)[0]


_keep_text = ListTerm._text.__set__


def print_term(t: Term) -> str:
    """The text of t.  A list term keeps its text in its ``_text`` slot,
    which its constructor leaves unset, so a shared list term is printed
    once, wherever it recurs: in a term, as a context's head or tail, or
    across results and requests.  The trade: a printed list term holds
    its text for as long as the term lives, not only while one request
    runs."""
    if isinstance(t, Literal):
        return print_literal(t)
    if isinstance(t, CtxTerm):
        return print_context(t.context)
    try:
        return t._text
    except AttributeError:
        pass
    text = "(" + " ".join(print_term(item) for item in t.items) + ")"
    _keep_text(t, text)
    return text


def print_context(c: Context) -> str:
    """The text of c, with ``hole`` at its hole.  Its list terms print
    through `print_term`, but context nodes keep no text: the engine
    builds each split's context path afresh, so their text would almost
    never be reused, and keeping it would hold about n^2 characters per
    context of depth n.  A memo of context text raised the chains
    benchmark's ``peak_rss_mb`` by 48%."""
    # the pieces of text before the hole, and after it from the end back
    text, after = [], []
    while not isinstance(c, Hole):
        text.append("(")
        while isinstance(c, TailCtx):
            text.append(print_term(c.head))
            text.append(" ")
            c = c.rest
        after.append(")")
        for t in reversed(c.tail):
            after.append(print_term(t))
            after.append(" ")
        c = c.hole_side
    text.append("hole")
    text += reversed(after)
    return "".join(text)


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


def print_pattern(p: Pattern | Template) -> str:
    """The text of p, a pattern or a template; `parse_pattern` or
    `parse_template` reads it back as p."""
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
    if isinstance(p, RefTemplate):
        return f"(ref {p.var})"
    return f"(in-hole {print_pattern(p.context_pat)} {print_pattern(p.hole_pat)})"


def print_bindings(b: Bindings) -> str:
    pairs = "".join(f" ({var} {print_term(value)})" for var, value in b.entries)
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
    tokens, counts, n_forms = _tokens(src)
    if not n_forms:
        raise LanguageError("missing (define-language ...) form")
    if tokens[0] != "(" or not counts[0] or tokens[1] != "define-language":
        raise LanguageError("the first form must be (define-language ...)")
    if counts[0] < 2 or not _is_symbol(src, tokens, 2):
        raise LanguageError("define-language needs a name")
    name = tokens[2]

    productions: list[Production] = []
    k = 3
    for _ in range(counts[0] - 2):
        if tokens[k] != "(" or counts[k] < 2 or not _is_symbol(src, tokens, k + 1):
            raise LanguageError(
                "each grammar clause must be (<nonterminal> <pattern> ...)"
            )
        nt, n_rhs, k = tokens[k + 1], counts[k] - 1, k + 2
        for _ in range(n_rhs):
            rhs, k = _read(src, tokens, counts, k, _PATTERN)
            productions.append(Production(nt, rhs))
        k += 1  # past the clause's ')'
    k += 1  # past the definition's ')'
    grammar = new_grammar(productions)
    defined = {p.nonterminal for p in grammar.productions}
    for prod in grammar.productions:
        _check_nonterminals(
            defined, prod.pattern, f"the productions of {prod.nonterminal!r}"
        )

    rules: dict[str, Rule] = {}
    for _ in range(n_forms - 1):
        if (
            tokens[k] != "("
            or counts[k] != 4
            or tokens[k + 1] != "rule"
            or not _is_symbol(src, tokens, k + 2)
        ):
            raise LanguageError("each rule must be (rule <name> <lhs> <rhs>)")
        rule_name = tokens[k + 2]
        if rule_name in rules:
            raise LanguageError(f"rule {rule_name!r} is defined twice")
        lhs, k = _read(src, tokens, counts, k + 3, _PATTERN)
        _check_nonterminals(defined, lhs, f"rule {rule_name!r}")
        rhs, k = _read(src, tokens, counts, k, _TEMPLATE)
        rules[rule_name] = Rule(rule_name, lhs, rhs)
        k += 1  # past the rule's ')'

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
