"""S-expression reader and canonical printer.

Every reader starts from `_tokens`: one regex scan cuts the text into
tokens, and one pass over them checks the brackets and counts the items
of each list.  That pass raises every s-expression fault, so a reader
that runs after it meets only well-bracketed input.  The value readers
work out a token's line and column from its index only when they raise an
error; the tree that `parse_sexprs` returns gives every node its own.
"""

from __future__ import annotations

import re

from ._record import record
from .errors import EngineError


class ParseError(EngineError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# line and col locate a node in its source: they take no part in equality
@record(compare=("text",))
class Atom:
    text: str
    line: int = 0
    col: int = 0


@record(compare=("items",))
class SList:
    items: tuple["SExpr", ...]
    line: int = 0
    col: int = 0


SExpr = Atom | SList

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


def _tree(src: str) -> list[SExpr]:
    """The top-level s-expressions of well-bracketed src."""
    stack: list[tuple[list[SExpr], int, int]] = []
    items: list[SExpr] = []
    line, line_start, last = 1, 0, 0
    for m in _TOKENS.finditer(src):
        text, start = m.group(), m.start()
        if text[0] == ";":
            continue
        if newlines := src.count("\n", last, start):
            line += newlines
            line_start = src.rindex("\n", last, start) + 1
        last, col = start, start - line_start + 1
        if text == "(":
            stack.append((items, line, col))
            items = []
        elif text == ")":
            up, l0, c0 = stack.pop()
            up.append(SList(tuple(items), l0, c0))
            items = up
        else:
            items.append(Atom(text, line, col))
    return items


def parse_sexprs(src: str) -> list[SExpr]:
    """Parse all top-level s-expressions in src."""
    _tokens(src)
    return _tree(src)


def parse_sexpr(src: str) -> SExpr:
    """Parse exactly one s-expression; reject empty or trailing input."""
    _one_datum(src)
    return _tree(src)[0]


def print_sexpr(e: SExpr) -> str:
    if isinstance(e, Atom):
        return e.text
    return "(" + " ".join(print_sexpr(item) for item in e.items) + ")"
