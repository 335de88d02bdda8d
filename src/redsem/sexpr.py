"""S-expression reader and canonical printer."""

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

# Every character starts exactly one token: whitespace or a comment, which
# are skipped, a delimiter, or an atom.  Atoms end only at the characters
# listed here; `\s` would also end them at \x0b, \x0c or a no-break space.
_TOKENS = re.compile(r"(?P<skip>[ \t\r\n]+|;[^\n]*)|[()]|[^ \t\r\n();]+")


def parse_sexprs(src: str) -> list[SExpr]:
    """Parse all top-level s-expressions in src."""
    stack: list[tuple[list[SExpr], int, int]] = []
    top: list[SExpr] = []
    line, line_start = 1, 0
    for m in _TOKENS.finditer(src):
        text = m.group()
        if m.lastgroup == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if text == "(":
            stack.append(([], line, col))
        elif text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            items, l0, c0 = stack.pop()
            node = SList(tuple(items), l0, c0)
            (stack[-1][0] if stack else top).append(node)
        else:
            node = Atom(text, line, col)
            (stack[-1][0] if stack else top).append(node)
    if stack:
        _, l0, c0 = stack[-1]
        raise ParseError("unbalanced '(': missing ')'", l0, c0)
    return top


def parse_sexpr(src: str) -> SExpr:
    """Parse exactly one s-expression; reject empty or trailing input."""
    exprs = parse_sexprs(src)
    if not exprs:
        raise ParseError("empty input", 1, 1)
    if len(exprs) > 1:
        raise ParseError("trailing input after expression", exprs[1].line, exprs[1].col)
    return exprs[0]


def print_sexpr(e: SExpr) -> str:
    if isinstance(e, Atom):
        return e.text
    return "(" + " ".join(print_sexpr(item) for item in e.items) + ")"
