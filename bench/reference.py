"""Reference answers for the benchmark, computed without the engine.

Terms are plain Python values: a symbol is a `str`, a list is a `tuple`,
and the hole of a context is the symbol `hole`.  The functions below
transcribe, for the two bundled lambda languages only, what the grammar
says by hand:

    e ::= (e e) | x | v        v ::= (λ x e)        x ::= x | y | z | w | f | g
    E ::= hole | (E e) | (v E)          (call-by-value, `lambda.sexp`)
    E ::= hole | (E e) | (e E)          (non-deterministic, `lambda_nd.sexp`)

and the beta rule `E[(v1 v2)] -> E[v2]`.  None of this imports `redsem`.
"""

from __future__ import annotations

import re
from collections import Counter

HOLE = "hole"
VARS = ("x", "y", "z", "w", "f", "g")
REDEX_PATTERN = "(in-hole (name E (nt E)) ((name f (nt v)) (name a (nt v))))"

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def show(t) -> str:
    """Print a term the way the engine's s-expression printer does."""
    if isinstance(t, str):
        return t
    return "(" + " ".join(show(item) for item in t) + ")"


def read(src: str):
    """Parse one s-expression into nested tuples of symbols."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(src):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = tuple(stack.pop())
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not one s-expression: {src[:60]!r}")
    return stack[0][0]


def count_nodes(src: str) -> int:
    """Number of list and atom nodes in s-expression source."""
    lines = (line.split(";", 1)[0] for line in src.splitlines())
    return sum(1 for tok in _TOKEN.findall("\n".join(lines)) if tok != ")")


def identity(var: str):
    return ("λ", var, var)


def right_chain(names):
    """((λ v_n v_n) (... ((λ v_1 v_1) (λ v_0 v_0)))): len(names) - 1 redexes deep."""
    t = identity(names[0])
    for v in names[1:]:
        t = (identity(v), t)
    return t


def left_chain(names):
    """(((λ v_0 v_0) (λ v_1 v_1)) ... (λ v_n v_n))."""
    t = identity(names[0])
    for v in names[1:]:
        t = (t, identity(v))
    return t


def balanced_tree(names, depth: int):
    """Complete binary application tree with 2**depth identity leaves."""
    leaves = [identity(v) for v in names[: 2**depth]]
    while len(leaves) > 1:
        leaves = [(leaves[i], leaves[i + 1]) for i in range(0, len(leaves), 2)]
    return leaves[0]


def is_value(t) -> bool:
    return (
        isinstance(t, tuple)
        and len(t) == 3
        and t[0] == "λ"
        and t[1] in VARS
        and is_expr(t[2])
    )


def is_expr(t) -> bool:
    if isinstance(t, str):
        return t in VARS
    if len(t) == 2:
        return is_expr(t[0]) and is_expr(t[1])
    return is_value(t)


def e_splits(t, nd: bool) -> list:
    """Every (context, sub-term) split of t by the non-terminal E."""
    out = [(HOLE, t)]
    if isinstance(t, tuple) and len(t) == 2:
        head, tail = t
        if is_expr(tail):
            out += [((c, tail), s) for c, s in e_splits(head, nd)]
        if is_expr(head) if nd else is_value(head):
            out += [((head, c), s) for c, s in e_splits(tail, nd)]
    return out


def plug(c, t):
    if c == HOLE:
        return t
    head, tail = c
    if _has_hole(head):
        return (plug(head, t), tail)
    return (head, plug(tail, t))


def _has_hole(c) -> bool:
    return c == HOLE or (isinstance(c, tuple) and any(_has_hole(x) for x in c))


def redexes(t, nd: bool) -> list:
    """(context, function, argument) for each beta redex E[(v1 v2)] of t."""
    return [
        (c, s[0], s[1])
        for c, s in e_splits(t, nd)
        if isinstance(s, tuple) and len(s) == 2 and is_value(s[0]) and is_value(s[1])
    ]


def successors(t, nd: bool) -> list:
    """Distinct one-step beta reducts of t."""
    out: list = []
    for c, _, a in redexes(t, nd):
        reduct = plug(c, a)
        if reduct not in out:
            out.append(reduct)
    return out


def match_lines(t, pattern: str) -> list[str]:
    """Expected stdout lines of `redsem match` on the call-by-value language."""
    if pattern == REDEX_PATTERN:
        return sorted(
            f"(bindings (E {show(c)}) (a {show(a)}) (f {show(f)}))"
            for c, f, a in redexes(t, nd=False)
        )
    if pattern == "(nt e)":
        return ["(bindings)"] if is_expr(t) else []
    raise ValueError(f"no reference for match {pattern}")


def decompose_lines(t, pattern: str) -> list[str]:
    """Expected stdout lines of `redsem decompose` on the call-by-value language."""
    if pattern == "(nt E)":
        return sorted(
            f"(decomposition (context {show(c)}) (subterm {show(s)}) (bindings))"
            for c, s in e_splits(t, nd=False)
        )
    raise ValueError(f"no reference for decompose {pattern}")


def trace_graph(t, nd: bool, max_steps: int):
    """Breadth-first reduction graph: (nodes, statuses, edges).

    Mirrors the documented tracer: a reduct already seen becomes a `cycle`
    leaf, nodes left unexpanded at the depth bound are `cutoff` unless they
    are normal forms.
    """
    nodes, statuses, edges = [t], ["pending"], []
    seen = {t}
    frontier = [0]
    for _ in range(max_steps):
        if not frontier:
            break
        nxt = []
        for i in frontier:
            succ = successors(nodes[i], nd)
            statuses[i] = "reduced" if succ else "normal-form"
            for t2 in succ:
                j = len(nodes)
                nodes.append(t2)
                edges.append((i, "beta", j))
                if t2 in seen:
                    statuses.append("cycle")
                else:
                    seen.add(t2)
                    statuses.append("pending")
                    nxt.append(j)
        frontier = nxt
    for i in frontier:
        statuses[i] = "cutoff" if successors(nodes[i], nd) else "normal-form"
    return nodes, statuses, edges


def trace_text(graph) -> str:
    nodes, statuses, edges = graph
    lines = [f"(node {i} {show(n)} {s})" for i, (n, s) in enumerate(zip(nodes, statuses))]
    lines += [f"(edge {a} {rule} {b})" for a, rule, b in edges]
    return "".join(line + "\n" for line in lines)


def canonical_trace(text: str):
    """Order-free form of `redsem trace` output.

    Successor order may differ between correct implementations; what may
    not differ is the multiset of (term, status) nodes and of
    (source term, rule, target term) edges.  A source is always an
    expanded node, and each term is expanded at most once, so its term
    names it.  Returns None for output that is not a well-formed graph.
    """
    nodes: dict[int, tuple] = {}
    edges = []
    for line in text.splitlines():
        form = read(line)
        if form[0] == "node" and len(form) == 4:
            nodes[int(form[1])] = (form[2], form[3])
        elif form[0] == "edge" and len(form) == 4:
            edges.append((int(form[1]), form[2], int(form[3])))
        else:
            return None
    if sorted(nodes) != list(range(len(nodes))):
        return None
    targets = Counter(b for _, _, b in edges)
    if any(not (a < b and a in nodes and b in nodes) for a, _, b in edges):
        return None
    if sorted(targets) != list(range(1, len(nodes))) or max(targets.values(), default=1) != 1:
        return None
    return (
        nodes[0][0],
        Counter(nodes.values()),
        Counter((nodes[a][0], rule, nodes[b][0]) for a, rule, b in edges),
    )
