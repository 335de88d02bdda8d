"""Reference definitions that the tests check the engine against.

Each one follows its definition directly.  The grammar analyses here
rescan the grammar's productions where the engine groups them once, and
share no code with `redsem.grammar`'s index, so the tests compare the
engine's one-pass analyses with an independent statement of the same
thing.  The sub-term relation and the tuple order are stated here too,
on terms and on Grammar values: the engine checks each edge against the
fact of the rule that made it, and the tests check those edges against
the order itself.  The recursive printer that prints every node in full
is the reference for the CLI's printer, which prints each shared node
once per request.  `query_output`, which prints the value sets of
`matches` and `decompose` sorted by line, is the reference for the
CLI's one pass over the raw list, which tells results apart by their
lines.  The recursive `to_context`, which counts the holes
of each item again at every level, and the pairwise grouping of equal
right-hand sides are the references for the engine's one-pass versions.
The s-expression tree below, built from the engine's tokens, and the
recursive converters from it to terms, patterns and templates, one per
syntax, are the references for the reader's one loop over its tables,
and the recursive `subpatterns` and `instantiate` for the engine's
loops.  A `trace` that steps its last frontier again in a second pass,
with no shared matching session, and an `apply_rule` that dedupes by
hand are the references for the reducer's one loop.  The oracle's search
with an in-hole decomposition rule that generates every pair of splits
and keeps those whose contexts compose to the goal's is the reference
for the oracle's rule, which walks the factorizations of the context.
"""

import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    CtxTerm,
    EngineError,
    Hole,
    HeadCtx,
    HolePat,
    InHolePat,
    LanguageError,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    MultipleHolesError,
    NamePat,
    NoHoleError,
    NtPat,
    Production,
    TailCtx,
    TemplateContextError,
    UnboundTemplateVariableError,
    decompose,
    enumerate_decompositions,
    matches,
    new_grammar,
    plug,
    productions_of,
    remove_prod,
)
from redsem.language import (
    _TOKENS,
    LanguageDef,
    ParseError,
    _one_datum,
    _tokens,
    print_literal,
)
from redsem.oracle import _cross, _Search
from redsem.reduction import (
    CUTOFF,
    CYCLE,
    NORMAL_FORM,
    REDUCED,
    Rule,
    RefTemplate,
    Trace,
)
from redsem.terms import compose


def immediate_subterms(t):
    """One-step subterm positions used by matching recursion.

    List nodes expose their head and their tail-as-list; context nodes
    expose the components the matcher recurses into (the hole-side context
    as a term, tail elements as a list, the head term, the rest context as
    a term).
    """
    if isinstance(t, ListTerm):
        if t.items:
            yield t.items[0]
            yield ListTerm(t.items[1:])
    elif isinstance(t, CtxTerm):
        c = t.context
        if isinstance(c, HeadCtx):
            yield CtxTerm(c.hole_side)
            yield ListTerm(c.tail)
        elif isinstance(c, TailCtx):
            yield c.head
            yield CtxTerm(c.rest)


def term_size(t, sizes=None):
    """Number of nodes of a term or a context.

    Nodes are sized bottom-up on an explicit stack, so depth costs no
    Python stack.  `sizes`, if given, maps the id of each node sized so
    far to (node, size); it is read and filled, and holds each node it
    keys, so one dict can serve many calls.
    """
    if isinstance(t, (Literal, Hole)):
        return 1
    sizes = {} if sizes is None else sizes
    todo = [t]
    while todo:
        node = todo[-1]
        if id(node) in sizes:
            todo.pop()
            continue
        if isinstance(node, ListTerm):
            parts = node.items
        elif isinstance(node, CtxTerm):
            parts = (node.context,)
        elif isinstance(node, HeadCtx):
            parts = (node.hole_side, *node.tail)
        else:
            parts = (node.head, node.rest)
        size, ready = 1, True
        for part in parts:
            if isinstance(part, (Literal, Hole)):
                size += 1
            elif id(part) in sizes:
                size += sizes[id(part)][1]
            else:
                todo.append(part)
                ready = False
        if ready:
            todo.pop()
            sizes[id(node)] = (node, size)
    return sizes[id(t)][1]


def is_proper_subterm(sub, t):
    """True iff sub occurs strictly inside t.  Irreflexive and transitive.

    Every immediate subterm is smaller than its parent, so subtrees smaller
    than sub are skipped and subtrees of sub's size are compared, not
    entered.  The immediate subterms of t are compared before anything
    deeper.
    """
    sizes = {}
    size = term_size(sub, sizes)
    todo = [t]
    while todo:
        for s in immediate_subterms(todo.pop()):
            n = term_size(s, sizes)
            if n > size:
                todo.append(s)
            elif n == size and s == sub:
                return True
    return False


def print_term(t):
    """The s-expression text of a term, printed in full at every node."""
    if isinstance(t, Literal):
        return print_literal(t)
    if isinstance(t, ListTerm):
        return "(" + " ".join(print_term(item) for item in t.items) + ")"
    return print_context(t.context)


def print_context(c):
    """The s-expression text of a context, printed in full at every node."""
    if isinstance(c, Hole):
        return "hole"
    return "(" + " ".join(_context_elements(c)) + ")"


def _context_elements(lc):
    if isinstance(lc, HeadCtx):
        return [print_context(lc.hole_side)] + [print_term(t) for t in lc.tail]
    return [print_term(lc.head)] + _context_elements(lc.rest)


def query_output(command, grammar, term, pattern):
    """The stdout and exit code of `redsem match` or `decompose`, by
    format: one line or JSON object per distinct value that `matches` or
    `decompose` returns, each printed in full, in the order of the lines.
    The values are printed once, for both formats."""
    printed = []
    for r in (matches if command == "match" else decompose)(grammar, term, pattern):
        if command == "match":
            b, split = r, None
        else:
            b = r[2]
            split = {"context": print_context(r[0]), "subterm": print_term(r[1])}
        texts = {var: print_term(value) for var, value in b.entries}
        line = "(bindings" + "".join(f" ({v} {t})" for v, t in texts.items()) + ")"
        if split is not None:
            context, subterm = split["context"], split["subterm"]
            line = f"(decomposition (context {context}) (subterm {subterm}) {line})"
        printed.append((line, {"bindings": texts, "decomposition": split}))
    printed.sort(key=lambda p: p[0])
    results = [obj for _, obj in printed]
    out = json.dumps({"results": results}, sort_keys=True, ensure_ascii=False)
    code = 0 if printed else 1
    return {
        "sexpr": ("".join(line + "\n" for line, _ in printed), code),
        "json": (out + "\n", code),
    }


def count_holes(t):
    """Bare holes of a term, outside its embedded non-hole contexts."""
    if isinstance(t, ListTerm):
        return sum(count_holes(item) for item in t.items)
    if isinstance(t, CtxTerm):
        return 1 if isinstance(t.context, Hole) else 0
    return 0


def to_context(t):
    """The context of a term with one hole: down the item that holds it,
    counting the holes of every item again at each level."""
    if isinstance(t, CtxTerm):
        return t.context
    n = count_holes(t)
    if n == 0:
        raise NoHoleError("the term contains no hole")
    if n > 1:
        raise MultipleHolesError(f"the term contains {n} holes, expected exactly 1")
    return _build_context(t)


def _build_context(t):
    if t == HOLE_TERM:
        return HOLE
    for i, item in enumerate(t.items):
        if count_holes(item) == 1:
            ctx = HeadCtx(_build_context(item), t.items[i + 1 :])
            for head in reversed(t.items[:i]):
                ctx = TailCtx(head, ctx)
            return ctx


def proper_subterms(t):
    """All proper subterms of t (transitive closure of immediate_subterms)."""
    for sub in immediate_subterms(t):
        yield sub
        yield from proper_subterms(sub)


def context_hole_count(c):
    """Number of holes reachable along the context's own path structure.

    Embedded context terms sitting in term slots are opaque values; their
    holes belong to them, not to this context.
    """
    if isinstance(c, Hole):
        return 1
    if isinstance(c, HeadCtx):
        return context_hole_count(c.hole_side)
    return context_hole_count(c.rest)


def subpatterns(p):
    """Yield p and every pattern nested inside it."""
    yield p
    if isinstance(p, ListPat):
        for item in p.items:
            yield from subpatterns(item)
    elif isinstance(p, NamePat):
        yield from subpatterns(p.pattern)
    elif isinstance(p, InHolePat):
        yield from subpatterns(p.context_pat)
        yield from subpatterns(p.hole_pat)


def instantiate(tpl, bindings):
    """The term a template denotes under the given bindings."""
    if isinstance(tpl, LitPat):
        return tpl.lit
    if isinstance(tpl, HolePat):
        return CtxTerm(HOLE)
    if isinstance(tpl, RefTemplate):
        value = bindings.get(tpl.var)
        if value is None:
            raise UnboundTemplateVariableError(
                f"template variable {tpl.var!r} is unbound"
            )
        return value
    if isinstance(tpl, ListPat):
        return ListTerm(tuple(instantiate(item, bindings) for item in tpl.items))
    ctx_term = instantiate(tpl.context_pat, bindings)
    if not isinstance(ctx_term, CtxTerm):
        raise TemplateContextError(
            "the context slot of an in-hole template must instantiate to a context"
        )
    return plug(ctx_term.context, instantiate(tpl.hole_pat, bindings))


def apply_rule(grammar, rule, term):
    """All reducts of term under one rule, one for each distinct term, in
    the order of their bindings' reprs."""
    out = []
    seen = set()
    for b in sorted(matches(grammar, term, rule.lhs), key=repr):
        reduct = instantiate(rule.rhs, b)
        if reduct not in seen:
            seen.add(reduct)
            out.append(reduct)
    return out


def trace(grammar, rules, term, max_steps):
    """The breadth-first reduction graph: max_steps layers are expanded,
    and a second pass steps the last frontier again to tell its normal
    forms from its cutoff leaves."""

    def step(t):
        return [(r.name, t2) for r in rules for t2 in apply_rule(grammar, r, t)]

    tr = Trace(nodes=[term], statuses=["pending"], edges=[])
    seen = {term}
    frontier = [0]
    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier = []
        for i in frontier:
            successors = step(tr.nodes[i])
            if not successors:
                tr.statuses[i] = NORMAL_FORM
                continue
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
    for i in frontier:
        tr.statuses[i] = NORMAL_FORM if not step(tr.nodes[i]) else CUTOFF
    return tr


# line and col locate a node in its source: they take no part in equality
@dataclass(frozen=True)
class Atom:
    text: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


def _tree(src):
    """The top-level s-expressions of well-bracketed src, each node at
    its own line and column."""
    stack = []
    items = []
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


def parse_sexprs(src):
    """All top-level s-expressions in src; the engine's tokenizer raises
    each bracket fault."""
    _tokens(src)
    return _tree(src)


def parse_sexpr(src):
    """Exactly one s-expression; the engine rejects empty or trailing
    input."""
    _one_datum(src)
    return _tree(src)[0]


def print_sexpr(e):
    if isinstance(e, Atom):
        return e.text
    return "(" + " ".join(print_sexpr(item) for item in e.items) + ")"


def atom_literal(e):
    """The literal an atom reads as: #t, #f, a decimal integer, or else a
    symbol."""
    if e.text == "#t":
        return Literal(True)
    if e.text == "#f":
        return Literal(False)
    if re.fullmatch(r"[+-]?[0-9]+", e.text):
        try:
            return Literal(int(e.text))
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("integer literal too long", e.line, e.col) from None
    return Literal(e.text)


def is_symbol(e):
    return isinstance(e, Atom) and isinstance(atom_literal(e).value, str)


def arguments(e, form, symbol=""):
    """e's arguments, one for each parameter of `form`, as in "(nt n)";
    the argument for the parameter named `symbol`, if any, is a symbol."""
    params, args = form[1:-1].split()[1:], e.items[1:]
    if len(args) != len(params):
        noun = "argument" if len(params) == 1 else "arguments"
        raise ParseError(
            f"arity error: {form} takes {len(params)} {noun}, got {len(args)}",
            e.line,
            e.col,
        )
    if symbol:
        arg = args[params.index(symbol)]
        if not is_symbol(arg):
            raise ParseError(f"{form} needs a symbol for {symbol}", e.line, e.col)
    return args


def sexpr_term(e):
    """The term an s-expression tree reads as."""
    if isinstance(e, Atom):
        if e.text == "hole":
            return HOLE_TERM
        return atom_literal(e)
    return ListTerm(tuple(sexpr_term(item) for item in e.items))


def sexpr_pattern(e):
    """The pattern an s-expression tree reads as."""
    if isinstance(e, Atom):
        if e.text == "hole":
            return HOLE_PAT
        if e.text in ("name", "nt", "in-hole"):
            raise ParseError(
                f"reserved word {e.text!r} cannot be a literal pattern", e.line, e.col
            )
        return LitPat(atom_literal(e))
    if e.items and isinstance(e.items[0], Atom):
        head = e.items[0].text
        if head == "name":
            var, body = arguments(e, "(name x p)", symbol="x")
            return NamePat(var.text, sexpr_pattern(body))
        if head == "nt":
            (nt,) = arguments(e, "(nt n)", symbol="n")
            return NtPat(nt.text)
        if head == "in-hole":
            pc, ph = arguments(e, "(in-hole pc ph)")
            return InHolePat(sexpr_pattern(pc), sexpr_pattern(ph))
    return ListPat(tuple(sexpr_pattern(item) for item in e.items))


def sexpr_template(e):
    """The template an s-expression tree reads as."""
    if isinstance(e, Atom):
        if e.text == "hole":
            return HOLE_PAT
        if e.text in ("ref", "in-hole"):
            raise ParseError(
                f"reserved word {e.text!r} cannot be a literal template", e.line, e.col
            )
        return LitPat(atom_literal(e))
    if e.items and isinstance(e.items[0], Atom):
        head = e.items[0].text
        if head == "ref":
            (var,) = arguments(e, "(ref x)", symbol="x")
            return RefTemplate(var.text)
        if head == "in-hole":
            c, t = arguments(e, "(in-hole c t)")
            return InHolePat(sexpr_template(c), sexpr_template(t))
    return ListPat(tuple(sexpr_template(item) for item in e.items))


def sexpr_language(forms):
    """The language definition a file's s-expression trees read as: the
    first form defines the grammar, and each later one is a rule."""
    if not forms:
        raise LanguageError("missing (define-language ...) form")
    head = forms[0]
    if (
        not isinstance(head, SList)
        or not head.items
        or head.items[0] != Atom("define-language")
    ):
        raise LanguageError("the first form must be (define-language ...)")
    if len(head.items) < 2 or not is_symbol(head.items[1]):
        raise LanguageError("define-language needs a name")
    productions = []
    for clause in head.items[2:]:
        if (
            not isinstance(clause, SList)
            or len(clause.items) < 2
            or not is_symbol(clause.items[0])
        ):
            raise LanguageError(
                "each grammar clause must be (<nonterminal> <pattern> ...)"
            )
        for rhs in clause.items[1:]:
            productions.append(Production(clause.items[0].text, sexpr_pattern(rhs)))
    grammar = new_grammar(productions)
    defined = {prod.nonterminal for prod in grammar.productions}

    def check(p, where):
        for sp in subpatterns(p):
            if isinstance(sp, NtPat) and sp.name not in defined:
                raise LanguageError(f"undefined non-terminal {sp.name!r} in {where}")

    for prod in grammar.productions:
        check(prod.pattern, f"the productions of {prod.nonterminal!r}")
    rules = {}
    for form in forms[1:]:
        if (
            not isinstance(form, SList)
            or len(form.items) != 4
            or form.items[0] != Atom("rule")
            or not is_symbol(form.items[1])
        ):
            raise LanguageError("each rule must be (rule <name> <lhs> <rhs>)")
        _, name, lhs, rhs = form.items
        if name.text in rules:
            raise LanguageError(f"rule {name.text!r} is defined twice")
        lhs = sexpr_pattern(lhs)
        check(lhs, f"rule {name.text!r}")
        rules[name.text] = Rule(name.text, lhs, sexpr_template(rhs))
    return LanguageDef(head.items[1].text, grammar, tuple(rules.values()))


def read_language(text):
    """The language definition a file's text reads as."""
    return sexpr_language(parse_sexprs(text))


def read_outcome(read, text):
    """The repr of what `read` gives on text, or the class, message and
    position of the engine error it raises."""
    try:
        return repr(read(text))
    except EngineError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def is_subgrammar(g1, g2):
    """True iff every production of g1 is a member of g2."""
    return all(p in g2.productions for p in g1.productions)


def universe(g):
    """Every sub-pattern of g's productions, once each, in first-seen order."""
    return {sp: None for prod in g.productions for sp in subpatterns(prod.pattern)}


def reference_hole_matchable(g):
    """`hole_matchable` as full passes over the grammar until none adds a
    pattern: a hole pattern can match a bare hole; a name pattern can iff
    its body can; a non-terminal can iff one of its productions can; an
    in-hole pattern can iff both components can."""
    patterns = universe(g)
    matchable = {p for p in patterns if isinstance(p, HolePat)}
    changed = True
    while changed:
        changed = False
        for p in patterns:
            if p in matchable:
                continue
            if isinstance(p, NamePat) and p.pattern in matchable:
                matchable.add(p)
                changed = True
            elif isinstance(p, NtPat) and any(
                rhs in matchable for rhs in productions_of(g, p.name)
            ):
                matchable.add(p)
                changed = True
            elif (
                isinstance(p, InHolePat)
                and p.context_pat in matchable
                and p.hole_pat in matchable
            ):
                matchable.add(p)
                changed = True
    return matchable


def successors(g, p, matchable):
    """The non-consumption steps from p, in the order the search takes."""
    if isinstance(p, NtPat):
        return list(productions_of(g, p.name))
    if isinstance(p, NamePat):
        return [p.pattern]
    if isinstance(p, InHolePat):
        out = [p.context_pat]
        if p.context_pat in matchable:
            out.append(p.hole_pat)
        return out
    return []


def reference_left_recursion(g):
    """`find_left_recursion` as a recursive three-colour search: the
    reference whose witnesses the explicit-path search must reproduce."""
    matchable = reference_hole_matchable(g)
    patterns = universe(g)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {p: WHITE for p in patterns}

    def visit(start):
        on_stack = []

        def dfs(node):
            color[node] = GRAY
            on_stack.append(node)
            for succ in successors(g, node, matchable):
                if color.get(succ, BLACK) == GRAY:
                    i = on_stack.index(succ)
                    return tuple(on_stack[i:])
                if color.get(succ, BLACK) == WHITE:
                    found = dfs(succ)
                    if found is not None:
                        return found
            on_stack.pop()
            color[node] = BLACK
            return None

        return dfs(start)

    for p in patterns:
        if color[p] == WHITE:
            cycle = visit(p)
            if cycle is not None:
                return cycle
    return None


def same_term(p):
    """The sub-patterns that match p's own term: no input is consumed."""
    if isinstance(p, NamePat):
        return [p.pattern]
    if isinstance(p, InHolePat):
        return [p.context_pat, p.hole_pat]
    return []


def same_filter(p):
    """The sub-patterns that inherit p's filter."""
    if isinstance(p, NamePat):
        return [p.pattern]
    if isinstance(p, InHolePat):
        return [p.hole_pat]
    if isinstance(p, ListPat):
        return list(p.items)
    return []


def reference_reach(g, nt, edges):
    """The bits of every production of every non-terminal reachable from
    nt along `edges`, production i holding bit ``1 << i``, and whether a
    hole pattern is reached: one walk from nt that rescans the grammar for
    each non-terminal it reaches."""
    bits, hole = 0, False
    seen, todo = {nt}, [nt]
    while todo:
        name = todo.pop()
        for i, prod in enumerate(g.productions):
            if prod.nonterminal != name:
                continue
            bits |= 1 << i
            stack = [prod.pattern]
            while stack:
                p = stack.pop()
                if isinstance(p, NtPat):
                    if p.name not in seen:
                        seen.add(p.name)
                        todo.append(p.name)
                elif isinstance(p, HolePat):
                    hole = True
                else:
                    stack.extend(edges(p))
    return bits, hole


def reference_index_sets(g, nt):
    """(reads, filtered) of nt, as `GrammarIndex` must hold them."""
    return reference_reach(g, nt, same_term)[0], reference_reach(g, nt, same_filter)[1]


def grammar_entries(rows):
    """A non-terminal's ``(bit, rhs, same, shape)`` entries, as
    `GrammarIndex` holds them, from its ``(bit, rhs)`` pairs: each new
    right-hand side is compared with every earlier one."""
    entries = []
    for bit, rhs in rows:
        shape = len(rhs.items) if isinstance(rhs, ListPat) else None
        if isinstance(rhs, LitPat):
            shape = rhs.lit
        same = bit
        for j, (b, r, s, f) in enumerate(entries):
            if r == rhs:
                entries[j] = (b, r, s | bit, f)
                same |= b
        entries.append((bit, rhs, same, shape))
    return tuple(entries)


def from_immediate_part(sub, t):
    """True when sub is, or was built from, one of t's immediate sub-term
    positions (`immediate_subterms`), compared by identity: a list's head,
    or its tail items one by one; a context term's hole side or tail, or
    its head or rest."""
    if isinstance(t, ListTerm):
        items = t.items
        if not items:
            return False
        if sub is items[0]:
            return True
        return (
            isinstance(sub, ListTerm)
            and len(sub.items) == len(items) - 1
            and all(a is b for a, b in zip(sub.items, items[1:]))
        )
    if not isinstance(t, CtxTerm):
        return False
    c = t.context
    if isinstance(c, HeadCtx):
        if isinstance(sub, CtxTerm):
            return sub.context is c.hole_side
        return isinstance(sub, ListTerm) and sub.items is c.tail
    if isinstance(c, TailCtx):
        return sub is c.head or (isinstance(sub, CtxTerm) and sub.context is c.rest)
    return False


def general_order_decreases(index, t_next, p_next, m_next, t_prev, p_prev, m_prev):
    """True iff (t_next, p_next, m_next) is strictly below (t_prev, p_prev,
    m_prev) in the matching tuple order, grammars given as masks of index,
    for any two problems, with no fact of the rule that made the edge.

    Either the term shrank to a proper subterm, or the term is unchanged
    and the (pattern, grammar) pair took one of the four non-consuming
    steps: into an in-hole component, into a name body, or into one
    production of a non-terminal with that production removed.  A term
    built from one of t_prev's immediate parts is a proper subterm found
    without the `is_proper_subterm` scan.
    """
    if t_next is not t_prev:
        if from_immediate_part(t_next, t_prev) or is_proper_subterm(t_next, t_prev):
            return True
        if t_next != t_prev:
            return False
    if isinstance(p_prev, InHolePat):
        return m_next == m_prev and (
            p_next == p_prev.context_pat or p_next == p_prev.hole_pat
        )
    if isinstance(p_prev, NamePat):
        return m_next == m_prev and p_next == p_prev.pattern
    if isinstance(p_prev, NtPat):
        for _, rhs, same, _ in index[p_prev.name][0]:
            if rhs is p_next or rhs == p_next:
                live = m_prev & same
                return live != 0 and m_next == m_prev ^ (live & -live)
    return False


class Problem(NamedTuple):
    """One matching problem: a term, a pattern, and the current grammar."""

    term: object
    pattern: object
    grammar: object


def reference_order(nxt, prev):
    """The tuple order read on Grammar values."""
    if is_proper_subterm(nxt.term, prev.term):
        return True
    if nxt.term != prev.term:
        return False
    p_prev, p_next = prev.pattern, nxt.pattern
    same_grammar = nxt.grammar == prev.grammar
    if isinstance(p_prev, InHolePat):
        return same_grammar and p_next in (p_prev.context_pat, p_prev.hole_pat)
    if isinstance(p_prev, NamePat):
        return same_grammar and p_next == p_prev.pattern
    if isinstance(p_prev, NtPat):
        prod = Production(p_prev.name, p_next)
        return prod in prev.grammar.productions and nxt.grammar == remove_prod(
            prev.grammar, prod
        )
    return False


class FilteredInHoleSearch(_Search):
    """The oracle's search, with the in-hole decomposition rule as generate
    and filter: every split (c1, t_mid) of t, and for c1 other than the
    bare hole every split (c2, t_inner) of t_mid, kept when
    compose(c1, c2) == c and t_inner == sub."""

    def _decomp_inhole(self, t, c, sub, p, mask):
        out = set()
        for c_outer, t_mid in enumerate_decompositions(t):
            bcs = self.decomp(t, c_outer, t_mid, p.context_pat, mask)
            if not bcs:
                continue
            if isinstance(c_outer, Hole):
                splits, m = ((c, sub),), mask
            else:
                splits = (
                    (c_inner, t_inner)
                    for c_inner, t_inner in enumerate_decompositions(t_mid)
                    if compose(c_outer, c_inner) == c and t_inner == sub
                )
                m = self.original
            bhs = set()
            for c_inner, t_inner in splits:
                bhs |= self.decomp(t_mid, c_inner, t_inner, p.hole_pat, m)
            out |= _cross(bcs, bhs)
        return out


def filtered_oracle_match(grammar, term, pattern, current=None):
    search = FilteredInHoleSearch(grammar, grammar if current is None else current)
    return search.match(term, pattern, search.current)


def filtered_oracle_decompose(grammar, term, pattern, current=None):
    search = FilteredInHoleSearch(grammar, grammar if current is None else current)
    return {
        (c, sub, b)
        for c, sub in enumerate_decompositions(term)
        for b in search.decomp(term, c, sub, pattern, search.current)
    }


def filtered_oracle_match_original(grammar, term, pattern):
    search = FilteredInHoleSearch(grammar, grammar, removal=False)
    return search.match(term, pattern, search.current)
