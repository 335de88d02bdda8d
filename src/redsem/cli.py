"""Command-line interface over the whole engine."""

from __future__ import annotations

import argparse
import gc
import sys
import threading
from operator import itemgetter

from .errors import EngineError
from .grammar import find_left_recursion
from .language import (
    check_pattern_nonterminals,
    load_language,
    parse_pattern,
    parse_term,
    print_bindings,
    print_context,
    print_pattern,
    print_term,
    to_context,
)
from .matching import Bindings, ContextDecomposition, match_decompose
from .reduction import step, trace
from .terms import CtxTerm, plug

EXIT_OK = 0
EXIT_NO_MATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_ORACLE_DISAGREEMENT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redsem",
        description="Match, decompose, plug, and reduce terms of a language "
        "defined by a grammar with evaluation contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="match a term against a pattern")
    p_decompose = sub.add_parser(
        "decompose", help="split a term into context and sub-term per a pattern"
    )
    for p in (p_match, p_decompose):
        p.add_argument("-g", "--grammar", required=True, help="language file")
        p.add_argument("-p", "--pattern", required=True, help="pattern source")
        p.add_argument("-t", "--term", required=True, help="term source")
        p.add_argument(
            "--oracle",
            action="store_true",
            help="cross-check against the brute-force reference oracle",
        )
        p.add_argument("--format", choices=("sexpr", "json"), default="sexpr")

    p_plug = sub.add_parser("plug", help="plug a term into a context")
    p_plug.add_argument("-c", "--context", required=True, help="context source")
    p_plug.add_argument("-t", "--term", required=True, help="term source")

    p_reduce = sub.add_parser("reduce", help="apply the language's rules once")
    p_reduce.add_argument("-g", "--grammar", required=True)
    p_reduce.add_argument("-t", "--term", required=True)

    p_trace = sub.add_parser("trace", help="breadth-first reduction graph")
    p_trace.add_argument("-g", "--grammar", required=True)
    p_trace.add_argument("-t", "--term", required=True)
    p_trace.add_argument("--max-steps", type=int, default=10)

    p_check = sub.add_parser("check-grammar", help="report left recursion")
    p_check.add_argument("-g", "--grammar", required=True)

    return parser


# what a command returns: its exit code, and its stdout and stderr lines
_Reply = tuple[int, list[str], list[str]]


def _printed(c, s, b: Bindings) -> tuple[str, tuple | None]:
    """A result's line, and the texts of its context c and sub-term s,
    which are None for a match."""
    line = print_bindings(b)
    if c is None:
        return line, None
    split = print_context(c), print_term(s)
    line = f"(decomposition (context {split[0]}) (subterm {split[1]}) {line})"
    return line, split


def _cmd_query(args) -> _Reply:
    """`match` and `decompose`: one line per distinct result, in the
    order of the lines, or one JSON object that holds the results.

    One pass over `match_decompose`'s raw list prints each result once
    and keeps the first result of each line, so no freshly composed
    context is hashed.  A result that binds a `CtxTerm`, a context value
    or the hole atom, is told apart by its value instead: the contexts
    that `(hole X)` and `(X hole)` give both print `(hole hole)`.  Equal
    results have equal lines, so its value is compared, by `==`, only
    with the results of its line that bind a `CtxTerm` too.

    On every other result of a parsed term the line is injective.  Its
    bindings hold sub-terms of the input, whose only `CtxTerm` is the
    hole atom, so they print injectively.  A split plugs back to the
    input, and plugging a `CtxTerm` composes and yields a `CtxTerm`, so a
    split never tears a context value out of a plain list: its sub-term
    is the hole atom only in the bare-hole split of the input `hole`.
    Two splits at different holes of one printed context would plug one
    sub-term text in at two `hole` tokens and both give the input's
    text; at the first of the two tokens one reading has `hole` and the
    other the sub-term's first token, so the sub-term would be the hole
    atom."""
    lang = load_language(args.grammar)
    pattern = parse_pattern(args.pattern)
    check_pattern_nonterminals(lang.grammar, pattern)
    term = parse_term(args.term)

    splits = args.command == "decompose"
    # the results kept under each line, split by whether they bind a CtxTerm
    by_line: dict[tuple[str, bool], list] = {}
    kept = []  # (line, split texts, context, sub-term, bindings) per result
    c = s = None
    for r in match_decompose(lang.grammar, term, pattern):
        d, b = r.decomposition, r.bindings
        if isinstance(d, ContextDecomposition) is not splits:
            continue
        if splits:
            c, s = d.context, d.subterm
        line, split = _printed(c, s, b)
        by_value = any(isinstance(v, CtxTerm) for _, v in b.entries)
        same = by_line.setdefault((line, by_value), [])
        if same and (not by_value or (c, s, b) in same):
            continue
        same.append((c, s, b))
        kept.append((line, split, c, s, b))

    if args.oracle:
        from .oracle import oracle_decompose, oracle_match

        engine = {(c, s, b) if splits else b for _, _, c, s, b in kept}
        oracle_fn = oracle_decompose if splits else oracle_match
        oracle = oracle_fn(lang.grammar, term, pattern)
        if engine != oracle:
            err = []
            for side, only in ("engine", engine - oracle), ("oracle", oracle - engine):
                values = only if splits else ((None, None, b) for b in only)
                err += sorted(f"only-{side}: {_printed(*v)[0]}" for v in values)
            return EXIT_ORACLE_DISAGREEMENT, [], err

    kept.sort(key=itemgetter(0))
    lines = [line for line, *_ in kept]
    if args.format == "json":
        import json

        results = []
        for _, split, _, _, b in kept:
            if split is not None:
                split = {"context": split[0], "subterm": split[1]}
            bindings = {var: print_term(v) for var, v in b.entries}
            results.append({"bindings": bindings, "decomposition": split})
        lines = [json.dumps({"results": results}, sort_keys=True, ensure_ascii=False)]
    return EXIT_OK if kept else EXIT_NO_MATCH, lines, []


def _cmd_plug(args) -> _Reply:
    context = to_context(parse_term(args.context))
    term = parse_term(args.term)
    return EXIT_OK, [print_term(plug(context, term))], []


def _cmd_reduce(args) -> _Reply:
    lang = load_language(args.grammar)
    term = parse_term(args.term)
    lines = []
    for rule_name, reduct in step(lang.grammar, list(lang.rules), term):
        lines.append(f"({rule_name} {print_term(reduct)})")
    return EXIT_OK, lines, []


def _cmd_trace(args) -> _Reply:
    if args.max_steps < 0:
        raise EngineError("--max-steps must be non-negative")
    lang = load_language(args.grammar)
    term = parse_term(args.term)
    tr = trace(lang.grammar, list(lang.rules), term, args.max_steps)
    lines = []
    for i, (node, status) in enumerate(zip(tr.nodes, tr.statuses)):
        lines.append(f"(node {i} {print_term(node)} {status})")
    for src, rule_name, dst in tr.edges:
        lines.append(f"(edge {src} {rule_name} {dst})")
    return EXIT_OK, lines, []


def _cmd_check_grammar(args) -> _Reply:
    lang = load_language(args.grammar)
    cycle = find_left_recursion(lang.grammar)
    if cycle is None:
        return EXIT_OK, ["not-left-recursive"], []
    path = " -> ".join(print_pattern(p) for p in cycle + (cycle[0],))
    return EXIT_OK, ["left-recursive", f"witness: {path}"], []


_COMMANDS = {
    "match": _cmd_query,
    "decompose": _cmd_query,
    "plug": _cmd_plug,
    "reduce": _cmd_reduce,
    "trace": _cmd_trace,
    "check-grammar": _cmd_check_grammar,
}


class _CollectorPause:
    """Keeps the cyclic garbage collector off while requests are in
    flight, and turns it back on after the last if it was on before the
    first.  The count is kept under a lock: if each request saved and
    restored the setting it saw, one that began while another had the
    collector off would save "off" and could leave it off for good."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.resume = False

    def __enter__(self):
        with self.lock:
            if not self.in_flight:
                self.resume = gc.isenabled()
                gc.disable()
            self.in_flight += 1

    def __exit__(self, *exc_info):
        with self.lock:
            self.in_flight -= 1
            if not self.in_flight and self.resume:
                gc.enable()


_PAUSE = _CollectorPause()


def run_cli(argv: list[str] | None = None) -> int:
    """Run one request; return its exit code.

    This is the CLI's one writer.  A command returns its exit code and
    its stdout and stderr lines and writes nothing; `run_cli` then writes
    each stream once, in a single `write`.  So a request that fails
    writes nothing to stdout, nor does one whose output stdout cannot
    encode: a text stream encodes the whole text before it writes any of
    it.  Each failure becomes one `error:` line on stderr and exit 2.

    The cyclic garbage collector is off while the request runs, and is
    turned back on when it returns or raises if it was on when it began.
    A request builds no reference cycles outside argparse's parser, so
    everything else it allocates is freed by reference counting, and the
    collections that its allocations would trigger, about 45 during
    `decompose -p '(nt E)'` on right chain 100, free nothing.  With the
    pause none runs during the request; the parser's cycles are left to
    the next collection after it.  Requests that overlap in threads
    share one pause, which ends with the last of them.  A request can
    still see the collector on mid-request, if code in another thread
    turns it on; that costs only time.  Library calls (`match_decompose`,
    `trace`, the oracle) do not pause: they run under the caller's
    settings.
    """
    with _PAUSE:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return EXIT_INPUT_ERROR if e.code else EXIT_OK
        try:
            code, out, err = _COMMANDS[args.command](args)
            sys.stdout.write("".join(line + "\n" for line in out))
        # UnicodeEncodeError: the output has a character stdout cannot encode
        except (EngineError, OSError, UnicodeEncodeError) as e:
            code, err = EXIT_INPUT_ERROR, [f"error: {e}"]
        # the term layer and the oracle still recurse on the Python stack
        except RecursionError:
            err = ["error: input nested too deeply for this interpreter"]
            code = EXIT_INPUT_ERROR
        except MemoryError:
            code, err = EXIT_INPUT_ERROR, ["error: out of memory"]
        if err:  # a request that succeeds runs even with stderr closed
            sys.stderr.write("".join(line + "\n" for line in err))
        return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
