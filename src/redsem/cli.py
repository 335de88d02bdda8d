"""Command-line interface over the whole engine."""

from __future__ import annotations

import argparse
import json
import sys
from operator import itemgetter

from .errors import EngineError
from .grammar import find_left_recursion
from .language import (
    _bindings_text,
    check_pattern_nonterminals,
    load_language,
    parse_pattern,
    parse_term,
    print_context,
    print_pattern,
    print_term,
    to_context,
)
from .matching import Bindings, decompose, matches
from .oracle import oracle_decompose, oracle_match
from .reduction import step, trace
from .terms import plug

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


def _printed(r) -> tuple[str, dict]:
    """A result's line and JSON object, built from one printing of each of
    its terms and contexts.  A match result is a Bindings, a decomposition
    result a (context, sub-term, bindings) triple."""
    if isinstance(r, Bindings):
        b, split = r, None
    else:
        c, sub, b = r
        split = {"context": print_context(c), "subterm": print_term(sub)}
    texts = {var: print_term(value) for var, value in b.entries}
    line = _bindings_text(texts)
    if split is not None:
        line = (
            f"(decomposition (context {split['context']}) "
            f"(subterm {split['subterm']}) {line})"
        )
    return line, {"bindings": texts, "decomposition": split}


def _cmd_query(args) -> int:
    """`match` and `decompose`: one printed line or JSON object per
    deduplicated result, in the order of their lines."""
    # looked up when the command runs, so the engine can be replaced; a
    # wrapper per command would add a frame under every engine call
    if args.command == "match":
        engine_fn, oracle_fn = matches, oracle_match
    else:
        engine_fn, oracle_fn = decompose, oracle_decompose
    lang = load_language(args.grammar)
    pattern = parse_pattern(args.pattern)
    check_pattern_nonterminals(lang.grammar, pattern)
    term = parse_term(args.term)

    engine = engine_fn(lang.grammar, term, pattern)
    if args.oracle:
        oracle = oracle_fn(lang.grammar, term, pattern)
        if engine != oracle:
            sides = (("engine", engine - oracle), ("oracle", oracle - engine))
            for side, only in sides:
                for text in sorted(_printed(r)[0] for r in only):
                    print(f"only-{side}: {text}", file=sys.stderr)
            return EXIT_ORACLE_DISAGREEMENT

    printed = sorted(map(_printed, engine), key=itemgetter(0))
    if args.format == "json":
        results = [obj for _, obj in printed]
        print(json.dumps({"results": results}, sort_keys=True, ensure_ascii=False))
    else:
        for line, _ in printed:
            print(line)
    return EXIT_OK if engine else EXIT_NO_MATCH


def _cmd_plug(args) -> int:
    context = to_context(parse_term(args.context))
    term = parse_term(args.term)
    print(print_term(plug(context, term)))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    lang = load_language(args.grammar)
    term = parse_term(args.term)
    for rule_name, reduct in step(lang.grammar, list(lang.rules), term):
        print(f"({rule_name} {print_term(reduct)})")
    return EXIT_OK


def _cmd_trace(args) -> int:
    if args.max_steps < 0:
        print("error: --max-steps must be non-negative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    lang = load_language(args.grammar)
    term = parse_term(args.term)
    tr = trace(lang.grammar, list(lang.rules), term, args.max_steps)
    for i, (node, status) in enumerate(zip(tr.nodes, tr.statuses)):
        print(f"(node {i} {print_term(node)} {status})")
    for src, rule_name, dst in tr.edges:
        print(f"(edge {src} {rule_name} {dst})")
    return EXIT_OK


def _cmd_check_grammar(args) -> int:
    lang = load_language(args.grammar)
    cycle = find_left_recursion(lang.grammar)
    if cycle is None:
        print("not-left-recursive")
    else:
        print("left-recursive")
        path = " -> ".join(print_pattern(p) for p in cycle + (cycle[0],))
        print(f"witness: {path}")
    return EXIT_OK


_COMMANDS = {
    "match": _cmd_query,
    "decompose": _cmd_query,
    "plug": _cmd_plug,
    "reduce": _cmd_reduce,
    "trace": _cmd_trace,
    "check-grammar": _cmd_check_grammar,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT_ERROR if e.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    # UnicodeEncodeError: the output has a character stdout cannot encode
    except (EngineError, OSError, UnicodeEncodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # the term layer and the oracle still recurse on the Python stack
    except RecursionError:
        print("error: input nested too deeply for this interpreter", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
