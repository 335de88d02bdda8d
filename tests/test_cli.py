import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import redsem
import references
import test_matching
from conftest import CORPUS_FILE, FIXTURES, LAMBDA_FILE, LAMBDA_ND_FILE, LEFTREC_FILE
from genterms import gen_case
from redsem import (
    CtxTerm,
    EmptyDecomposition,
    HeadCtx,
    InHolePat,
    ListPat,
    ListTerm,
    NamePat,
    TailCtx,
    cli,
    language,
    load_language,
    matching,
    parse_pattern,
    parse_term,
    print_bindings,
)
from redsem.cli import run_cli
from redsem.language import print_pattern
from references import Atom, SList, parse_sexprs, print_sexpr


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatch:
    def test_value_match_golden(self, capsys):
        code, out, err = run(
            capsys, "match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(λ x x)"
        )
        assert (code, out, err) == (0, "(bindings)\n", "")

    def test_bindings_output_sorted(self, capsys):
        code, out, _ = run(
            capsys,
            "match",
            "-g",
            LAMBDA_FILE,
            "-p",
            "((name f (nt v)) (name a (nt v)))",
            "-t",
            "((λ x x) (λ y y))",
        )
        assert code == 0
        assert out == "(bindings (a (λ y y)) (f (λ x x)))\n"

    def test_no_match_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(x y)"
        )
        assert code == 1
        assert out == ""

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "match",
            "-g",
            LAMBDA_FILE,
            "-p",
            "(name v (nt v))",
            "-t",
            "(λ x x)",
            "--format",
            "json",
        )
        assert code == 0
        assert out == (
            '{"results": [{"bindings": {"v": "(λ x x)"}, "decomposition": null}]}\n'
        )
        assert json.loads(out)["results"][0]["decomposition"] is None

    def test_undefined_nonterminal_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "match", "-g", LAMBDA_FILE, "-p", "(nt zz)", "-t", "a"
        )
        assert code == 2
        assert "undefined non-terminal" in err

    def test_bad_term_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(a"
        )
        assert code == 2
        assert "error:" in err

    def test_missing_grammar_file_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "match", "-g", "/nonexistent.sexp", "-p", "(nt v)", "-t", "a"
        )
        assert code == 2


class TestDecompose:
    def test_hole_split_golden(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "-g", LAMBDA_FILE, "-p", "hole", "-t", "(λ x x)"
        )
        assert code == 0
        assert out == (
            "(decomposition (context hole) (subterm (λ x x)) (bindings))\n"
        )

    def test_evaluation_context_splits(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            "-g",
            LAMBDA_FILE,
            "-p",
            "(nt E)",
            "-t",
            "((λ x x) (λ y y))",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert (
            "(decomposition (context hole) (subterm ((λ x x) (λ y y))) (bindings))"
            in lines
        )

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            "-g",
            LAMBDA_FILE,
            "-p",
            "hole",
            "-t",
            "(λ x x)",
            "--format",
            "json",
        )
        assert code == 0
        assert out == (
            '{"results": [{"bindings": {}, '
            '"decomposition": {"context": "hole", "subterm": "(λ x x)"}}]}\n'
        )

    def test_no_split_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(λ x x)"
        )
        assert code == 1


class TestPlug:
    def test_plug_golden(self, capsys):
        code, out, err = run(capsys, "plug", "-c", "(hole b)", "-t", "a")
        assert (code, out, err) == (0, "(a b)\n", "")

    def test_no_hole_is_input_error(self, capsys):
        code, _, err = run(capsys, "plug", "-c", "(a b)", "-t", "c")
        assert code == 2
        assert "no hole" in err

    def test_two_holes_is_input_error(self, capsys):
        code, _, err = run(capsys, "plug", "-c", "(hole hole)", "-t", "c")
        assert code == 2


class TestModuleEntryPoint:
    def test_python_m_redsem_cli_runs_main(self):
        import redsem

        src = os.path.dirname(os.path.dirname(redsem.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "redsem.cli", "plug", "-c", "(hole b)", "-t", "a"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(a b)\n", "")


REDEX = "(in-hole (name E (nt E)) ((name f (nt v)) (name a (nt v))))"


ND_TERM = "(((λ x x) (λ y y)) ((λ z z) (λ w w)))"
ND_REDUCTS = """\
(beta ((λ y y) ((λ z z) (λ w w))))
(beta (((λ x x) (λ y y)) (λ w w)))
"""
ND_TRACE = """\
(node 0 (((λ x x) (λ y y)) ((λ z z) (λ w w))) reduced)
(node 1 ((λ y y) ((λ z z) (λ w w))) reduced)
(node 2 (((λ x x) (λ y y)) (λ w w)) reduced)
(node 3 ((λ y y) (λ w w)) reduced)
(node 4 ((λ y y) (λ w w)) cycle)
(node 5 (λ w w) normal-form)
(edge 0 beta 1)
(edge 0 beta 2)
(edge 1 beta 3)
(edge 2 beta 4)
(edge 3 beta 5)
"""


class TestHashSeedIndependence:
    # results are sets; the output order rests on sorting alone
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "-p", "(nt E)"],
            ["decompose", "-p", "(nt E)", "--format", "json"],
            ["match", "-p", "(in-hole (name E (nt E)) (name x (nt v)))"],
        ],
        ids=["decompose-sexpr", "decompose-json", "match-bindings"],
    )
    def test_stdout_is_the_same_under_two_hash_seeds(self, argv):
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        term = "(((λ x x) (λ y y)) ((λ z z) (λ w w)))"
        outs = [
            subprocess.run(
                [sys.executable, "-m", "redsem.cli", *argv, "-g", LAMBDA_FILE]
                + ["-t", term],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                timeout=60,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1]
        assert outs[0].count("bindings") > 1


    @pytest.mark.parametrize(
        "argv, want",
        [(["reduce"], ND_REDUCTS), (["trace", "--max-steps", "3"], ND_TRACE)],
        ids=["reduce", "trace"],
    )
    def test_a_rules_matches_are_ordered_alike_under_two_hash_seeds(self, argv, want):
        # both redexes are reached under lambda_nd.sexp, and a rule orders
        # its matches by their text: the left redex's E binding first
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "redsem.cli", *argv, "-g", LAMBDA_ND_FILE]
                + ["-t", ND_TERM],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def right_chain(n: int) -> tuple[str, dict[str, list[str]]]:
    """Right chain n's source, and its answers derived by hand: the beta
    redex is the innermost application, and (nt E) puts the hole on each
    level's whole application or on that application's head λ."""
    lams = ["(λ x x)"]
    for k in range(1, n + 1):
        lams.append("(λ {0} {0})".format("xyzwfg"[k % 6]))
    chains = [lams[0]]
    for k in range(1, n + 1):
        chains.append(f"({lams[k]} {chains[k - 1]})")
    splits = []
    for k in range(n, -1, -1):  # the level the hole is at
        prefix = "".join(f"({lams[i]} " for i in range(n, k, -1))
        close = ")" * (n - k)
        splits.append((prefix + "hole" + close, chains[k]))
        if k:
            splits.append((prefix + f"(hole {chains[k - 1]})" + close, lams[k]))
    redex = "".join(f"({lams[i]} " for i in range(n, 1, -1)) + "hole" + ")" * (n - 1)
    return chains[n], {
        "(nt e)": ["(bindings)"],
        "(nt E)": sorted(
            f"(decomposition (context {c}) (subterm {s}) (bindings))" for c, s in splits
        ),
        REDEX: [f"(bindings (E {redex}) (a {lams[0]}) (f {lams[1]}))"],
    }


class TestDeepInput:
    @pytest.mark.parametrize("pattern", ["(nt e)", "(nt E)", REDEX])
    def test_right_chain_100_hand_derived(self, capsys, pattern):
        command = "decompose" if pattern == "(nt E)" else "match"
        source, answers = right_chain(100)
        code, out, err = run(
            capsys, command, "-g", LAMBDA_FILE, "-p", pattern, "-t", source
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == answers[pattern]

    @pytest.mark.parametrize("pattern", ["(nt e)", "(nt E)", REDEX])
    def test_right_chain_400_answers_or_exits_2(self, pattern):
        # the term layer still recurses on the Python stack: a request
        # past its depth exits 2 with one line, never with a traceback
        command = "decompose" if pattern == "(nt E)" else "match"
        source, answers = right_chain(400)
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "redsem.cli", command, "-g", LAMBDA_FILE]
            + ["-p", pattern, "-t", source],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        if proc.returncode == 0:
            assert (proc.stdout.splitlines(), proc.stderr) == (answers[pattern], "")
        else:
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stderr.startswith("error: ")

    def test_decompose_right_chain_300_answers(self):
        # the CLI hashes no split: the printer's recursion sets the depth
        source, answers = right_chain(300)
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "redsem.cli", "decompose", "-g", LAMBDA_FILE]
            + ["-p", "(nt E)", "-t", source],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == answers["(nt E)"]
        assert len(answers["(nt E)"]) == 601

    @pytest.mark.parametrize("n", [600, 3000])
    @pytest.mark.parametrize("shape", ["right", "left"])
    def test_chains_are_read_and_matched_at_any_depth(self, capsys, shape, n):
        # the reader and the matcher both keep their work on a list
        argv = ("-p", "(nt e)", "-t", chain_source(shape, n))
        assert run(capsys, "match", "-g", LAMBDA_FILE, *argv) == (0, "(bindings)\n", "")


class TestCheckGrammar:
    def test_left_recursive_golden(self, capsys):
        code, out, err = run(capsys, "check-grammar", "-g", LEFTREC_FILE)
        assert (code, err) == (0, "")
        assert out == "left-recursive\nwitness: (nt n) -> (nt n)\n"

    def test_lambda_grammar_golden(self, capsys):
        code, out, err = run(capsys, "check-grammar", "-g", LAMBDA_FILE)
        assert (code, out, err) == (0, "not-left-recursive\n", "")

    # the search keeps its path on the heap, so a grammar deeper than the
    # interpreter's recursion limit is answered
    def test_deep_cycle(self, capsys, tmp_path):
        n = 3000
        deep = tmp_path / "cycle.sexp"
        rows = "".join(f" (n{i} (nt n{(i + 1) % n}))" for i in range(n))
        deep.write_text(f"(define-language deep{rows})", encoding="utf-8")
        code, out, err = run(capsys, "check-grammar", "-g", str(deep))
        assert (code, err) == (0, "")
        path = " -> ".join(f"(nt n{i % n})" for i in range(1, n + 2))
        assert out == f"left-recursive\nwitness: {path}\n"

    # a chain ending in hole makes every non-terminal of it hole-matchable
    def test_deep_chain(self, capsys, tmp_path):
        n = 3000
        deep = tmp_path / "chain.sexp"
        rows = "".join(f" (n{i} (nt n{i + 1}))" for i in range(n))
        for last in ("a", "hole"):
            text = f"(define-language deep{rows} (n{n} {last}))"
            deep.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, "check-grammar", "-g", str(deep))
            assert (code, out, err) == (0, "not-left-recursive\n", "")

    # a rule's right-hand side deeper than the interpreter's recursion
    # limit loads: its variables are collected on a list, unbound ones
    # too, and it is instantiated on a list
    def test_deep_rule_right_hand_side(self, capsys, tmp_path):
        n = 3000
        deep = tmp_path / "rhs.sexp"
        unbound = (2, "", "error: rule 'r' uses unbound template variable(s): z\n")
        for var, checked, reduced in (
            ("q", (0, "not-left-recursive\n", ""), (0, "(r a)\n", "")),
            ("z", unbound, unbound),
        ):
            rhs = "(in-hole hole " * n + f"(ref {var})" + ")" * n
            text = f"(define-language l (e a))\n(rule r (name q (nt e)) {rhs})"
            deep.write_text(text, encoding="utf-8")
            assert run(capsys, "check-grammar", "-g", str(deep)) == checked
            assert run(capsys, "reduce", "-g", str(deep), "-t", "a") == reduced

    # a production deeper than the interpreter's recursion limit is read
    # with each pattern's hash cached, so the grammar analyses and the
    # matcher answer it
    def test_deep_list_production(self, capsys, tmp_path):
        n = 3000
        deep = tmp_path / "production.sexp"
        deep.write_text(
            "(define-language l (e a " + "(b " * n + "(nt e)" + ")" * n + "))",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check-grammar", "-g", str(deep))
        assert (code, out, err) == (0, "not-left-recursive\n", "")
        term = "(b " * n + "a" + ")" * n
        argv = ("-g", str(deep), "-p", "(nt e)", "-t", term)
        assert run(capsys, "match", *argv) == (0, "(bindings)\n", "")

    # a left-recursive production as deep gets past the analyses, but its
    # witness is printed recursively: one line, never a traceback, and no
    # partial answer on stdout
    def test_deep_left_recursive_production_exits_2(self, capsys, tmp_path):
        n = 3000
        deep = tmp_path / "left.sexp"
        rhs = "(in-hole hole " * n + "(nt e)" + ")" * n
        deep.write_text(f"(define-language l (e a {rhs}))", encoding="utf-8")
        code, out, err = run(capsys, "check-grammar", "-g", str(deep))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_file_not_utf8_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.sexp"
        bad.write_bytes(b"\xff\xfe(define-language")
        code, out, err = run(capsys, "check-grammar", "-g", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not valid UTF-8 at byte 0\n"

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        marked = tmp_path / "lambda.sexp"
        with open(LAMBDA_FILE, "rb") as f:
            marked.write_bytes(b"\xef\xbb\xbf" + f.read())
        plain = run(capsys, "check-grammar", "-g", LAMBDA_FILE)
        assert run(capsys, "check-grammar", "-g", str(marked)) == plain
        # an invalid byte is still reported at its offset in the file
        marked.write_bytes(b"\xef\xbb\xbf(define-language \xff")
        code, out, err = run(capsys, "check-grammar", "-g", str(marked))
        assert (code, out) == (2, "")
        assert err == f"error: {marked}: not valid UTF-8 at byte 20\n"


class TestReduceAndTrace:
    def test_reduce_golden(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "-g", LAMBDA_FILE, "-t", "((λ x x) (λ y y))"
        )
        assert code == 0
        assert out == "(beta (λ y y))\n"

    def test_trace_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "-g",
            LAMBDA_FILE,
            "-t",
            "((λ x x) (λ y y))",
            "--max-steps",
            "10",
        )
        assert code == 0
        assert out == (
            "(node 0 ((λ x x) (λ y y)) reduced)\n"
            "(node 1 (λ y y) normal-form)\n"
            "(edge 0 beta 1)\n"
        )

    def test_reduce_puts_a_literal_and_a_hole_in_place(self, capsys, tmp_path):
        # (a a) has one split at each a: under ((nt E) (nt e)) with E the
        # hole, and under ((nt e) (nt E)); each puts (b hole) in its place
        lang = tmp_path / "mark.sexp"
        lang.write_text(
            "(define-language mark\n"
            "  (e a ((nt e) (nt e)))\n"
            "  (E hole ((nt E) (nt e)) ((nt e) (nt E))))\n"
            "(rule r (in-hole (name C (nt E)) a) (in-hole (ref C) (b hole)))",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "reduce", "-g", str(lang), "-t", "(a a)")
        assert (code, out, err) == (0, "(r ((b hole) a))\n(r (a (b hole)))\n", "")

    def test_a_reduct_too_deep_to_print_leaves_no_partial_answer(
        self, capsys, tmp_path
    ):
        # rule a's reduct prints; rule b's, one level deeper than the term,
        # is past the printer's recursion on every supported Python: exit 2
        # writes no line of stdout
        lang = tmp_path / "deep.sexp"
        lang.write_text(
            "(define-language l (e z ((nt e) z)))\n"
            "(rule a (name t (nt e)) z)\n"
            "(rule b (name t (nt e)) ((ref t) z))",
            encoding="utf-8",
        )
        shallow = run(capsys, "reduce", "-g", str(lang), "-t", "((z z) z)")
        assert shallow == (0, "(a z)\n(b (((z z) z) z))\n", "")
        term = "(" * 600 + "z" + " z)" * 600
        code, out, err = run(capsys, "reduce", "-g", str(lang), "-t", term)
        assert (code, out) == (2, "")
        assert err == "error: input nested too deeply for this interpreter\n"

    def test_trace_rejects_negative_max_steps(self, capsys):
        argv = ("trace", "-g", LAMBDA_FILE, "-t", "((λ x x) (λ y y))", "--max-steps")
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        code, out, _ = run(capsys, *argv, "0")
        assert (code, out) == (0, "(node 0 ((λ x x) (λ y y)) cutoff)\n")


class TestOracleMode:
    def test_agrees_on_bundled_corpus(self, capsys):
        with open(CORPUS_FILE, encoding="utf-8") as f:
            forms = parse_sexprs(f.read())
        assert forms, "corpus file must not be empty"
        for form in forms:
            assert isinstance(form, SList) and form.items[0] == Atom("case")
            mode = form.items[1].text
            pattern_src = print_sexpr(form.items[2])
            term_src = print_sexpr(form.items[3])
            code, out, err = run(
                capsys,
                mode,
                "-g",
                LAMBDA_FILE,
                "-p",
                pattern_src,
                "-t",
                term_src,
                "--oracle",
            )
            assert code == 0, f"{mode} {pattern_src} {term_src}: {err}"
            assert err == ""

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        import redsem.cli as cli

        monkeypatch.setattr(cli, "match_decompose", lambda *a, **k: [])
        code, out, err = run(
            capsys,
            "match",
            "-g",
            LAMBDA_FILE,
            "-p",
            "(nt v)",
            "-t",
            "(λ x x)",
            "--oracle",
        )
        assert code == 3
        assert "only-oracle:" in err

    def test_a_dropped_twin_context_exits_3(self, capsys, monkeypatch, tmp_path):
        # the engine loses one of two distinct results that print alike:
        # the check compares values, so the loss shows
        path = tmp_path / "holes.sexp"
        path.write_text(HOLES, encoding="utf-8")
        real = cli.match_decompose

        def drop_one(*args, **kwargs):
            results = real(*args, **kwargs)
            twins = [
                r.bindings
                for r in results
                if isinstance(r.decomposition, EmptyDecomposition)
                and print_bindings(r.bindings) == TWIN
            ]
            assert len(set(twins)) == 2
            return [r for r in results if r.bindings != twins[0]]

        monkeypatch.setattr(cli, "match_decompose", drop_one)
        argv = ["match", "-g", str(path), "-p", HOLES_PATTERN, "-t", HOLES_TERM]
        assert run(capsys, *argv, "--oracle") == (3, "", f"only-oracle: {TWIN}\n")


LONG = "9" * 5000  # past CPython's limit on the digits int() converts
TOO_LONG = "integer literal too long"
NEEDS = "needs a symbol for"
REDUCE = ("reduce", "-t", "a")
RULE = "(define-language l (e a)) (rule r (name x (nt e)) {})"
FIRST_FORM = "the first form must be (define-language ...)"
CLAUSE = "each grammar clause must be (<nonterminal> <pattern> ...)"


class TestDiagnostics:
    """Each input error exits 2 with one `error:` line on stderr, which
    names the position where the reader has one."""

    @pytest.mark.parametrize(
        "lang, argv, err",
        [
            (None, ("match", "-p", "(nt e)", "-t", LONG), f"1:1: {TOO_LONG}"),
            (None, ("match", "-p", f"(a\n {LONG})", "-t", "a"), f"2:2: {TOO_LONG}"),
            (None, ("plug", "-c", f"(hole {LONG})", "-t", "a"), f"1:7: {TOO_LONG}"),
            (None, ("plug", "-c", "(hole b)", "-t", LONG), f"1:1: {TOO_LONG}"),
            (None, ("match", "-p", "(nt 5)", "-t", "a"), f"1:1: (nt n) {NEEDS} n"),
            (
                None,
                ("match", "-p", "(name 5 a)", "-t", "a"),
                f"1:1: (name x p) {NEEDS} x",
            ),
            (f"(define-language l (e {LONG}))", REDUCE, f"1:23: {TOO_LONG}"),
            (RULE.format("\n(ref 5)"), REDUCE, f"2:1: (ref x) {NEEDS} x"),
            (
                RULE.format("(ref)"),
                ("trace", "-t", "a"),
                "1:51: arity error: (ref x) takes 1 argument, got 0",
            ),
            (
                RULE.format("(k ref)"),
                REDUCE,
                "1:54: reserved word 'ref' cannot be a literal template",
            ),
            ("(rule r a a)", ("check-grammar",), FIRST_FORM),
            ("(define-language)", ("check-grammar",), "define-language needs a name"),
            ("(define-language l e)", ("check-grammar",), CLAUSE),
        ],
    )
    def test_one_line(self, capsys, tmp_path, lang, argv, err):
        if argv[0] != "plug":
            path = tmp_path / "lang.sexp"
            path.write_text(lang or "", encoding="utf-8")
            argv = (argv[0], "-g", str(path) if lang else LAMBDA_FILE, *argv[1:])
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "-p", "(nt E)", "-t", "((λ x x) a)"),
            ("decompose", "-p", "(nt E)", "-t", "((λ x x) a)", "--format", "json"),
            ("match", "-p", "(name v (nt v))", "-t", "(λ x x)", "--format", "json"),
            ("reduce", "-t", "((λ x x) (λ y y))"),
            ("trace", "-t", "((λ x x) (λ y y))"),
        ],
    )
    def test_output_stdout_cannot_encode(self, capsys, monkeypatch, argv):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = run_cli([argv[0], "-g", LAMBDA_FILE, *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: 'ascii' codec can't encode character '\\u03bb'")
        stdout.flush()
        assert stdout.buffer.getvalue() == b""


def weighted(*choices):
    """One of the strategies, drawn as often as it is listed."""
    return st.sampled_from(choices).flatmap(lambda strategy: strategy)


# atoms, and a few well-formed forms so that requests get past the reader
LEAVES = st.one_of(
    st.sampled_from(
        ("name", "nt", "in-hole", "hole", "ref", "rule", "define-language")
        + ("#t", "#f", "a", "x", "e", "E", "v", "λ", LONG, "-" + LONG)
        + ("(nt e)", "(nt E)", "(name x (nt e))", "(in-hole (nt E) hole)", "(ref x)")
    ),
    st.integers(-99, 99).map(lambda n: f"{n:+d}"),
)
SEXPRS = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4).map(lambda xs: f"({' '.join(xs)})"),
    max_leaves=10,
)
# with unbalanced parentheses, a comment, and \x0b, which ends no atom
NOISY = st.builds(
    lambda parts, sep: sep.join(parts),
    st.lists(
        st.one_of(SEXPRS, st.sampled_from(("(", ")", "; c\n", "\x0b"))),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from((" ", "", "\n")),
)
TEXTS = weighted(SEXPRS, SEXPRS, SEXPRS, NOISY)
CLAUSES = st.builds(
    lambda nt, rhss: f"({nt} {' '.join(rhss)})",
    st.sampled_from("eEv"),
    st.lists(SEXPRS, min_size=1, max_size=3),
)
RULES = st.builds(lambda lhs, rhs: f"(rule r {lhs} {rhs})", SEXPRS, SEXPRS)
DEFINITIONS = st.builds(
    lambda clauses, rules, tail: (
        f"(define-language l {' '.join(clauses)})\n{' '.join(rules)}{tail}"
    ),
    st.lists(CLAUSES, max_size=3),
    st.lists(RULES, max_size=2),
    st.sampled_from(("", "", "", " (", " )", " ; c", "\x0b")),
)
COMMANDS = ("match", "decompose", "plug", "reduce", "trace", "check-grammar")


@pytest.fixture(scope="module")
def lang_file(tmp_path_factory):
    return tmp_path_factory.mktemp("robust") / "lang.sexp"


MATCH_B = ("match", "-p", "(nt e)", "-t", "b")
RULE_FORM = "each rule must be (rule <name> <lhs> <rhs>)"


class TestLanguageNames:
    """A language, non-terminal or rule name that is not a symbol, and a
    rule name used twice, exit 2 with one line."""

    @pytest.mark.parametrize(
        "lang, argv, err",
        [
            ("(define-language 5 (e b))", REDUCE, "define-language needs a name"),
            ("(define-language l (#t a) (e b))", MATCH_B, CLAUSE),
            ("(define-language l (e b)) (rule 7 b b)", REDUCE, RULE_FORM),
            (
                "(define-language l (e b)) (rule r b a) (rule r b c)",
                REDUCE,
                "rule 'r' is defined twice",
            ),
        ],
    )
    def test_one_line(self, capsys, tmp_path, lang, argv, err):
        path = tmp_path / "lang.sexp"
        path.write_text(lang, encoding="utf-8")
        argv = (argv[0], "-g", str(path), *argv[1:])
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")


class TestRobustness:
    """Every request answers or fails with exit 2 and one `error:` line.
    Texts go in as --term=TEXT and the like, so that argparse cannot read
    a text that starts with '-' as an option."""

    @given(
        command=st.sampled_from(COMMANDS),
        lang=st.one_of(st.none(), weighted(DEFINITIONS, DEFINITIONS, TEXTS)),
        first=TEXTS,
        second=TEXTS,
        flags=st.sampled_from(((), ("--oracle",), ("--format=json",))),
    )
    # the same examples on every run: an ambiguous generated grammar can make
    # one request slow, and tier-1 must take the same time on every run
    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_no_traceback(self, lang_file, command, lang, first, second, flags):
        path = LAMBDA_FILE
        if lang is not None:
            lang_file.write_text(lang, encoding="utf-8")
            path = str(lang_file)
        argv = {
            "match": ["-g", path, f"--pattern={first}", f"--term={second}", *flags],
            "plug": [f"--context={first}", f"--term={second}"],
            "reduce": ["-g", path, f"--term={second}"],
            "trace": ["-g", path, f"--term={second}", "--max-steps=2"],
            "check-grammar": ["-g", path],
        }
        argv["decompose"] = argv["match"]
        if lang is not None:
            # the same language, or the same first fault, as the reference
            want = references.read_outcome(references.read_language, lang)
            assert references.read_outcome(language.parse_language, lang) == want
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([command, *argv[command]])
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("error:")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "match", "-p", "(nt v)", "-t", "a")[0] == 2


def chain_source(shape: str, n: int) -> str:
    """Right or left chain n, its identities over x y z w f g in turn."""
    lams = ["(λ {0} {0})".format("xyzwfg"[k % 6]) for k in range(n + 1)]
    text = lams[0]
    for lam in lams[1:]:
        text = f"({lam} {text})" if shape == "right" else f"({text} {lam})"
    return text


def tree_source(depth: int) -> str:
    """The balanced application tree with 2**depth identity leaves."""
    items = ["(λ {0} {0})".format("xyzwfg"[k % 6]) for k in range(2**depth)]
    while len(items) > 1:
        items = [f"({a} {b})" for a, b in zip(items[::2], items[1::2])]
    return items[0]


def raise_interrupt(args):
    assert not gc.isenabled()
    raise KeyboardInterrupt


# one request per command and exit path: its argv, its exit code or the
# exception that escapes run_cli, and the names of cli it patches
PATHS = {
    "match-0": (("match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(λ x x)"), 0),
    "match-1": (("match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "a"), 1),
    "json": (
        ("decompose", "-g", LAMBDA_FILE, "-p", "(nt E)", "-t", "((λ x x) a)")
        + ("--format", "json"),
        0,
    ),
    "oracle-0": (
        ("match", "-g", LAMBDA_FILE, "-p", "(nt e)", "-t", "(λ x x)", "--oracle"),
        0,
    ),
    "oracle-3": (
        ("match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(λ x x)", "--oracle"),
        3,
        {"match_decompose": lambda *a, **k: []},
    ),
    "oracle-3-lines": (
        ("decompose", "-g", LAMBDA_FILE, "-p", "(nt E)", "-t", "((λ x x) a)")
        + ("--oracle",),
        3,
        {"match_decompose": lambda *a, **k: []},
    ),
    "parse-error": (("match", "-g", LAMBDA_FILE, "-p", "(nt e", "-t", "a"), 2),
    "undefined-nt": (("match", "-g", LAMBDA_FILE, "-p", "(nt zz)", "-t", "a"), 2),
    "missing-file": (("check-grammar", "-g", os.path.join(FIXTURES, "none.sexp")), 2),
    "recursion": (
        ("decompose", "-g", LAMBDA_FILE, "-p", "(nt E)")
        + ("-t", chain_source("right", 600)),
        2,
    ),
    "plug": (("plug", "-c", "(hole b)", "-t", "a"), 0),
    "reduce": (("reduce", "-g", LAMBDA_FILE, "-t", "((λ x x) (λ y y))"), 0),
    "trace": (("trace", "-g", LAMBDA_ND_FILE, "-t", "((λ x x) (λ y y))"), 0),
    "check-grammar": (("check-grammar", "-g", LEFTREC_FILE), 0),
    "interrupt": (
        ("plug", "-c", "hole", "-t", "a"),
        KeyboardInterrupt,
        {"_COMMANDS": {"plug": raise_interrupt}},
    ),
    "help": (("match", "--help"), 0),
    "usage": (("frobnicate",), 2),
}
ARGPARSE_EXITS = ("help", "usage")


class Writes(io.StringIO):
    """A text stream that counts its write calls."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def request(monkeypatch, name):
    """Run PATHS[name] with its patches; return its stdout and stderr."""
    argv, code, *patches = PATHS[name]
    for patch in patches:
        for attr, value in patch.items():
            monkeypatch.setattr(cli, attr, value)
    out, err = Writes(), Writes()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if code is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run_cli(list(argv))
        else:
            assert run_cli(list(argv)) == code
    return out, err


class ThreadStreams(io.TextIOBase):
    """A text stream that keeps what each thread writes apart."""

    def __init__(self):
        self.parts = {}

    def write(self, text):
        self.parts.setdefault(threading.get_ident(), []).append(text)
        return len(text)

    def take(self):
        return "".join(self.parts.pop(threading.get_ident(), ()))


class TestCollectorPause:
    """`run_cli` keeps the cyclic collector off while a request runs and
    gives the caller back its own setting on every exit."""

    def test_no_collection_during_a_large_request(self, capsys):
        source, answers = right_chain(100)
        argv = ["decompose", "-g", LAMBDA_FILE, "-p", "(nt E)", "-t", source]
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()  # no collection falls due on entry to run_cli
        gc.callbacks.append(count)
        try:
            code = run_cli(argv)
            collections = len(starts)
        finally:
            gc.callbacks.remove(count)
        assert (code, collections) == (0, 0)
        assert capsys.readouterr().out.splitlines() == answers["(nt E)"]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", PATHS)
    def test_the_callers_setting_is_restored(self, monkeypatch, name, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            request(monkeypatch, name)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_a_request_leaves_only_the_parsers_cycles(self, monkeypatch):
        # the same garbage as a bare parser build, measured here so that
        # the count carries across Python versions; argparse's own exits
        # print usage and are left out
        gc.disable()
        try:
            gc.collect()
            cli._build_parser()
            parser_only = gc.collect()
            assert parser_only > 0
            left = {}
            for name in PATHS:
                if name not in ARGPARSE_EXITS:
                    with monkeypatch.context() as patched:
                        request(patched, name)
                    left[name] = gc.collect()
            assert left == dict.fromkeys(left, parser_only)
        finally:
            gc.enable()

    def test_threads_get_the_bytes_of_serial_runs(self, monkeypatch):
        # four threads, 20 requests each, over match, decompose and trace
        requests = [
            ["match", "-g", LAMBDA_FILE, "-p", REDEX, "-t", right_chain(16)[0]],
            ["decompose", "-g", LAMBDA_FILE, "-p", "(nt E)"]
            + ["-t", chain_source("left", 16)],
            ["trace", "-g", LAMBDA_ND_FILE, "-t", tree_source(2)],
        ]
        out, err = ThreadStreams(), ThreadStreams()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)

        def answer(argv):
            code = run_cli(argv)
            return code, out.take(), err.take()

        serial = [answer(argv) for argv in requests]
        assert [code for code, *_ in serial] == [0, 0, 0]
        start, got = threading.Barrier(4), {}

        def work(k):
            start.wait(timeout=60)
            got[k] = [answer(requests[(k + i) % 3]) for i in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert gc.isenabled()
        for k in range(4):
            assert got[k] == [serial[(k + i) % 3] for i in range(20)]


class TestOneWriter:
    """`run_cli` is the CLI's one writer: a request writes stdout in at
    most one call, stderr in one call only when it has text for it, and
    text to at most one of the two."""

    @pytest.mark.parametrize(
        "name", [name for name in PATHS if name not in ARGPARSE_EXITS]
    )
    def test_each_stream_is_written_at_most_once(self, monkeypatch, name):
        out, err = request(monkeypatch, name)
        assert out.calls <= 1 and err.calls == (err.getvalue() != "")
        assert not (out.getvalue() and err.getvalue())
        if name == "oracle-3-lines":
            assert err.getvalue().count("\n") == 2


class TestPrintOnce:
    """Each shared list term is printed once; the bytes are those of the
    reference printer, which prints every node in full."""

    def both_printers(self, monkeypatch, capsys, engine, argv):
        # the engine runs once; its answer is printed by the CLI's printer
        # and then by the reference printer
        real, answers = getattr(cli, engine), []

        def once(*args, **kwargs):
            if not answers:
                answers.append(real(*args, **kwargs))
            return answers[0]

        with monkeypatch.context() as m:
            m.setattr(cli, engine, once)
            got = run(capsys, *argv)
            m.setattr(cli, "print_term", references.print_term)
            m.setattr(cli, "print_context", references.print_context)
            want = run(capsys, *argv)
        assert got == want
        assert got[0] == 0 and got[1]
        return got

    @pytest.mark.parametrize("shape", ["right", "left"])
    def test_decompose_chains_0_to_64(self, monkeypatch, capsys, shape):
        for n in range(65):
            argv = ["decompose", "-g", LAMBDA_FILE, "-p", "(nt E)"]
            argv += ["-t", chain_source(shape, n)]
            _, out, _ = self.both_printers(
                monkeypatch, capsys, "match_decompose", argv
            )
            splits = 2 * n + 1 if shape == "right" else n + 2 if n else 1
            assert out.count("\n") == splits

    def test_trace_right_chains_0_to_12(self, monkeypatch, capsys):
        for n in range(13):
            argv = ["trace", "-g", LAMBDA_FILE, "-t", chain_source("right", n)]
            argv += ["--max-steps", str(n + 1)]
            _, out, _ = self.both_printers(monkeypatch, capsys, "trace", argv)
            assert out.count("(node ") == n + 1

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_trace_lambda_nd_trees(self, monkeypatch, capsys, depth):
        argv = ["trace", "-g", LAMBDA_ND_FILE, "-t", tree_source(depth)]
        _, out, _ = self.both_printers(monkeypatch, capsys, "trace", argv)
        assert out.count("(node ") == {1: 2, 2: 6, 3: 52}[depth]

    def test_a_shared_node_prints_once(self, monkeypatch):
        s = parse_term("((λ x x) (a b))")
        t = ListTerm((s, s, ListTerm((s,))))
        calls, real = Counter(), language.print_term

        def counted(u):
            calls[id(u)] += 1
            return real(u)

        monkeypatch.setattr(language, "print_term", counted)
        assert language.print_term(t) == references.print_term(t)
        assert (calls[id(s)], calls[id(s.items[0])]) == (3, 1)
        calls.clear()
        # the same object again: its kept text, and no text built below it
        assert language.print_term(t) == references.print_term(t)
        assert calls == Counter({id(t): 1})

    @pytest.mark.parametrize("fmt", ["sexpr", "json"])
    def test_decompose_right_chain_100_builds_each_list_terms_text_once(
        self, monkeypatch, capsys, fmt
    ):
        # the work of one request, pinned: every print_term call, and the
        # calls that build a list term's text; the chain has 100
        # application nodes and 6 distinct identities, which the reader
        # shares.  A JSON object reuses the texts of its result's line.
        counts, real = Counter(), language.print_term

        def counted(u):
            counts["calls"] += 1
            counts["built"] += isinstance(u, ListTerm) and not hasattr(u, "_text")
            return real(u)

        monkeypatch.setattr(language, "print_term", counted)
        monkeypatch.setattr(cli, "print_term", counted)
        argv = ["decompose", "-g", LAMBDA_FILE, "-p", "(nt E)", "--format", fmt]
        code, out, _ = run(capsys, *argv, "-t", chain_source("right", 100))
        results = len(json.loads(out)["results"]) if fmt == "json" else out.count("\n")
        assert (code, results) == (0, 201)
        assert counts == Counter({"calls": 10_519, "built": 106})

    def test_decompose_right_chain_100_hashes_no_context(self, monkeypatch, capsys):
        # the splits are told apart by their lines, so no freshly composed
        # context is hashed; nor is the redex's E binding, which `match`
        # compares only with results of its own line, and a rule's matches
        # by their text
        calls = Counter()
        for cls in (HeadCtx, TailCtx):

            def counted(self, real=cls.__hash__, name=cls.__name__):
                calls[name] += 1
                return real(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        right = chain_source("right", 100)
        wrapped = "((λ x x) " * 100 + "(λ y y)" + ")" * 100
        for argv, lines in [
            (["decompose", "-p", "(nt E)", "-t", right], 201),
            (["match", "-p", REDEX, "-t", right], 1),
            (["reduce", "-t", wrapped], 1),
        ]:
            code, out, _ = run(capsys, *argv, "-g", LAMBDA_FILE)
            assert (code, out.count("\n"), calls) == (0, lines, Counter())
        # the count sees a hash
        hash(language.to_context(parse_term("(a hole)")))
        assert calls == Counter({"TailCtx": 1, "HeadCtx": 1})


# two distinct context values, (hole X) and (X hole) with their X made the
# hole, that print alike: `(hole hole)`
HOLES = (
    "(define-language l (any hole a b X ((nt any) (nt any)))"
    " (C hole ((nt any) (nt C)) ((nt C) (nt any))))"
)
HOLES_PATTERN = "(in-hole (nt C) (in-hole (name x (nt C)) X))"
HOLES_TERM = "((hole X) (X hole))"
TWIN = "(bindings (x (hole hole)))"


def named_contexts(p, names):
    """p with the context side of each in-hole named, k0, k1, ... in turn,
    so that its results bind context values."""
    if isinstance(p, ListPat):
        return ListPat(tuple(named_contexts(q, names) for q in p.items))
    if isinstance(p, NamePat):
        return NamePat(p.var, named_contexts(p.pattern, names))
    if isinstance(p, InHolePat):
        context = NamePat(f"k{next(names)}", named_contexts(p.context_pat, names))
        return InHolePat(context, named_contexts(p.hole_pat, names))
    return p


def language_source(g):
    """A language file that defines the grammar g."""
    rows = {}
    for prod in g.productions:
        rows.setdefault(prod.nonterminal, []).append(print_pattern(prod.pattern))
    clauses = " ".join(f"({nt} {' '.join(rhss)})" for nt, rhss in rows.items())
    return f"(define-language g {clauses})"


class TestQueryOutput:
    """`match` and `decompose` print one line per distinct result, found
    through the lines: the bytes and exit code are those of
    `references.query_output`, which prints the engine's value sets.  The
    generated cases' terms hold hole atoms, and their in-hole contexts are
    named, so that results bind context values."""

    def same_as_reference(self, monkeypatch, capsys, path, pattern, term):
        """Check both commands in both formats against the reference, and
        return the engine's raw list, whose one run serves all four."""
        lang = load_language(path)
        t, p = parse_term(term), parse_pattern(pattern)
        raw = matching.match_decompose(lang.grammar, t, p)
        with monkeypatch.context() as m:
            m.setattr(matching, "match_decompose", lambda *a, **k: raw)
            m.setattr(cli, "match_decompose", lambda *a, **k: raw)
            for command in ("match", "decompose"):
                wants = references.query_output(command, lang.grammar, t, p)
                for fmt, want in wants.items():
                    argv = ["-g", path, "-p", pattern, "-t", term, "--format", fmt]
                    code, out, err = run(capsys, command, *argv)
                    got = (out, code, err)
                    assert got == (*want, ""), (command, fmt, pattern, term)
        return raw

    @pytest.mark.parametrize(
        "pattern",
        list(test_matching.CHAIN_PATTERNS.values())
        + list(test_matching.TestExactPruning.NESTED),
    )
    def test_chains_0_to_64(self, monkeypatch, capsys, pattern):
        for shape, n in itertools.product(("right", "left"), range(65)):
            term = chain_source(shape, n)
            self.same_as_reference(monkeypatch, capsys, LAMBDA_FILE, pattern, term)

    def test_generated_cases_with_hole_atoms(self, monkeypatch, capsys, tmp_path):
        path = str(tmp_path / "case.sexp")
        rng, cases, by_value = random.Random(31), 0, 0
        while cases < 1000:
            g, t, p = gen_case(rng)
            term = language.print_term(t)
            if "hole" not in term:
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(language_source(g))
            pattern = print_pattern(named_contexts(p, itertools.count()))
            raw = self.same_as_reference(monkeypatch, capsys, path, pattern, term)
            by_value += any(
                isinstance(value, CtxTerm) for r in raw for _, value in r.bindings
            )
            cases += 1
        # cases whose results bind a context value or the hole atom
        assert by_value >= 100

    def test_twin_contexts_print_twice(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "holes.sexp"
        path.write_text(HOLES, encoding="utf-8")
        argv = ["match", "-g", str(path), "-p", HOLES_PATTERN, "-t", HOLES_TERM]
        code, out, err = run(capsys, *argv)
        assert (code, err, out.splitlines().count(TWIN)) == (0, "", 2)
        argv = (str(path), HOLES_PATTERN, HOLES_TERM)
        self.same_as_reference(monkeypatch, capsys, *argv)
