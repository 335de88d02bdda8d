"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

import pytest

from conftest import CORPUS_FILE, LAMBDA_FILE, LEFTREC_FILE
from genterms import corpus
from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    ContextDecomposition,
    CtxTerm,
    HeadCtx,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    MeasureViolationError,
    NamePat,
    NtPat,
    SoundnessCheckError,
    TailCtx,
    decompose,
    enumerate_decompositions,
    find_left_recursion,
    is_left_recursive,
    match_decompose,
    matches,
    new_grammar,
    oracle_decompose,
    oracle_match,
    oracle_match_original,
    parse_pattern,
    parse_term,
    plug,
    remove_prod,
    step,
    trace,
)
from redsem.cli import run_cli
from references import Problem, is_proper_subterm, reference_order
from test_matching import REENTRY_PRODUCTIONS, REENTRY_RAW_COUNTS

A, B = Literal("a"), Literal("b")


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def fixed_cases(lam):
    """Deterministic deep-coverage cases alongside the random corpus."""
    cases = []

    lam_pairs = [
        ("(λ x x)", "(nt v)"),
        ("((λ x x) (λ y y))", "(nt e)"),
        ("((λ x x) (λ y y))", "(nt E)"),
        ("(((λ x x) (λ y y)) (λ z z))", "(nt E)"),
        ("((λ x x) ((λ y y) (λ z z)))", "(nt E)"),
        ("((λ x x) (λ y y))", "(in-hole (name E (nt E)) ((name f (nt v)) (name a (nt v))))"),
        ("(((λ x x) (λ y y)) (λ z z))", "(in-hole (name E (nt E)) ((name f (nt v)) (name a (nt v))))"),
        ("((λ x x) (λ y y))", "(in-hole (name E (nt E)) (name r hole))"),
        ("(λ x x)", "(λ (name p (nt x)) (name b (nt e)))"),
    ]
    for t_src, p_src in lam_pairs:
        cases.append((lam.grammar, parse_term(t_src), parse_pattern(p_src)))

    ctx_g = new_grammar(
        [
            ("n1", parse_pattern("hole")),
            ("n1", parse_pattern("((nt n1) a)")),
            ("n1", parse_pattern("(a (nt n1))")),
        ]
    )
    for t_src, p_src in [
        ("((a a) a)", "(in-hole (name E (nt n1)) (name v hole))"),
        ("(a (a (a a)))", "(in-hole (nt n1) hole)"),
        ("((a a) a)", "(nt n1)"),
    ]:
        cases.append((ctx_g, parse_term(t_src), parse_pattern(p_src)))

    # systematic mini-universe, heavy on context terms
    terms = [
        A,
        ListTerm(()),
        ListTerm((A, B)),
        ListTerm((ListTerm((A,)), B)),
        HOLE_TERM,
        ListTerm((HOLE_TERM, B)),
        ListTerm((A, HOLE_TERM)),
        CtxTerm(HeadCtx(HOLE, (B,))),
        CtxTerm(TailCtx(A, HeadCtx(HOLE, ()))),
        ListTerm((ListTerm((HOLE_TERM,)), B)),
        CtxTerm(HeadCtx(HeadCtx(HOLE, ()), (B,))),
        ListTerm((CtxTerm(HeadCtx(HOLE, ())), B)),
    ]
    pats = [LitPat(A), HOLE_PAT, NtPat("n"), NamePat("x", HOLE_PAT)]
    pats += [ListPat((p1, p2)) for p1, p2 in itertools.product(pats[:3], repeat=2)]
    pats += [InHolePat(p1, p2) for p1, p2 in itertools.product(pats[:3], repeat=2)]
    grammars = [
        new_grammar([("n", HOLE_PAT), ("n", LitPat(A))]),
        new_grammar(
            [
                ("n", HOLE_PAT),
                ("n", ListPat((NtPat("n"), LitPat(B)))),
                ("n", LitPat(A)),
            ]
        ),
    ]
    for g in grammars:
        for t in terms:
            for p in pats:
                cases.append((g, t, p))
    return cases


@pytest.fixture(scope="module")
def all_cases(lam, random_corpus):
    return list(random_corpus) + fixed_cases(lam)


@pytest.fixture(scope="module")
def engine_runs(all_cases):
    """match_decompose over every case, debug checks off: the engine's own
    checks must not get to a faulty split before criterion 2 does."""
    return [
        (g, t, p, match_decompose(g, t, p, debug=False)) for g, t, p in all_cases
    ]


class TestCriterion1OracleEquivalence:
    def test_engine_equals_oracle_on_corpus(self, all_cases):
        assert len(all_cases) >= 500
        start = time.monotonic()
        disagreements = 0
        for g, t, p in all_cases:
            if matches(g, t, p) != oracle_match(g, t, p):
                disagreements += 1
            elif decompose(g, t, p) != oracle_decompose(g, t, p):
                disagreements += 1
        elapsed = time.monotonic() - start
        ok = disagreements == 0 and elapsed < 60.0
        report(1, "oracle equivalence", ok)
        assert disagreements == 0
        assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"


class TestCriterion2DecompositionCharacterization:
    def test_every_split_plugs_back_and_shrinks(self, engine_runs):
        violations = 0
        splits = 0
        for g, t, p, results in engine_runs:
            for r in results:
                d = r.decomposition
                if not isinstance(d, ContextDecomposition):
                    continue
                splits += 1
                if plug(d.context, d.subterm) != t:
                    violations += 1
                elif not (
                    (d.subterm == t and d.context == HOLE)
                    or is_proper_subterm(d.subterm, t)
                ):
                    violations += 1
                # the oracle's split enumeration does not use plug
                elif (d.context, d.subterm) not in enumerate_decompositions(t):
                    violations += 1
        ok = violations == 0 and splits > 0
        report(2, "decomposition characterization", ok)
        assert splits > 0
        assert violations == 0


class TestCriterion3GrammarRemovalSoundness:
    def test_restart_agrees_with_and_without_used_production(self, random_corpus):
        rng = random.Random(777)
        triples = 0
        disagreements = 0
        cases = itertools.cycle(random_corpus)
        while triples < 200:
            g, t, _ = next(cases)
            if len(g.productions) == 0:
                continue
            prod = rng.choice(g.productions)
            smaller = remove_prod(g, prod)
            triples += 1
            if oracle_match(g, t, prod.pattern, smaller) != oracle_match(
                g, t, prod.pattern, g
            ):
                disagreements += 1
            elif oracle_decompose(g, t, prod.pattern, smaller) != oracle_decompose(
                g, t, prod.pattern, g
            ):
                disagreements += 1
        ok = disagreements == 0 and triples >= 200
        report(3, "grammar-removal soundness", ok)
        assert triples >= 200
        assert disagreements == 0


class TestCriterion4OriginalSystemCorrespondence:
    def test_matches_equals_original_judgments(self, all_cases):
        disagreements = sum(
            1
            for g, t, p in all_cases
            if matches(g, t, p) != oracle_match_original(g, t, p)
        )
        report(4, "original-system correspondence", disagreements == 0)
        assert disagreements == 0


def record_edges(monkeypatch):
    """Record every edge that the engine hands its order check, as the
    (index, fact, t2, p2, m2, t, p, m) arguments of the check."""
    import redsem.matching as matching

    real, edges = matching.mask_order_decreases, []

    def recorded(*args):
        edges.append(args)
        return real(*args)

    monkeypatch.setattr(matching, "mask_order_decreases", recorded)
    return edges


def edges_below(edges):
    """The number of edges that decrease in the tuple order read on
    Grammar values (`references.reference_order`), each mask read as the
    grammar of the productions whose bits it holds."""
    grammars = {}

    def problem(index, t, p, m):
        key = (id(index), m)  # the edges hold each index
        if key not in grammars:
            prods = index.productions
            grammars[key] = new_grammar(q for i, q in enumerate(prods) if m >> i & 1)
        return Problem(t, p, grammars[key])

    return sum(
        reference_order(problem(index, t2, p2, m2), problem(index, t, p, m))
        for index, _, t2, p2, m2, t, p, m in edges
    )


class TestCriterion5TerminationMeasure:
    def test_no_measure_violations(self, all_cases, monkeypatch):
        # the engine's own check compares each edge with the fact of its
        # rule; the order itself is checked here on every edge it checked
        edges = record_edges(monkeypatch)
        violations = 0
        for g, t, p in all_cases:
            assert not is_left_recursive(g)
            try:
                match_decompose(g, t, p, debug=True)
            except (MeasureViolationError, SoundnessCheckError):
                violations += 1
        violations += len(edges) - edges_below(edges)
        report(5, "termination measure", violations == 0 and len(edges) > 0)
        assert len(edges) > 0
        assert violations == 0

    def test_every_edge_decreases_on_a_left_recursive_grammar(self, monkeypatch):
        g = new_grammar([(nt, parse_pattern(rhs)) for nt, rhs in REENTRY_PRODUCTIONS])
        assert is_left_recursive(g)
        edges = record_edges(monkeypatch)
        for term, pattern in REENTRY_RAW_COUNTS:
            match_decompose(g, parse_term(term), parse_pattern(pattern), debug=True)
        assert len(edges) > 0
        assert edges_below(edges) == len(edges)


class TestCriterion6LambdaIntegration:
    def test_identity_application_one_step(self, lam):
        t = parse_term("((λ x x) (λ y y))")
        tr = trace(lam.grammar, list(lam.rules), t, 10)
        ok = (
            len(tr.nodes) == 2
            and tr.edges == [(0, "beta", 1)]
            and tr.nodes[1] == parse_term("(λ y y)")
            and tr.statuses[1] == "normal-form"
        )
        report(6, "lambda integration", ok)
        assert ok

    def test_nested_application_two_steps_deterministic(self, lam):
        t = parse_term("(((λ x x) (λ y y)) (λ z z))")
        expected = [
            t,
            parse_term("((λ y y) (λ z z))"),
            parse_term("(λ z z)"),
        ]
        tr = trace(lam.grammar, list(lam.rules), t, 10)
        assert tr.nodes == expected
        assert tr.edges == [(0, "beta", 1), (1, "beta", 2)]
        assert tr.statuses == ["reduced", "reduced", "normal-form"]
        for node in expected[:2]:
            assert len(step(lam.grammar, list(lam.rules), node)) == 1


class TestCriterion7LeftRecursionDetector:
    def test_detector_on_the_three_reference_grammars(self, lam):
        # {n -> (nt n)}: the single edge (nt n) -> (nt n) closes a cycle
        direct = new_grammar([("n", NtPat("n"))])
        witness = find_left_recursion(direct)
        ok1 = witness == (NtPat("n"),)

        # lambda grammar: every recursive reference sits under a list
        # pattern, which has no non-consumption successors
        ok2 = not is_left_recursive(lam.grammar)

        # e -> (in-hole (nt E) (nt e)) with E -> hole:
        # (nt e) -> in-hole -> (nt e) since (nt E) reaches a hole
        inhole = new_grammar(
            [("e", InHolePat(NtPat("E"), NtPat("e"))), ("E", HOLE_PAT)]
        )
        cycle = find_left_recursion(inhole)
        ok3 = cycle is not None and NtPat("e") in cycle

        ok = ok1 and ok2 and ok3
        report(7, "left-recursion detector", ok)
        assert ok1 and ok2 and ok3


class TestCriterion8CliGoldenContract:
    def test_documented_examples_bit_exact(self, capsys):
        code = run_cli(
            ["match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(λ x x)"]
        )
        out1 = capsys.readouterr().out
        ok_match = code == 0 and out1 == "(bindings)\n"

        code = run_cli(["plug", "-c", "(hole b)", "-t", "a"])
        out2 = capsys.readouterr().out
        ok_plug = code == 0 and out2 == "(a b)\n"

        code = run_cli(["check-grammar", "-g", LEFTREC_FILE])
        out3 = capsys.readouterr().out
        ok_check = code == 0 and out3 == "left-recursive\nwitness: (nt n) -> (nt n)\n"

        code = run_cli(["check-grammar", "-g", LAMBDA_FILE])
        out4 = capsys.readouterr().out
        ok_lam = code == 0 and out4 == "not-left-recursive\n"

        no_match = run_cli(
            ["match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(x y)"]
        )
        capsys.readouterr()
        bad_input = run_cli(["match", "-g", LAMBDA_FILE, "-p", "(nt v)", "-t", "(a"])
        capsys.readouterr()
        ok_codes = no_match == 1 and bad_input == 2

        ok = ok_match and ok_plug and ok_check and ok_lam and ok_codes
        report(8, "cli golden contract", ok)
        assert ok_match and ok_plug and ok_check and ok_lam and ok_codes

    def test_oracle_mode_agrees_on_bundled_corpus(self, capsys):
        from references import Atom, SList, parse_sexprs, print_sexpr

        with open(CORPUS_FILE, encoding="utf-8") as f:
            forms = parse_sexprs(f.read())
        exit_codes = []
        for form in forms:
            assert isinstance(form, SList) and form.items[0] == Atom("case")
            mode = form.items[1].text
            code = run_cli(
                [
                    mode,
                    "-g",
                    LAMBDA_FILE,
                    "-p",
                    print_sexpr(form.items[2]),
                    "-t",
                    print_sexpr(form.items[3]),
                    "--oracle",
                ]
            )
            capsys.readouterr()
            exit_codes.append(code)
        assert forms and all(code == 0 for code in exit_codes)
