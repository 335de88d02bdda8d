import random

import pytest
from hypothesis import given, settings, strategies as st

from genterms import gen_term
from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    CtxTerm,
    HeadCtx,
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
    ParseError,
    TailCtx,
    parse_pattern,
    parse_term,
    plug,
    print_term,
)
from redsem.language import parse_language, parse_template, print_pattern, to_context
from redsem.reduction import InHoleTemplate, RefTemplate
from redsem.sexpr import Atom, parse_sexprs

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestParseTerm:
    def test_symbol(self):
        assert parse_term("a") == Literal("a")

    def test_list(self):
        assert parse_term("(a b)") == ListTerm((Literal("a"), Literal("b")))

    def test_unbalanced_raises(self):
        with pytest.raises(ParseError):
            parse_term("(a (b) c")

    def test_empty_raises(self):
        with pytest.raises(ParseError):
            parse_term("   ")

    def test_trailing_raises(self):
        with pytest.raises(ParseError):
            parse_term("a b")

    def test_lexical_classes(self):
        assert parse_term("42") == Literal(42)
        assert parse_term("-7") == Literal(-7)
        assert parse_term("#t") == Literal(True)
        assert parse_term("#f") == Literal(False)
        assert parse_term("λ") == Literal("λ")

    def test_hole_atom(self):
        assert parse_term("hole") == HOLE_TERM
        assert parse_term("(hole b)") == ListTerm((HOLE_TERM, Literal("b")))

    def test_comments_ignored(self):
        assert parse_term("; note\n(a b) ; trailing") == parse_term("(a b)")


class TestReader:
    def test_atoms_end_only_at_listed_delimiters(self):
        assert parse_sexprs("a\x0cb") == [Atom("a\x0cb")]

    def test_position_after_crlf_and_comment(self):
        (form,) = parse_sexprs("(a\r\n ;c\n  b)")
        b = form.items[1]
        assert (b.text, b.line, b.col) == ("b", 3, 3)

    def test_unbalanced_close_reports_its_own_position(self):
        with pytest.raises(ParseError) as e:
            parse_sexprs("(a)\n\n  )")
        assert (e.value.line, e.value.col) == (3, 3)
        assert str(e.value) == "3:3: unbalanced ')'"


class TestPrintTerm:
    def test_literals(self):
        assert print_term(Literal(True)) == "#t"
        assert print_term(Literal(0)) == "0"
        assert print_term(Literal("s")) == "s"

    def test_context_prints_as_surface_list(self):
        c = CtxTerm(TailCtx(Literal("a"), HeadCtx(HOLE, (Literal("b"),))))
        assert print_term(c) == "(a hole b)"

    @given(seeds)
    def test_roundtrip_on_parser_image(self, seed):
        t = gen_term(random.Random(seed))
        src = print_term(t)
        reparsed = parse_term(src)
        # contexts reparse as plain lists with hole elements; printing is
        # still a normal form
        assert print_term(reparsed) == src
        assert parse_term(print_term(reparsed)) == reparsed


class TestToContext:
    def test_head_path(self):
        assert to_context(parse_term("(hole b)")) == HeadCtx(HOLE, (Literal("b"),))

    def test_tail_path(self):
        got = to_context(parse_term("(a hole)"))
        assert got == TailCtx(Literal("a"), HeadCtx(HOLE, ()))

    def test_nested_path(self):
        got = to_context(parse_term("(a (hole b))"))
        assert got == TailCtx(
            Literal("a"), HeadCtx(HeadCtx(HOLE, (Literal("b"),)), ())
        )

    def test_zero_holes_raises(self):
        with pytest.raises(NoHoleError):
            to_context(parse_term("(a b)"))

    def test_multiple_holes_raises(self):
        with pytest.raises(MultipleHolesError):
            to_context(parse_term("(hole hole)"))

    def test_plug_reprints_source(self):
        for src in ("hole", "(hole b)", "(a hole)", "(a (b hole) c)"):
            c = to_context(parse_term(src))
            assert print_term(plug(c, HOLE_TERM)) == src


class TestParsePattern:
    def test_name(self):
        assert parse_pattern("(name x (nt e))") == NamePat("x", NtPat("e"))

    def test_in_hole_with_cons(self):
        got = parse_pattern("(in-hole (nt E) ((nt v) (nt v)))")
        assert got == InHolePat(NtPat("E"), ListPat((NtPat("v"), NtPat("v"))))
        assert print_pattern(got) == "(in-hole (nt E) ((nt v) (nt v)))"

    def test_hole_keyword(self):
        assert parse_pattern("hole") == HOLE_PAT

    def test_literal_atoms(self):
        assert parse_pattern("a") == LitPat(Literal("a"))
        assert parse_pattern("3") == LitPat(Literal(3))

    def test_arity_errors(self):
        for src in ("(name x)", "(name x p q)", "(nt)", "(nt a b)", "(in-hole hole)"):
            with pytest.raises(ParseError, match="arity"):
                parse_pattern(src)

    def test_reserved_atoms_rejected(self):
        for src in ("name", "nt", "in-hole"):
            with pytest.raises(ParseError, match="reserved"):
                parse_pattern(src)

    @given(seeds)
    @settings(max_examples=60)
    def test_roundtrip(self, seed):
        from genterms import gen_pattern

        p = gen_pattern(random.Random(seed), 3, ("n1", "n2"))
        assert parse_pattern(print_pattern(p)) == p


class TestParseTemplate:
    def test_ref(self):
        assert parse_template("(ref x)") == RefTemplate("x")

    def test_in_hole(self):
        got = parse_template("(in-hole (ref E) (ref a))")
        assert got == InHoleTemplate(RefTemplate("E"), RefTemplate("a"))


class TestLanguageFiles:
    def test_lambda_language(self, lam):
        assert lam.name == "lam"
        assert {p.nonterminal for p in lam.grammar.productions} == {"e", "v", "x", "E"}
        assert [r.name for r in lam.rules] == ["beta"]

    def test_empty_file_raises(self):
        with pytest.raises(LanguageError, match="define-language"):
            parse_language("")

    def test_undefined_nonterminal_raises(self):
        with pytest.raises(LanguageError, match="undefined non-terminal"):
            parse_language("(define-language l (e (nt zz)))")

    def test_undefined_nonterminal_in_rule_raises(self):
        src = "(define-language l (e a)) (rule r (name q (nt v)) (ref q))"
        with pytest.raises(LanguageError, match="undefined non-terminal"):
            parse_language(src)

    def test_unbound_template_var_raises(self):
        src = "(define-language l (e a)) (rule r (name a (nt e)) (ref b))"
        with pytest.raises(Exception, match="unbound template variable"):
            parse_language(src)

    def test_malformed_rule_raises(self):
        with pytest.raises(LanguageError, match="rule"):
            parse_language("(define-language l (e a)) (rule r)")
