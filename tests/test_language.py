import glob
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import redsem
import references
from genterms import gen_case, gen_pattern, gen_reader_text, gen_template, gen_term
from references import parse_sexpr, parse_sexprs, read_language, read_outcome
from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    Bindings,
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
    UnboundTemplateVariableError,
    parse_pattern,
    parse_term,
    plug,
    print_bindings,
    print_context,
    print_term,
)
from redsem.language import parse_language, parse_template, print_pattern, to_context
from redsem.reduction import RefTemplate
from test_cli import chain_source

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

    def test_integer_past_the_digit_limit_is_a_parse_error_at_its_atom(self):
        # CPython converts at most 4,300 digits from a string by default
        assert parse_term("-" + "9" * 4000) == Literal(-int("9" * 4000))
        with pytest.raises(ParseError) as e:
            parse_term("(a\n  " + "9" * 5000 + ")")
        assert str(e.value) == "2:3: integer literal too long"
        with pytest.raises(ParseError, match="^1:5: integer literal too long$"):
            parse_pattern("(nt " + "9" * 5000 + ")")


class TestReader:
    def test_atoms_end_only_at_listed_delimiters(self):
        assert parse_term("a\x0cb") == Literal("a\x0cb")

    def test_position_after_crlf_and_comment(self):
        with pytest.raises(ParseError) as e:
            parse_pattern("(a\r\n ;c\n  name)")
        assert (e.value.line, e.value.col) == (3, 3)
        assert str(e.value) == "3:3: reserved word 'name' cannot be a literal pattern"

    def test_unbalanced_close_reports_its_own_position(self):
        with pytest.raises(ParseError) as e:
            parse_term("(a)\n\n  )")
        assert (e.value.line, e.value.col) == (3, 3)
        assert str(e.value) == "3:3: unbalanced ')'"


class TestPrintTerm:
    def test_literals(self):
        assert print_term(Literal(True)) == "#t"
        assert print_term(Literal(False)) == "#f"
        assert print_term(Literal(0)) == "0"
        assert print_term(Literal("s")) == "s"

    def test_bindings(self):
        assert print_bindings(Bindings(())) == "(bindings)"
        b = Bindings((("x", Literal(False)), ("y", ListTerm((HOLE_TERM, Literal(3))))))
        assert print_bindings(b) == "(bindings (x #f) (y (hole 3)))"

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

    def test_agrees_with_the_recursive_reference(self):
        # generated terms hold bare holes and embedded non-hole contexts,
        # which count no hole; every outcome is met on the way to 3,000
        # one-hole terms
        rng = random.Random(20261019)
        outcomes = {0: 0, 1: 0, 2: 0}
        while outcomes[1] < 3000:
            t = gen_term(rng, 5)
            if rng.random() < 0.8:
                t = ListTerm((t, *(gen_term(rng, 4) for _ in range(rng.randint(0, 2)))))
            try:
                want = repr(references.to_context(t))
            except (NoHoleError, MultipleHolesError) as e:
                with pytest.raises(type(e)) as got:
                    to_context(t)
                assert str(got.value) == str(e)
                outcomes[2 if isinstance(e, MultipleHolesError) else 0] += 1
            else:
                assert repr(to_context(t)) == want
                outcomes[1] += 1
        assert min(outcomes.values()) >= 300


def deep_context(depth):
    """A context nested `depth` list levels deep, each level (a hole b) or
    (hole b), and its text."""
    c, opens = HOLE, []
    for i in range(depth):
        if i % 2:
            c = TailCtx(Literal("a"), HeadCtx(c, (Literal("b"),)))
            opens.append("(a ")
        else:
            c = HeadCtx(c, (Literal("b"),))
            opens.append("(")
    return c, "".join(reversed(opens)) + "hole" + " b)" * depth


class TestDeepContexts:
    """The hole-path walks use no Python stack per level; the results are
    checked by their text, since `==` and `hash` still recurse."""

    DEPTH = 10_000

    def test_print_context(self):
        assert deep_context(3)[1] == "((a (hole b) b) b)"
        c, text = deep_context(self.DEPTH)
        assert print_context(c) == text

    def test_to_context(self):
        # built level by level, without the reader
        t = HOLE_TERM
        for i in range(self.DEPTH):
            items = (Literal("a"), t, Literal("b")) if i % 2 else (t, Literal("b"))
            t = ListTerm(items)
        assert print_context(to_context(t)) == deep_context(self.DEPTH)[1]


# A fresh interpreter at the default recursion limit reads input 10,000
# deep in each syntax, right- and left-nested, as plain lists and as
# keyword forms.  Each result is checked level by level, since `==` still
# recurses: every level is of one class, and its part off the path is the
# one given.
DEEP_READ = """
import sys
from redsem import HOLE_PAT, InHolePat, ListPat, ListTerm, Literal, LitPat
from redsem import NamePat, NtPat
from redsem.language import parse_pattern, parse_template, parse_term
from redsem.reduction import RefTemplate

assert sys.getrecursionlimit() == 1000
n = 10_000
a, b, E, x = Literal("a"), Literal("b"), RefTemplate("E"), RefTemplate("x")
right, left = "(a " * n + "b" + ")" * n, "(" * n + "b" + " a)" * n
name = "(name q " * n + "(nt e)" + ")" * n
in_hole = "(in-hole " * n + "hole" + " (nt e))" * n
right_tpl = "(in-hole (ref E) " * n + "(ref x)" + ")" * n
left_tpl = "(in-hole " * n + "hole" + " (ref x))" * n
cases = [  # reader, text, class of each level, index down, other part, leaf
    (parse_term, right, ListTerm, 1, a, b),
    (parse_term, left, ListTerm, 0, a, b),
    (parse_pattern, right, ListPat, 1, LitPat(a), LitPat(b)),
    (parse_pattern, left, ListPat, 0, LitPat(a), LitPat(b)),
    (parse_pattern, name, NamePat, 1, "q", NtPat("e")),
    (parse_pattern, in_hole, InHolePat, 0, NtPat("e"), HOLE_PAT),
    (parse_template, right, ListPat, 1, LitPat(a), LitPat(b)),
    (parse_template, left, ListPat, 0, LitPat(a), LitPat(b)),
    (parse_template, right_tpl, InHolePat, 1, E, x),
    (parse_template, left_tpl, InHolePat, 0, x, HOLE_PAT),
]
for parse, text, cls, down, other, leaf in cases:
    v, levels = parse(text), 0
    while type(v) is cls:
        fields = [getattr(v, field) for field in cls.__match_args__]
        parts = fields[0] if len(fields) == 1 else fields  # a list's items
        assert len(parts) == 2 and parts[1 - down] == other, parts
        v, levels = parts[down], levels + 1
    assert v == leaf, v
    print(parse.__name__, levels)
"""


class TestDeepReading:
    def test_terms_patterns_and_templates_10_000_deep(self):
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", DEEP_READ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.stderr == ""
        syntaxes = ["term"] * 2 + ["pattern"] * 4 + ["template"] * 4
        assert proc.stdout.splitlines() == [f"parse_{s} 10000" for s in syntaxes]


# each syntax: its public reader, the recursive converter it replaced, the
# heads of its keyword forms, and the seed of its generated texts
SYNTAXES = {
    "term": (parse_term, references.sexpr_term, frozenset(), 1),
    "pattern": (
        parse_pattern,
        references.sexpr_pattern,
        frozenset({"name", "nt", "in-hole"}),
        2,
    ),
    "template": (
        parse_template,
        references.sexpr_template,
        frozenset({"ref", "in-hole"}),
        3,
    ),
}
FAULTS = ("arity error", "needs a symbol", "reserved word", "integer literal too long")


SEXPR_FAULTS = ("unbalanced ')'", "missing ')'", "trailing input")


def bracket_fault(rng, text, kind):
    """text with a stray ')' put in (kind 0), with one of its ')' taken out
    (kind 1, if it has one), with an item after it (2), or with an extra
    '(' before it (3)."""
    i = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:i] + ")" + text[i:]
    if kind == 1 and ")" in text:
        i = text.find(")", i) if ")" in text[i:] else text.find(")")
        return text[:i] + text[i + 1 :]
    if kind == 2:
        return text + rng.choice((" a", "\n(b c)", " ; c\n()"))
    return "(" + text


class TestOneReader:
    @pytest.mark.parametrize("syntax", SYNTAXES)
    def test_agrees_with_the_recursive_converter(self, syntax):
        parse, reference, keywords, seed = SYNTAXES[syntax]
        rng = random.Random(seed)
        counts, seen = Counter(), Counter()
        for i in range(3000):
            text, faults = gen_reader_text(rng, keywords)
            # the same value, or the same first fault in source pre-order
            got = read_outcome(parse, text)
            assert got == read_outcome(lambda s: reference(parse_sexpr(s)), text)
            assert isinstance(got, tuple) == (faults > 0)
            counts[min(faults, 2)] += 1
            if faults:
                seen.update(kind for kind in FAULTS if kind in got[1])
            # a bracket fault comes before any fault of the syntax
            bad = bracket_fault(rng, text, i % 4)
            got = read_outcome(parse, bad)
            assert got == read_outcome(lambda s: reference(parse_sexpr(s)), bad)
            seen.update(kind for kind in SEXPR_FAULTS if kind in got[1])
        assert counts[0] >= 1000 and counts[1] >= 300 and counts[2] >= 300
        assert set(seen) == set(FAULTS if keywords else FAULTS[-1:]) | set(SEXPR_FAULTS)
        assert all(seen[kind] >= 500 for kind in SEXPR_FAULTS)


LANGUAGE_TEXT = """\
(define-language l
  (e a (nt e)))
; a rule
(rule r
  (name q (nt e))
  (ref q))
"""


class TestFaultPositions:
    """The exact message and position of each s-expression fault, which
    every reader raises before any fault of its syntax."""

    @pytest.mark.parametrize(
        "parse", [parse_sexpr, parse_term, parse_pattern, parse_template]
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "1:1: empty input"),
            ("  ; a comment\n\t", "1:1: empty input"),
            ("(a\n  b)\n ) (", "3:2: unbalanced ')'"),
            ("(a (nt)))", "1:9: unbalanced ')'"),
            ("a )", "1:3: unbalanced ')'"),
            ("(a\n (b c)\n  (d", "3:3: unbalanced '(': missing ')'"),
            ("(nt (ref))\n(", "2:1: unbalanced '(': missing ')'"),
            ("(a b)\n ; c\n  (c) d", "3:3: trailing input after expression"),
            ("name\tb", "1:6: trailing input after expression"),
        ],
    )
    def test_one_item_readers(self, parse, text, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message
        assert message.startswith(f"{e.value.line}:{e.value.col}: ")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("", LanguageError, "missing (define-language ...) form"),
            ("; a comment\n", LanguageError, "missing (define-language ...) form"),
            (LANGUAGE_TEXT + "  )", ParseError, "7:3: unbalanced ')'"),
            (
                LANGUAGE_TEXT.replace("(ref q))", "(ref q)"),
                ParseError,
                "4:1: unbalanced '(': missing ')'",
            ),
            (
                LANGUAGE_TEXT.replace("(e a", "(e (a"),
                ParseError,
                "1:1: unbalanced '(': missing ')'",
            ),
            (
                LANGUAGE_TEXT.replace("(nt e)))", "(nt e e)))") + "(",
                ParseError,
                "7:1: unbalanced '(': missing ')'",
            ),
            (
                LANGUAGE_TEXT.replace("(nt e)))", "(nt e e)))"),
                ParseError,
                "2:8: arity error: (nt n) takes 1 argument, got 2",
            ),
            (
                LANGUAGE_TEXT.replace("(ref q)", "(ref q) r"),
                LanguageError,
                "each rule must be (rule <name> <lhs> <rhs>)",
            ),
        ],
    )
    def test_language_files(self, text, error, message):
        with pytest.raises(error) as e:
            parse_language(text)
        assert str(e.value) == message
        if "unbalanced" in message:
            with pytest.raises(ParseError) as e:
                parse_sexprs(text)
            assert str(e.value) == message


def subtrees(v):
    """v and every term, pattern or template inside it, once per
    occurrence, by an explicit walk."""
    todo = [v]
    while todo:
        v = todo.pop()
        yield v
        if isinstance(v, (ListTerm, ListPat)):
            todo += v.items
        elif isinstance(v, NamePat):
            todo.append(v.pattern)
        elif isinstance(v, InHolePat):
            todo += (v.context_pat, v.hole_pat)


# A fresh interpreter at the default recursion limit reads a list term
# and a list pattern 10,000 wide of one repeated item, and chains 10,000
# deep, with one object for every copy of the item; each level is checked
# by identity, not by `==`.
SHARED_READ = """
import sys
from redsem import parse_pattern, parse_term

assert sys.getrecursionlimit() == 1000
n, lam = 10_000, "(λ x x)"
wide = parse_term("(" + " ".join([lam] * n) + ")")
print("wide", len(wide.items), len({id(item) for item in wide.items}))
wide = parse_pattern("(" + " ".join(["(name x (nt e))"] * n) + ")")
print("wide pattern", len(wide.items), len({id(item) for item in wide.items}))
right = "(" + (lam + " (") * (n - 1) + lam + " " + lam + ")" * n
left = "(" * n + lam + (" " + lam + ")") * n
for shape, text, down in (("right", right, 1), ("left", left, 0)):
    t, levels = parse_term(text), 0
    head = t.items[1 - down]
    while t is not head:
        assert len(t.items) == 2 and t.items[1 - down] is head
        t, levels = t.items[down], levels + 1
    print(shape, levels)
"""


class TestReaderSharing:
    """Each parse reads one object per distinct sub-tree."""

    @staticmethod
    def check_read(text, parse=parse_term, reference=references.sexpr_term):
        v = parse(text)
        assert v == reference(parse_sexpr(text))
        first = {}
        for u in subtrees(v):
            assert first.setdefault(u, u) is u  # equal sub-trees are one object
        return v

    def test_reread_terms_share_equal_sub_terms(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            self.check_read(print_term(gen_case(rng)[1]))
        for shape in ("right", "left"):
            for n in range(65):
                t = self.check_read(chain_source(shape, n))
                # λ, each variable and its identity, each application
                assert len({id(u) for u in subtrees(t)}) == 1 + 2 * min(n + 1, 6) + n

    def test_reread_patterns_and_templates_share_equal_sub_trees(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            text = print_pattern(gen_case(rng)[2])
            self.check_read(text, parse_pattern, references.sexpr_pattern)
        parse, reference, keywords, seed = SYNTAXES["template"]
        rng, read = random.Random(seed), 0
        for _ in range(3000):
            text, faults = gen_reader_text(rng, keywords)
            if not faults:
                self.check_read(text, parse, reference)
                read += 1
        assert read >= 1000

    def test_literals_of_other_types_stay_apart(self):
        t = parse_term("(1 #t 1 #t (1) (#t))")
        one, true = t.items[0], t.items[1]
        assert t.items[2] is one and t.items[3] is true and one != true
        assert t.items[4].items[0] is one and t.items[5].items[0] is true

    def test_wide_and_deep_terms_at_the_default_recursion_limit(self):
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", SHARED_READ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            "wide 10000 1",
            "wide pattern 10000 1",
            "right 10000",
            "left 10000",
        ]


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

    def test_symbol_arguments(self):
        for src, form, param in (
            ("(nt 5)", "(nt n)", "n"),
            ("(nt #t)", "(nt n)", "n"),
            ("(name (x) hole)", "(name x p)", "x"),
        ):
            with pytest.raises(ParseError) as e:
                parse_pattern(" " + src)
            assert str(e.value) == f"1:2: {form} needs a symbol for {param}"

    @given(seeds)
    @settings(max_examples=60)
    def test_roundtrip(self, seed):
        from genterms import gen_pattern

        p = gen_pattern(random.Random(seed), 3, ("n1", "n2"))
        assert parse_pattern(print_pattern(p)) == p


class TestParseTemplate:
    def test_ref(self):
        assert parse_template("(ref x)") == RefTemplate("x")

    @given(seeds)
    @settings(max_examples=100)
    def test_patterns_and_templates_round_trip_through_print_pattern(self, seed):
        # one printer for the one tree that both readers build
        rng = random.Random(seed)
        p = gen_pattern(rng, 4, ("n1", "n2"))
        assert parse_pattern(print_pattern(p)) == p
        t = gen_template(rng)
        assert parse_template(print_pattern(t)) == t

    def test_atoms(self):
        assert parse_template("hole") == HOLE_PAT
        assert parse_template("a") == LitPat(Literal("a"))
        assert parse_template("-3") == LitPat(Literal(-3))
        assert parse_template("#f") == LitPat(Literal(False))
        for word in ("ref", "in-hole"):
            with pytest.raises(ParseError) as e:
                parse_template(f"(a\n {word})")
            assert str(e.value) == (
                f"2:2: reserved word {word!r} cannot be a literal template"
            )

    def test_plain_list(self):
        got = parse_template("(a hole (ref x) ())")
        want = (LitPat(Literal("a")), HOLE_PAT, RefTemplate("x"))
        assert got == ListPat((*want, ListPat(())))

    def test_ref_reads_its_arguments_as_the_other_forms_do(self):
        for src, message in (
            ("(ref)", "arity error: (ref x) takes 1 argument, got 0"),
            ("(ref x y)", "arity error: (ref x) takes 1 argument, got 2"),
            ("(ref 5)", "(ref x) needs a symbol for x"),
            ("(ref #t)", "(ref x) needs a symbol for x"),
            ("(ref (x))", "(ref x) needs a symbol for x"),
        ):
            with pytest.raises(ParseError) as e:
                parse_template(f"(a {src})")
            assert str(e.value) == f"1:4: {message}"

    def test_in_hole(self):
        got = parse_template("(in-hole (ref E) (ref a))")
        assert got == InHolePat(RefTemplate("E"), RefTemplate("a"))

    def test_a_template_is_read_into_pattern_nodes(self):
        # both sides of a rule share one syntax tree: `(ref x)` is the one
        # node a template has of its own
        got = parse_template("(in-hole (ref E) (a hole 1))")
        items = (LitPat(Literal("a")), HOLE_PAT, LitPat(Literal(1)))
        assert got == InHolePat(RefTemplate("E"), ListPat(items))

    @pytest.mark.parametrize(
        "src",
        [
            "a",
            "-3",
            "#f",
            "hole",
            "()",
            "(a hole b)",
            "(in-hole hole a)",
            "(in-hole (a hole) (b (c hole)))",
        ],
    )
    def test_a_template_without_ref_reads_as_the_same_pattern(self, src):
        assert parse_template(src) == parse_pattern(src)

    @pytest.mark.parametrize("src", ["(nt e)", "(name x a)"])
    def test_pattern_keywords_are_literals_in_a_template(self, src):
        # a template reads `nt` and `name` as symbols: its list of literals
        # instantiates to the list term of the same text
        words = [Literal(word) for word in src[1:-1].split()]
        got = parse_template(src)
        assert got == ListPat(tuple(LitPat(w) for w in words))
        assert got != parse_pattern(src)


GRAMMAR_CLAUSE = "each grammar clause must be (<nonterminal> <pattern> ...)"
RULE_FORM = "each rule must be (rule <name> <lhs> <rhs>)"


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

    def test_unbound_variable_inside_a_list_template_raises(self):
        rule = "(rule r (name a (nt e)) (k (ref a) ((ref b) (ref c))))"
        with pytest.raises(UnboundTemplateVariableError) as e:
            parse_language(f"(define-language l (e a)) {rule}")
        assert str(e.value) == "rule 'r' uses unbound template variable(s): b, c"
        rule = "(rule r (name a (nt e)) ((ref a)))"
        lang = parse_language(f"(define-language l (e a)) {rule}")
        assert lang.rules[0].rhs == ListPat((RefTemplate("a"),))

    def test_a_non_symbol_ref_fails_at_parse_with_its_position(self):
        src = "(define-language l (e a))\n(rule r (name a (nt e)) (ref 5))"
        with pytest.raises(ParseError, match="^2:25: "):
            parse_language(src)

    @pytest.mark.parametrize(
        "src, message",
        [
            ("a", "the first form must be (define-language ...)"),
            ("()", "the first form must be (define-language ...)"),
            ("(rule r a a)", "the first form must be (define-language ...)"),
            ("(define-language)", "define-language needs a name"),
            ("(define-language (l) (e a))", "define-language needs a name"),
        ]
        + [
            (f"(define-language l {clause})", GRAMMAR_CLAUSE)
            for clause in ("e", "(e)", "((e) a)", "(e a) ()")
        ],
    )
    def test_malformed_definition_raises(self, src, message):
        with pytest.raises(LanguageError) as e:
            parse_language(src)
        assert str(e.value) == message

    def test_malformed_rule_raises(self):
        with pytest.raises(LanguageError, match="rule"):
            parse_language("(define-language l (e a)) (rule r)")

    @pytest.mark.parametrize(
        "src, message",
        [
            ("(define-language 5 (e a))", "define-language needs a name"),
            ("(define-language #f (e a))", "define-language needs a name"),
            ("(define-language l (#t a) (e b))", GRAMMAR_CLAUSE),
            ("(define-language l (e a) (-7 b))", GRAMMAR_CLAUSE),
            ("(define-language l (e a)) (rule 7 a a)", RULE_FORM),
            ("(define-language l (e a)) (rule #t a a)", RULE_FORM),
            ("(define-language l (e a)) (rule (r) a a)", RULE_FORM),
            (
                "(define-language l (e a)) (rule r a a) (rule s a a) (rule r a b)",
                "rule 'r' is defined twice",
            ),
        ],
    )
    def test_names_are_symbols_and_rule_names_distinct(self, src, message):
        with pytest.raises(LanguageError) as e:
            parse_language(src)
        assert str(e.value) == message

    def test_a_name_past_the_digit_limit_is_a_parse_error_at_its_atom(self):
        with pytest.raises(ParseError) as e:
            parse_language("(define-language l (e a))\n(rule " + "9" * 5000 + " a a)")
        assert str(e.value) == "2:7: integer literal too long"

    def test_symbol_names_load_in_order(self):
        src = "(define-language hole (nt a)) (rule s a a) (rule r (nt nt) a)"
        lang = parse_language(src)
        assert lang.name == "hole"
        assert [p.nonterminal for p in lang.grammar.productions] == ["nt"]
        assert [r.name for r in lang.rules] == ["s", "r"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LANGUAGE_FILES = sorted(
    glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.sexp"))
    + glob.glob(os.path.join(ROOT, "bench", "inputs", "*.sexp"))
)
# spliced into a language file in place of a few characters
SPLICES = ("", "(", ")", "()", "a", "nt", "(nt)", "(nt 5)", "(nt zz)", "hole", "ref")
SPLICES += ("(ref 7)", "rule", "(rule r a a)", "define-language", "#t", "9" * 5000)


# A fresh interpreter at the default recursion limit loads a file with a
# production and a rule's right-hand side each nested 10,000 deep.
DEEP_LANGUAGE = """
import sys
from redsem import HOLE_PAT, InHolePat, ListPat, Literal, LitPat, NtPat, load_language
from redsem.reduction import RefTemplate

assert sys.getrecursionlimit() == 1000
n, path = 10_000, sys.argv[1]
production = "(e a " + "(b " * n + "(nt e)" + ")" * n + ")"
rhs = "(in-hole hole " * n + "(ref q)" + ")" * n
with open(path, "w", encoding="utf-8") as f:
    f.write(f"(define-language l\\n  {production})\\n(rule r (name q (nt e))\\n  {rhs})\\n")
lang = load_language(path)
p, levels = lang.grammar.productions[1].pattern, 0
while type(p) is ListPat:
    assert len(p.items) == 2 and p.items[0] == LitPat(Literal("b"))
    p, levels = p.items[1], levels + 1
print("production", levels, p == NtPat("e"))
t, levels = lang.rules[0].rhs, 0
while type(t) is InHolePat:
    assert t.context_pat == HOLE_PAT
    t, levels = t.hole_pat, levels + 1
print("rule", levels, t == RefTemplate("q"))
"""


class TestLanguageReader:
    """`parse_language` reads as the recursive reference does, from the
    s-expression tree: the same value, or the same first fault.  The
    language texts `TestRobustness` generates are compared there."""

    def test_the_fixtures_and_the_benchmark_inputs(self):
        assert len(LANGUAGE_FILES) == 6
        rng, counts = random.Random(20261019), Counter()
        for path in LANGUAGE_FILES:
            with open(path, encoding="utf-8") as f:
                text = f.read()
            got = read_outcome(parse_language, text)
            assert got == read_outcome(read_language, text)
            counts["read" if isinstance(got, str) else got[0]] += 1
            for _ in range(150):
                i = rng.randrange(len(text) + 1)
                j = min(len(text), i + rng.randrange(6))
                sep = rng.choice(("", " ", "\n"))
                bad = text[:i] + sep + rng.choice(SPLICES) + sep + text[j:]
                got = read_outcome(parse_language, bad)
                assert got == read_outcome(read_language, bad)
                counts["read" if isinstance(got, str) else got[0]] += 1
        # corpus.sexp holds cases, not a language
        assert counts[LanguageError] >= 150 and counts[ParseError] >= 150
        assert counts["read"] >= 150

    def test_a_production_and_a_rule_10_000_deep(self, tmp_path):
        src = os.path.dirname(os.path.dirname(redsem.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", DEEP_LANGUAGE, str(tmp_path / "deep.sexp")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == ["production 10000 True", "rule 10000 True"]
