import pytest

from redsem import (
    HOLE,
    CtxTerm,
    HeadCtx,
    ListTerm,
    Literal,
    LitPat,
    NamePat,
    TemplateContextError,
    UnboundTemplateVariableError,
    new_grammar,
    parse_pattern,
    parse_term,
    print_term,
    step,
    trace,
)
from redsem.matching import Bindings
from redsem.reduction import (
    CUTOFF,
    CYCLE,
    NORMAL_FORM,
    REDUCED,
    HoleTemplate,
    InHoleTemplate,
    ListTemplate,
    LitTemplate,
    RefTemplate,
    Rule,
    apply_rule,
    instantiate,
)

A, B, C = Literal("a"), Literal("b"), Literal("c")
EMPTY_G = new_grammar([])


def bnd(**kw):
    return Bindings(tuple(sorted(kw.items())))


class TestInstantiate:
    def test_ref(self):
        assert instantiate(RefTemplate("x"), bnd(x=A)) == A

    def test_plug_into_bound_context(self):
        tpl = InHoleTemplate(RefTemplate("E"), LitTemplate(B))
        b = bnd(E=CtxTerm(HeadCtx(HOLE, (C,))))
        assert instantiate(tpl, b) == ListTerm((B, C))

    def test_unbound_ref_raises(self):
        with pytest.raises(UnboundTemplateVariableError):
            instantiate(RefTemplate("y"), bnd(x=A))

    def test_non_context_in_hole_raises(self):
        tpl = InHoleTemplate(LitTemplate(A), LitTemplate(B))
        with pytest.raises(TemplateContextError):
            instantiate(tpl, bnd())

    def test_hole_and_list(self):
        tpl = ListTemplate((HoleTemplate(), LitTemplate(A)))
        assert instantiate(tpl, bnd()) == ListTerm((CtxTerm(HOLE), A))


class TestRule:
    def test_unbound_template_var_rejected_at_construction(self):
        with pytest.raises(UnboundTemplateVariableError):
            Rule("r", NamePat("a", LitPat(A)), RefTemplate("b"))

    def test_bound_vars_accepted(self):
        Rule("r", NamePat("a", LitPat(A)), RefTemplate("a"))


class TestApplyRule:
    def test_literal_rewrite(self):
        r = Rule("r", LitPat(A), LitTemplate(B))
        assert apply_rule(EMPTY_G, r, A) == [B]

    def test_no_match_no_results(self):
        r = Rule("r", LitPat(A), LitTemplate(B))
        assert apply_rule(EMPTY_G, r, C) == []

    def test_beta_on_identity_redex(self, lam):
        rule = lam.rules[0]
        t = parse_term("((λ x x) (λ y y))")
        assert apply_rule(lam.grammar, rule, t) == [parse_term("(λ y y)")]

    def test_results_are_closed_terms(self, lam):
        from redsem.terms import CtxTerm as Ctx, Hole as H, ListTerm as L

        def assert_term(node):
            if isinstance(node, Literal):
                return
            if isinstance(node, L):
                for item in node.items:
                    assert_term(item)
                return
            assert isinstance(node, Ctx)

        rule = lam.rules[0]
        t = parse_term("(((λ x x) (λ y y)) (λ z z))")
        reducts = apply_rule(lam.grammar, rule, t)
        assert reducts
        for reduct in reducts:
            assert_term(reduct)
            print_term(reduct)


class TestStep:
    def test_no_rules(self):
        assert step(EMPTY_G, [], A) == []

    def test_deterministic_rule_singleton(self, lam):
        t = parse_term("((λ x x) (λ y y))")
        got = step(lam.grammar, list(lam.rules), t)
        assert got == [("beta", parse_term("(λ y y)"))]

    def test_two_applicable_rules_both_tagged(self):
        r1 = Rule("r1", LitPat(A), LitTemplate(B))
        r2 = Rule("r2", LitPat(A), LitTemplate(C))
        assert step(EMPTY_G, [r1, r2], A) == [("r1", B), ("r2", C)]

    def test_monotone_in_rules(self, lam):
        t = parse_term("((λ x x) (λ y y))")
        extra = Rule("noop", NamePat("q", parse_pattern("(nt e)")), RefTemplate("q"))
        base = step(lam.grammar, list(lam.rules), t)
        widened = step(lam.grammar, list(lam.rules) + [extra], t)
        for tagged in base:
            assert tagged in widened


class TestTrace:
    def test_normal_form_single_node(self, lam):
        tr = trace(lam.grammar, list(lam.rules), parse_term("(λ x x)"), 10)
        assert tr.nodes == [parse_term("(λ x x)")]
        assert tr.statuses == [NORMAL_FORM]
        assert tr.edges == []

    def test_identity_application_reduces_once(self, lam):
        tr = trace(lam.grammar, list(lam.rules), parse_term("((λ x x) (λ y y))"), 10)
        assert len(tr.nodes) == 2
        assert tr.edges == [(0, "beta", 1)]
        assert tr.nodes[1] == parse_term("(λ y y)")
        assert tr.statuses == [REDUCED, NORMAL_FORM]

    def test_zero_steps_is_cutoff_unless_normal(self, lam):
        t = parse_term("((λ x x) (λ y y))")
        tr = trace(lam.grammar, list(lam.rules), t, 0)
        assert tr.nodes == [t]
        assert tr.statuses == [CUTOFF]
        tr2 = trace(lam.grammar, list(lam.rules), parse_term("(λ x x)"), 0)
        assert tr2.statuses == [NORMAL_FORM]

    def test_cycle_detected_on_revisit(self):
        r = Rule("spin", LitPat(A), LitTemplate(A))
        tr = trace(EMPTY_G, [r], A, 5)
        assert tr.nodes == [A, A]
        assert tr.statuses == [REDUCED, CYCLE]
        assert tr.edges == [(0, "spin", 1)]

    def test_deeper_trace_extends_shallower(self, lam):
        t = parse_term("(((λ x x) (λ y y)) (λ z z))")
        for k in range(4):
            shallow = trace(lam.grammar, list(lam.rules), t, k)
            deep = trace(lam.grammar, list(lam.rules), t, k + 1)
            assert deep.nodes[: len(shallow.nodes)] == shallow.nodes
            assert deep.edges[: len(shallow.edges)] == shallow.edges
            for i, status in enumerate(shallow.statuses):
                if status != CUTOFF:
                    assert deep.statuses[i] == status
