import gc
import random
import threading
import time
import weakref
from collections import Counter

import pytest

import redsem.matching as matching
import references
from genterms import gen_case, gen_template, gen_template_bindings
from redsem import (
    HOLE,
    HOLE_PAT,
    CtxTerm,
    HeadCtx,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    NamePat,
    NtPat,
    SoundnessCheckError,
    TailCtx,
    TemplateContextError,
    UnboundTemplateVariableError,
    match_decompose,
    matches,
    new_grammar,
    parse_pattern,
    parse_term,
    print_term,
    step,
    trace,
)
from redsem.language import parse_template, print_pattern
from redsem.matching import Bindings, _Session
from test_matching import (
    REENTRY_PRODUCTIONS,
    balanced_tree_src,
    inject,
    inject_split,
    right_chain,
    right_chain_src,
    select_one_item_too_many,
    unshared_right_chain,
)
from redsem.reduction import (
    CUTOFF,
    CYCLE,
    NORMAL_FORM,
    REDUCED,
    RefTemplate,
    Rule,
    apply_rule,
    instantiate,
    template_vars,
)

A, B, C = Literal("a"), Literal("b"), Literal("c")
EMPTY_G = new_grammar([])


def bnd(**kw):
    return Bindings(tuple(sorted(kw.items())))


class TestInstantiate:
    def test_ref(self):
        assert instantiate(RefTemplate("x"), bnd(x=A)) == A

    def test_plug_into_bound_context(self):
        tpl = InHolePat(RefTemplate("E"), LitPat(B))
        b = bnd(E=CtxTerm(HeadCtx(HOLE, (C,))))
        assert instantiate(tpl, b) == ListTerm((B, C))

    def test_unbound_ref_raises(self):
        with pytest.raises(UnboundTemplateVariableError):
            instantiate(RefTemplate("y"), bnd(x=A))

    def test_non_context_in_hole_raises(self):
        tpl = InHolePat(LitPat(A), LitPat(B))
        with pytest.raises(TemplateContextError):
            instantiate(tpl, bnd())

    def test_hole_and_list(self):
        tpl = ListPat((HOLE_PAT, LitPat(A)))
        assert instantiate(tpl, bnd()) == ListTerm((CtxTerm(HOLE), A))

    @pytest.mark.parametrize(
        "src, want",
        [
            ("(in-hole hole a)", "a"),
            ("(in-hole (ref E) (in-hole (ref E) c))", "((c b) b)"),
            ("(in-hole (in-hole (ref E) (ref E)) c)", "((c b) b)"),
            ("(in-hole (ref E) hole)", "(hole b)"),
            ("(in-hole (b hole) a)", TemplateContextError),
        ],
    )
    def test_in_hole_plugs_its_hole_side_into_its_context_side(self, src, want):
        # E is the context (hole b); a list template that holds a hole
        # builds a list term, not a context
        b = bnd(E=CtxTerm(HeadCtx(HOLE, (B,))))
        tpl = parse_template(src)
        if want is TemplateContextError:
            for build in (instantiate, references.instantiate):
                with pytest.raises(TemplateContextError):
                    build(tpl, b)
        else:
            got = instantiate(tpl, b)
            assert print_term(got) == want
            assert got == references.instantiate(tpl, b)

    def test_agrees_with_the_recursive_definition(self):
        def outcome(build, tpl, b):
            try:
                return build(tpl, b)
            except (UnboundTemplateVariableError, TemplateContextError) as e:
                return type(e), str(e)

        rng = random.Random(20261019)
        counts = Counter()
        for _ in range(3000):
            tpl, b = gen_template(rng), gen_template_bindings(rng)
            got = outcome(instantiate, tpl, b)
            # the same term, or the same first fault: an in-hole's context
            # is built and checked before its body is built
            assert got == outcome(references.instantiate, tpl, b)
            kind = got[0] if isinstance(got, tuple) else "term"
            unbound = template_vars(tpl) - {var for var, _ in b.entries}
            counts[kind, bool(unbound)] += 1
        assert counts["term", False] >= 1000
        assert counts[UnboundTemplateVariableError, True] >= 300
        # a context fault raised although an unbound variable lies later
        assert counts[TemplateContextError, True] >= 100


class TestTemplateVars:
    @pytest.mark.parametrize(
        "src, want",
        [
            ("a", set()),
            ("hole", set()),
            ("(ref x)", {"x"}),
            ("(a (ref x) ((ref y) (ref x)))", {"x", "y"}),
            ("(in-hole (in-hole (ref E) (ref F)) (b (ref c)))", {"E", "F", "c"}),
        ],
    )
    def test_the_variables_a_template_refers_to(self, src, want):
        assert template_vars(parse_template(src)) == want


class TestRule:
    def test_unbound_template_var_rejected_at_construction(self):
        with pytest.raises(UnboundTemplateVariableError):
            Rule("r", NamePat("a", LitPat(A)), RefTemplate("b"))

    def test_bound_vars_accepted(self):
        Rule("r", NamePat("a", LitPat(A)), RefTemplate("a"))


class TestApplyRule:
    def test_literal_rewrite(self):
        r = Rule("r", LitPat(A), LitPat(B))
        assert apply_rule(EMPTY_G, r, A) == [B]

    def test_no_match_no_results(self):
        r = Rule("r", LitPat(A), LitPat(B))
        assert apply_rule(EMPTY_G, r, C) == []

    def test_beta_on_identity_redex(self, lam):
        rule = lam.rules[0]
        t = parse_term("((λ x x) (λ y y))")
        assert apply_rule(lam.grammar, rule, t) == [parse_term("(λ y y)")]

    def test_orders_by_repr_only_two_or_more_bindings(self, lam, lam_nd, monkeypatch):
        # two redexes side by side: lambda.sexp's contexts reach the left
        # one only, lambda_nd.sexp's reach both; one binding is not printed
        printed = []
        real = Bindings.__repr__
        monkeypatch.setattr(Bindings, "__repr__", lambda b: printed.append(b) or real(b))
        t = parse_term("(((λ x x) (λ y y)) ((λ z z) (λ w w)))")
        got = apply_rule(lam.grammar, lam.rules[0], t)
        assert got == [parse_term("((λ y y) ((λ z z) (λ w w)))")] and printed == []
        assert len(apply_rule(lam_nd.grammar, lam_nd.rules[0], t)) == 2
        assert len(printed) >= 2

    def test_tells_matches_apart_without_hashing_a_context(self, lam_nd, monkeypatch):
        # two redexes, each under 30 wrappers: each match binds E to a
        # freshly built context, and none of them is hashed
        calls = Counter()
        for cls in (HeadCtx, TailCtx):

            def counted(self, real=cls.__hash__, name=cls.__name__):
                calls[name] += 1
                return real(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        wrapped = "((λ x x) " * 30 + "(λ y y)" + ")" * 30
        t = parse_term(f"({wrapped} {wrapped})")
        got = apply_rule(lam_nd.grammar, lam_nd.rules[0], t)
        assert (len(got), calls) == (2, Counter())
        assert got == references.apply_rule(lam_nd.grammar, lam_nd.rules[0], t)

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

    def test_agrees_with_the_reference_on_every_traced_node(self, lam_nd):
        # beta, and a rule that takes a redex in any context to its
        # argument, so that two redexes with equal arguments give one reduct
        g = lam_nd.grammar
        lhs = parse_pattern("(in-hole (name E (nt E)) ((nt v) (name a (nt v))))")
        argument = Rule("argument", lhs, RefTemplate("a"))
        counts = Counter()
        for depth in (1, 2, 3):
            t = parse_term(balanced_tree_src(depth))
            for node in trace(g, list(lam_nd.rules), t, 10**6).nodes:
                counts["nodes"] += 1
                for rule in (*lam_nd.rules, argument):
                    got = apply_rule(g, rule, node)
                    assert got == references.apply_rule(g, rule, node)
                    counts["deduplicated"] += len(matches(g, node, rule.lhs)) > len(got)
        assert counts == {"nodes": 2 + 6 + 52, "deduplicated": 10}


class TestStep:
    def test_no_rules(self):
        assert step(EMPTY_G, [], A) == []

    def test_deterministic_rule_singleton(self, lam):
        t = parse_term("((λ x x) (λ y y))")
        got = step(lam.grammar, list(lam.rules), t)
        assert got == [("beta", parse_term("(λ y y)"))]

    def test_two_applicable_rules_both_tagged(self):
        r1 = Rule("r1", LitPat(A), LitPat(B))
        r2 = Rule("r2", LitPat(A), LitPat(C))
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
        # the loop stops when the frontier empties, however large the bound
        t = parse_term("((λ x x) (λ y y))")
        for max_steps in (10, 10**9):
            start = time.perf_counter()
            tr = trace(lam.grammar, list(lam.rules), t, max_steps)
            assert time.perf_counter() - start < 1
            assert len(tr.nodes) == 2
            assert tr.edges == [(0, "beta", 1)]
            assert tr.nodes[1] == parse_term("(λ y y)")
            assert tr.statuses == [REDUCED, NORMAL_FORM]

    def test_zero_steps_is_cutoff_unless_normal(self, lam):
        # a negative bound counts as 0: the root is still classified
        t = parse_term("((λ x x) (λ y y))")
        for max_steps in (-1, 0):
            tr = trace(lam.grammar, list(lam.rules), t, max_steps)
            assert tr.nodes == [t]
            assert tr.statuses == [CUTOFF]
            assert tr.edges == []
            tr2 = trace(lam.grammar, list(lam.rules), parse_term("(λ x x)"), max_steps)
            assert tr2.statuses == [NORMAL_FORM]

    @pytest.mark.parametrize("max_steps", [-3, -1, 0, 1, 2, 3, 5, 10, 10**6])
    def test_agrees_with_the_two_pass_reference(self, lam, lam_nd, max_steps):
        srcs = [right_chain_src(n) for n in range(8)]
        srcs += [balanced_tree_src(depth) for depth in (1, 2, 3)]
        for lang in (lam, lam_nd):
            for src in srcs:
                t, rules = parse_term(src), list(lang.rules)
                got = trace(lang.grammar, rules, t, max_steps)
                assert repr(got) == repr(
                    references.trace(lang.grammar, rules, t, max_steps)
                )

    def test_cycle_detected_on_revisit(self):
        r = Rule("spin", LitPat(A), LitPat(A))
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


def checks(monkeypatch, on):
    """Make the matching calls that give no `debug` run with the checks on
    or off, under `python -O` too."""
    monkeypatch.setitem(matching.match_decompose.__kwdefaults__, "debug", on)


def record(monkeypatch):
    """Record each match_decompose call: its arguments, the session open
    while it ran, and the repr of its result."""
    real, calls = matching.match_decompose, []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        session = matching._open.session
        calls.append((args, kwargs, session, repr(result)))
        return result

    monkeypatch.setattr(matching, "match_decompose", recording)
    return real, calls


def combine_split_for_a_match(context, hole, bindings):
    # a split where the hole pattern matched its term: the in-hole rule
    # gives a match, and the split has no hole result to hold
    return context, Literal("a"), bindings


class TestSession:
    # a trace's matching calls share one session, so a call can answer
    # from subproblems that an earlier step solved; each such call must
    # give the raw list that a call on a fresh session gives

    def traces(self, lam, lam_nd):
        jobs = [(lam_nd, balanced_tree_src(d), 10) for d in (1, 2, 3)]
        jobs += [(lam, right_chain_src(n), n + 1) for n in range(1, 13)]
        return [(lang.grammar, list(lang.rules), parse_term(src), k) for lang, src, k in jobs]

    @pytest.mark.parametrize("on", [True, False])
    def test_each_call_in_a_trace_equals_a_fresh_call(self, lam, lam_nd, monkeypatch, on):
        checks(monkeypatch, on)
        real, calls = record(monkeypatch)
        for grammar, rules, term, k in self.traces(lam, lam_nd):
            del calls[:]
            trace(grammar, rules, term, k)
            sessions = [session for _, _, session, _ in calls]
            assert len(calls) > 1 and sessions[0] is not None
            assert all(session is sessions[0] for session in sessions)
            for args, kwargs, _, got in calls:
                assert repr(real(*args, **kwargs)) == got

    def test_a_step_shares_one_session_across_its_rules(self, lam_nd, monkeypatch):
        _, calls = record(monkeypatch)
        rules = list(lam_nd.rules) * 2
        step(lam_nd.grammar, rules, parse_term(balanced_tree_src(2)))
        sessions = [session for _, _, session, _ in calls]
        assert len(sessions) == 2 and sessions[0] is not None
        assert sessions[0] is sessions[1] and matching._open.session is None

    def test_a_trace_checks_each_shared_subproblem_once(self, lam, monkeypatch):
        # order checks made by the 9 calls of a right-chain trace, and by
        # the same calls made afresh, one session each: on the chain read
        # with one object per node (668 and 1,161 while a list pattern
        # split its list into a head and a tail), and on the chain as
        # parse_term reads it, one object per distinct sub-term.  The
        # in-hole rule reads a hole side that a filter query derived from
        # the query's results, which moved these from (9, 499, 815) and
        # (9, 466, 699): the redex pattern's hole side on each chain makes
        # no edge of its own
        checks(monkeypatch, True)
        edges = inject(monkeypatch, "mask_order_decreases")
        real, calls = record(monkeypatch)
        got = []
        for t in (unshared_right_chain(8), right_chain(8)):
            edges[0], calls[:] = 0, []
            trace(lam.grammar, list(lam.rules), t, 9)
            in_session = edges[0]
            for args, kwargs, _, _ in calls:
                real(*args, **kwargs)
            got.append((len(calls), in_session, edges[0] - in_session))
        assert got == [(9, 459, 775), (9, 426, 659)]

    def test_generated_cases_share_a_session(self):
        # four patterns on one term object per case, in both orders; each
        # pattern is parsed afresh for its call, so a filter the session
        # did not hold could lend its id to the next call's
        rng = random.Random(20261018)
        calls = 0
        for _ in range(3000):
            g, t, p = gen_case(rng)
            n, src = g.productions[0].nonterminal, print_pattern(p)
            sources = [src, f"(nt {n})", f"(in-hole (nt {n}) {src})", f"(in-hole {src} (nt {n}))"]
            fresh = [repr(match_decompose(g, t, parse_pattern(s))) for s in sources]
            for order in (range(4), range(3, -1, -1)):
                with _Session(g):
                    for i in order:
                        assert repr(match_decompose(g, t, parse_pattern(sources[i]))) == fresh[i]
                        calls += 1
        assert calls == 24000

    def test_a_memo_entry_holds_its_filter(self):
        # n -> (in-hole (nt n) hole) | a: under (in-hole (nt n) F) the
        # context side (nt n) is keyed by the filter F, as a hole is
        # reachable from n through the in-hole's hole side.  That in-hole
        # production has removed itself from the mask of its own context
        # side, which finds no split, so no hole pattern is reached under
        # F and no filter query holds it: only the (nt n) entry does
        rhs = [parse_pattern("(in-hole (nt n) hole)"), LitPat(A)]
        g = new_grammar([("n", q) for q in rhs])
        session = _Session(g)
        with session:
            p = parse_pattern("(in-hole (nt n) b)")
            assert match_decompose(g, A, p) == []
            filt, filt_id = weakref.ref(p.hole_pat), id(p.hole_pat)
            queries = [v for k, v in session.memo.items() if len(k) == 2]
            assert all(f is not filt() for _, f, _ in queries)
            del p
            gc.collect()
            assert filt() is not None  # its id cannot be reused
            q = parse_pattern("(in-hole (nt n) (name x hole))")
            assert id(q.hole_pat) != filt_id
            shared = repr(match_decompose(g, A, q))
        assert filt() is None  # dropped with the session
        assert repr(match_decompose(g, A, q)) == shared

    def test_calls_that_do_not_join_run_afresh(self, lam):
        # another grammar object, a current grammar, or other checks than
        # the session's first call: such a call neither reads nor fills
        # the session's memo
        g, t = lam.grammar, right_chain(4)
        other = new_grammar(g.productions[::-1])
        current = new_grammar(g.productions[1:])
        p = parse_pattern("(in-hole (nt E) (nt e))")
        fresh = [
            match_decompose(other, t, p, debug=True),
            match_decompose(g, t, p, current, debug=True),
            match_decompose(g, t, p, debug=False),
        ]
        with _Session(g):
            assert match_decompose(g, t, NtPat("v"), debug=True) == []
            session = matching._open.session
            memo = dict(session.memo)
            assert memo and session.debug is True
            assert [
                match_decompose(other, t, p, debug=True),
                match_decompose(g, t, p, current, debug=True),
                match_decompose(g, t, p, debug=False),
            ] == fresh
            assert session.memo == memo and session.debug is True
            with _Session(g):
                assert matching._open.session is session
            assert session.memo == memo
        assert matching._open.session is None

    def test_sessions_are_kept_per_thread(self, lam):
        # another thread holds a session open: this thread does not see it,
        # and its own calls, which would add to that session's memo if they
        # joined it, leave it as it is
        g = lam.grammar
        opened, release = threading.Event(), threading.Event()
        memos = []  # the other thread's session memo

        def hold():
            with _Session(g):
                match_decompose(g, right_chain(3), NtPat("E"))
                memos.append(matching._open.session.memo)
                opened.set()
                release.wait()

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert opened.wait(timeout=60)
            before = [dict(memo) for memo in memos]
            assert matching._open.session is None
            t = right_chain(4)
            fresh = repr(match_decompose(g, t, NtPat("E")))
            with _Session(g):
                assert repr(match_decompose(g, t, NtPat("E"))) == fresh
            assert memos == before and all(before)
        finally:
            release.set()
            worker.join()

    def test_a_returned_list_is_the_callers_own(self, lam):
        # (nt E) returns its memoized list; emptying the caller's copy
        # must not empty what the next call of the session reads
        g, t, p = lam.grammar, right_chain(3), NtPat("E")
        fresh = match_decompose(g, t, p)
        with _Session(g):
            match_decompose(g, t, p).clear()
            assert match_decompose(g, t, p) == fresh

    @pytest.mark.parametrize("on", [True, False])
    def test_reentered_queries_share_a_session(self, on):
        g = new_grammar([(nt, parse_pattern(rhs)) for nt, rhs in REENTRY_PRODUCTIONS])
        terms = [parse_term(src) for src in ("a", "(a a)", "(a)", "()", "hole")]
        sources = [
            "(nt n)",
            "(nt m)",
            "(in-hole (nt m) (nt n))",
            "hole",
            "(in-hole (nt n) a)",
            "((nt n) (nt m))",
        ]
        pairs = [(t, parse_pattern(s)) for t in terms for s in sources]
        fresh = [repr(match_decompose(g, t, p, debug=on)) for t, p in pairs]
        for order in (pairs, pairs[::-1]):
            with _Session(g):
                got = [repr(match_decompose(g, t, p, debug=on)) for t, p in order]
            assert got == (fresh if order is pairs else fresh[::-1])

    @pytest.mark.parametrize(
        "name, wrong",
        [("select", select_one_item_too_many), ("combine", combine_split_for_a_match)],
    )
    def test_wrong_split_in_a_trace_is_caught(self, lam_nd, monkeypatch, name, wrong):
        def run():
            trace(lam_nd.grammar, list(lam_nd.rules), parse_term(balanced_tree_src(2)), 10)

        checks(monkeypatch, True)
        calls = inject_split(monkeypatch, name)
        run()
        total = calls[0]
        assert total > 2
        for k in (1, total // 2, total):
            monkeypatch.undo()
            checks(monkeypatch, True)
            inject_split(monkeypatch, name, k, wrong)
            with pytest.raises(SoundnessCheckError):
                run()

    @pytest.mark.parametrize("fail", [False, True])
    def test_a_term_only_the_session_holds_is_freed(self, lam, monkeypatch, fail):
        # (λ x x) applied to (λ y y), with a literal x of its own; the
        # trace's result is dropped, so only the session could keep it
        checks(monkeypatch, True)
        x = Literal("x")
        term = ListTerm((ListTerm((Literal("λ"), x, x)), parse_term("(λ y y)")))
        held = []

        def holding(*args, **kwargs):
            result = real(*args, **kwargs)
            memo = matching._open.session.memo
            held.append(any(entry[0] is x for entry in memo.values()))
            return result

        real = matching.match_decompose
        monkeypatch.setattr(matching, "match_decompose", holding)
        if fail:
            # under the redex pattern's filter the list rule splits nothing
            # on this term, so the fault goes in at its one in-hole split
            inject_split(monkeypatch, "combine", 1, combine_split_for_a_match)
            with pytest.raises(SoundnessCheckError):
                trace(lam.grammar, list(lam.rules), term, 3)
        else:
            trace(lam.grammar, list(lam.rules), term, 3)
            assert held and all(held)
        weak = weakref.ref(x)
        del term, x
        gc.collect()
        assert weak() is None
