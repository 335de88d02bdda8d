import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from genterms import gen_case, gen_context, gen_pattern, gen_template, gen_term
import redsem
import references
from redsem import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    CtxTerm,
    HeadCtx,
    Hole,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    NamePat,
    NtPat,
    TailCtx,
    enumerate_decompositions,
    plug,
    print_term,
)
from redsem.terms import compose, subpatterns
from references import (
    context_hole_count,
    is_proper_subterm,
    proper_subterms,
    term_size,
)

A, B, C = Literal("a"), Literal("b"), Literal("c")
AB = ListTerm((A, B))

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def rnd_term(seed, depth=4):
    return gen_term(random.Random(seed), depth)


def rnd_context(seed, depth=3):
    return gen_context(random.Random(seed), depth)


class TestTermEq:
    def test_identical_literals(self):
        assert Literal("a") == Literal("a")

    def test_distinct_literals(self):
        assert Literal("a") != Literal("b")

    def test_structural_lists(self):
        assert ListTerm((A, B)) == ListTerm((A, B))

    def test_bool_and_int_literals_differ(self):
        assert Literal(True) != Literal(1)
        assert Literal(False) != Literal(0)
        assert hash(Literal(True)) != hash(Literal(1))

    @given(seeds)
    def test_reflexive(self, seed):
        t = rnd_term(seed)
        assert t == t

    @given(seeds, seeds)
    def test_symmetric(self, s1, s2):
        t1, t2 = rnd_term(s1), rnd_term(s2)
        assert (t1 == t2) == (t2 == t1)

    @given(seeds, seeds, seeds)
    def test_transitive(self, s1, s2, s3):
        t1, t2, t3 = rnd_term(s1), rnd_term(s2), rnd_term(s3)
        if t1 == t2 and t2 == t3:
            assert t1 == t3


class TestTermSize:
    def test_counts_nodes(self):
        assert term_size(A) == 1
        assert term_size(AB) == 3
        assert term_size(CtxTerm(HeadCtx(HOLE, (B,)))) == 4

    @given(seeds)
    def test_cache_stays_out_of_eq_hash_repr(self, seed):
        # the hash cache is the one slot outside the fields
        t, twin = rnd_term(seed), rnd_term(seed)
        before = repr(t)
        hash(t)
        assert repr(t) == before
        assert t == twin and hash(t) == hash(twin)
        assert term_size(twin) == term_size(t)

    def test_sizes_terms_and_contexts_10_000_deep(self):
        t, c = A, HOLE
        for _ in range(10_000):
            t, c = ListTerm((t, B)), TailCtx(B, HeadCtx(c, ()))
        assert term_size(t) == 20_001
        assert term_size(CtxTerm(c)) == 30_002
        assert term_size(c) == 30_001 and term_size(c.rest) == 29_999


class TestProperSubterm:
    def test_element_of_list(self):
        # all positions of (a b): a and b occur strictly inside
        assert is_proper_subterm(A, AB)

    def test_irreflexive(self):
        assert not is_proper_subterm(AB, AB)

    def test_nested_list(self):
        t = ListTerm((A, ListTerm((B,))))
        assert is_proper_subterm(B, t)

    @given(seeds)
    def test_irreflexive_random(self, seed):
        t = rnd_term(seed)
        assert not is_proper_subterm(t, t)

    @given(seeds)
    @settings(max_examples=60)
    def test_transitive_random(self, seed):
        rng = random.Random(seed)
        t = gen_term(rng, 4)
        subs = list(proper_subterms(t))[:8]
        for s1 in subs:
            for s2 in proper_subterms(s1):
                assert is_proper_subterm(s2, t)

    @given(seeds)
    def test_every_nontrivial_split_is_proper(self, seed):
        # sound direction of the split characterization; the converse fails
        # for list tails, which are subterms without being plug positions
        t = rnd_term(seed)
        for c, sub in enumerate_decompositions(t):
            if c != HOLE:
                assert is_proper_subterm(sub, t)

    @given(seeds, seeds)
    @settings(max_examples=80)
    def test_agrees_with_exhaustive_scan(self, s1, s2):
        # the size-pruned walk answers as a scan of every proper subterm does
        rng = random.Random(s1)
        t = CtxTerm(gen_context(rng, 3)) if s1 % 3 == 0 else gen_term(rng, 4)
        candidates = [t, rnd_term(s2, 2), *list(proper_subterms(t))[:12]]
        for sub in candidates:
            expected = any(sub == s for s in proper_subterms(t))
            assert is_proper_subterm(sub, t) == expected

    def test_list_tail_is_subterm_but_not_a_split(self):
        tail = ListTerm((B,))
        assert is_proper_subterm(tail, AB)
        assert all(sub != tail for _, sub in enumerate_decompositions(AB))


class TestPlug:
    def test_hole_is_identity(self):
        assert plug(HOLE, AB) == AB

    def test_head_context(self):
        assert plug(HeadCtx(HOLE, (B,)), A) == AB

    def test_tail_context(self):
        assert plug(TailCtx(A, HeadCtx(HOLE, ())), B) == AB

    def test_context_term_rewires(self):
        got = plug(HeadCtx(HOLE, (B,)), HOLE_TERM)
        assert got == CtxTerm(HeadCtx(HOLE, (B,)))

    def test_deep_and_wide_contexts(self):
        # plug keeps the hole path on the heap; the results are checked by
        # an iterative walk, since == and hash still recurse
        n = 10_000
        c = HOLE
        for i in range(n):
            c = TailCtx(A, HeadCtx(c, (B,))) if i % 2 else HeadCtx(c, (B,))
        t = plug(c, C)
        for i in reversed(range(n)):
            assert isinstance(t, ListTerm)
            if i % 2:
                assert len(t.items) == 3 and t.items[0] is A and t.items[2] is B
                t = t.items[1]
            else:
                assert len(t.items) == 2 and t.items[1] is B
                t = t.items[0]
        assert t is C
        wide = HeadCtx(HOLE, (B,))
        for _ in range(n):
            wide = TailCtx(A, wide)
        assert plug(wide, C).items == (A,) * n + (C, B)

    def test_plain_term_stays_plain(self):
        # a hole buried inside the plugged term does not rewire
        t = ListTerm((HOLE_TERM,))
        assert plug(HeadCtx(HOLE, (B,)), t) == ListTerm((t, B))

    @given(seeds)
    def test_all_splits_plug_back(self, seed):
        t = rnd_term(seed)
        for c, sub in enumerate_decompositions(t):
            assert plug(c, sub) == t

    @given(seeds, seeds)
    @settings(max_examples=200)
    def test_plugged_subterm_is_whole_or_proper(self, s1, s2):
        # why a plug-back check needs no sub-term check beside it:
        # plug(hole, s) is s, and any other context holds s strictly inside
        rng = random.Random(s2)
        s = CtxTerm(gen_context(rng, 3)) if s2 % 2 else gen_term(rng, 4)
        assert plug(HOLE, s) == s
        c = rnd_context(s1)
        if c != HOLE:
            assert is_proper_subterm(s, plug(c, s))


class TestCompose:
    def test_hole_left_identity(self):
        c = HeadCtx(HOLE, (B,))
        assert compose(HOLE, c) == c

    def test_hole_right_identity(self):
        # composing a context with the hole object that ends its path
        # returns the context itself; an equal but distinct hole is
        # put in its place, since the in-hole check compares by identity
        c = TailCtx(A, HeadCtx(HOLE, ()))
        assert compose(c, HOLE) is c
        other = Hole()
        got = compose(c, other)
        assert got == c and got is not c and got.rest.hole_side is other

    def test_nested(self):
        got = compose(HeadCtx(HOLE, (B,)), HeadCtx(HOLE, ()))
        assert got == HeadCtx(HeadCtx(HOLE, ()), (B,))

    @given(seeds, seeds, seeds)
    @settings(max_examples=150)
    def test_plug_homomorphism(self, s1, s2, s3):
        c1, c2 = rnd_context(s1), rnd_context(s2)
        t = rnd_term(s3)
        assert plug(compose(c1, c2), t) == plug(c1, plug(c2, t))

    @given(seeds, seeds)
    def test_composed_contexts_have_one_hole(self, s1, s2):
        c1, c2 = rnd_context(s1), rnd_context(s2)
        assert context_hole_count(compose(c1, c2)) == 1

    @pytest.mark.parametrize("shape", ["head", "alternating"])
    def test_contexts_5_000_deep(self, shape):
        # compose keeps the hole path on the heap; the result is checked
        # by an iterative walk, since == and repr still recurse
        n = 5_000

        def deep():
            c = HOLE
            for i in range(n):
                if shape == "alternating" and i % 2:
                    c = TailCtx(A, HeadCtx(c, (B,)))
                else:
                    c = HeadCtx(c, (C,))
            return c

        outer, inner = deep(), deep()
        assert compose(HOLE, inner) is inner
        for c2 in (HOLE, inner):
            got, old = compose(outer, c2), outer
            while old is not HOLE:
                assert type(got) is type(old)
                if isinstance(old, HeadCtx):
                    assert got.tail is old.tail
                    got, old = got.hole_side, old.hole_side
                else:
                    assert got.head is old.head
                    got, old = got.rest, old.rest
            assert got is c2

    @pytest.mark.parametrize(
        "outer", [TailCtx(A, HOLE), HeadCtx(TailCtx(A, HOLE), (B,))]
    )
    def test_a_composition_that_erases_a_tail_path_is_refused(self, outer):
        # a tail context whose rest is the hole has no path to a hole
        # inside a list: composing the hole into it would leave none, even
        # when the hole is the one that already ends its path
        with pytest.raises(TypeError, match="erased the tail path"):
            compose(outer, HOLE)


class TestSubpatterns:
    def test_agrees_with_the_recursive_reference(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            g, _, p = gen_case(rng)
            for q in (p, *(prod.pattern for prod in g.productions)):
                got, want = list(subpatterns(q)), list(references.subpatterns(q))
                assert len(got) == len(want)
                assert all(a is b for a, b in zip(got, want))

    @pytest.mark.parametrize("shape", ["right", "left", "name", "context", "body"])
    def test_a_pattern_10_000_deep(self, shape):
        # pre-order: each level and its leaves before the path, outermost
        # first, then the leaves after the path, innermost first
        lit, p = LitPat(A), NtPat("e")
        before, after = [p], []  # before: innermost first
        wrap = {  # a level around p, and its leaves before and after p
            "right": lambda p: (ListPat((lit, p)), [lit], []),
            "left": lambda p: (ListPat((p, lit)), [], [lit]),
            "name": lambda p: (NamePat("x", p), [], []),
            "context": lambda p: (InHolePat(p, HOLE_PAT), [], [HOLE_PAT]),
            "body": lambda p: (InHolePat(HOLE_PAT, p), [HOLE_PAT], []),
        }[shape]
        for _ in range(10_000):
            p, first, last = wrap(p)
            before += [*reversed(first), p]
            after += last
        got, want = list(subpatterns(p)), before[::-1] + after
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


class TestHoleCount:
    @given(seeds)
    def test_generated_contexts_have_one_hole(self, seed):
        assert context_hole_count(rnd_context(seed)) == 1

    @given(seeds)
    def test_split_contexts_have_one_hole(self, seed):
        for c, _ in enumerate_decompositions(rnd_term(seed)):
            assert context_hole_count(c) == 1


def hash_sample(kind, seed):
    """A value of the class named kind, rebuilt afresh on each call, whose
    parts hold nodes of every class with a cached hash in its syntax."""
    if kind.endswith("Pat"):
        # a template is read into the same nodes, so q is one
        p = gen_pattern(random.Random(seed), 3, ("n1", "n2"))
        q = gen_template(random.Random(seed), 3)
        if kind == "ListPat":
            return ListPat((p, NamePat("x", q), InHolePat(p, ListPat((q,)))))
        if kind == "NamePat":
            return NamePat("x", ListPat((p, InHolePat(q, p))))
        return InHolePat(NamePat("x", p), ListPat((q,)))
    t, c = rnd_term(seed), rnd_context(seed)
    if kind == "ListTerm":
        return ListTerm((t, CtxTerm(c), ListTerm((t,))))
    if kind == "CtxTerm":
        return CtxTerm(TailCtx(t, HeadCtx(c, (t,))))
    if kind == "HeadCtx":
        return HeadCtx(TailCtx(t, HeadCtx(c, ())), (t, CtxTerm(c)))
    return TailCtx(ListTerm((t,)), HeadCtx(c, (CtxTerm(c),)))


def cached_nodes(x):
    """Every node of x that caches its hash, x first, in one fixed order."""
    out, todo = [], [x]
    while todo:
        node = todo.pop()
        if isinstance(node, (ListTerm, ListPat)):
            todo.extend(node.items)
        elif isinstance(node, CtxTerm):
            todo.append(node.context)
        elif isinstance(node, HeadCtx):
            todo.extend((node.hole_side, *node.tail))
        elif isinstance(node, TailCtx):
            todo.extend((node.head, node.rest))
        elif isinstance(node, NamePat):
            todo.append(node.pattern)
        elif isinstance(node, InHolePat):
            todo.extend((node.context_pat, node.hole_pat))
        else:
            continue
        out.append(node)
    return out


HASH_SRC = """
import pickle, sys
from redsem import CtxTerm, parse_term
from redsem.language import to_context
values = [
    parse_term("((λ x x) (a (b c)) 7 #t)"),
    CtxTerm(to_context(parse_term("((λ x x) (a (hole c)))"))),
    to_context(parse_term("((hole (b c)) d)")),
    to_context(parse_term("(a (b (hole c)) d)")),
]
if sys.argv[1] == "dump":
    [hash(v) for v in values]
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    print([type(v).__name__ for v in loaded])
    print([v._hash is None for v in loaded])
    print([v in {w} for v, w in zip(loaded, values)])
"""


@pytest.mark.parametrize(
    "kind",
    ["ListTerm", "CtxTerm", "HeadCtx", "TailCtx", "ListPat", "NamePat", "InHolePat"],
)
class TestHashCache:
    @given(seeds, seeds)
    def test_equal_values_hash_equal_whatever_was_hashed_first(self, kind, s, order):
        x, twin = hash_sample(kind, s), hash_sample(kind, s)
        assert type(x).__name__ == kind
        nodes, twins = cached_nodes(x), cached_nodes(twin)
        assert all(n._hash is None for n in nodes)
        # x's parts in a random order, some of them never; twin's from its root
        picked = random.Random(order).sample(nodes, len(nodes) // 2)
        for node in picked:
            hash(node)
        assert hash(twin) == hash(x)
        assert [hash(n) for n in nodes] == [hash(n) for n in twins]

    @given(seeds)
    def test_hash_is_the_hash_of_the_field_getter(self, kind, s):
        for node in cached_nodes(hash_sample(kind, s)):
            got = attrgetter(*node.__match_args__)(node)
            assert hash(node) == hash(got)
            assert node._hash == hash(got)

    @given(seeds)
    def test_cache_takes_no_part_in_eq_or_repr(self, kind, s):
        x, twin = hash_sample(kind, s), hash_sample(kind, s)
        hash(x)
        assert x == twin and repr(x) == repr(twin) and twin._hash is None
        object.__setattr__(x, "_hash", 12345)
        assert x == twin and twin == x and repr(x) == repr(twin)
        assert "_hash" not in repr(x) and "12345" not in repr(x)

    @given(seeds)
    @settings(max_examples=30)
    def test_pickle_and_deepcopy_drop_the_cache(self, kind, s):
        x = hash_sample(kind, s)
        hash(x)
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert all(n._hash is None for n in cached_nodes(y))
            assert y == x and hash(y) == hash(x)


# a fresh value 450 levels deep; the first hash of each node recurses
# into its fields
DEEP_HASH = """
import sys
from operator import attrgetter
from redsem import HOLE_PAT, ListTerm, Literal, NamePat
assert sys.getrecursionlimit() == 1000
a = Literal("a")
t, p = a, HOLE_PAT
for _ in range(450):
    t, p = ListTerm((t, a)), NamePat("q", p)
for v in (t, p):
    assert v._hash is None
    h = hash(v)
    assert h == v._hash == hash(attrgetter(*v.__match_args__)(v))
print("hashed")
"""


def test_a_first_hash_takes_one_frame_a_level():
    # `_record._cached` reads the fields through its getter before it
    # hashes them, so a nested value's first hash goes as deep as an
    # uncached one: 497 levels on 3.10 and 3.11, where calling a template
    # that hashes would stop it at 331
    src = os.path.dirname(os.path.dirname(redsem.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_HASH],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "hashed\n"


# two left-nested chains 310 deep, built separately, so that `==` walks
# every level rather than stopping at a shared node
DEEP_EQ = """
import sys
from redsem import ListTerm, Literal
assert sys.getrecursionlimit() == 1000

def chain(innermost):
    t = Literal(innermost)
    for _ in range(310):
        t = ListTerm((t, Literal("b")))
    return t

x, twin, other = chain("a"), chain("a"), chain("c")
print(x.items[0] is twin.items[0], x == twin, twin == x, x == other, x != other)
"""


def test_equality_of_deep_values_takes_one_comparison_a_level():
    # a one-field record compares its field itself, not the 1-tuple of it:
    # `==` first fails at 332 levels on 3.10 and 3.11 and at 374 on 3.12,
    # where wrapping each side in a tuple stopped it at 249 and 300
    src = os.path.dirname(os.path.dirname(redsem.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_EQ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True True False True\n"


def list_nodes(x):
    """Every list term of x, in or out of its contexts."""
    return [n for n in cached_nodes(x) if isinstance(n, ListTerm)]


class TestTextCache:
    # print_term keeps a list term's text in its _text slot
    @given(seeds)
    def test_cache_takes_no_part_in_eq_hash_or_repr(self, s):
        x, twin = hash_sample("ListTerm", s), hash_sample("ListTerm", s)
        assert print_term(x) == references.print_term(x)
        assert all(hasattr(n, "_text") for n in list_nodes(x))
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        object.__setattr__(x, "_text", "(kept)")
        assert x == twin and twin == x and hash(x) == hash(twin)
        assert repr(x) == repr(twin) and "kept" not in repr(x)

    @given(seeds)
    @settings(max_examples=30)
    def test_pickle_and_deepcopy_drop_the_cache(self, s):
        x = hash_sample("ListTerm", s)
        text = print_term(x)
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert not any(hasattr(n, "_text") for n in list_nodes(y))
            assert y == x and print_term(y) == text

    @given(seeds)
    def test_an_equal_but_distinct_node_builds_its_own_text(self, s):
        x, twin = hash_sample("ListTerm", s), hash_sample("ListTerm", s)
        text = print_term(x)
        assert not any(hasattr(n, "_text") for n in list_nodes(twin))
        assert print_term(twin) == text
        assert all(hasattr(n, "_text") for n in list_nodes(twin))

    def test_threads_printing_one_shared_node_get_the_same_bytes(self):
        # four threads, more than the cores of a small host, print the same
        # fresh chain, 100 nodes deep, at once and switch often; whichever
        # keeps a node's text last, each reads the reference printer's bytes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in (1, 2, 3):
                t = rnd_term(seed)
                for k in range(100):
                    t = ListTerm((rnd_term(seed + k, 2), t))
                start, got = threading.Barrier(4), []

                def work():
                    start.wait(timeout=60)
                    got.append(print_term(t))

                workers = [threading.Thread(target=work) for _ in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                    assert not w.is_alive()
                assert got == [references.print_term(t)] * 4
                assert print_term(t) == got[0]
        finally:
            sys.setswitchinterval(interval)


def test_a_value_pickled_under_one_hash_seed_is_found_under_another():
    # one value of each of the four classes, hashed before pickling
    src = os.path.dirname(os.path.dirname(redsem.__file__))

    def run(seed, mode, data):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SRC, mode],
            input=data,
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out = run("2", "load", run("1", "dump", b"")).decode().splitlines()
    assert out == [
        "['ListTerm', 'CtxTerm', 'HeadCtx', 'TailCtx']",
        "[True, True, True, True]",
        "[True, True, True, True]",
    ]
