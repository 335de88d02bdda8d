"""Compare the engine with the oracle on the chains the benchmark measures.

The chains benchmark cross-checks the oracle only up to n = 8.  This
script checks that the engine's `matches` or `decompose` answer equals
the oracle's `oracle_match` or `oracle_decompose` answer on right and
left chains of the bundled lambda calculus (tests/fixtures/lambda.sexp):

- on every rung of the chains ladder up to 64, the chain ladder's 48
  included, and on right chain 100: the redex pattern's matches, and
  both the matches and the splits of `(nt E)` and of `(nt e)`;
- on every rung up to 16: the splits of the nested pattern, whose
  oracle search grows fastest.

The redex pattern's splits are left out: their oracle search takes
16-18 s at n = 64.  Tier-1 does not collect this script; it takes about
20 s on a 2-core x86 host:

    PYTHONPATH=src python tests/check_chain_agreement.py

It prints one line per query with its oracle time, and exits 1 if any
answer differs.
"""

from __future__ import annotations

import os
import sys
import time

from redsem import (
    decompose,
    load_language,
    matches,
    oracle_decompose,
    oracle_match,
    parse_pattern,
    parse_term,
)

LAMBDA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "lambda.sexp")
RUNGS = (1, 2, 3, 4, 6, 8, 12, 16, 32, 48, 64)
PATTERNS = {
    "redex": "(in-hole (name E (nt E)) ((name f (nt v)) (name a (nt v))))",
    "E": "(nt E)",
    "e": "(nt e)",
    "nested": "(in-hole (nt E) (in-hole ((nt v) (nt E)) hole))",
}
SEARCHES = {"match": (matches, oracle_match), "decompose": (decompose, oracle_decompose)}
# (pattern, query, rungs of both shapes, further rungs of right chains)
QUERIES = [
    ("redex", "match", RUNGS, (100,)),
    ("E", "match", RUNGS, (100,)),
    ("E", "decompose", RUNGS, (100,)),
    ("e", "match", RUNGS, (100,)),
    ("e", "decompose", RUNGS, (100,)),
    ("nested", "decompose", RUNGS[: RUNGS.index(16) + 1], ()),
]


def chain(shape: str, n: int):
    """Right chain n, ((λ v v) (... ((λ x x) (λ x x)))), or its mirror
    image, left chain n; the identities take x y z w f g in turn."""
    src = "(λ x x)"
    for i in range(1, n + 1):
        v = "xyzwfg"[i % 6]
        src = f"((λ {v} {v}) {src})" if shape == "right" else f"({src} (λ {v} {v}))"
    return parse_term(src)


def main() -> int:
    grammar = load_language(LAMBDA).grammar
    wrong = 0
    for name, query, rungs, extra in QUERIES:
        p = parse_pattern(PATTERNS[name])
        engine, oracle = SEARCHES[query]
        for shape in ("right", "left"):
            for n in rungs + (extra if shape == "right" else ()):
                t = chain(shape, n)
                start = time.perf_counter()
                want = oracle(grammar, t, p)
                took = time.perf_counter() - start
                same = engine(grammar, t, p) == want
                wrong += not same
                verdict = "agree" if same else "DISAGREE"
                print(f"{query} {name} {shape} {n}: {verdict}, {len(want)} answers,"
                      f" oracle {took:.2f} s", flush=True)
    print(f"{wrong} disagreements")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
