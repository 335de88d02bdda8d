"""Compare the oracle with its generate-and-filter reference on 30,000 cases.

The reference (`references.FilteredInHoleSearch`) proves an in-hole
decomposition goal by trying every pair of splits and keeping those whose
contexts compose to the goal's; the oracle walks the factorizations of the
goal's context.  On each case of `genterms.oracle_case`, drawn from fixed
seeds, the two must give the same `oracle_match` and `oracle_decompose`
answers, with and without the case's current grammar, and the same
`oracle_match_original` outcome, where a raised OracleFuelError counts as
the outcome.  Tier-1 runs the first `SLICE` seeds of the same stream
(tests/test_oracle.py); this script runs them all:

    PYTHONPATH=src python tests/check_oracle_reference.py

It prints one line per disagreement and exits 1 if there is any.
"""

from __future__ import annotations

import random
import sys

from genterms import oracle_case
from redsem import OracleFuelError, oracle_decompose, oracle_match, oracle_match_original
from references import (
    filtered_oracle_decompose,
    filtered_oracle_match,
    filtered_oracle_match_original,
)

SEEDS = range(60)
SLICE = 4
CASES_PER_SEED = 500


def outcome(search, *args):
    try:
        return search(*args)
    except OracleFuelError:
        return OracleFuelError


def disagreements(seed: int):
    """The cases drawn from `seed` on which the oracle and the reference
    differ, each as (index, search, grammar, term, pattern, current)."""
    rng = random.Random(seed)
    for i in range(CASES_PER_SEED):
        g, t, p, current = oracle_case(rng)
        for cur in (None, current) if current is not None else (None,):
            if oracle_match(g, t, p, cur) != filtered_oracle_match(g, t, p, cur):
                yield i, "oracle_match", g, t, p, cur
            if oracle_decompose(g, t, p, cur) != filtered_oracle_decompose(g, t, p, cur):
                yield i, "oracle_decompose", g, t, p, cur
        ungeneralized = outcome(oracle_match_original, g, t, p)
        if ungeneralized != outcome(filtered_oracle_match_original, g, t, p):
            yield i, "oracle_match_original", g, t, p, None


def main() -> int:
    found = 0
    for seed in SEEDS:
        for case in disagreements(seed):
            found += 1
            print(f"seed {seed}:", *case)
    print(f"{found} disagreements in {len(SEEDS) * CASES_PER_SEED} cases")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
