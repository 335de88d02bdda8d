"""Seeded mutants of the matcher's edges, each of which the tests must kill.

Run from the repository root with `python tests/mutants.py`.  Each
mutant is one string replacement in `src/redsem/matching.py`: in `child`,
which builds the goal of every edge of the judgment from the fact of the
rule that makes it, in `hole_side_mask`, which states the hole side's
mask for `child` and for `ev`'s reading of a filter query, or in `ev`,
which yields those facts.  At least one mutant changes each kind of
fact.  A mutant runs in its own copy of the tree: first the property
test that puts every goal `child` builds below its parent in the tuple
order, then, if that passes, the matching and acceptance tests,
stopping at the first failure.  It prints the test
that kills each mutant, and exits 1 when a mutant survives or when only
its timeout stops it; 2 when the unmutated tree fails the same tests.
Needs only the standard library, pytest and hypothesis.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join("src", "redsem", "matching.py")
PROPERTY = ["tests/test_matching.py::TestChild"]
BEHAVIOUR = ["tests/test_matching.py", "tests/test_acceptance.py"]
TIMEOUT = 120  # seconds per mutant, both runs together

# name -> (text of the unmutated source, its replacement); each text
# occurs exactly once
MUTANTS = {
    "production edge keeps its mask": (
        "return t, rhs, m ^ (live & -live)",
        "return t, rhs, m",
    ),
    "production edge clears the highest live bit": (
        "return t, rhs, m ^ (live & -live)",
        "return t, rhs, m ^ (1 << live.bit_length() >> 1)",
    ),
    "list edge goes to item i+1 (ev)": (
        "r = yield (i, items), filt",
        "r = yield (i + 1, items), filt",
    ),
    "list item under the current mask": (
        "return items[i], p.items[i], orig",
        "return items[i], p.items[i], m",
    ),
    "hole side under the original grammar after a bare hole": (
        "return m if isinstance(c, Hole) else orig",
        "return orig",
    ),
    "hole side under the current mask after a proper split": (
        "return m if isinstance(c, Hole) else orig",
        "return m",
    ),
    "name body goes to the name pattern itself": (
        "return t, p.pattern if isinstance(p, NamePat) else p.context_pat, m",
        "return t, p if isinstance(p, NamePat) else p.context_pat, m",
    ),
    "context side goes to the hole pattern": (
        "return t, p.pattern if isinstance(p, NamePat) else p.context_pat, m",
        "return t, p.pattern if isinstance(p, NamePat) else p.hole_pat, m",
    ),
}

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def copy_tree(dest):
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=IGNORE)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def first_failure(tree, tests, timeout):
    """The first test of tests that fails in tree, None when all pass, or
    "timeout" when the run outlives timeout seconds."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    found = FAILED.search(proc.stdout)
    return found.group(1) if found else f"pytest exit {proc.returncode}"


def killer(tree):
    """The test that kills tree, property test first, within TIMEOUT."""
    start = time.monotonic()
    for tests in (PROPERTY, BEHAVIOUR):
        left = TIMEOUT - (time.monotonic() - start)
        if left <= 0:
            return "timeout"
        failed = first_failure(tree, tests, left)
        if failed is not None:
            return failed
    return None


def main():
    with open(os.path.join(ROOT, SOURCE), encoding="utf-8") as f:
        source = f.read()
    for name, (old, _) in MUTANTS.items():
        if source.count(old) != 1:
            sys.exit(f"mutant {name!r}: its text occurs {source.count(old)} times")
    with tempfile.TemporaryDirectory() as scratch:
        base = os.path.join(scratch, "base")
        copy_tree(base)
        failed = killer(base)
        if failed is not None:
            print(f"unmutated tree: {failed}")
            return 2
        survivors = 0
        for k, (name, (old, new)) in enumerate(MUTANTS.items()):
            tree = os.path.join(scratch, f"mutant{k}")
            shutil.copytree(base, tree, ignore=IGNORE)
            with open(os.path.join(tree, SOURCE), "w", encoding="utf-8") as f:
                f.write(source.replace(old, new))
            start = time.monotonic()
            failed = killer(tree)
            took = time.monotonic() - start
            shutil.rmtree(tree)
            if failed in (None, "timeout"):
                survivors += 1
            print(f"{name}: {failed or 'SURVIVED'} ({took:.1f} s)", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
