"""The benchmark's three workloads and the checks on their answers.

A workload builds rounds of operations from a seeded RNG.  Each operation
has a zero-argument `call` that does the measured work through the
engine's public entry points, looked up at call time so a tracer can
intercept them, and a `check` that compares the answer with a reference
that does not come from the engine.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

import redsem.cli
import redsem.matching
import redsem.oracle
from redsem.language import print_pattern, print_term

import genterms
import reference as ref


@dataclass
class Op:
    label: str  # request class: shape, command and pattern or language
    size: int
    call: Callable[[], object]
    check: Callable[[object], bool]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI request in process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = redsem.cli.run_cli(argv)
    return code, out.getvalue()


def lines_text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


class Workload:
    name = ""
    fixed_requests = True  # every round runs the same requests

    def __init__(self, cfg: dict, bench_dir: str, rng):
        self.cfg = cfg
        self.bench_dir = bench_dir
        self.rng = rng
        self._fixed: list[Op] | None = None

    def path(self, rel: str) -> str:
        return os.path.join(self.bench_dir, rel)

    @staticmethod
    def names(k: int) -> list[str]:
        """k variable names: x y z w f g in turn.

        Matching a variable costs more the later its production comes in
        the grammar, by up to 13% on a small request, so names drawn from
        the seed would make a request's cost depend on the seed.
        """
        return [ref.VARS[i % len(ref.VARS)] for i in range(k)]

    def preflight(self) -> list[str]:
        """Reference cross-checks made once per run, outside the measurement."""
        return []

    def fixed_ops(self) -> list[Op]:
        """The requests of every round, for workloads whose inputs are fixed."""
        raise NotImplementedError

    def build_round(self) -> list[Op]:
        """The operations of the next round: the fixed requests, shuffled."""
        if self._fixed is None:
            self._fixed = self.fixed_ops()
        ops = list(self._fixed)
        self.rng.shuffle(ops)
        return ops

    def size_slope(self, by_class: dict) -> float:
        """Log-log slope of latency against input size, from {(label, size): ms}."""
        labels = {label for label, _ in by_class if label.startswith("right")}
        points = []
        for n in self.cfg["slope_sizes"]:
            total = sum(statistics.median(by_class[(lab, n)]) for lab in labels if (lab, n) in by_class)
            points.append((n, total))
        return loglog_slope(points)


class Chains(Workload):
    """match/decompose on right and left chains of identity applications."""

    name = "chains"

    def __init__(self, cfg, bench_dir, rng):
        super().__init__(cfg, bench_dir, rng)
        self.lang = self.path(cfg["languages"][0])

    def request(self, req: dict, n: int) -> tuple[list[str], str, int]:
        """argv, expected stdout and expected exit code for one request."""
        names = self.names(n + 1)
        term = ref.right_chain(names) if req["shape"] == "right" else ref.left_chain(names)
        pattern = self.cfg["patterns"][req["pattern"]]
        if req["command"] == "match":
            lines = ref.match_lines(term, pattern)
        else:
            lines = ref.decompose_lines(term, pattern)
        if req["pattern"] == "E":
            expect = 2 * n + 1 if req["shape"] == "right" else n + 2
            if len(lines) != expect:
                raise RuntimeError(f"reference gives {len(lines)} splits for {req} n={n}")
        argv = [req["command"], "-g", self.lang, "-p", pattern, "-t", ref.show(term)]
        return argv, lines_text(lines), 0 if lines else 1

    def preflight(self) -> list[str]:
        problems = []
        for req in self.cfg["requests"]:
            for n in self.cfg["oracle_check_sizes"]:
                argv, text, code = self.request(req, n)
                if run_cli(argv + ["--oracle"]) != (code, text):
                    problems.append(f"oracle cross-check failed: {req} n={n}")
        return problems

    def fixed_ops(self) -> list[Op]:
        ops = []
        for req in self.cfg["requests"]:
            label = f"{req['shape']}:{req['command']}:{req['pattern']}"
            for n in req["sizes"]:
                argv, text, code = self.request(req, n)
                ops.append(
                    Op(label, n, lambda argv=argv: run_cli(argv),
                       lambda out, want=(code, text): out == want)
                )
        return ops


class Trace(Workload):
    """`redsem trace` on deep (right chain) and wide (balanced tree) graphs."""

    name = "trace"

    def fixed_ops(self) -> list[Op]:
        ops = []
        for req in self.cfg["requests"]:
            lang = self.path(req["language"])
            nd = req["language"].endswith("_nd.sexp")
            for n in req["sizes"]:
                if req["shape"] == "right":
                    term = ref.right_chain(self.names(n + 1))
                    steps = n + 1
                else:
                    term = ref.balanced_tree(self.names(2**n), n)
                    steps = req["max_steps"]
                graph = ref.trace_graph(term, nd, steps)
                argv = ["trace", "-g", lang, "-t", ref.show(term), "--max-steps", str(steps)]
                if nd:
                    want = ref.canonical_trace(ref.trace_text(graph))
                    check = lambda out, want=want: out[0] == 0 and ref.canonical_trace(out[1]) == want
                else:
                    want = (0, ref.trace_text(graph))
                    check = lambda out, want=want: out == want
                label = f"{req['shape']}:trace:{'nd' if nd else 'cbv'}:{steps if nd else ''}"
                ops.append(Op(label, n, lambda argv=argv: run_cli(argv), check))
        return ops


class Corpus(Workload):
    """Engine and oracle on random (grammar, term, pattern) cases."""

    name = "corpus"
    fixed_requests = False

    def __init__(self, cfg, bench_dir, rng):
        super().__init__(cfg, bench_dir, rng)
        self.skipped = 0

    def oracle_in_budget(self, g, t, p) -> bool:
        """Whether the oracle answers the case within `oracle_split_budget`
        calls of enumerate_decompositions: a count, so the same cases pass
        on every host.  The engine is not involved."""
        oracle = redsem.oracle
        enumerate_decompositions = oracle.enumerate_decompositions
        calls = 0

        def counted(term):
            nonlocal calls
            calls += 1
            if calls > self.cfg["oracle_split_budget"]:
                raise _OverBudget()
            return enumerate_decompositions(term)

        oracle.enumerate_decompositions = counted
        try:
            oracle.oracle_match(g, t, p)
            oracle.oracle_decompose(g, t, p)
            return True
        except _OverBudget:
            return False
        finally:
            oracle.enumerate_decompositions = enumerate_decompositions

    def build_round(self) -> list[Op]:
        ops = []
        while len(ops) < self.cfg["round_cases"]:
            g, t, p = genterms.gen_case(self.rng)
            if not self.oracle_in_budget(g, t, p):
                self.skipped += 1
                continue
            size = ref.count_nodes(print_term(t)) + ref.count_nodes(print_pattern(p))
            ops.append(Op("case", size, lambda g=g, t=t, p=p: corpus_case(g, t, p),
                          corpus_agrees))
        return ops

    def size_slope(self, by_class):
        buckets: dict[int, list[float]] = {}
        for (_, size), ms in by_class.items():
            buckets.setdefault(2 ** int(math.log2(size)), []).extend(ms)
        points = [(b * math.sqrt(2), statistics.median(v)) for b, v in buckets.items() if len(v) >= 20]
        return loglog_slope(points)


class _OverBudget(Exception):
    pass


def corpus_case(g, t, p):
    return (
        redsem.matching.matches(g, t, p),
        redsem.matching.decompose(g, t, p),
        redsem.oracle.oracle_match(g, t, p),
        redsem.oracle.oracle_decompose(g, t, p),
    )


def corpus_agrees(out) -> bool:
    engine_match, engine_decompose, oracle_match, oracle_decompose = out
    return engine_match == oracle_match and engine_decompose == oracle_decompose


WORKLOADS = {w.name: w for w in (Chains, Corpus, Trace)}
