#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the redsem engine.

    python3 bench/run.py --workload chains|corpus|trace --seed N --seconds S --trace 0|1

Run from anywhere; the engine is imported from `src/` next to this
directory and nowhere else.  Workloads and their sizes are in
`bench/config.json`; see `bench/README.md` for what each metric means.

`--trace 0` measures the end-to-end metrics: a closed loop, one client,
single-threaded, in this process, for about `--seconds` seconds of whole
rounds.  `--trace 1` runs one round untraced and then twice with every
public engine function wrapped by `tracer.Tracer`, and reports the
per-layer metrics.  Either way the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment (Python version, nproc) and details of the run.
Spans and results are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array

from speed import Speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Times `import redsem` and the language loads in a fresh interpreter,
# between two samples of the speed kernel taken in the same process.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
before = speed.kernel_time(5)
t0 = time.perf_counter()
import redsem
t1 = time.perf_counter()
for path in sys.argv[2:]:
    redsem.load_language(path)
t2 = time.perf_counter()
print(t1 - t0, t2 - t0, before, speed.kernel_time(5))
"""

CLI_CHILD = "from redsem.cli import main; main()"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_engine() -> None:
    if not os.path.isfile(os.path.join(SRC, "redsem", "__init__.py")):
        fail(f"no engine source at {SRC}")
    sys.path.insert(0, SRC)
    import redsem

    if not os.path.abspath(redsem.__file__).startswith(SRC + os.sep):
        fail(f"redsem was imported from {redsem.__file__}, not from {SRC}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")


# -- running one operation under the per-operation limit --------------------


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that exceeded its limit."""


class Limiter:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def run(self, call, limit: float):
        """(output, error name or None, start, seconds) of call(), stopped at limit."""
        out, err, seconds = None, None, None
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            try:
                out = call()
            finally:
                seconds = time.perf_counter() - start
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            err = "timeout"
        except Exception as e:  # any failure of the engine is an undecided operation
            err = type(e).__name__
        # Disarm again: an alarm that fires inside the finally block above
        # skips the rest of it.
        signal.setitimer(signal.ITIMER_REAL, 0)
        if seconds is None:
            seconds = time.perf_counter() - start
        if err is None and seconds > limit:
            err = "timeout"
        return out, err, start, seconds


class Outcome:
    __slots__ = ("out", "err", "start", "seconds", "scaled", "decided", "wrong")

    def __init__(self, out, err, start, seconds, ok):
        self.out, self.err, self.start, self.seconds = out, err, start, seconds
        self.scaled = seconds
        self.decided = ok
        self.wrong = err is None and not ok

    def charged_s(self, limit: float) -> float:
        """Nominal-speed seconds if decided, else the limit."""
        return self.scaled if self.decided else limit


def run_ops(ops, limiter, limit, speed=None, tracer=None, only=None, keep=False):
    """Run ops in order; outputs are kept only when keep is set."""
    outcomes = {}
    if speed is not None:
        speed.start()
    for i, op in enumerate(ops):
        if only is not None and i not in only:
            continue
        if tracer is not None:
            tracer.begin_op(i)
        out, err, start, seconds = limiter.run(op.call, limit)
        if tracer is not None:
            tracer.end_op()
        ok = err is None and op.check(out)
        outcomes[i] = Outcome(out if keep else None, err, start, seconds, ok)
    if speed is not None:
        speed.stop()
        first = 0
        for o in outcomes.values():
            o.scaled, first = speed.scaled(o.start, o.start + o.seconds, first)
    return outcomes


# -- checks made once per run ------------------------------------------------


def measure_setup(languages: list[str], samples: int, nominal_s: float):
    """Fresh-interpreter set-up: import + load seconds, speed-scaled and raw;
    import seconds."""
    total, raw, imports = [], [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, BENCH_DIR, *languages],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        imp, both, before, after = map(float, proc.stdout.split())
        imports.append(imp)
        raw.append(both)
        total.append(both * nominal_s / ((before + after) / 2))
    return total, raw, imports


def subprocess_identity() -> list[str]:
    """In-process run_cli must print the same bytes as a `redsem` process.

    `redsem` is the console script for `redsem.cli:main`; the child runs
    exactly that entry point.
    """
    import reference as ref
    from workloads import run_cli

    lam = os.path.join(BENCH_DIR, "inputs", "lambda.sexp")
    nd = os.path.join(BENCH_DIR, "inputs", "lambda_nd.sexp")
    chain = ref.show(ref.right_chain(["x", "y", "z"]))
    requests = [
        ["match", "-g", lam, "-p", ref.REDEX_PATTERN, "-t", chain],
        ["decompose", "-g", lam, "-p", "(nt E)", "-t", ref.show(ref.left_chain(["x", "y", "z"]))],
        ["plug", "-c", "((λ x x) hole)", "-t", "(λ y y)"],
        ["reduce", "-g", lam, "-t", chain],
        ["trace", "-g", nd, "-t", ref.show(ref.balanced_tree(["x", "y", "z", "w"], 2))],
        ["check-grammar", "-g", nd],
    ]
    problems = []
    for argv in requests:
        code, text = run_cli(argv)
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *argv],
            env=child_env(), cwd=ROOT, capture_output=True, timeout=120,
        )
        if (proc.returncode, proc.stdout) != (code, text.encode("utf-8")):
            problems.append(f"in-process and subprocess output differ for {argv[0]}")
    return problems


# -- statistics ---------------------------------------------------------------


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights, so the estimate does not jump when noise reorders the few
    samples next to the p-th one (Harrell & Davis, Biometrika 69, 1982).
    Weights beyond 12 standard deviations of the Beta are below 1e-30 and
    are skipped.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / n)
    lo = max(0, math.floor((p - 12 * sd) * n))
    hi = min(n, math.ceil((p + 12 * sd) * n))
    total, below = 0.0, _betainc(a, b, lo / n)
    for i in range(lo, hi):
        upto = _betainc(a, b, (i + 1) / n)
        total += (upto - below) * x[i]
        below = upto
    return total


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def clamp(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 100_000):
        num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / clamp(1.0 + num * d)
        c = clamp(1.0 + num / c)
        h *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 / clamp(1.0 + num * d)
        c = clamp(1.0 + num / c)
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- trace 0: end-to-end ---------------------------------------------------------


def end_to_end(wl, cfg, args, limiter, speed, info) -> tuple[dict, int, int, bool]:
    limit = cfg["per_op_limit_s"]
    # Compact per-operation records, so the benchmark's own memory hardly
    # grows with the number of operations a faster engine fits in a run.
    ms, raw_ms = array("d"), array("d")  # charged ms, scaled and unscaled
    by_class: dict[tuple[str, int], array] = {}  # (label, size) -> charged ms
    throughputs, raw_throughputs = [], []  # per round ops/s
    attempted = failed = rounds = 0
    correct = True
    undecided: dict[str, int] = {}
    start = time.perf_counter()
    while True:
        ops = wl.build_round()
        charged = raw_charged = 0.0
        for i, o in run_ops(ops, limiter, limit, speed).items():
            op = ops[i]
            ms.append(o.charged_s(limit) * 1000)
            by_class.setdefault((op.label, op.size), array("d")).append(ms[-1])
            charged += o.charged_s(limit)
            raw = o.seconds if o.decided else limit
            raw_ms.append(raw * 1000)
            raw_charged += raw
            attempted += 1
            if not o.decided:
                failed += 1
                key = f"{op.label}:{op.size}:{o.err or 'wrong answer'}"
                undecided[key] = undecided.get(key, 0) + 1
            correct &= not o.wrong
        throughputs.append(len(ops) / charged)
        raw_throughputs.append(len(ops) / raw_charged)
        del ops
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= wl.cfg["min_rounds"] and elapsed + elapsed / rounds / 2 >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if hasattr(wl, "skipped"):
        info["corpus_skipped"] = wl.skipped
    level = wl.cfg["tail_percentile"]
    # The median is taken over requests: on the fixed-request workloads
    # each request's latency is first its median over the rounds, so the
    # estimate's weights do not depend on how many rounds fitted in.
    if wl.fixed_requests:
        per_request = [statistics.median(v) for v in by_class.values()]
    else:
        per_request = ms
    info.update(rounds=rounds, measured_s=elapsed, samples=len(ms), tail_percentile=level,
                tail_samples_beyond=math.floor(len(ms) * (1 - level / 100)), undecided=undecided,
                unscaled={"op_p50_ms": quantile(raw_ms, 0.5),
                          "op_tail_ms": quantile(raw_ms, level / 100),
                          "ops_per_s": statistics.median(raw_throughputs)})
    metrics = {
        "setup_s": None,
        "op_p50_ms": metric(quantile(per_request, 0.5), "ms"),
        "op_tail_ms": metric(quantile(ms, level / 100), "ms"),
        "ops_per_s": metric(statistics.median(throughputs), "1/s"),
        "decided_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "size_slope": metric(wl.size_slope(by_class), "ratio"),
    }
    return metrics, attempted, failed, correct


# -- trace 1: per layer ------------------------------------------------------------


def traced_pass(ops, only, limiter, limit):
    """Run ops with the engine wrapped; also returns the match_decompose calls."""
    from tracer import Tracer

    tracer = Tracer()
    calls, parsed = [], []

    def on_match_decompose(t, parent, args, kwargs, result, dur):
        calls.append((args, kwargs, result))

    def on_splits(t, parent, args, kwargs, result, dur):
        if parent != "oracle.enumerate_decompositions":
            t.add("oracle.splits", len(result))

    def on_engine(t, parent, args, kwargs, result, dur):
        if parent == "bench.op":
            t.add_time("engine", dur)
        elif parent == "reduction.apply_rule":
            t.add_time("match_in_step", dur)

    def on_oracle(t, parent, args, kwargs, result, dur):
        if parent == "bench.op":
            t.add_time("oracle", dur)

    def on_parse(t, parent, args, kwargs, result, dur):
        parsed.append(args[0])

    tracer.hooks.update({
        "matching.match_decompose": on_match_decompose,
        "oracle.enumerate_decompositions": on_splits,
        "matching.matches": on_engine,
        "matching.decompose": on_engine,
        "oracle.oracle_match": on_oracle,
        "oracle.oracle_decompose": on_oracle,
        "language.parse_term": on_parse,
        "language.parse_pattern": on_parse,
        "language.parse_language": on_parse,
    })
    tracer.install()
    try:
        start = time.perf_counter()
        outcomes = run_ops(ops, limiter, limit, tracer=tracer, only=only, keep=True)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    import reference as ref

    raw = sum(len(result) for _, _, result in calls)
    distinct = sum(len(set(result)) for _, _, result in calls)
    tracer.add("matching.raw", raw)
    tracer.add("matching.distinct", distinct)
    tracer.add("language.parse_nodes", sum(ref.count_nodes(src) for src in parsed))
    for o in outcomes.values():
        if o.err is None and isinstance(o.out, tuple) and isinstance(o.out[1], str):
            text = o.out[1]
            tracer.add("reduction.trace_nodes", text.count("(node "))
            tracer.add("reduction.cycle_leaves", text.count(" cycle)\n"))
    return tracer, outcomes, wall, calls


def replay(calls, flag: bool, limiter, limit) -> tuple[float, bool]:
    """Seconds to repeat the recorded match_decompose calls, and agreement."""
    import redsem.matching

    total, same = 0.0, True
    for args, kwargs, result in calls:
        kw = dict(kwargs, debug=flag)
        out, err, _, seconds = limiter.run(
            lambda: redsem.matching.match_decompose(*args, **kw), limit
        )
        total += seconds
        same &= err is None and out == result
    return total, same


def per_layer(wl, cfg, args, limiter, info, import_ms) -> tuple[dict, int, int, bool]:
    limit = cfg["per_op_limit_s"]
    ops = []
    for _ in range(wl.cfg.get("traced_rounds", 1)):
        ops += wl.build_round()
    problems = info["problems"]

    start = time.perf_counter()
    plain = run_ops(ops, limiter, limit, keep=True)
    plain_wall = time.perf_counter() - start
    finished = {i for i, o in plain.items() if o.err != "timeout"}
    traced_limit = limit * cfg["traced_limit_factor"]
    a, a_out, a_wall, calls = traced_pass(ops, finished, limiter, traced_limit)
    b, b_out, _, _ = traced_pass(ops, finished, limiter, traced_limit)

    def counts(t):
        return {name: stat[0] for name, stat in t.stats.items()}, t.counts

    if counts(a) != counts(b):
        problems.append("two traced passes gave different counts")
    for i in finished:
        if not (plain[i].err == a_out[i].err == b_out[i].err and plain[i].out == a_out[i].out == b_out[i].out):
            problems.append(f"traced and untraced outputs differ: {ops[i].label} n={ops[i].size}")
    on_s, on_same = replay(calls, True, limiter, traced_limit)
    off_s, off_same = replay(calls, False, limiter, traced_limit)
    if not (on_same and off_same):
        problems.append("match_decompose results differ between debug on and off")

    untraced_s = sum(plain[i].seconds for i in finished)
    traced_s = sum(a_out[i].seconds for i in finished)
    info.update(ops=len(ops), traced_ops=len(finished), spans=len(a.spans),
                untraced_wall_s=plain_wall, traced_wall_s=a_wall)
    os.makedirs(OUT_DIR, exist_ok=True)
    a.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"), info)

    def ms(seconds):
        return metric(seconds * 1000, "ms")

    def ratio(num, den):
        return metric(num / den if den else 0.0, "ratio")

    def incl(*names):
        return sum(a.stats[n][1] for n in names if n in a.stats)

    c = a.counts
    parse_s = incl("language.parse_term", "language.parse_pattern", "language.parse_language")
    oracle_s = a.times.get("oracle", 0.0)
    metrics = {
        "matching.rec_calls": metric(a.calls("matching.tuple_order_decreases"), "count"),
        "matching.debug_on_ms": ms(on_s),
        "matching.debug_off_ms": ms(off_s),
        "matching.debug_overhead_ratio": ratio(on_s, off_s),
        "matching.raw_results": metric(c["matching.raw"], "count"),
        "matching.distinct_results": metric(c["matching.distinct"], "count"),
        "matching.distinct_ratio": ratio(c["matching.distinct"], c["matching.raw"]),
        "grammar.remove_prod_calls": metric(a.calls("grammar.remove_prod"), "count"),
        "grammar.remove_prod_ms": ms(a.self_s("grammar.remove_prod")),
        "grammar.productions_of_ms": ms(a.self_s("grammar.productions_of")),
        "terms.is_proper_subterm_calls": metric(a.calls("terms.is_proper_subterm"), "count"),
        "terms.is_proper_subterm_ms": ms(a.self_s("terms.is_proper_subterm")),
        "terms.plug_ms": ms(a.self_s("terms.plug")),
        "terms.compose_ms": ms(a.self_s("terms.compose")),
        "oracle.match_ms": ms(incl("oracle.oracle_match")),
        "oracle.decompose_ms": ms(incl("oracle.oracle_decompose")),
        "oracle.splits_enumerated": metric(c.get("oracle.splits", 0), "count"),
        "oracle.engine_time_ratio": ratio(a.times.get("engine", 0.0), oracle_s),
        "reduction.steps": metric(a.calls("reduction.step"), "count"),
        "reduction.step_self_ms": ms(a.self_s("reduction.step")),
        "reduction.instantiate_ms": ms(a.self_s("reduction.instantiate")),
        "reduction.trace_nodes": metric(c.get("reduction.trace_nodes", 0), "count"),
        "reduction.cycle_leaves": metric(c.get("reduction.cycle_leaves", 0), "count"),
        "reduction.match_share": ratio(a.times.get("match_in_step", 0.0), incl("reduction.trace")),
        "language.parse_ms": ms(parse_s),
        "language.parse_nodes_per_s": metric(c["language.parse_nodes"] / parse_s if parse_s else 0.0, "1/s"),
        "language.print_ms": ms(a.self_s(*(n for n in a.stats if n.startswith("language.print_")))),
        "language.load_ms": ms(incl("language.load_language")),
        "cli.run_cli_self_ms": ms(a.self_s("cli.run_cli")),
        "setup.import_ms": metric(import_ms, "ms"),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    attempted = len(ops)
    failed = sum(not o.decided for o in plain.values())
    correct = not any(o.wrong for o in plain.values())
    return metrics, attempted, failed, correct


# -- main ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(BENCH_DIR, "config.json"), encoding="utf-8") as f:
        cfg = json.load(f)
    import_engine()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wcfg = cfg["workloads"][args.workload]
    wl = workloads.WORKLOADS[args.workload](wcfg, BENCH_DIR, random.Random(args.seed))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "per_op_limit_s": cfg["per_op_limit_s"],
        "problems": [],
    }
    languages = [os.path.join(BENCH_DIR, p) for p in wcfg["languages"]]
    samples = cfg["setup_samples_traced" if args.trace else "setup_samples"]
    setup, raw_setup, imports = measure_setup(languages, samples, cfg["speed_nominal_s"])
    info["problems"] += subprocess_identity()
    info["problems"] += wl.preflight()

    limiter = Limiter()
    if args.trace:
        metrics, attempted, failed, correct = per_layer(
            wl, cfg, args, limiter, info, statistics.median(imports) * 1000
        )
    else:
        speed = Speed(cfg["speed_nominal_s"], cfg["speed_interval_s"], cfg["speed_window_s"])
        metrics, attempted, failed, correct = end_to_end(wl, cfg, args, limiter, speed, info)
        metrics["setup_s"] = metric(statistics.median(setup), "s")
        info["unscaled"]["setup_s"] = statistics.median(raw_setup)
        info["speed_kernel_ms"] = {
            "nominal": cfg["speed_nominal_s"] * 1000,
            "median": statistics.median(k for _, k, _ in speed.samples) * 1000,
            "samples": len(speed.samples),
        }
    correct = correct and not info["problems"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump({"info": info, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
