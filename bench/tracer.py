"""In-memory span tracer that wraps the engine's public functions.

`Tracer.install()` replaces every public, non-generator function defined
in the traced `redsem` modules by a timing wrapper, at every module-level
name it is bound to, so calls are caught under the name their callers look
them up by (`redsem.matching.remove_prod` as well as
`redsem.grammar.remove_prod`).  `uninstall()` puts the originals back.
Nothing under `src/` is modified.

Every call adds to per-function totals (calls, inclusive time, self time).
Self time is a call's duration minus the time covered by its traced
children.  Calls at most `MAX_SPAN_DEPTH` traced levels below the
operation's root are also kept as spans (id, parent, operation, name,
start, end); deeper calls -- the matcher's hot helpers -- are only
totalled, which bounds memory on deep queries.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
import types

TRACED_MODULES = (
    "redsem.cli",
    "redsem.language",
    "redsem.matching",
    "redsem.grammar",
    "redsem.terms",
    "redsem.oracle",
    "redsem.reduction",
)
MAX_SPAN_DEPTH = 3


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.spans: list[tuple] = []
        self.hooks: dict = {}  # name -> fn(tracer, parent, args, kwargs, result)
        self.counts: dict[str, int] = {}
        self.times: dict[str, float] = {}
        self._stack: list[list] = []  # [child seconds, span id, name]
        self._op = -1
        self._op_start = 0.0
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add_time(self, key: str, seconds: float) -> None:
        self.times[key] = self.times.get(key, 0.0) + seconds

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.clear()
        self._stack.append([0.0, next(self._ids), "bench.op"])
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        root = self._stack[0] if self._stack else None
        self._stack.clear()
        if root is not None:
            self.spans.append((root[1], None, self._op, "bench.op", self._op_start, end))

    def _wrap(self, name: str, fn):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, None, name]
            keep = parent is not None and len(stack) <= MAX_SPAN_DEPTH
            if keep:
                frame[1] = next(tracer._ids)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep:
                    tracer.spans.append(
                        (frame[1], parent[1], tracer._op, name, start, end)
                    )
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(tracer, parent[2] if parent else None, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "redsem" or n.startswith("redsem.")]
        wrappers: dict[int, object] = {}
        for modname in TRACED_MODULES:
            mod = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == modname
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- reading ---------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def write(self, path: str, info: dict) -> None:
        """Write spans (one JSON object per line) after a header line."""
        with open(path, "w", encoding="utf-8") as f:
            header = dict(info, functions={k: v for k, v in sorted(self.stats.items())})
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
