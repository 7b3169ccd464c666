"""Per-layer tracing by wrapping the public functions of each sandpark module.

The program itself carries no instrumentation, so the tracer replaces every
public function (and public method of a class) defined in a layer module by
a timing wrapper.  Python binds imported names per module -- ``is_recurrent``
lives in ``sandpile``, ``parking``, ``enumeration``, ``cli`` and the package
namespace -- so each wrapper is installed in every ``sandpark`` namespace
that holds the original object.  ``uninstall`` puts the originals back.

Spans are aggregated in memory by (operation, name, parent) as they close:
raw spans would run into the millions on the counting workloads.  A span's
self time is its duration minus the time covered by its child spans.
Generator functions (``iter_class``) count one call when created; their time
accrues over every resumption, with the consumer's span as parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("graph", "sandpile", "parking", "families", "enumeration", "cli")
STABILIZE = "sandpile.stabilize"
ITER_CLASS = "enumeration.iter_class"
_DONE = object()


class Tracer:
    def __init__(self):
        self.op = "setup"
        self._stack: list[list] = []          # [name, child seconds]
        self.agg: dict[tuple, list] = {}      # (op, name, parent) -> [calls, total_s, self_s]
        self.samples: dict[str, array] = {}   # name -> span durations (s)
        self.yields: dict[str, int] = {}      # op -> items yielded by iter_class
        self.topplings = 0
        self.log_entries = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, elapsed: float, calls: int) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += elapsed
        key = (self.op, frame[0], parent)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def _sample(self, name: str, elapsed: float) -> None:
        buf = self.samples.get(name)
        if buf is None:
            buf = self.samples[name] = array("d")
        buf.append(elapsed)

    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._close(frame, elapsed, 1)
                tracer._sample(name, elapsed)
            if name == STABILIZE:
                tracer.topplings += sum(result.odometer)
                tracer.log_entries += len(result.log)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            calls = 1
            lifetime = 0.0
            while True:
                frame = tracer._open(name)
                start = perf_counter()
                try:
                    item = next(inner, _DONE)
                finally:
                    elapsed = perf_counter() - start
                    tracer._close(frame, elapsed, calls)
                    calls = 0
                    lifetime += elapsed
                if item is _DONE:
                    tracer._sample(name, lifetime)
                    return
                if name == ITER_CLASS:
                    tracer.yields[tracer.op] = tracer.yields.get(tracer.op, 0) + 1
                yield item

        return traced

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "sandpark" or n.startswith("sandpark.")]
        wrapped: dict[str, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"sandpark.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrapper(name, obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapper)
                    wrapped[name] = obj
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{meth}"
                        if name in wrapped:
                            raise RuntimeError(f"two traced callables named {name}")
                        self._patch(obj, meth, self._wrapper(name, fn))
                        wrapped[name] = fn

    def _wrapper(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # summaries

    def totals(self, op: str | None = None) -> dict[str, list]:
        """Per-name [calls, total_s, self_s], over one operation or all."""
        out: dict[str, list] = {}
        for (rec_op, name, _parent), (calls, total, own) in self.agg.items():
            if op is not None and rec_op != op:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def candidates(self, op: str) -> int:
        """Candidates tested by ``iter_class`` during one operation.

        Every candidate goes through exactly one first membership test called
        straight from ``iter_class``; later tests see only survivors.  The
        busiest direct child therefore counts the candidates tested.
        """
        calls = [rec[0] for (rec_op, _name, parent), rec in self.agg.items()
                 if rec_op == op and parent == ITER_CLASS]
        return max(calls, default=0)

    def percentiles_us(self, name: str) -> tuple[float, float] | None:
        """p50 and p99 span durations in microseconds, from >= 1000 samples."""
        buf = self.samples.get(name)
        if buf is None or len(buf) < 1000:
            return None
        ordered = sorted(buf)
        n = len(ordered)
        return ordered[(n - 1) // 2] * 1e6, ordered[(99 * n + 99) // 100 - 1] * 1e6

    def spans(self) -> list[dict]:
        """Aggregated spans, for writing out at the end of the run."""
        return [{"op": op, "name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (op, name, parent), (calls, total, own)
                in sorted(self.agg.items(), key=lambda kv: -kv[1][1])]
