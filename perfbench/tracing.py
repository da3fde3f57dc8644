"""Layer tracing for one benchmark child, installed from outside the package.

``Tracer.install`` rebinds module attributes of the imported ``trailsum``
modules so that every call crossing from one module into another records a
span (name, start, end, parent), and the inner-loop functions listed in
``INNER`` only bump counters, because ``bridge`` makes close to a million
``mat_mul`` calls.  Iterators returned across a boundary (the class stream,
``enumerate_trails``) are timed inside each ``next`` call, so a consumer's
work between items is never charged to the producer.  Nothing here runs
unless the child is asked to trace; the untraced child never imports it.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time

LAYERS = ("cli", "digraph", "trails", "grassmann", "bridge")

# Inner-loop functions: aggregated counters instead of one span per call.
INNER = ("digraph.validate", "grassmann.mat_mul", "grassmann.mul_masks")

# Span names that differ from <module>.<function>.
ALIASES = {"digraph.enumerate_marked_graphs": "digraph.classes"}

ROOT_SPAN = "cli.main"


class _TimedIterator:
    """Forwards an iterator, recording one span per ``next`` call."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self.items = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.timed(self._name, self._inner.__next__)
        self.items += 1
        return item

    def __getattr__(self, attr):
        # Counters such as the class stream's ``yielded`` stay readable.
        return getattr(self._inner, attr)


class _ModuleView:
    """A module seen through wrapped public functions, for ``mod.func`` calls."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self._wrapped = wrapped

    def __getattr__(self, attr):
        wrapped = self._wrapped.get(attr)
        return wrapped if wrapped is not None else getattr(self._module, attr)


class Tracer:
    """In-memory spans and counters of one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, name, start, end, parent id, signed_sum states or None)
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self.iterators: list[tuple[str, _TimedIterator]] = []
        self.validate = [0, 0.0]          # calls, busy seconds
        self.mat_mul = [0, 0.0, 0]        # calls, busy seconds, nonzero results
        self.mul_masks = [0]              # calls

    # -- recording -----------------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               getattr(result, "nodes", None)))

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = self.timed(name, fn, *args, **kwargs)
            if hasattr(type(result), "__next__"):
                result = _TimedIterator(self, name + ".next", result)
                self.iterators.append((name, result))
            return result
        return wrapper

    def _inner_wrapper(self, name: str, fn):
        perf = time.perf_counter
        if name == "grassmann.mul_masks":
            counter = self.mul_masks

            def count_only(a, b):
                counter[0] += 1
                return fn(a, b)
            return count_only
        counter = self.mat_mul if name == "grassmann.mat_mul" else self.validate
        check_zero = name == "grassmann.mat_mul"

        def aggregated(*args):
            start = perf()
            result = fn(*args)
            counter[1] += perf() - start
            counter[0] += 1
            if check_zero and not result.is_zero():
                counter[2] += 1
            return result
        return aggregated

    # -- installation ----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every cross-module call and every INNER function.

        ``modules`` maps each layer name in LAYERS to its imported module.
        Calls inside one module stay untouched, except that INNER functions
        are counted wherever they are bound, their own module included.
        """
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers: dict[str, object] = {}

        def wrapped(home: str, fname: str, fn):
            full = f"{home}.{fname}"
            if full not in wrappers:
                if full in INNER:
                    wrappers[full] = self._inner_wrapper(full, fn)
                else:
                    wrappers[full] = self._span_wrapper(ALIASES.get(full, full), fn)
            return wrappers[full]

        def public_functions(mod):
            return {attr: val for attr, val in vars(mod).items()
                    if inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__}

        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if inspect.ismodule(val) and val.__name__ in layer_of and val is not mod:
                    home = layer_of[val.__name__]
                    view = {fname: wrapped(home, fname, fn)
                            for fname, fn in public_functions(val).items()}
                    setattr(mod, attr, _ModuleView(val, view))
                elif inspect.isfunction(val) and val.__module__ in layer_of:
                    home = layer_of[val.__module__]
                    full = f"{home}.{val.__name__}"
                    if full in INNER or (home != layer and not attr.startswith("_")):
                        setattr(mod, attr, wrapped(home, val.__name__, val))

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: ``name -> (value, unit)``."""
        by_name: dict[str, list[tuple]] = {}
        child_time: dict[int, float] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]

        def busy(name):
            return sum(s[3] - s[2] for s in by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in by_name.get(name, ()))

        out: dict[str, tuple] = {}
        out["cli.main.busy_s"] = (busy(ROOT_SPAN), "s")
        out["cli.main.self_s"] = (self_s(ROOT_SPAN), "s")

        drawn = yielded = 0
        for name, it in self.iterators:
            if name == "digraph.classes":
                yielded += it.items
                drawn += (getattr(it, "yielded", it.items)
                          + getattr(it, "skipped_unbalanced", 0)
                          + getattr(it, "skipped_infeasible", 0))
        out["digraph.classes.busy_s"] = (busy("digraph.classes")
                                         + busy("digraph.classes.next"), "s")
        out["digraph.classes.drawn"] = (drawn, "count")
        out["digraph.classes.yielded"] = (yielded, "count")
        out["digraph.classes.useful_ratio"] = (yielded / drawn if drawn else 0.0, "ratio")
        out["digraph.validate.calls"] = (self.validate[0], "count")
        out["digraph.validate.busy_s"] = (self.validate[1], "s")

        sums = by_name.get("trails.signed_sum", [])
        states = [s[5] for s in sums if s[5] is not None]
        out["trails.signed_sum.calls"] = (len(sums), "count")
        out["trails.signed_sum.busy_s"] = (busy("trails.signed_sum"), "s")
        out["trails.signed_sum.states"] = (sum(states), "count")
        out["trails.signed_sum.peak_states"] = (max(states, default=0), "count")
        out.update(_call_ms("trails.signed_sum", sums))

        listed = sum(it.items for name, it in self.iterators
                     if name == "trails.enumerate_trails")
        out["trails.enumerate_trails.calls"] = (calls("trails.enumerate_trails"), "count")
        out["trails.enumerate_trails.trails"] = (listed, "count")
        out["trails.enumerate_trails.busy_s"] = (busy("trails.enumerate_trails")
                                                 + busy("trails.enumerate_trails.next"), "s")
        out["trails.filtered_signed_sum.calls"] = (calls("trails.filtered_signed_sum"), "count")
        out["trails.filtered_signed_sum.busy_s"] = (busy("trails.filtered_signed_sum"), "s")

        polys = by_name.get("grassmann.standard_polynomial", [])
        out["grassmann.standard_polynomial.calls"] = (len(polys), "count")
        out["grassmann.standard_polynomial.busy_s"] = (busy("grassmann.standard_polynomial"), "s")
        out.update(_call_ms("grassmann.standard_polynomial", polys))
        mm_calls, mm_busy, mm_nonzero = self.mat_mul
        out["grassmann.mat_mul.calls"] = (mm_calls, "count")
        out["grassmann.mat_mul.busy_s"] = (mm_busy, "s")
        out["grassmann.mat_mul.nonzero_ratio"] = (mm_nonzero / mm_calls if mm_calls else 0.0,
                                                  "ratio")
        out["grassmann.mul_masks.calls"] = (self.mul_masks[0], "count")

        out["bridge.cross_check.calls"] = (calls("bridge.cross_check"), "count")
        out["bridge.cross_check.busy_s"] = (busy("bridge.cross_check"), "s")
        out["bridge.cross_check.self_s"] = (self_s("bridge.cross_check"), "s")
        return out

    def write_spans(self, path) -> None:
        """Write every span, one JSON object a line, plus the inner counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, states in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "states": states}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counters": {
                "digraph.validate": self.validate, "grassmann.mat_mul": self.mat_mul,
                "grassmann.mul_masks": self.mul_masks}}) + "\n")


def _call_ms(name: str, spans: list) -> dict:
    """Median and tail call time in ms; the tail is the highest percentile
    with at least ten calls beyond it, named by ``.call_ms.tail_pct``.  With
    ten calls or fewer no percentile qualifies and the slowest call stands
    in, reported as percentile 100."""
    times = sorted((s[3] - s[2]) * 1e3 for s in spans)
    n = len(times)
    if n == 0:
        p50 = tail = pct = 0.0
    elif n <= 10:
        p50, tail, pct = statistics.median(times), times[-1], 100.0
    else:
        p50, tail, pct = statistics.median(times), times[n - 11], 100.0 * (n - 10) / n
    return {f"{name}.call_ms.p50": (p50, "ms"),
            f"{name}.call_ms.tail": (tail, "ms"),
            f"{name}.call_ms.tail_pct": (pct, "%")}
