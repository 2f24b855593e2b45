"""In-memory span tracer for the sfda2 package, installed from outside it.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper at each of its import sites: the defining module and
every other `sfda2` module (or the package itself) that imported the name.
Calls made through a module global therefore hit the wrapper too. Each call
records one span (name, start, end, parent); `report()` turns the spans
into call counts, busy time and self time per function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "sfda2"
LAYERS = ("adapt", "banks", "stats", "losses", "model", "numerics", "data", "verify", "cli")


def _arg_reader(fn, name):
    """Return a reader of argument `name` from (args, kwargs), or None when
    `fn` has no such parameter."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return None
    pos = params.index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]


def _knn_counts(fn):
    read_bank = _arg_reader(fn, "fbank")
    if read_bank is None:
        return None

    def count(args, kwargs):
        bank = read_bank(args, kwargs)
        return {"rows_scanned": bank.valid.size, "rows_valid": int(bank.valid.sum())}

    return count


def _update_banks_counts(fn):
    read_indices = _arg_reader(fn, "indices")
    if read_indices is None:
        return None

    def count(args, kwargs):
        return {"rows": len(read_indices(args, kwargs))}

    return count


# Work counters recorded at the span boundary, keyed by traced name. Each
# factory inspects the function's signature once and returns None when the
# argument it reads no longer exists.
COUNTERS = {"banks.knn": _knn_counts, "banks.update_banks": _update_banks_counts}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter_factory = COUNTERS.get(name)
        counter = counter_factory(fn) if counter_factory else None
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        totals = self.counts.setdefault(name, {})
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    totals[key] = totals.get(key, 0) + value
            span = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts[span] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module at all import sites."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            # import_module returns the submodule even where the package
            # re-exports a function of the same name (sfda2.adapt).
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        sites = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module in sites:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def report(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, busy_s (sum of span durations) and self_s
        (busy time minus the time covered by direct child spans)."""
        if self._stack:
            raise RuntimeError("report() called with spans still open")
        child = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[span] - self.starts[span]
        out: dict[str, dict[str, float]] = {}
        for span, name in enumerate(self.names):
            duration = self.ends[span] - self.starts[span]
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child[span]
        return out
