"""Spans around every public flaglp function and around numpy's fftn/ifftn.

The tracer patches module attributes from the outside; no flaglp source is
changed.  Every public function that a flaglp module binds, including the
names it imports from sibling modules, is replaced by one shared wrapper,
so calls between modules (czd -> transform.neumann_inverse ->
transform.remainder_apply) are seen as nested spans.  Spans are kept in
memory, grouped by unit (one set-up repetition or one operation), and
reduced to per-unit tables when the run ends.
"""

import functools
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

class Tracer:
    """Span and counter store; spans are recorded only inside a unit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, unit]
        self.stack = []
        self.unit = None
        self.counters = defaultdict(float)  # (unit, name) -> value
        self._patched = []  # (owner, attribute, original) for uninstall

    # -- recording ---------------------------------------------------------

    def count(self, name, value=1):
        if self.unit is not None:
            self.counters[(self.unit, name)] += value

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            record = [name, time.perf_counter(), 0.0,
                      self.stack[-1] if self.stack else -1, self.unit]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------

    def install(self, flaglp):
        """Patch every flaglp module namespace, numpy.fft and KernelSpec."""
        extras = {
            "transform.neumann_inverse":
                lambda t, a, r: t.count("transform.neumann_inverse.iterations", r[1]),
            "czd.cz_decompose":
                lambda t, a, r: t.count("czd.levels", len(r[2].level_set_measures)),
            "blockio.write_block":
                lambda t, a, r: t.count("blockio.bytes", 32 + a[1].values.nbytes),
            "blockio.read_block":
                lambda t, a, r: t.count("blockio.bytes", 32 + r.values.nbytes),
        }
        wrappers = {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "flaglp" or key.startswith("flaglp."))
                   and key != "flaglp.cli" and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("flaglp.")):
                    continue
                if value not in wrappers:
                    name = value.__module__.rsplit(".", 1)[1] + "." + value.__name__
                    wrappers[value] = self.wrap(name, value, extras.get(name))
                self._set(module, attr, wrappers[value])

        def fft_points(t, a, r):
            t.count("fft.points", np.asarray(a[0]).size)

        self._set(np.fft, "fftn", self.wrap("fft.fftn", np.fft.fftn, fft_points))
        self._set(np.fft, "ifftn", self.wrap("fft.ifftn", np.fft.ifftn, fft_points))

        spec = flaglp.kernels.KernelSpec
        scalar_call = spec.__call__

        def counted_call(kernel, *point):
            self.count("kernels.kernel_evals")
            return scalar_call(kernel, *point)

        self._set(spec, "__call__", counted_call)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def unit_tables(self):
        """{unit: {metric name: value}} with calls, inclusive and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        tables = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, unit) in enumerate(self.spans):
            table = tables[unit]
            table[name + ".calls"] += 1
            table[name + ".s"] += end - start
            table[name + ".self_s"] += end - start - child_time[index]
            if name.startswith("fft."):
                table["fft.calls"] += 1
        for (unit, name), value in self.counters.items():
            tables[unit][name] += value
        return {unit: dict(table) for unit, table in tables.items()}

    def metrics(self, names):
        """Median per unit of each metric, over the units where it occurs.

        A metric is taken over the timed operations in which it occurs; one
        that occurs in no operation (the set-up work: bank, corpus, block
        I/O) over the set-up constructions; one that never occurs is 0.
        """
        tables = self.unit_tables()
        out = {}
        for name in names:
            samples = []
            for kind in ("op", "setup"):
                samples = [table[name] for unit, table in tables.items()
                           if unit[0] == kind and name in table]
                if samples:
                    break
            out[name] = float(statistics.median(samples)) if samples else 0.0
        return out
