"""Outside-in span tracer for the fermiflow modules.

The program is not edited. `Tracer.install()` wraps every public function
of the traced modules and the public methods of the classes they define.
Several modules bind library functions with from-imports (`runner.evolve`,
`semiclassics.direct_term`, ...), so each wrapped function is replaced by
identity under every name that refers to it in any `fermiflow.*` module
namespace. `Tracer.restore()` puts every original back.

Spans are kept in memory, each with its parent, and only aggregated or
written out after the traced run.
"""

import importlib
import inspect
import json
import os
import sys
import time

PACKAGE = "fermiflow"
MODULES = ("runner", "model", "initial_data", "meanfield", "diagnostics",
           "fock", "semiclassics", "snapshots")

# Functions whose first argument is the path of the file they write; the
# span records that file's size afterwards.
_WRITERS = {"snapshots.write_fmf1", "snapshots.write_csv"}


def _is_traceable(obj, module_name):
    fn = inspect.unwrap(obj)  # reaches through functools.lru_cache
    return inspect.isfunction(fn) and fn.__module__ == module_name


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, bytes]
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        writes_file = name in _WRITERS

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None, 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
                if writes_file and args and os.path.isfile(args[0]):
                    spans[index][4] = os.path.getsize(args[0])

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_traceable(obj, mod.__name__):
                    yield f"{short}.{attr}", None, attr, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in sorted(vars(obj).items()):
                        if (meth.startswith("_") and meth != "__call__") \
                                or not inspect.isfunction(fn):
                            continue
                        yield f"{short}.{attr}.{meth}", obj, meth, fn

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = list(self._targets())  # imports every traced module first
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == PACKAGE
                                            or n.startswith(PACKAGE + "."))]
        for name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in namespaces:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, alias, original))
                        setattr(mod, alias, wrapper)
        return self

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "bytes"],
                       "spans": self.spans}, fh)


def _percentile_ms(sorted_durations, q):
    """Nearest-rank percentile in milliseconds."""
    rank = max(1, -(-len(sorted_durations) * q // 100))
    return 1e3 * sorted_durations[int(rank) - 1]


def aggregate(spans):
    """Per span name: calls, inclusive seconds `s` (outermost span of a name
    only, so recursion is not counted twice), `self_s` (span minus its
    direct children), bytes written, and the p50/p99 span duration."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats, durations = {}, {}
    for i, (name, parent, start, end, nbytes) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        duration = end - start
        s["calls"] += 1
        s["self_s"] += duration - child_time[i]
        s["bytes"] += nbytes
        durations.setdefault(name, []).append(duration)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            s["s"] += duration
    for name, values in durations.items():
        values.sort()
        stats[name]["p50_ms"] = _percentile_ms(values, 50)
        stats[name]["p99_ms"] = _percentile_ms(values, 99)
    return stats
