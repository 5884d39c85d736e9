"""In-memory span tracer installed around the public functions of l0bounds.

The tracer patches functions from outside the library: every module-level
reference to a wrapped function (the defining module, the package namespace
and every module that imported it by name) is replaced by a wrapper that
records a span, and ``uninstall`` puts the originals back.  Library code is
never edited.

Each span has a name, a start, an end and the span that caused it (the one
open on the stack when it started).  Spans are aggregated as they close:
per name the call count, the inclusive time and the self time (duration
minus the time covered by child spans).  Top-level spans are kept whole, so
the benchmark can check that they cover the wall time of the traced work.
Hooks see the arguments and the result of a call and record counters.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans, per-name aggregates, counters and the patches that feed them."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.durations = defaultdict(list)  # names listed in keep_durations
        self.top_spans = []  # (name, start, end) of spans with no parent
        self.keep_durations = set()
        self._stack = []  # open spans: [name, time covered by children]
        self._targets = []  # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, hook=None, caller=None):
        """Return ``fn`` wrapped in a span called ``name``.

        hook(tracer, args, kwargs, result, duration) runs after a call that
        returned.  With ``caller`` set, only calls made from code of that
        module are recorded; other callers go straight to ``fn``.
        """
        stack = self._stack
        calls, incl, self_ = self.calls, self.incl_s, self.self_s
        keep = self.durations[name] if name in self.keep_durations else None
        top = self.top_spans

        def traced(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            span = [name, 0.0]
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                incl[name] += dur
                self_[name] += dur - span[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    top.append((name, t0, t1))
                if keep is not None:
                    keep.append(dur)
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key, value=1.0):
        self.counters[key] += value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    # -- patching ----------------------------------------------------------

    def patch_function(self, name, fn, namespaces, hook=None):
        """Replace ``fn`` wherever one of ``namespaces`` (modules) holds it."""
        wrapper = self.wrap(name, fn, hook)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._targets.append((mod, attr, fn, wrapper))

    def patch_attr(self, owner, attr, name, hook=None, caller=None):
        """Replace one attribute (a method on a class, or a module function)."""
        fn = inspect.getattr_static(owner, attr)
        self._targets.append((owner, attr, fn, self.wrap(name, fn, hook, caller)))

    def install(self):
        for owner, attr, _fn, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _wrapper in self._targets:
            setattr(owner, attr, fn)

    # -- summaries ---------------------------------------------------------

    def module_self_s(self, prefix):
        """Self time summed over every span whose name starts with prefix."""
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def top_span_s(self):
        return sum(t1 - t0 for _name, t0, t1 in self.top_spans)
