"""Outside-in span tracer for the camopt package.

`Tracer` keeps per-name call counts, inclusive time and self time (a span's
duration minus the part of it its child spans cover), with one span stack per
thread so work on a pool thread never becomes a child of the span that was
open on the submitting thread. `traced` rebinds every module-level function
of the named camopt modules, under every module that binds it by name (a
function imported with ``from x import f`` lives on under the importer's own
name, and a call through that name would otherwise escape its span), and puts
every binding back on exit.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

PACKAGE = "camopt"
_MARK = "__bench_traced__"


class Tracer:
    """Aggregated spans: name -> [calls, inclusive seconds, self seconds]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._watch = {}          # name -> ancestor names whose subtree counts it
        self._hooks = {}          # name -> fn(tracer, args, kwargs, result)

    def count_under(self, ancestor, name):
        """Count calls of `name` made anywhere below an open `ancestor` span,
        as counter ``"<ancestor>><name>"``."""
        self._watch.setdefault(name, []).append(ancestor)

    def on_result(self, name, hook):
        """Call hook(tracer, args, kwargs, result) after each `name` span."""
        self._hooks[name] = hook

    def add(self, key, amount=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        for ancestor in self._watch.get(name, ()):
            if any(frame[0] == ancestor for frame in stack):
                self.add(f"{ancestor}>{name}")
        frame = [name, self.clock(), 0.0]     # name, start, time in children
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.clock() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += duration
            with self._lock:
                row = self.stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
        hook = self._hooks.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def incl_ms(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2] * 1e3

    def total_self_ms(self, prefix=""):
        return sum(row[2] for name, row in self.stats.items()
                   if name.startswith(prefix)) * 1e3


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    setattr(traced_call, _MARK, True)
    return traced_call


def _package_modules():
    return [mod for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == PACKAGE or modname.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def traced(tracer, module_names, methods=()):
    """Route every module-level function of ``camopt.<m>`` for m in
    module_names, and each ``(class, attribute, span name)`` in methods,
    through tracer for the duration of the block.

    Span names are ``<module>.<function>``. On exit every rebound attribute
    is restored and checked; a leftover wrapper raises RuntimeError.
    """
    names = {}
    for short in module_names:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                names[obj] = f"{short}.{attr}"
    wrappers = {fn: _wrapper(tracer, name, fn) for fn, name in names.items()}

    saved = []
    try:
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrapper(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, obj in reversed(saved):
            setattr(owner, attr, obj)
        leftover = [f"{owner.__name__}.{attr}" for owner, attr, _ in saved
                    if getattr(owner.__dict__.get(attr), _MARK, False)]
        leftover += [f"{mod.__name__}.{attr}" for mod in _package_modules()
                     for attr, obj in vars(mod).items() if getattr(obj, _MARK, False)]
        if leftover:
            raise RuntimeError(f"traced bindings not restored: {sorted(set(leftover))}")
