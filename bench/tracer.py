"""Outside-in span tracer for the benchmark.

The tracer wraps named functions of the ``schinzelpoly`` package from the
outside: every module binding of a target (``from .factor import
is_irreducible`` makes a second binding in the importing module) is
replaced by a wrapper that records one span per call, and every binding
is put back on exit.  Nothing under ``src/`` is edited.

A span is (name, start, end, span id, parent span id, request id).  Span
stacks are kept per thread, because the witness search verifies
candidates in pool threads; a pool thread's outermost span takes as
parent the innermost open span of the thread that installed the tracer,
the one waiting for the pool.  Spans are kept in per-thread arrays while
tracing and written out once at the end.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union of the children's intervals, so that
overlapping pool-thread children are not counted twice).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from collections import Counter

NO_PARENT = -1
_THREAD_SHIFT = 40


class _ThreadBuffer:
    """Spans and counters of one thread; only that thread appends to it."""

    def __init__(self, ordinal):
        self.base = ordinal << _THREAD_SHIFT
        self.count = 0
        self.stack = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sid = array("q")
        self.parent = array("q")
        self.request = array("i")
        self.errors = {}          # span id -> exception class name
        self.counters = Counter()


class Tracer:
    """Wrap ``targets`` (``"module.func"`` or ``"module.Class.method"``,
    module names relative to ``package``) while the tracer is active."""

    def __init__(self, targets, package="schinzelpoly", observers=None,
                 clock=time.perf_counter):
        self.targets = list(targets)
        self.package = package
        self.observers = dict(observers or {})
        self.clock = clock
        self.request_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._owner = None
        self._patches = []        # (holder, attribute, original)

    # -- installing -----------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._owner = self._buffer()
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for idx, target in enumerate(self.targets):
            original, holder, attr = self._resolve(target)
            wrapper = self._wrap(idx, original, self.observers.get(target))
            if isinstance(holder, type):
                for klass in _classes_in(modules):
                    for key, value in list(vars(klass).items()):
                        if value is original:
                            self._patch(klass, key, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _patch(self, holder, attr, wrapper):
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def _resolve(self, target):
        module_name, _, rest = target.partition(".")
        holder = importlib.import_module(f"{self.package}.{module_name}")
        parts = rest.split(".")
        for part in parts[:-1]:
            holder = getattr(holder, part)
        attr = parts[-1]
        original = vars(holder)[attr] if isinstance(holder, type) else getattr(holder, attr)
        return original, holder, attr

    # -- recording ------------------------------------------------------------

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _outer_parent(self):
        owner = self._owner
        try:
            return owner.stack[-1] if owner is not None else NO_PARENT
        except IndexError:
            return NO_PARENT

    def _wrap(self, idx, fn, observer):
        tracer = self
        local = self._local
        clock = self.clock

        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = tracer._buffer()
            sid = buf.base + buf.count
            buf.count += 1
            stack = buf.stack
            parent = stack[-1] if stack else tracer._outer_parent()
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                buf.errors[sid] = type(exc).__name__
                _record(buf, idx, t0, t1, sid, parent, tracer.request_id)
                raise
            t1 = clock()
            stack.pop()
            _record(buf, idx, t0, t1, sid, parent, tracer.request_id)
            if observer is not None:
                observer(buf.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    # -- results --------------------------------------------------------------

    def spans(self):
        """All recorded spans as (name, start, end, sid, parent, request)."""
        out = []
        for buf in self._buffers:
            out.extend(zip((self.targets[i] for i in buf.name), buf.start, buf.end,
                           buf.sid, buf.parent, buf.request))
        return out

    def errors(self):
        out = {}
        for buf in self._buffers:
            out.update(buf.errors)
        return out

    def counters(self):
        total = Counter()
        for buf in self._buffers:
            total.update(buf.counters)
        return total

    def write(self, path):
        """Write the spans as one JSON header line plus tab-separated rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "sid",
                                            "parent", "request", "error"]}) + "\n")
            errors = self.errors()
            for name, t0, t1, sid, parent, req in self.spans():
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{sid}\t{parent}\t{req}\t"
                         f"{errors.get(sid, '')}\n")


def _record(buf, idx, t0, t1, sid, parent, request):
    buf.name.append(idx)
    buf.start.append(t0)
    buf.end.append(t1)
    buf.sid.append(sid)
    buf.parent.append(parent)
    buf.request.append(request)


def _classes_in(modules):
    seen = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type):
                seen[id(value)] = value
    return list(seen.values())


def self_times(spans):
    """Per-name (calls, self seconds) from (name, start, end, sid, parent, ...)
    records: duration minus the union of the children's intervals, each
    child interval clipped to its parent's."""
    by_id = {}
    children = {}
    for span in spans:
        name, t0, t1, sid, parent = span[:5]
        by_id[sid] = (name, t0, t1)
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((t0, t1))
    calls = Counter()
    self_s = Counter()
    for sid, (name, t0, t1) in by_id.items():
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        calls[name] += 1
        self_s[name] += (t1 - t0) - covered
    return calls, self_s
