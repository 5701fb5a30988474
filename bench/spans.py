"""In-memory span recorder that wraps the package's layer functions from outside.

A span is (name, start, end, parent index, op id, tag).  Wrappers are
installed on every module attribute that is bound to a traced function, not
just on the defining module: ``from .specfun import f`` copies the binding into
the importing module, and the copy is the name the caller actually looks up.
The package source is never edited; :meth:`Tracer.uninstall` restores every
binding.
"""

from __future__ import annotations

import functools
import sys
import time
import types


class Tracer:
    """Records nested spans around wrapped calls in one thread."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, tag=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``tag(*args, **kwargs)``, when given, is stored with the span; the
        table-reuse ratio is computed from the tags of ``build_table`` spans.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    tag(*args, **kwargs) if tag is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package: str, targets: dict) -> int:
        """Wrap every binding of the functions in ``targets`` inside ``package``.

        ``targets`` maps a function object to ``(span name, tag or None)``.
        Returns the number of bindings replaced.
        """
        wrappers = {fn: self.wrap(name, fn, tag) for fn, (name, tag) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def to_json(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "tag": s[5]} for s in self.spans]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append(s)
    out = []
    for s, kids in zip(spans, children):
        inner = covered((max(c[1], s[1]), min(c[2], s[2])) for c in kids
                        if c[2] > s[1] and c[1] < s[2])
        out.append((s[2] - s[1]) - inner)
    return out


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False

