"""In-memory span tracer that wraps library functions by dotted name.

A wrapped function records one span (name, start, end, parent) per call.
Names are resolved when the tracer is installed; a name that no longer
exists is listed in `absent` instead of failing, so the benchmark keeps
running when a refactor renames or merges a function.  `uninstall()`
puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from types import FunctionType, ModuleType
from typing import Callable, Optional

ROOT = -1  # parent index of a span opened with nothing above it


def resolve(dotted: str):
    """(owner, attribute, function) for 'package.module[.Class].function',
    or None when any part is missing or the target is not a plain function."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attr = parts[-1]
        target = vars(owner).get(attr)
        if not isinstance(target, FunctionType):
            return None
        return owner, attr, target
    return None


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def wrap(self, dotted: str, name: str, split_arg: Optional[int] = None,
             on_return: Optional[Callable[[object], None]] = None) -> bool:
        """Wrap one function; with split_arg, the span name gets the value of
        that positional argument appended (e.g. the op kind)."""
        found = resolve(dotted)
        if found is None:
            self.absent.append(dotted)
            return False
        owner, attr, original = found
        wrapper = self._wrapper(name, original, split_arg, on_return)
        self._patch(owner, attr, original, wrapper)
        if isinstance(owner, ModuleType):
            # modules that imported the function by name hold their own binding
            package = owner.__name__.split(".")[0]
            for modname, module in list(sys.modules.items()):
                if module is owner or module is None:
                    continue
                if modname == package or modname.startswith(package + "."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        return True

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name: str, fn, split_arg, on_return):
        spans, stack, clock = self.spans, self._stack, self.clock

        # The span opens before and closes after the wrapper's own
        # bookkeeping, so that cost counts to the layer instead of to nothing.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            label = name
            if split_arg is not None and len(args) > split_arg:
                label = f"{name}.{args[split_arg]}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else ROOT
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (label, start, clock(), parent)
            if on_return is not None:
                on_return(result)
            return result
        return traced

    def begin(self, name: str) -> int:
        """Start a span around a block of the benchmark's own code."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self._stack.append(index)
        self.spans.append((name, self.clock(), 0.0, parent))
        return index

    def finish(self, index: int) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    # -- reading ---------------------------------------------------------

    def roots(self) -> list[int]:
        """For every span, the index of its top-level ancestor (itself when
        top-level); parents always precede their children."""
        out: list[int] = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            out.append(i if parent == ROOT else out[parent])
        return out

    def self_times(self, indices: list[int]) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls) over the given spans: each span's
        duration minus the durations of its direct children."""
        child = dict.fromkeys(indices, 0.0)
        for i in indices:
            _, start, end, parent = self.spans[i]
            if parent in child:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i in indices:
            name, start, end, _ = self.spans[i]
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child[i], n + 1)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
