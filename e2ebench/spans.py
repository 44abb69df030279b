"""Outside-in layer tracing: spans recorded around public callables.

The benchmark installs a wrapper around each public function or method
named in :data:`TARGETS` for the duration of one traced slice.  Each
call records a span ``(id, name, start, end, parent id)``.  The
benchmark makes one call into the library per document (or batch) and
per update, so a span's key, the id of its outermost ancestor, names
the document or update it served.  A function imported
by name into other modules (``from x import f``) is replaced in every
loaded module of the package, so calls through any import path are
seen.  Spans stay in memory and are written out when the run ends.

Worker processes forked while wrappers are installed inherit them; the
wrappers record nothing outside the process that installed them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, attribute path, span name) of every traced callable.
TARGETS = (
    ("repro.xmlstream.parser", "parse_into", "xmlstream.parse_into"),
    ("repro.xmlstream.dom", "parse_forest", "xmlstream.parse_forest"),
    ("repro.xmlstream.writer", "document_to_xml", "xmlstream.document_to_xml"),
    ("repro.xpath.parser", "parse_workload", "xpath.parse"),
    ("repro.xpath.parser", "parse_xpath", "xpath.parse"),
    ("repro.afa.build", "build_workload_automata", "afa.build_workload_automata"),
    ("repro.afa.index", "AtomicPredicateIndex.lookup", "afa.index.lookup"),
    ("repro.afa.index", "AtomicPredicateIndex.freeze", "afa.index.freeze"),
    ("repro.xpush.layered", "LayeredFilterEngine.insert", "layered.insert"),
    ("repro.xpush.layered", "LayeredFilterEngine.compact", "layered.compact"),
    ("repro.xpush.layered", "LayeredFilterEngine.filter_stream", "engine.filter_stream"),
    ("repro.engine.serial", "SerialXPushEngine.filter_stream", "engine.filter_stream"),
    ("repro.service.engine", "ShardedFilterEngine.filter_stream", "engine.filter_stream"),
    ("repro.xpush.machine", "XPushMachine.filter_stream", "xpush.filter_stream"),
)

Span = tuple[int, str, float, float, "int | None"]


class Tracer:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        getpid = os.getpid
        pid = self._pid

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if getpid() != pid:
                return fn(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((span_id, name, started, ended, parent))

        return traced

    def install(self) -> None:
        """Wrap every target; a no-op when already installed."""
        if self._patches:
            return
        for module_name, path, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(span_name, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(span_name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list (the start of a slice's spans)."""
        return len(self.spans)

    def totals(self, start: int = 0, factor: float = 1.0) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total`` and ``self``
        seconds of the spans recorded since *start*, times *factor*.

        Self time is a span's duration minus that of its direct
        children.  A span nested in a span of the same name (a parse
        inside a parse) counts in ``calls`` but not again in ``total``.
        """
        spans = self.spans[start:]
        names = {span[0]: span[1] for span in spans}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _name, began, ended, parent in spans:
            if parent is not None:
                child_time[parent] += ended - began
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for span_id, name, began, ended, parent in spans:
            entry = out[name]
            duration = ended - began
            entry["calls"] += 1
            entry["self"] += (duration - child_time[span_id]) * factor
            if parent is None or names.get(parent) != name:
                entry["total"] += duration * factor
        return dict(out)

    def keys(self) -> dict[int, int]:
        """Span id -> id of its outermost ancestor (itself at the top)."""
        parents = {span[0]: span[4] for span in self.spans}
        out: dict[int, int] = {}
        # A parent ends after its children, so it is recorded later:
        # resolve in reverse recording order.
        for span_id, *_rest, parent in reversed(self.spans):
            out[span_id] = span_id if parent is None else out.get(parent, parents[span_id])
        return out

    def write(self, path: str, slices: list[dict]) -> None:
        """Write the slice table and every span as JSON lines."""
        keys = self.keys()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for entry in slices:
                out.write(json.dumps({"slice": entry}) + "\n")
            for span_id, name, began, ended, parent in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": began,
                    "end": ended,
                    "parent": parent,
                    "key": keys[span_id],
                }
                out.write(json.dumps(record) + "\n")
