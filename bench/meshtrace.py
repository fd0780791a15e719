"""Outside-in span tracer for the meshnc benchmark.

The tracer replaces named functions and methods with timing wrappers, from
outside the program: every name is patched where the calling module looks it
up, so nothing under ``src/`` changes. Each call becomes one span (name,
start, end, parent) held in flat in-memory arrays; spans are written out only
when the traced run ends. Integer nanosecond clocks keep the self-time
arithmetic exact, so "self times sum to the root span" is an equality, not a
tolerance.
"""
from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

Observer = Callable[[tuple, object, Counter], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    # ----------------------------------------------------------- patching

    def wrap(self, owner: object, attr: str, name: str,
             observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)
        with a wrapper that records one span per call. ``observe`` sees the
        call's arguments and result and adds to ``self.counts``."""
        original = vars(owner)[attr]
        nid = self._name_id(name)
        open_span = self._open
        stack = self._stack
        start, end, counts = self.start, self.end, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result, counts)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back, in reverse patch order, and prove it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    @contextmanager
    def root(self, name: str):
        """The span every wrapped call of one traced pass nests under."""
        if len(self._stack) != 1:
            raise RuntimeError("root span opened inside another span")
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    # ---------------------------------------------------------- analysis

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def check(self, own: list[int]) -> list[str]:
        """Problems with the span tree: negative self time, or self times
        that do not add up to the root spans' durations."""
        problems = []
        negative = sum(1 for v in own if v < 0)
        if negative:
            problems.append(f"{negative} spans have negative self time")
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        root_ns = sum(self.end[i] - self.start[i] for i in roots)
        if sum(own) != root_ns:
            problems.append(f"self times sum to {sum(own)} ns, "
                            f"root spans last {root_ns} ns")
        return problems

    def by_name(self, own: list[int]) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive and self nanoseconds."""
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_total = [0] * len(self.names)
        for i, nid in enumerate(self.name_of):
            calls[nid] += 1
            total[nid] += self.end[i] - self.start[i]
            self_total[nid] += own[i]
        return {name: {"calls": calls[i], "total_ns": total[i],
                       "self_ns": self_total[i]}
                for i, name in enumerate(self.names)}

    def write(self, directory: Path) -> None:
        """Dump the spans: ``spans.json`` names the columns of ``spans.bin``
        (name id, parent index, start ns, end ns; native byte order)."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name_of), ("parent", self.parent),
                   ("start_ns", self.start), ("end_ns", self.end)]
        with open(directory / "spans.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        meta = {"names": self.names, "spans": len(self.name_of),
                "columns": [[label, col.typecode] for label, col in columns]}
        (directory / "spans.json").write_text(json.dumps(meta, indent=1))


def load_spans(directory: Path) -> tuple[list[str], dict[str, array]]:
    """Read back what :meth:`Tracer.write` wrote."""
    meta = json.loads((directory / "spans.json").read_text())
    n = meta["spans"]
    cols: dict[str, array] = {}
    with open(directory / "spans.bin", "rb") as fh:
        for label, typecode in meta["columns"]:
            col = array(typecode)
            col.fromfile(fh, n)
            cols[label] = col
    return meta["names"], cols
