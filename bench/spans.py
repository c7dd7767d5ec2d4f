"""In-memory span recorder for the benchmark's traced run.

Every wrapped call records one span: the name, its start and end in
nanoseconds, and the index of the span that was open when it started (its
parent, -1 for a root). Spans live in flat arrays while the run is traced
and are summarised and written out only after it ends, so the traced code
pays for four appends and two clock reads per call and does no I/O.

The recorder wraps functions from outside the program: ``install`` replaces
each name in the namespace where the program looks it up (a module global or
a class attribute) and restores the originals on exit. Nothing under
``src/`` carries timing code.

Self time is a span's duration minus the durations of its direct children.
Spans of one thread nest, so children never overlap and their durations add.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterable, Iterator, Sequence


class SpanRecorder:
    """Spans in start order: ``name_ids[i]``, ``starts[i]``, ``ends[i]``,
    ``parents[i]`` describe span ``i``; ``names[name_ids[i]]`` is its name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._open = [-1]

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[tuple, object], None] | None = None) -> Callable:
        """``fn`` recording one span per call. ``observe(args, result)``, if
        given, runs after the span has ended, so its cost is not the span's."""
        nid = self.name_id(name)
        name_ids, starts, ends, parents, open_ = (
            self.name_ids, self.starts, self.ends, self.parents, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                open_.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, targets: Iterable[tuple[str, Sequence[tuple[object, str]],
                                              Callable | None]]) -> Iterator[None]:
        """Wrap each ``(span name, [(owner, attribute), ...], observe)`` target
        for the duration of the block. Every owner of one span name gets a
        wrapper around its own attribute, so re-exported names share a name."""
        with contextlib.ExitStack() as stack:
            for name, sites, observe in targets:
                for owner, attr in sites:
                    stack.enter_context(patched(owner, attr,
                                                self.wrap(name, vars(owner)[attr], observe)))
            yield

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, stem: Path) -> None:
        """Write the spans to ``<stem>.spans`` (the four arrays back to back,
        native byte order) and their layout and names to ``<stem>.json``."""
        with open(stem.with_suffix(".spans"), "wb") as f:
            for column in (self.name_ids, self.starts, self.ends, self.parents):
                column.tofile(f)
        layout = {
            "count": len(self),
            "columns": [["name_id", "H"], ["start_ns", "q"], ["end_ns", "q"],
                        ["parent", "i"]],
            "names": self.names,
        }
        stem.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n",
                                             encoding="utf-8")


@contextlib.contextmanager
def patched(owner: object, attr: str, replacement: object) -> Iterator[None]:
    """Set ``owner.attr`` for the duration of the block, then restore it."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def self_time_by_name(name_ids: Sequence[int], starts: Sequence[int],
                      ends: Sequence[int], parents: Sequence[int],
                      n_names: int) -> tuple[list[int], list[int]]:
    """(calls, self nanoseconds) per name id over spans given in start order.

    A span's parent is still open when the span starts, so one pass with a
    stack of open spans sees every child before its parent closes.
    """
    calls = [0] * n_names
    self_ns = [0] * n_names
    open_: list[list[int]] = []  # [span index, name id, duration, children's total]
    for i, (nid, start, end, parent) in enumerate(zip(name_ids, starts, ends, parents)):
        while open_ and open_[-1][0] != parent:
            _, done, duration, children = open_.pop()
            self_ns[done] += duration - children
        if parent >= 0 and not open_:
            raise ValueError(f"span {i}: parent {parent} is not an open span")
        duration = end - start
        if open_:
            open_[-1][3] += duration
        open_.append([i, nid, duration, 0])
        calls[nid] += 1
    for _, done, duration, children in open_:
        self_ns[done] += duration - children
    return calls, self_ns


def durations_by_name(recorder: SpanRecorder, names: Iterable[str]) -> dict[str, list[int]]:
    """Span durations in nanoseconds for each of ``names``, in start order."""
    wanted = {recorder.name_id(n): n for n in names}
    out: dict[str, list[int]] = {n: [] for n in wanted.values()}
    for nid, start, end in zip(recorder.name_ids, recorder.starts, recorder.ends):
        if nid in wanted:
            out[wanted[nid]].append(end - start)
    return out
