"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: ``Tracer.wrap`` returns a
timed stand-in for a function and ``Tracer.patch`` installs one on a module
or class attribute until ``restore``. Untraced runs never construct a
tracer, so the program runs exactly as shipped.

Each span keeps its name, start, end (``perf_counter_ns``) and parent span
in compact arrays, written out once the run ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span under the current one."""
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start_ns)
        self.end.append(end_ns)

    def wrap(self, name: str, fn):
        """Timed stand-in for fn."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "names": np.array(self.names, dtype=str),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def summarize(spans: dict) -> dict:
    """Per span name: count, total and self time (ns), and for each
    name among its direct children, their count and the time they cover.

    Self time is a span's duration minus the time its child spans cover;
    spans on one thread nest, so the children's durations add up.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child_ns
    out = {}
    for nid, name in enumerate(spans["names"]):
        mine = spans["name"] == nid
        if not mine.any():
            continue
        kids = has_parent.copy()
        kids[has_parent] = mine[parent[has_parent]]
        out[str(name)] = {
            "count": int(mine.sum()),
            "total_ns": float(dur[mine].sum()),
            "self_ns": float(self_ns[mine].sum()),
            "children": {
                str(spans["names"][k]): {
                    "count": int((kids & (spans["name"] == k)).sum()),
                    "ns": float(dur[kids & (spans["name"] == k)].sum()),
                }
                for k in np.unique(spans["name"][kids])
            },
        }
    return out


def merge(parts: list[dict]) -> dict:
    """Concatenate span arrays from several processes (parents re-based)."""
    names = sorted({str(n) for p in parts for n in p["names"]})
    index = {n: i for i, n in enumerate(names)}
    merged = {k: [] for k in ("name", "parent", "start", "end")}
    offset = 0
    for p in parts:
        remap = np.array([index[str(n)] for n in p["names"]], dtype=np.int32)
        merged["name"].append(remap[p["name"]] if p["name"].size else p["name"])
        merged["parent"].append(np.where(p["parent"] >= 0, p["parent"] + offset, -1))
        for k in ("start", "end"):
            merged[k].append(p[k])
        offset += p["name"].size
    out = {k: np.concatenate(v) if v else np.zeros(0, dtype=np.int64) for k, v in merged.items()}
    out["names"] = np.array(names, dtype=str)
    return out
