"""Outside-in span tracer for the SLUGGER benchmark.

The tracer never edits the program: it replaces module attributes and
class methods of ``repro`` with timing wrappers for the duration of one
traced cycle and puts the originals back afterwards. This works because
the program looks the wrapped names up at call time (``candidates.
assign_groups``, ``L.solve_case2``, the module globals ``consolidate`` and
``prune`` of ``repro.core.slugger``, ...).

Two kinds of wrapper:

- a *span* wrapper records ``{id, parent, name, t0, t1, info}`` in memory;
  the parent is the innermost span open when the call started;
- a *fold* wrapper, for calls made 10^4-10^6 times per run (``saving``,
  ``solve_case*``, ``neighbors``), adds one to a count and the call's
  duration to a total stored on the innermost open span
  (``info["fold"][name] = [count, seconds]``), so the trace stays small.

A name that does not resolve (renamed or removed by a later change) is
listed in ``absent`` and skipped; the metrics that depend on it read 0.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Any, Callable

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> dict[str, Any]:
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t0": perf(),
            "t1": None,
            "info": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict[str, Any]) -> None:
        rec["t1"] = perf()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        rec = self._open(name)
        try:
            yield rec["info"]
        finally:
            self._close(rec)

    # ------------------------------------------------------------- wrapping

    def _resolve(self, module: str, qualname: str):
        try:
            owner: Any = importlib.import_module(module)
        except ImportError:
            return None, None, None
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        orig = getattr(owner, attr, None)
        return (owner, attr, orig) if callable(orig) else (None, None, None)

    def wrap(
        self,
        module: str,
        qualname: str,
        *,
        fold: bool = False,
        on_result: Callable[[dict, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``module.qualname`` by a span (or fold) wrapper."""
        name = qualname
        owner, attr, orig = self._resolve(module, qualname)
        if orig is None:
            self.absent.append(f"{module}.{qualname}")
            return
        if fold:
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    if self._stack:  # every traced call runs under a benchmark span
                        info = self.spans[self._stack[-1]]["info"]
                        slot = info.setdefault("fold", {}).setdefault(name, [0, 0.0])
                        slot[0] += 1
                        slot[1] += dt
        else:
            def wrapper(*args, **kwargs):
                rec = self._open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._close(rec)
                if on_result is not None:
                    on_result(rec["info"], args, kwargs, result)
                return result
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap(self) -> None:
        """Put every original callable back (latest patch first)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def dump_spans(spans: list[dict[str, Any]], path) -> None:
    """Write spans as JSON lines (called once, when the run ends)."""
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


class SpanView:
    """Read-only queries over a list of closed spans: durations, self
    times (duration minus the part covered by child spans; calls in one
    thread nest, so the children's durations simply add) and the
    top-level span each span descends from."""

    def __init__(self, spans: list[dict[str, Any]]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def dur(s: dict) -> float:
        return s["t1"] - s["t0"]

    def self_time(self, s: dict) -> float:
        return self.dur(s) - sum(self.dur(c) for c in self.children.get(s["id"], []))

    def top(self, s: dict) -> str:
        while s["parent"] is not None and s["parent"] in self.by_id:
            s = self.by_id[s["parent"]]
        return s["name"]

    def named(self, name: str, under: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (under is None or self.top(s) == under)
        ]

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.dur(s) for s in self.named(name, under))

    def fold(self, name: str, under: str | None = None) -> tuple[int, float]:
        n, t = 0, 0.0
        for s in self.spans:
            slot = s["info"].get("fold", {}).get(name)
            if slot and (under is None or self.top(s) == under):
                n += slot[0]
                t += slot[1]
        return n, t

    def info_sum(self, name: str, key: str, under: str | None = None) -> float:
        return sum(s["info"].get(key, 0) for s in self.named(name, under))
