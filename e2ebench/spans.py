"""Spans and counts recorded from outside the program.

A :class:`Tracer` either records nothing (timed runs) or wraps public
functions of ``repro`` at the attribute their callers look up, so a call
made inside ``prepare`` or ``run_darwin`` opens a span with the caller's
span as parent. Spans stay in memory until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        i = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            n, start, _, parent = self.spans[i]
            self.spans[i] = (n, start, time.perf_counter(), parent)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a
        spanned call. ``after(tracer, args, result)`` runs inside the span
        and may return a replacement result."""
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
                if after is not None:
                    replaced = after(self, args, out)
                    out = out if replaced is None else replaced
            return out

        setattr(owner, attr, classmethod(spanned) if isinstance(raw, classmethod) else spanned)
        self._patches.append((owner, attr, raw))

    def unwrap(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds (total minus
        the children's time) and each call's duration."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["durations_s"].append(end - start)
        return out

    @staticmethod
    def span_cost_s(reps: int = 2000) -> float:
        """Seconds one empty span adds, measured on a scratch tracer."""
        probe = Tracer(True)
        t = time.perf_counter()
        for _ in range(reps):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t) / reps

    def dump(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["layers"] = {
            k: {kk: vv for kk, vv in v.items() if kk != "durations_s"}
            for k, v in self.layers().items()
        }
        doc["counts"] = dict(self.counts)
        doc["spans"] = [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
