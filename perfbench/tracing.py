"""Spans recorded by the benchmark around its calls into the program, and
per-layer metrics derived from them plus Ray's task timeline.

A span is ``{"id", "name", "start", "end", "parent"}`` with wall-clock
seconds. Ray's ``ray.timeline()`` gives one Chrome-trace event per task or
actor-method execution: ``cat`` is ``task::<Class>.<method>`` or
``task::<function>``, ``ts``/``dur`` are microseconds since the epoch.
Nothing inside ``crawlray/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "start": time.time(), "end": None, "parent": parent})
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.time()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    kids: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in kids.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# ------------------------------------------------------------ Ray timeline


def task_events(events: list[dict], start: float, end: float) -> list[dict]:
    """Task/actor-method execution events that start inside [start, end]
    (seconds), with ``t0``/``t1`` in seconds and ``fn`` = the name after
    ``task::``."""
    out = []
    for e in events:
        cat = e.get("cat", "")
        if not cat.startswith("task::") or "dur" not in e:
            continue
        t0 = e["ts"] / 1e6
        if start <= t0 <= end:
            out.append({"fn": cat[len("task::"):], "t0": t0, "t1": t0 + e["dur"] / 1e6, "tid": e.get("tid")})
    return out


def ray_phases(events: list[dict], windows: list[tuple[float, float]]) -> dict[str, float]:
    """Summed duration of Ray's per-task argument-deserialization and
    output-storing phases that start inside the windows."""
    def total(cat):
        return sum(
            e["dur"] / 1e6
            for e in events
            if e.get("cat") == cat and "dur" in e and any(a <= e["ts"] / 1e6 <= b for a, b in windows)
        )

    return {
        "ray.deserialize_s": total("task:deserialize_arguments"),
        "ray.store_outputs_s": total("task:store_outputs"),
    }


def busy(tasks: list[dict], fn: str) -> float:
    return sum(t["t1"] - t["t0"] for t in tasks if t["fn"] == fn)


def calls(tasks: list[dict], fn: str) -> int:
    return sum(1 for t in tasks if t["fn"] == fn)


def longest(tasks: list[dict], fn: str) -> float:
    return max((t["t1"] - t["t0"] for t in tasks if t["fn"] == fn), default=0.0)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(median, highest percentile with at least ten samples above it).
    With ten or fewer samples the tail is the smallest value."""
    if not values:
        return 0.0, 0.0
    v = sorted(values)
    return statistics.median(v), v[max(0, len(v) - 11)]


def wave_intervals(tasks: list[dict], legs: list[tuple[float, float]], host_shards: int) -> list[float]:
    """Seconds between consecutive waves' politeness decisions. Every wave
    calls ``decide_and_drain`` once per host shard; the first call of each
    wave marks its start. Intervals never span two crawl calls (legs)."""
    out = []
    for lo, hi in legs:
        starts = sorted(t["t0"] for t in tasks if t["fn"] == "HostPolitenessActor.decide_and_drain" and lo <= t["t0"] <= hi)
        firsts = starts[::host_shards]
        out.extend(b - a for a, b in zip(firsts, firsts[1:]))
    return out
