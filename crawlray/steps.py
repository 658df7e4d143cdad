"""PipelineStep registry + priority policies — the engine's named
user-extension surface (SURVEY.md §2.10, O-45/O-48).

The reference (single-process PyCrawler-class loop, SURVEY.md §0) exposes no
extension API; the engine must. Two kinds of plugs:

**Steps** — pure batch transforms `pa.Table -> pa.Table`, registered by name
and composed into the wave at two hook points:

  * ``frontier`` steps run on every frontier block at wave start (before
    robots/politeness marking) — custom scope filters, URL rewrites,
    annotations. They may drop rows; they must preserve the FRONTIER
    columns.
  * ``document`` steps run inside the fetcher actors on each parsed
    document table before it is buffered for the wave's parquet partition —
    enrichment, scoring, redaction. They may add columns; they must
    preserve ``doc_id``/``seq``/``spans``.

Steps are applied WHERE THE DATA ALREADY IS (inside the existing wave tasks
and fetcher actors) — plugging in a step never adds a pipeline stage,
shuffle, or extra pass.

**Priority policies** (O-48) — callables ``(frontier_block, wave) ->
np.int64 array`` producing each row's ORDER KEY. The order key drives
everything order-bearing in a wave: politeness admission (B lowest keys per
host, RBC-6), the seq rank (RBC-7), and the deterministic budget prefix
(RBC-10). Contract: deterministic, and distinct rows must get distinct keys
(derive from ``disc_key``, which is globally unique). The default
``bfs_policy`` returns ``disc_key`` itself, which reproduces the reference
BFS crawl bit-for-bit (asserted by tests/conformance); any other policy
reorders *within* waves — the wave structure (BFS frontier expansion) is
the engine's execution quantum and is not itself pluggable, because merging
waves would abandon the reference's crawl semantics rather than extend
them.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np
import pyarrow as pa

# --------------------------------------------------------------------------
# step registry
# --------------------------------------------------------------------------

Step = Callable[[pa.Table], pa.Table]

_REGISTRY: dict[str, Step] = {}


def register_step(name: str, step: Step | None = None):
    """Register a batch-transform step under a name. Usable directly or as
    a decorator: ``@register_step("my_filter")``."""

    def _reg(fn: Step) -> Step:
        if name in _REGISTRY:
            raise ValueError(f"step {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return _reg(step) if step is not None else _reg


def get_step(name: str) -> Step:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown step {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve_steps(steps) -> list[Step]:
    """Names and/or callables → list of callables (order preserved)."""
    out: list[Step] = []
    for s in steps or ():
        out.append(get_step(s) if isinstance(s, str) else s)
    return out


# --------------------------------------------------------------------------
# built-in steps
# --------------------------------------------------------------------------


@register_step("scope_extra_depth_cap")
def _noop_example(batch: pa.Table) -> pa.Table:
    """Identity placeholder kept registered so the registry is never empty;
    real built-ins below."""
    return batch


def make_host_block_step(blocked_hosts: set[str]) -> Step:
    """Frontier step factory: drop URLs on the given hosts (an engine-side
    blocklist on top of robots)."""
    blocked = pa.array(sorted(blocked_hosts), pa.string())

    def _step(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.invert(pc.is_in(batch.column("host"), value_set=blocked))
        return batch.filter(mask)

    return _step


# --------------------------------------------------------------------------
# priority policies (O-48)
# --------------------------------------------------------------------------


class PriorityPolicy(Protocol):
    name: str

    def __call__(self, batch: pa.Table, wave: int) -> np.ndarray: ...


class BfsPolicy:
    """Default: order key = disc_key — pure BFS discovery order (RBC-9),
    bit-for-bit equal to the reference oracle."""

    name = "bfs"

    def __call__(self, batch: pa.Table, wave: int) -> np.ndarray:
        return batch.column("disc_key").to_numpy().astype(np.int64)


class DepthWeightedPolicy:
    """Example non-BFS policy: within a wave, prefer SHALLOW pages first
    (ascending depth), breaking ties by discovery order. Changes which URLs
    win politeness admission and the seq ordering; still fully
    deterministic. Key layout: depth in the high bits above disc_key's
    ~2^53 range (disc_key = parent_seq * 2^20 + link_idx; seeds are
    negative, biased non-negative here), unique because disc_key is."""

    name = "depth_weighted"

    # valid for parent_seq < 2^32 and depth < 1024 (the engine enforces
    # max_depth < 1024): disc_key < 2^52, so depth*2^52 + disc + bias < 2^63
    _BIAS = np.int64(1) << np.int64(21)  # lifts seed keys (≥ -2^20) positive
    _STRIDE = np.int64(1) << np.int64(52)

    def __call__(self, batch: pa.Table, wave: int) -> np.ndarray:
        disc = batch.column("disc_key").to_numpy().astype(np.int64)
        depth = batch.column("depth").to_numpy().astype(np.int64)
        return depth * self._STRIDE + disc + self._BIAS


POLICIES: dict[str, Callable[[], PriorityPolicy]] = {
    "bfs": BfsPolicy,
    "depth_weighted": DepthWeightedPolicy,
}
