"""SeenShardActor — one shard of the distributed exact URL-seen set
(SURVEY.md O-20; north_star: "sharded cuckoo-filter URL-seen set held in
actor-pool stages, keyed by murmur3 of canonicalized URLs").

Routing: shard = url_hash_lo % num_shards, computed once at hashing time.
Membership is decided by a cuckoo filter fast path ("definitely absent" →
skip the exact probe) backed by an exact set of 128-bit murmur3 pairs — the
authoritative store, so false positives cannot drop URLs (§7.7-H1). URL
strings are retained only in the per-wave delta buffer for checkpoint dumps
(SEEN_DUMP), keeping steady-state memory at ~16 B/URL + cuckoo table.

Retry idempotency (§4.3): a Ray task that calls `check_and_add` and is then
re-executed must get the same answer. Within-wave re-adds return "new" again
(the within-wave dedup O-30 guarantees each URL reaches this actor at most
once per wave per logical row, so a repeat in the same wave can only be a
task retry). `begin_wave` rotates the wave-local set.

Scale note (§7.7-H2): at 10^10 URLs the exact sets hold ~160 GB across all
shards — shard count scales with cluster size; per-wave URL deltas are
flushed to parquet by the checkpointer rather than accumulating strings.

Shard pool: the same actor also carries host shard `shard_id`
(`init_host_shard`, a `HostPoliteness`) when the crawl has that many host
shards, so a crawl starts max(seen shards, host shards) shard actors; actor
i with i >= the seen-shard count is a host shard only, with an empty seen
state. Each Ray worker process costs ~1 s of CPU to start (measured on a
4-core box), and the host shard's mark/decide RPCs and the seen shard's
offer/finish RPCs fall in different wave phases, so sharing a process costs
the wave loop nothing. The start-up RPCs (`check_and_add` for the seeds,
`ingest` on resume) take Arrow tables: a process's first Arrow table costs
~0.5 s of imports in Ray's serializer (pandas, ray.data), and this way every
seen shard pays them while the fetchers start, not inside wave 0's
`finish_wave` barrier.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from crawlray.actors.politeness import HostPoliteness
from crawlray.cuckoo import CuckooFilter
from crawlray.kernels.url import url_host
from crawlray.murmur3 import murmur3_x64_128_batch
from crawlray.ops.sketch import HLL
from crawlray.schema import unpack_disc_depth


# an offer partial / a wave's new URLs: one row per URL, min pack + hashes
_NEW_ROWS = pa.schema(
    [("url", pa.string()), ("pack", pa.int64()), ("lo", pa.uint64()), ("hi", pa.uint64())]
)


def _min_combine(rows: pa.Table) -> pa.Table:
    """One `_NEW_ROWS` row per URL with its min pack. lo/hi are functions of
    url, so "min" just picks the (identical) value while the C++ group_by
    dedups in one pass."""
    comb = rows.group_by(["url"]).aggregate([("pack", "min"), ("lo", "min"), ("hi", "min")])
    return comb.select(["url", "pack_min", "lo_min", "hi_min"]).rename_columns(_NEW_ROWS.names)


def derive_frontier_block(new: pa.Table, shard_id: int) -> pa.Table:
    """New-URL rows (`_NEW_ROWS`) of seen shard `shard_id` → full FRONTIER
    columns. Host parse + unpack run once per unique new URL. Offers are
    routed by lo % num_shards, so every row's `shard` is `shard_id`."""
    disc, depth = unpack_disc_depth(new.column("pack").to_numpy())
    return pa.table(
        {
            "url": new.column("url"),
            "host": pa.array([url_host(u) for u in new.column("url").to_pylist()], pa.string()),
            "depth": pa.array(depth.astype(np.int32), pa.int32()),
            "disc_key": pa.array(disc, pa.int64()),
            "url_hash_lo": new.column("lo"),
            "url_hash_hi": new.column("hi"),
            "shard": pa.array(np.full(new.num_rows, shard_id, np.uint32), pa.uint32()),
        }
    )


@ray.remote(num_cpus=0)
class SeenShardActor:
    # offers buffered past this many rows are pre-combined (group_by min +
    # murmur3 hash + cross-wave seen filter) DURING the fetch window, when
    # this actor is otherwise idle — finish_wave then only merges the small
    # pre-filtered partials, moving most frontier-derivation cost off the
    # end-of-wave barrier. min-combine is order-free, and the exact set is
    # static between finish_wave calls, so early filtering is bit-exact.
    PRECOMBINE_ROWS = 131072

    def __init__(self, shard_id: int, cuckoo_capacity: int = 1 << 20):
        self.shard_id = shard_id
        self.exact: set[tuple[int, int]] = set()
        self.cuckoo = CuckooFilter(cuckoo_capacity)
        # metrics-only cardinality sketch (O-32): registers ride along for
        # ~4 KB/shard; merged driver-side once per crawl, never per row
        self.hll = HLL(12)
        self.wave_added: set[tuple[int, int]] = set()
        self._offer_urls: list = []
        self._offer_packs: list[np.ndarray] = []
        self._offer_lo: list[np.ndarray] = []
        self._offer_hi: list[np.ndarray] = []
        self._offer_rows = 0
        self._partials: list[pa.Table] = []
        self.delta_urls: list[str] = []
        self.delta_hashes: list[tuple[int, int]] = []
        self.current_wave = -1
        self.host: HostPoliteness | None = None

    # ---- host shard `shard_id` (see the module docstring) ----------------

    def init_host_shard(self, num_host_shards: int, rate: float, burst: float,
                        carryover: bool, robots: pa.Table | None, user_agent: str,
                        backend_factory=None) -> None:
        """Make this actor host shard `shard_id` of `num_host_shards`. Pass
        the robots table's ObjectRef: a top-level argument arrives resolved."""
        self.host = HostPoliteness(
            self.shard_id, num_host_shards, rate, burst, carryover, robots,
            user_agent, backend_factory,
        )

    def mark(self, hosts: pa.Array, urls: pa.Array, okeys: np.ndarray) -> np.ndarray:
        return self.host.mark(hosts, urls, okeys)

    def decide_and_drain(self):
        return self.host.decide_and_drain()

    def host_state(self) -> dict:
        return self.host.host_state()

    def load_host_state(self, hosts: list[str], tokens: list[float], fetched: list[int]) -> None:
        self.host.load_host_state(hosts, tokens, fetched)

    def begin_wave(self, wave: int) -> None:
        self.current_wave = wave
        self.wave_added = set()
        self._offer_urls = []
        self._offer_packs = []
        self._offer_lo = []
        self._offer_hi = []
        self._offer_rows = 0
        self._partials = []

    # ---- discovery dedup path (SURVEY.md O-30 + O-26 fused) -------------
    # Within-wave dedup (keep min pack per URL) and cross-wave seen
    # filtering both live HERE: offer() min-combines the wave's discovery
    # multiset per shard (order-independent ⇒ deterministic under any task
    # order, idempotent under task retries), finish_wave() then resolves
    # which offered URLs are genuinely new, hashes only those (murmur3_128
    # once per unique URL), admits them to the cuckoo+exact store, and
    # returns the new frontier rows as one Arrow block. This replaces a
    # sort-based groupby shuffle over the full discovery stream (measured
    # ~45% of crawl wall time) with key-routed RPCs + per-shard combine.

    def offer(self, urls, packs, lo=None, hi=None) -> None:
        # O(1) per call: buffer the (already per-batch-combined) offer
        # arrays; pre-combine kicks in past PRECOMBINE_ROWS (see class
        # docstring). `urls` is a pa.Array (zero-copy out-of-band wire
        # format) or a plain list from older callers/tests. Offerers that
        # already hashed for shard routing ship (lo, hi) so this shard
        # never re-hashes; legacy two-arg calls hash at precombine.
        if isinstance(urls, list):
            urls = pa.array(urls, pa.string())
        if lo is None:
            lo, hi = murmur3_x64_128_batch(urls)
        self._offer_urls.append(urls)
        self._offer_packs.append(np.asarray(packs, dtype=np.int64))
        self._offer_lo.append(np.asarray(lo, dtype=np.uint64))
        self._offer_hi.append(np.asarray(hi, dtype=np.uint64))
        self._offer_rows += len(urls)
        if self._offer_rows >= self.PRECOMBINE_ROWS:
            self._precombine()

    def _precombine(self) -> None:
        """Fold the raw offer buffers into a pre-filtered partial: per-URL
        min pack, murmur3 membership hashes, and the cross-wave seen filter
        applied. Runs during the fetch window; finish_wave only merges
        partials. The per-URL Python cost (murmur3 + membership probe) is
        paid HERE, off the wave barrier."""
        if not self._offer_urls:
            return
        offers = pa.table(
            {
                "url": pa.chunked_array(self._offer_urls),
                "pack": pa.array(np.concatenate(self._offer_packs), pa.int64()),
                "lo": pa.array(np.concatenate(self._offer_lo), pa.uint64()),
                "hi": pa.array(np.concatenate(self._offer_hi), pa.uint64()),
            }
        )
        self._offer_urls = []
        self._offer_packs = []
        self._offer_lo = []
        self._offer_hi = []
        self._offer_rows = 0
        part = _min_combine(offers)
        lo = part.column("lo").to_numpy()
        hi = part.column("hi").to_numpy()
        keep = np.ones(len(lo), dtype=bool)
        maybe = self.cuckoo.maybe_contains_many(lo, hi)
        for i in np.nonzero(maybe)[0]:
            if (int(lo[i]), int(hi[i])) in self.exact:
                keep[i] = False
        if not keep.all():
            part = part.filter(pa.array(keep))
        if part.num_rows:
            self._partials.append(part)

    @ray.method(num_returns=2)
    def finish_wave(self) -> tuple[pa.Table, int]:
        """Resolve the wave's offers → (block of NEW frontier rows with the
        full FRONTIER columns, sorted by url; its row count).

        Merges the pre-combined partials (group_by min — a URL offered in
        several flush windows appears in several partials), admits the
        surviving URLs to the cuckoo+exact store, and derives host, depth,
        disc_key and shard here (`derive_frontier_block`). Deriving in the
        shard that already holds the rows saves a task per shard per wave
        and a copy of every new row through the object store; the separate
        row count lets the driver size the next frontier without fetching
        the block. Imports used here (and in `derive_frontier_block`) must
        sit at module top: this runs in the actor process, where a lazy
        `import crawlray...` fails when the class was shipped by-value
        (driver cwd outside the repo)."""
        self._precombine()
        comb = _min_combine(pa.concat_tables(self._partials or [_NEW_ROWS.empty_table()]))
        self._partials = []
        comb = comb.take(pa.compute.sort_indices(comb.column("url")))
        urls_u = comb.column("url").to_pylist()
        lo = comb.column("lo").to_numpy()
        hi = comb.column("hi").to_numpy()
        # admission loop: every row here is NEW (filtered at precombine and
        # the exact set is static during the wave); keep the historical
        # first-in-url-order-wins behavior under (astronomically unlikely)
        # 128-bit hash collisions between distinct new URLs
        keep = np.ones(len(urls_u), dtype=bool)
        for i, u in enumerate(urls_u):
            k = (int(lo[i]), int(hi[i]))
            if k in self.exact:
                keep[i] = False  # collision with a row admitted just above
                continue
            self.exact.add(k)
            self.cuckoo.add(k[0], k[1])
            self.delta_urls.append(u)
            self.delta_hashes.append(k)
        if not keep.all():
            comb = comb.filter(pa.array(keep))
        self.hll.add_hashes(lo[keep])
        return derive_frontier_block(comb, self.shard_id), comb.num_rows

    def check_and_add(self, rows: pa.Table) -> np.ndarray:
        """Seed registration: this shard's (url, url_hash_lo, url_hash_hi)
        rows, possibly none. Returns a bool mask: True where the URL was NOT
        seen before (new).

        Adds all new URLs to the set. Idempotent within the current wave.
        """
        urls = rows.column("url").to_pylist()
        lo = rows.column("url_hash_lo").to_numpy()
        hi = rows.column("url_hash_hi").to_numpy()
        n = len(urls)
        new = np.zeros(n, dtype=bool)
        maybe = self.cuckoo.maybe_contains_many(
            np.asarray(lo, dtype=np.uint64), np.asarray(hi, dtype=np.uint64)
        )
        for i in range(n):
            k = (int(lo[i]), int(hi[i]))
            if k in self.wave_added:  # task retry within this wave
                new[i] = True
                continue
            if maybe[i] and k in self.exact:
                continue
            self.exact.add(k)
            self.cuckoo.add(k[0], k[1])
            self.wave_added.add(k)
            self.delta_urls.append(urls[i])
            self.delta_hashes.append(k)
            new[i] = True
        self.hll.add_hashes(np.asarray(lo, dtype=np.uint64)[new])
        return new

    def contains(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        maybe = self.cuckoo.maybe_contains_many(
            np.asarray(lo, dtype=np.uint64), np.asarray(hi, dtype=np.uint64)
        )
        out = np.zeros(len(lo), dtype=bool)
        for i in np.nonzero(maybe)[0]:
            out[i] = (int(lo[i]), int(hi[i])) in self.exact
        return out

    def size(self) -> int:
        return len(self.exact)

    def dump_delta(self) -> pa.Table:
        """Drain URLs added since the last dump (checkpoint SEEN_DUMP rows)."""
        t = pa.table(
            {
                "shard": pa.array([self.shard_id] * len(self.delta_urls), pa.uint32()),
                "url": pa.array(self.delta_urls, pa.string()),
                "url_hash_lo": pa.array([h[0] for h in self.delta_hashes], pa.uint64()),
                "url_hash_hi": pa.array([h[1] for h in self.delta_hashes], pa.uint64()),
            }
        )
        self.delta_urls = []
        self.delta_hashes = []
        return t

    def ingest(self, hashes: pa.Table) -> int:
        """Checkpoint resume: re-ingest this shard's previously dumped
        (url_hash_lo, url_hash_hi) rows, possibly none."""
        lo = hashes.column("url_hash_lo").to_numpy()
        hi = hashes.column("url_hash_hi").to_numpy()
        for k in zip(lo.tolist(), hi.tolist()):
            if k not in self.exact:
                self.exact.add(k)
                self.cuckoo.add(k[0], k[1])
        self.hll.add_hashes(lo)
        return len(self.exact)

    def hll_registers(self) -> bytes:
        """This shard's HLL partial (merged driver-side by register max)."""
        return self.hll.registers.tobytes()
