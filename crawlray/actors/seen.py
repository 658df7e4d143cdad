"""SeenSet — the exact URL-seen set of one crawl shard (SURVEY.md O-20;
north_star: "sharded cuckoo-filter URL-seen set held in actor-pool stages,
keyed by murmur3 of canonicalized URLs").

Routing: a URL belongs to the shard that owns its host
(`politeness.host_shard_of`), so the seen set, the politeness state and the
fetching of a host live in one process (`crawlray.actors.shard`).
Membership is decided by a cuckoo filter fast path ("definitely absent" →
skip the exact probe) backed by an exact set of 128-bit murmur3 pairs — the
authoritative store, so false positives cannot drop URLs (§7.7-H1). URL
strings are retained only in the per-wave delta buffer for the checkpoint's
`seen_delta` parts. The exact set is a Python set of int pairs: a traced
crawl_durable runs measured `seen.rss_bytes_per_url` at 719-738 B.

`SeenShardActor` wraps the same class as a standalone Ray actor (micro
benchmarks feed one directly).

Scale note (§7.7-H2): shard count scales with cluster size; per-wave URL
deltas are flushed to parquet by the checkpoint rather than accumulating
strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from crawlray.actors.politeness import host_hashes
from crawlray.cuckoo import CuckooFilter
from crawlray.kernels.url import url_hosts
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
    """New-URL rows (`_NEW_ROWS`) of shard `shard_id` → full FRONTIER
    columns. Offers are routed by host, so every row's `shard` is
    `shard_id`."""
    disc, depth = unpack_disc_depth(new.column("pack").to_numpy())
    return pa.table(
        {
            "url": new.column("url"),
            "host": url_hosts(new.column("url").combine_chunks()),
            "depth": pa.array(depth.astype(np.int32), pa.int32()),
            "disc_key": pa.array(disc, pa.int64()),
            "url_hash_lo": new.column("lo"),
            "url_hash_hi": new.column("hi"),
            "shard": pa.array(np.full(new.num_rows, shard_id, np.uint32), pa.uint32()),
        }
    )


class SeenSet:
    # offers buffered past this many rows are pre-combined (group_by min +
    # cross-wave seen filter) as they arrive; min-combine is order-free,
    # and the exact set is static between finish_wave calls, so early
    # filtering is bit-exact.
    PRECOMBINE_ROWS = 131072

    def __init__(self, shard_id: int, cuckoo_capacity: int = 1 << 20):
        self.shard_id = shard_id
        self.exact: set[tuple[int, int]] = set()
        self.cuckoo = CuckooFilter(cuckoo_capacity)
        # metrics-only cardinality sketch (O-32): registers ride along for
        # ~4 KB/shard; merged driver-side once per crawl, never per row
        self.hll = HLL(12)
        self.delta_urls: list[str] = []
        self.delta_hashes: list[tuple[int, int]] = []
        self.begin_wave(-1)

    def begin_wave(self, wave: int) -> None:
        self.current_wave = wave
        self._offer_urls: list = []
        self._offer_packs: list[np.ndarray] = []
        self._offer_lo: list[np.ndarray] = []
        self._offer_hi: list[np.ndarray] = []
        self._offer_rows = 0
        self._partials: list[pa.Table] = []

    # ---- discovery dedup path (SURVEY.md O-30 + O-26 fused) -------------
    # Within-wave dedup (keep min pack per URL) and cross-wave seen
    # filtering both live HERE: offer() min-combines the wave's discovery
    # multiset (order-independent ⇒ deterministic under any arrival order),
    # finish_wave() then admits the genuinely new URLs to the cuckoo+exact
    # store and returns them as one FRONTIER block.

    def offer(self, urls: pa.Array, packs, lo, hi) -> None:
        """Buffer (url, pack, murmur3 lo, hi) discovery rows."""
        self._offer_urls.append(urls)
        self._offer_packs.append(np.asarray(packs, dtype=np.int64))
        self._offer_lo.append(np.asarray(lo, dtype=np.uint64))
        self._offer_hi.append(np.asarray(hi, dtype=np.uint64))
        self._offer_rows += len(urls)
        if self._offer_rows >= self.PRECOMBINE_ROWS:
            self._precombine()

    def _precombine(self) -> None:
        """Fold the raw offer buffers into a pre-filtered partial: per-URL
        min pack with the cross-wave seen filter applied; finish_wave only
        merges partials."""
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

    def finish_wave(self) -> pa.Table:
        """Resolve the wave's offers → the block of NEW frontier rows with
        the full FRONTIER columns, sorted by url.

        Merges the pre-combined partials (group_by min — a URL offered in
        several flush windows appears in several partials), admits the
        surviving URLs to the cuckoo+exact store, and derives host, depth,
        disc_key and shard (`derive_frontier_block`). Imports used here must
        sit at module top: this runs in an actor process, where a lazy
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
        return derive_frontier_block(comb, self.shard_id)

    def add_seeds(self, rows: pa.Table) -> None:
        """Register seed rows (url, url_hash_lo, url_hash_hi), unique and
        unseen by construction (the driver dedups the seed list)."""
        lo = rows.column("url_hash_lo").to_numpy()
        hi = rows.column("url_hash_hi").to_numpy()
        keys = list(zip(lo.tolist(), hi.tolist()))
        self.exact.update(keys)
        for k in keys:
            self.cuckoo.add(k[0], k[1])
        self.delta_urls.extend(rows.column("url").to_pylist())
        self.delta_hashes.extend(keys)
        self.hll.add_hashes(lo)

    def dump_delta(self) -> pa.Table:
        """Drain URLs added since the last dump (checkpoint `seen_delta` rows).
        `host_hash` lets a resume re-bucket the rows into any shard count
        without parsing a URL."""
        urls = pa.array(self.delta_urls, pa.string())
        t = pa.table(
            {
                "shard": pa.array([self.shard_id] * len(urls), pa.uint32()),
                "url": urls,
                "url_hash_lo": pa.array([h[0] for h in self.delta_hashes], pa.uint64()),
                "url_hash_hi": pa.array([h[1] for h in self.delta_hashes], pa.uint64()),
                "host_hash": pa.array(host_hashes(url_hosts(urls)), pa.uint32()),
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


SeenShardActor = ray.remote(num_cpus=0)(SeenSet)
