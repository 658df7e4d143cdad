"""HostPoliteness — the host shard: robots rules + per-host token-bucket
admission (SURVEY.md O-21/O-22; RBC-6). Every host routes to one shard by
`host_shard_of`; the shard holds that host's robots rules (a RobotsRules
helper), token bucket and fetch counter. A plain object, no Ray: host
shard i lives in the crawl's shard actor i (`SeenShardActor.init_host_shard`),
so host and seen shards share one actor pool and a crawl starts
max(seen, host) shard processes instead of their sum.

Deterministic under any parallelism (§4.2): the admission decision is NOT
first-come-first-served — each wave the shard collects the full multiset of
candidate order keys per host (mark phase), then admits the B lowest unique
keys per host (decide phase), exactly what the sequential oracle does
walking the wave in disc_key order. Offers and denied keys are
deduplicated at decide time, so Ray task retries re-marking the same
(host, key) are no-ops.

Bucket semantics: refill to burst at wave start (the RBC-6 exact-match
config, memoryless) or `carryover=True` for a classic token bucket
(tokens = min(burst, tokens + rate)) — pluggable without touching the
admission protocol.

Hot-path shape: mark() evaluates the robots mask and appends to buffers;
decide_and_drain() is ONE RPC per shard per wave and does the whole
combine vectorized (numpy lexsort + group boundaries — the per-host Python
loop runs once per ACTIVE HOST, not per offered row) and returns counts,
the per-host admission thresholds (broadcast to the gate tasks — no
per-block threshold RPCs), the admitted keys and the robots-denied keys
(driver-side seq assignment)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from crawlray.actors.robots import RobotsRules
from crawlray.murmur3 import murmur3_32

NO_ADMIT = np.int64(np.iinfo(np.int64).min)  # threshold meaning "admit none"


def host_shard_of(host: str, num_shards: int) -> int:
    return murmur3_32(host.encode(), seed=7) % num_shards


class HostPoliteness:
    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        rate: float,
        burst: float,
        carryover: bool = False,
        robots: pa.Table | None = None,
        user_agent: str = "*",
        backend_factory=None,
    ):
        self.shard_id = shard_id
        self.rate = rate
        self.burst = burst
        self.carryover = carryover
        self.tokens: dict[str, float] = {}  # host -> tokens after last wave
        self.fetched_total: dict[str, int] = {}
        self._offer_hosts: list[pa.Array] = []
        self._offer_keys: list[np.ndarray] = []
        self._denied_keys: list[np.ndarray] = []
        # robots bodies of this shard's hosts only. The owning actor gets
        # the robots table's ObjectRef as a top-level argument: it arrives
        # resolved, zero-copy
        bodies: dict[str, str] = {}
        if robots is not None:
            bodies = {
                h: b
                for h, b in zip(
                    robots.column("host").to_pylist(), robots.column("body").to_pylist()
                )
                if host_shard_of(h, num_shards) == shard_id
            }
        backend = backend_factory() if backend_factory is not None else None
        self.robots = RobotsRules(bodies, user_agent, backend)

    def mark(self, hosts: pa.Array, urls: pa.Array, okeys: np.ndarray) -> np.ndarray:
        """One block's rows for this shard: returns the robots `allowed`
        mask, banks the denied order keys and buffers the allowed rows as
        admission offers. O(rows) appends; the combine runs vectorized at
        decide_and_drain. hosts stay ARROW end to end — the combine
        dictionary-encodes them so the sort runs on int codes, never on a
        numpy string array (measured as the decide barrier's main cost)."""
        allowed = self.robots.allowed(hosts, urls)
        okeys = np.asarray(okeys, dtype=np.int64)
        if not allowed.all():
            self._denied_keys.append(okeys[~allowed])
        if allowed.any():
            self._offer_hosts.append(hosts.filter(pa.array(allowed)))
            self._offer_keys.append(okeys[allowed])
        return allowed

    def decide_and_drain(self):
        """One RPC per wave: admit the B lowest unique order keys per host.

        Returns (admitted_total, offered_total, hosts: list[str],
        thresholds: np.int64 array aligned with hosts, admitted_keys,
        denied_keys: sorted unique np.int64 arrays). Resets the buffers."""
        denied = (
            np.unique(np.concatenate(self._denied_keys))
            if self._denied_keys
            else np.empty(0, np.int64)
        )
        self._denied_keys = []
        if not self._offer_keys:
            return 0, 0, [], np.empty(0, np.int64), np.empty(0, np.int64), denied
        harr = pa.chunked_array(self._offer_hosts).combine_chunks()
        enc = harr.dictionary_encode()
        uhosts = enc.dictionary.to_pylist()
        codes = enc.indices.to_numpy().astype(np.int64)
        keys = np.concatenate(self._offer_keys)
        self._offer_hosts = []
        self._offer_keys = []

        # per-host token buckets are independent, and the driver re-sorts
        # everything returned — so group order (dictionary code order here,
        # host string order before) is free to differ
        order = np.lexsort((keys, codes))
        codes = codes[order]
        keys = keys[order]
        # dedup identical (host, key) pairs (task retries / multi-parent)
        if len(keys) > 1:
            keep = np.empty(len(keys), dtype=bool)
            keep[0] = True
            keep[1:] = (codes[1:] != codes[:-1]) | (keys[1:] != keys[:-1])
            codes = codes[keep]
            keys = keys[keep]
        # group boundaries per host (keys already ascending within host)
        bounds = np.nonzero(codes[1:] != codes[:-1])[0] + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(codes)]))

        out_hosts: list[str] = []
        out_thr = np.empty(len(starts), np.int64)
        admitted_parts: list[np.ndarray] = []
        admitted_total = 0
        for gi, (s, e) in enumerate(zip(starts, ends)):
            h = uhosts[codes[s]]
            n_keys = e - s
            if self.carryover:
                avail = min(self.burst, self.tokens.get(h, self.burst) + self.rate)
            else:
                avail = self.burst  # RBC-6: refill to burst each wave
            n_admit = min(n_keys, int(avail))
            if n_admit:
                out_thr[gi] = keys[s + n_admit - 1]
                admitted_parts.append(keys[s : s + n_admit])
            else:
                out_thr[gi] = NO_ADMIT
            self.tokens[h] = avail - n_admit
            self.fetched_total[h] = self.fetched_total.get(h, 0) + n_admit
            admitted_total += n_admit
            out_hosts.append(h)
        admitted_keys = (
            np.concatenate(admitted_parts) if admitted_parts else np.empty(0, np.int64)
        )
        return admitted_total, int(len(keys)), out_hosts, out_thr, admitted_keys, denied

    def host_state(self) -> dict:
        """Checkpoint payload: bucket levels + fetch counters."""
        return {
            "hosts": sorted(self.tokens),
            "tokens": [self.tokens[h] for h in sorted(self.tokens)],
            "fetched_total": [self.fetched_total.get(h, 0) for h in sorted(self.tokens)],
            "rate": self.rate,
            "burst": self.burst,
        }

    def load_host_state(self, hosts: list[str], tokens: list[float], fetched: list[int]) -> None:
        for h, t, f in zip(hosts, tokens, fetched):
            self.tokens[h] = t
            self.fetched_total[h] = f
