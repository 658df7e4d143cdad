"""HostPoliteness — a crawl shard's robots rules + per-host token-bucket
admission (SURVEY.md O-21/O-22; RBC-6). Every host routes to one shard by
`host_shard_of`; the shard holds that host's robots rules (a RobotsRules
helper), token bucket and fetch counter. A plain object, no Ray: crawl
shard i (`crawlray.actors.shard`) owns one, next to the seen set and the
fetch backend of the same hosts.

Deterministic under any parallelism (§4.2): the admission decision is NOT
first-come-first-served — each wave the shard sees the full set of its
hosts' candidate order keys at once and admits the B lowest unique keys
per host, exactly what the sequential oracle does walking the wave in
disc_key order.

Bucket semantics: refill to burst at wave start (the RBC-6 exact-match
config, memoryless) or `carryover=True` for a classic token bucket
(tokens = min(burst, tokens + rate)) — pluggable without touching the
admission protocol.

Hot-path shape: `decide` is vectorized (numpy lexsort + group boundaries;
the per-host Python loop runs once per ACTIVE HOST, not per row) and
returns the rows' robots and admission masks plus the admitted and
robots-denied keys, which the driver merges into the wave's global seq
order."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from crawlray.actors.robots import RobotsRules
from crawlray.murmur3 import murmur3_32

NO_ADMIT = np.int64(np.iinfo(np.int64).min)  # threshold meaning "admit none"

HOST_STATE_SCHEMA = pa.schema(
    [("host", pa.string()), ("tokens", pa.float64()), ("fetched_total", pa.int64())]
)


def host_hash(host: str) -> int:
    return murmur3_32(host.encode(), seed=7)


def host_shard_of(host: str, num_shards: int) -> int:
    return host_hash(host) % num_shards


def host_hashes(hosts: pa.Array) -> np.ndarray:
    """`host_hash` of every row of an Arrow string array, hashing each
    unique host once (a crawl has ~1000x more URLs than hosts)."""
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    enc = hosts.dictionary_encode()
    uniq = np.array([host_hash(h) for h in enc.dictionary.to_pylist()], np.uint32)
    return uniq[enc.indices.to_numpy()] if len(enc) else np.empty(0, np.uint32)


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
        backend=None,
    ):
        self.rate = rate
        self.burst = burst
        self.carryover = carryover
        self.tokens: dict[str, float] = {}  # host -> tokens after last wave
        self.fetched_total: dict[str, int] = {}
        # robots bodies of this shard's hosts only
        bodies: dict[str, str] = {}
        if robots is not None:
            bodies = {
                h: b
                for h, b in zip(
                    robots.column("host").to_pylist(), robots.column("body").to_pylist()
                )
                if host_shard_of(h, num_shards) == shard_id
            }
        self.robots = RobotsRules(bodies, user_agent, backend)

    def decide(self, hosts: pa.Array, urls: pa.Array, okeys: np.ndarray):
        """One wave's frontier rows of this shard → (allowed mask, admitted
        mask, admitted keys, robots-denied keys). A host admits its B lowest
        unique order keys; a row is admitted when its key is at most its
        host's threshold. Denied keys are sorted unique, admitted keys
        unique per host."""
        allowed = self.robots.allowed(hosts, urls)
        denied = np.unique(okeys[~allowed])
        enc = hosts.dictionary_encode()
        uhosts = enc.dictionary.to_pylist()
        all_codes = enc.indices.to_numpy().astype(np.int64)
        codes, keys = all_codes[allowed], okeys[allowed]
        # per-host token buckets are independent, and the driver re-sorts
        # every returned key — so group order (dictionary code order) is free
        order = np.lexsort((keys, codes))
        codes, keys = codes[order], keys[order]
        if len(keys) > 1:  # dedup identical (host, key) pairs
            keep = np.empty(len(keys), dtype=bool)
            keep[0] = True
            keep[1:] = (codes[1:] != codes[:-1]) | (keys[1:] != keys[:-1])
            codes, keys = codes[keep], keys[keep]
        bounds = np.nonzero(codes[1:] != codes[:-1])[0] + 1
        starts = np.concatenate(([0], bounds)) if len(keys) else np.empty(0, np.int64)
        ends = np.concatenate((bounds, [len(keys)]))
        thr = np.full(len(uhosts), NO_ADMIT, np.int64)
        admitted_parts: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            h = uhosts[codes[s]]
            if self.carryover:
                avail = min(self.burst, self.tokens.get(h, self.burst) + self.rate)
            else:
                avail = self.burst  # RBC-6: refill to burst each wave
            n_admit = min(e - s, int(avail))
            if n_admit:
                thr[codes[s]] = keys[s + n_admit - 1]
                admitted_parts.append(keys[s : s + n_admit])
            self.tokens[h] = avail - n_admit
            self.fetched_total[h] = self.fetched_total.get(h, 0) + n_admit
        admitted = allowed & (okeys <= thr[all_codes])
        admitted_keys = (
            np.concatenate(admitted_parts) if admitted_parts else np.empty(0, np.int64)
        )
        return allowed, admitted, admitted_keys, denied

    def host_state(self) -> pa.Table:
        """Checkpoint payload: bucket levels + fetch counters."""
        hosts = sorted(self.tokens)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "tokens": pa.array([self.tokens[h] for h in hosts], pa.float64()),
                "fetched_total": pa.array(
                    [self.fetched_total.get(h, 0) for h in hosts], pa.int64()
                ),
            },
            schema=HOST_STATE_SCHEMA,
        )

    def load_host_state(self, state: pa.Table) -> None:
        for h, t, f in zip(*(state.column(c).to_pylist() for c in HOST_STATE_SCHEMA.names)):
            self.tokens[h] = t
            self.fetched_total[h] = f
