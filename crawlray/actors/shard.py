"""The host-partitioned crawl shard (Mercator-style partitioning, SURVEY [K]).

Shard i of N owns every host with `host_shard_of(host, N) == i`: those
hosts' seen URLs (`SeenSet`), robots rules and token buckets
(`HostPoliteness`), the fetching of their pages (the synthetic web's rows
of those hosts, or a live backend), and their frontier, which never leaves
the shard between waves. The class keeps the name `FetchParseStage`, which
the benchmark's traces select its fetch calls by.

A wave is two RPC rounds, and no shard ever calls another:
- `fetch_parse_wave`: give each admitted and robots-denied row its `seq`
  (its rank in the driver's sorted logged keys), fetch and parse the
  admitted rows, write the doc file, and return the counts plus one
  outlink slice per shard, routed by the outlink's host;
- `finish_wave`: take slice j of every shard's fetch as arguments (Ray
  resolves them before the call), min-combine and admit the new URLs,
  keep the next frontier (new ∪ deferred), write this shard's checkpoint
  parts, and decide the next wave: frontier steps, order keys, robots
  mask and the B-lowest admission per host.

The decision returns only order keys; the driver sorts every shard's keys
into the wave's global `seq` order, so the crawl order does not depend on
the partitioning. Under a page budget that a wave may cross, the doc file
waits for the finish round, which drops documents, log rows and outlinks
past the cut.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from crawlray.actors.politeness import HostPoliteness, host_hashes
from crawlray.actors.seen import SeenSet
from crawlray.backend import SyntheticBackend
from crawlray.checkpoint import FRONTIER_SCHEMA, write_shard_parts
from crawlray.kernels.url import url_hosts
from crawlray.murmur3 import murmur3_x64_128_batch
from crawlray.schema import DEPTH_STRIDE, LINK_STRIDE, PACK_OFFSET
from crawlray.stages import FRONTIER_COLS, explode_outlinks, fetch_parse, log_rows

_LINKS = pa.schema([("url", pa.string()), ("pack", pa.int64())])


class FetchParseStage:
    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        *,
        seen_capacity: int,
        budget_per_host: int,
        carryover_tokens: bool,
        robots: pa.Table | None,
        user_agent: str,
        webgraph_refs: list | None,
        backend_factory,
        enrich: bool,
        max_depth: int | None,
        fetch_batch_size: int,
        doc_root: str,
        checkpoint: bool,
        frontier_steps: list,
        doc_steps: list,
        priority_policy,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        if backend_factory is not None:
            # a live backend (O-46): built once here, e.g. HttpBackend
            # opens its session; it also fetches robots.txt on a miss
            self.backend = backend_factory()
        else:
            wg = pa.concat_tables(ray.get(webgraph_refs))  # zero-copy chunks
            hashes = host_hashes(url_hosts(wg.column("url").combine_chunks()))
            mine = np.nonzero(hashes % np.uint32(num_shards) == shard_id)[0]
            self.backend = SyntheticBackend.from_rows(wg, mine)
        self.seen = SeenSet(shard_id, seen_capacity)
        self.polite = HostPoliteness(
            shard_id, num_shards, float(budget_per_host), float(budget_per_host),
            carryover_tokens, robots, user_agent,
            self.backend if backend_factory is not None else None,
        )
        self.enrich = enrich
        self.max_depth = max_depth
        self.batch_rows = max(1, int(fetch_batch_size))
        self.doc_root = doc_root
        self.checkpoint = checkpoint
        self.frontier_steps = frontier_steps
        self.doc_steps = doc_steps
        self.policy = priority_policy
        self._writer: threading.Thread | None = None
        self._write_error: BaseException | None = None

    # ---- bootstrap -------------------------------------------------------

    def start(self, frontier: pa.Table, wave: int, seeds: bool,
              seen: pa.Table | None = None, host_state: pa.Table | None = None) -> dict:
        """Load this shard's state — the seeds, or a checkpoint's seen
        hashes and host state — and decide wave `wave` on `frontier`."""
        if seeds:
            self.seen.add_seeds(frontier)
        else:
            self.seen.ingest(seen)
            self.polite.load_host_state(host_state)
        self._frontier = frontier.select(FRONTIER_COLS)
        return self._decide(wave)

    # ---- decide ----------------------------------------------------------

    def _decide(self, wave: int) -> dict:
        """Decide wave `wave` on the held frontier: frontier steps, order
        keys (`okey`, from the priority policy — O-48; BFS = disc_key),
        robots mask and politeness admission. Keeps the admitted, denied
        and deferred rows; returns the counts and the logged keys."""
        n_frontier = self._frontier.num_rows
        batch = self._frontier
        self._frontier = None
        for st in self.frontier_steps:
            batch = st(batch)
        if batch.num_rows:
            okey = (
                batch.column("disc_key").to_numpy().astype(np.int64)
                if self.policy is None
                else np.asarray(self.policy(batch, wave), dtype=np.int64)
            )
            allowed, admitted, adm_keys, den_keys = self.polite.decide(
                batch.column("host").combine_chunks(), batch.column("url").combine_chunks(), okey
            )
        else:
            okey = np.empty(0, np.int64)
            allowed = admitted = np.zeros(0, bool)
            adm_keys = den_keys = np.empty(0, np.int64)
        rows = batch.select(["url", "host", "depth"])
        self._admitted = rows.filter(pa.array(admitted)).append_column(
            "disc_key", batch.column("disc_key").filter(pa.array(admitted)))
        self._admitted_okey = okey[admitted]
        self._denied = rows.filter(pa.array(~allowed))
        self._denied_okey = okey[~allowed]
        self._deferred = batch.select(FRONTIER_COLS).filter(pa.array(allowed & ~admitted))
        return {
            "frontier": n_frontier,
            "admitted": self._admitted.num_rows,
            "deferred": self._deferred.num_rows,
            "denied": self._denied.num_rows,
            "keys": np.concatenate([adm_keys, den_keys]),
        }

    # ---- fetch round -----------------------------------------------------

    def fetch_parse_wave(self, keys: np.ndarray, seq_base: int, wave: int, hold_docs: bool):
        """Fetch + parse this shard's admitted rows of wave `wave`. `keys`
        is the wave's sorted logged keys of every shard; a row's seq is its
        order key's rank there. Returns [counts, outlink slice 0, …,
        slice N-1] (call with num_returns=N+1). With `hold_docs` (a page
        budget this wave may cross) the docs wait for `finish_wave`, and
        the counts carry the fetched seqs, from which the driver picks the
        cut."""
        t0 = time.perf_counter()
        adm = self._admitted.append_column(
            "seq", pa.array(np.searchsorted(keys, self._admitted_okey) + seq_base, pa.int64()))
        den = self._denied.append_column(
            "seq", pa.array(np.searchsorted(keys, self._denied_okey) + seq_base, pa.int64()))
        logs, docs, links = [log_rows(den, wave, "robots_denied")], [], []
        for off in range(0, adm.num_rows, self.batch_rows):
            full = fetch_parse(self.backend, adm.slice(off, self.batch_rows), self.enrich)
            logs.append(log_rows(full, wave))
            links.append(explode_outlinks(full, self.max_depth))
            fetched = full.filter(pc.equal(full.column("status"), "fetched"))
            docs.append(pa.table({
                "doc_id": fetched.column("url"),
                "seq": fetched.column("seq"),
                "spans": fetched.column("spans"),
                "lang_pred": fetched.column("lang_pred"),
                "n_tokens": fetched.column("n_tokens"),
                "simhash": fetched.column("simhash"),
            }))
        self._log = pa.concat_tables(logs)
        status = self._log.column("status")
        seq = self._log.column("seq").to_numpy()
        self._fetched_seqs = seq[pc.equal(status, "fetched").to_numpy(zero_copy_only=False)]
        self._error_seqs = seq[pc.equal(status, "error").to_numpy(zero_copy_only=False)]
        self._docs = pa.concat_tables(docs) if docs else None
        if self._docs is not None and self._docs.num_rows:
            for st in self.doc_steps:  # O-45 document hook
                self._docs = st(self._docs)
        self._docs_written = 0
        if not hold_docs:
            self._write_docs(wave)
        out = [{
            "fetched": len(self._fetched_seqs),
            "fetched_seqs": self._fetched_seqs if hold_docs else None,
            "busy_s": time.perf_counter() - t0,
        }]
        return out + self._route(pa.concat_tables(links) if links else _LINKS.empty_table())

    def _route(self, links: pa.Table) -> list[pa.Table]:
        """Map-side min-combine, then one slice per shard by the host of
        each outlink (hashed once per unique URL's host)."""
        comb = _min_combine_links(links)
        dest = host_hashes(url_hosts(comb.column("url").combine_chunks())) % np.uint32(self.num_shards)
        order = np.argsort(dest, kind="stable")
        bounds = np.searchsorted(dest[order], np.arange(self.num_shards + 1))
        return [comb.take(order[bounds[j]:bounds[j + 1]]) for j in range(self.num_shards)]

    def _write_docs(self, wave: int) -> None:
        """Write this shard's docs of the wave on a background thread
        (zstd and the file write release the GIL); `join_writes` is the
        durability fence."""
        docs, self._docs = self._docs, None
        if docs is None or not docs.num_rows:
            return
        d = os.path.join(self.doc_root, f"wave={wave:05d}", "documents")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"part-{self.shard_id:04d}.parquet")
        self._docs_written = docs.num_rows

        def write():
            try:
                # zstd-3: ~6.5x smaller than snappy on span text at equal write time
                pq.write_table(docs, path, compression="zstd", compression_level=3)
            except BaseException as e:  # noqa: BLE001 — raised by join_writes
                self._write_error = e

        self._writer = threading.Thread(target=write, daemon=True)
        self._writer.start()

    def join_writes(self) -> None:
        if self._writer is not None:
            self._writer.join()
            self._writer = None
        if self._write_error is not None:
            err, self._write_error = self._write_error, None
            raise err

    # ---- finish round ----------------------------------------------------

    @ray.method(num_returns=2)
    def finish_wave(self, wave: int, cut_seq: int | None, decide_next: bool, *slices: pa.Table):
        """Finish wave `wave` with slice `shard_id` of every shard's fetch.
        Returns [log block, info]: info holds the wave's counters, the log
        block's rows and bytes, and — with `decide_next` — the next wave's
        decision."""
        links = pa.concat_tables(slices)
        log, deferred = self._log, self._deferred
        fetched, errors = self._fetched_seqs, self._error_seqs
        if cut_seq is not None:
            # the budget prefix: rows, docs and discoveries of pages past
            # the cut go; a URL survives iff its min-pack parent does
            parent = (links.column("pack").to_numpy() // DEPTH_STRIDE - PACK_OFFSET) // LINK_STRIDE
            links = links.filter(pa.array(parent <= cut_seq))
            log = log.filter(pc.less_equal(log.column("seq"), cut_seq))
            if self._docs is not None:
                self._docs = self._docs.filter(pc.less_equal(self._docs.column("seq"), cut_seq))
            fetched, errors = fetched[fetched <= cut_seq], errors[errors <= cut_seq]
            deferred = deferred.slice(0, 0)
        if self._docs is not None:
            self._write_docs(wave)
        links = _min_combine_links(links)
        urls = links.column("url").combine_chunks()
        lo, hi = murmur3_x64_128_batch(urls)
        self.seen.offer(urls, links.column("pack").to_numpy(), lo, hi)
        new = self.seen.finish_wave()
        self._frontier = pa.concat_tables([new, deferred.cast(new.schema)]) if deferred.num_rows else new
        self.join_writes()
        if self.checkpoint:
            write_shard_parts(os.path.join(self.doc_root, f"wave={wave:05d}"), self.shard_id, {
                "crawl_log": log,
                "frontier": self._frontier.cast(FRONTIER_SCHEMA),
                "seen_delta": self.seen.dump_delta(),
                "host_state": self.polite.host_state(),
            })
        info = {
            "counters": {
                "pages_fetched": len(fetched),
                "fetch_errors": len(errors),
                "docs_written": self._docs_written,
            },
            "log_rows": log.num_rows,
            "log_bytes": log.nbytes,
            "discovered_new": new.num_rows,
            "next": self._decide(wave + 1) if decide_next else None,
        }
        return [log, info]

    # ---- after the loop --------------------------------------------------

    def pending_urls(self) -> list[str]:
        """URLs admitted since the seen set's last `seen_delta` dump."""
        return list(self.seen.delta_urls)

    def hll_registers(self) -> bytes:
        return self.seen.hll_registers()


def _min_combine_links(links: pa.Table) -> pa.Table:
    return links.group_by(["url"]).aggregate([("pack", "min")]).rename_columns(_LINKS.names)


# The shards do the crawl's CPU work but reserve no CPU: a pool of any size
# schedules on any session, and nothing else in a crawl competes for it.
CrawlShard = ray.remote(num_cpus=0)(FetchParseStage)
