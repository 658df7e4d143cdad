"""The distributed crawl job: bootstrap + wave loop (SURVEY.md §3.2).

Replaces the reference's single-process BFS loop (`while queue: url =
queue.popleft(); ...` — see oracle/bfs_crawler.py, the normative stand-in
for the absent reference snapshot, SURVEY.md §0) with an iterative-batch
wave loop: each BFS wave fans out as plain Ray tasks over Arrow block refs
plus key-routed RPCs to the stateful actors. A crawl starts two actor
pools, both before its first blocking call so that their process start-ups
overlap:
- max(num_seen_shards, num_host_shards) shard actors. Actor i is seen shard
  i (keyed by URL hash) for i < num_seen_shards and host shard i (keyed by
  `host_shard_of`; its hosts' robots rules, token buckets and fetch
  counters) for i < num_host_shards — actors/seen.py says why one pool;
- the fetchers.
Each leg records where its wall time went in `metrics["leg"]`, and each
wave its driver-measured `wave_s`, which the checkpoint's meta.json keeps.
See crawlray/stages.py's module docstring
for why the hot loop uses tasks instead of per-wave Ray Data streaming
executions (measured driver floors) — the crawl's public outputs are still
`ray.data.Dataset`s and every library operator is Dataset-based.

Determinism under parallelism (§4.2): crawl order is never derived from
execution timing — `seq` ranks disc_key (a pure function of the crawl
graph), dedup winners come from order-independent min-combine, politeness
admission from the B-lowest-disc_keys rule. Any num_cpus reproduces the
oracle bit-for-bit; that is what the N→4N scaling criterion rides on.

Per-wave dataflow (stage ids from SURVEY.md §2; 2 task rounds + 2 RPC
barriers per wave, no streaming executions — with `out_dir` too: the
commit is plain tasks plus RPCs, and only the rare budget cut runs Ray
Data):

    frontier_w (unique URLs, already in the seen set; list of block refs)
      ├─ A  mark_block_task per block: ONE `mark` RPC per host shard
      │     returns the robots mask; the shard banks the denied keys and
      │     the allowed rows' politeness offers (O-21/22)
      ├─ [driver] decide_and_drain(): ONE RPC per host shard returns
      │     counts + per-host admission thresholds (broadcast to B) +
      │     admitted keys + denied keys; seq = rank in the sorted logged
      │     key-set (O-33 without a distributed sort)
      ├─ B  fetch_block_task per block: vectorized gate + searchsorted seq
      │     + sub-batch fan-out over the persistent fetcher pool
      │     (O-23/14/15). Fetchers buffer spans locally (written to the
      │     wave's parquet partition at end_wave — spans never transit the
      │     object store) and offer outlinks directly to the seen shards
      │     (O-30 map side + O-26 routing fused into fetch)
      ├─ end_wave(): fetchers flush docs + await offer delivery, and
      │     return their wave counters (O-24), which the driver sums
      ├─ finish_wave(): seen shards resolve within-wave dedup + cross-wave
      │     admission (min-combine) and return their new rows as FRONTIER
      │     blocks (host/depth/disc_key/shard derived in the shard) + row
      │     counts; new frontier = those blocks ∪ deferred → greedy block
      │     compaction
      └─ [out_dir] commit_wave(): one write task each for the wave's
            crawl_log and next frontier (block refs, no Ray Data), seen
            deltas + host state by RPC, then meta.json and `_SUCCESS`

After the loop crawl_log is the loop's log blocks; a resumed crawl puts
its earlier waves' committed crawl_log files, read back, in front.
A fresh checkpointed crawl refuses a root that already holds committed
waves.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from crawlray.actors.seen import SeenShardActor
from crawlray.checkpoint import Checkpointer, result_datasets
from crawlray.kernels.url import canonicalize, in_scope
from crawlray.schema import LINK_STRIDE
from crawlray.stages import (
    LOG_SCHEMA,
    SEEN_ROUTING_VERSION,
    FetcherActor,
    concat_blocks_task,
    fetch_block_task,
    filter_log_cut_task,
    frontier_table_from_urls,
    mark_block_task,
)


def _webgraph_fingerprint(webgraph: pa.Table) -> str:
    """Cheap deterministic content fingerprint of a webgraph table.

    Stored in the checkpoint config and validated on resume so that resuming
    with different --seed/--shape/--n-urls (which would silently continue
    against a DIFFERENT web, breaking the bit-identical resume invariant)
    errors out instead. Samples head+tail URLs: O(1) regardless of scale."""
    import hashlib

    h = hashlib.sha256()
    urls = webgraph.column("url")
    n = len(urls)
    h.update(str(n).encode())
    for i in list(range(min(64, n))) + list(range(max(64, n - 64), n)):
        h.update(str(urls[i]).encode())
    return h.hexdigest()[:16]


def _split_refs(tbl: pa.Table, rows_per_block: int) -> tuple[list, list[int]]:
    """Driver-side split of one table into object-store block refs."""
    refs, counts = [], []
    for off in range(0, tbl.num_rows, rows_per_block):
        chunk = tbl.slice(off, rows_per_block)
        refs.append(ray.put(chunk))
        counts.append(chunk.num_rows)
    if not refs:
        refs, counts = [ray.put(tbl)], [0]
    return refs, counts


def _compact_refs(
    pairs: list[tuple], rows_per_block: int
) -> tuple[list, list[int]]:
    """Greedy-pack (ref, n_rows) block pairs into ~rows_per_block blocks.

    Replaces round 1's Dataset-feedback `_compact` (materialize + lineage
    rebase): with the frontier held as plain refs there is no logical plan
    to grow, and compaction is O(#blocks) driver metadata + small concat
    tasks — singleton groups reuse the existing ref untouched."""
    pairs = [(r, n) for r, n in pairs if n > 0]
    out_refs, out_counts = [], []
    group, group_n = [], 0
    for r, n in pairs:
        group.append(r)
        group_n += n
        if group_n >= rows_per_block:
            out_refs.append(group[0] if len(group) == 1 else concat_blocks_task.remote(*group))
            out_counts.append(group_n)
            group, group_n = [], 0
    if group:
        out_refs.append(group[0] if len(group) == 1 else concat_blocks_task.remote(*group))
        out_counts.append(group_n)
    return out_refs, out_counts


@dataclass
class CrawlResult:
    crawl_log: ray.data.Dataset
    documents: ray.data.Dataset
    waves: int
    fetched_total: int
    metrics: dict
    _seen_actors: list = field(default_factory=list, repr=False)
    _all_actors: list = field(default_factory=list, repr=False)

    def crawl_log_table(self) -> pa.Table:
        """Small-scale helper (tests): full log as one Arrow table, seq order."""
        t = pa.Table.from_pylist(self.crawl_log.take_all(), schema=LOG_SCHEMA)
        return t.take(pc.sort_indices(t, sort_keys=[("seq", "ascending")]))

    def seen_urls(self) -> set[str]:
        """Full seen set (tests; at scale read the checkpoint SEEN_DUMPs)."""
        tables = ray.get([a.dump_delta.remote() for a in self._seen_actors])
        out: set[str] = set()
        for t in tables:
            out.update(t.column("url").to_pylist())
        return out

    def shutdown(self) -> None:
        """Kill the crawl's actors, releasing their resource reservations.

        The result datasets stay consumable: crawl_log wraps materialized
        block refs and documents reads parquet, so no actor is needed after
        the crawl. Call this when done with the result (tests/benches that
        run many crawls in one Ray session would otherwise accumulate actor
        reservations until new fetcher pools can no longer schedule)."""
        for a in self._all_actors:
            try:
                ray.kill(a)
            except Exception:
                pass
        self._all_actors = []


def _run_crawl_attempt(
    seeds: list[str],
    web=None,
    webgraph: pa.Table | None = None,
    robots: pa.Table | None = None,
    webgraph_path: str | None = None,
    preloaded_web: tuple[list, int] | None = None,
    robots_path: str | None = None,
    budget_per_host: int = 2,
    max_depth: int | None = None,
    max_pages: int | None = None,
    num_seen_shards: int = 4,
    num_host_shards: int = 2,
    fetch_concurrency=None,
    fetch_batch_size: int = 512,
    carryover_tokens: bool = False,
    enrich: bool = False,
    user_agent: str = "*",
    out_dir: str | None = None,
    stop_after_wave: int | None = None,
    frontier_rows_per_block: int = 16384,
    priority_policy=None,
    frontier_steps=None,
    doc_steps=None,
    scratch_dir: str | None = None,
    backend_factory=None,
    seen_capacity: int | None = None,
    _resume_state: dict | None = None,
    _fault_hook=None,
    _actor_holder: dict | None = None,
) -> CrawlResult:
    """One crawl attempt (no recovery) — call `run_crawl`, which wraps this
    with mid-crawl actor-failure recovery. Caller owns the Ray session
    (never inits here).

    `_fault_hook(wave, actors)`: test-only fault injector called at the top
    of every wave iteration with the live actor handles (keys: seen, polite
    (the host shards: the first num_host_shards actors of the shard pool,
    so they are seen shards too), fetchers); hooks must self-disarm or the
    recovered run re-dies.
    `_actor_holder`: out-param dict, filled as soon as the actors exist,
    that run_crawl uses to kill this attempt's actors if the attempt fails.

    `web`: a SynthWeb (tables generated driver-side) — or pass `webgraph` /
    `robots` Arrow tables, or `webgraph_path` (directory of parquet files,
    loaded in parallel straight into the object store — the scale path) +
    `robots_path`.
    `out_dir`: per-wave checkpoint root (documents, crawl_log, frontier,
    seen deltas, host state, lineage; `_SUCCESS`-committed — see
    crawlray/checkpoint.py). `stop_after_wave`: stop after committing that
    wave (testing hook for resume equivalence).
    `priority_policy`: a crawlray.steps.PriorityPolicy (O-48) assigning each
    frontier row's order key (admission + seq rank); None = BFS (disc_key),
    bit-for-bit the reference ordering. `frontier_steps`/`doc_steps`:
    registered PipelineStep names or callables (O-45) composed into the
    wave at the frontier / parsed-document hook points.
    """
    from crawlray.steps import resolve_steps

    frontier_steps = resolve_steps(frontier_steps)
    doc_steps = resolve_steps(doc_steps)
    policy_name = getattr(priority_policy, "name", None if priority_policy is None else "custom")
    import crawlray

    _t_start = time.time()
    crawlray.ensure_worker_importability()
    if budget_per_host < 1:
        raise ValueError("budget_per_host must be >= 1 (RBC-1)")
    if max_depth is not None and max_depth >= (1 << 10):
        raise ValueError("max_depth must fit the (disc_key, depth) packing")
    if _resume_state is None and out_dir is not None and Checkpointer.committed_waves(out_dir):
        # a fresh crawl would rewrite only the waves it reaches, leaving the
        # older crawl's later waves committed under a different config —
        # resume_crawl would continue from them and the outputs mix crawls
        raise ValueError(
            f"checkpoint root {out_dir} already holds committed waves; "
            f"continue it with resume_crawl or start in an empty directory"
        )
    if web is not None:
        webgraph = web.webgraph_table()
        robots = web.robots_table()

    # ---- webgraph into the object store (parallel read for the path form).
    # Nothing here blocks on Ray: the path and preloaded forms fingerprint
    # their blocks once every actor has been asked to start
    web_fp = None
    if backend_factory is not None:
        # backend-agnostic crawl (O-46): pages come from the factory-built
        # backend (e.g. HttpBackend) — no webgraph tables exist. Seen-set
        # sizing must be told explicitly (or defaults to 1M per shard).
        webgraph_refs = None
        n_pages = seen_capacity if seen_capacity is not None else (1 << 20)
        web_fp = "backend:" + getattr(
            backend_factory, "__name__", type(backend_factory).__name__
        )
    elif preloaded_web is not None:
        # webgraph blocks ALREADY in the object store (bench/scaling path:
        # loading the synthetic internet is fixture bring-up, not engine
        # work — a real crawler doesn't load the web per run; both scaling
        # levels pre-load identically so the RATIO is unaffected either way)
        webgraph_refs, n_pages = preloaded_web
    elif webgraph_path is not None:
        files = sorted(
            os.path.join(webgraph_path, f)
            for f in os.listdir(webgraph_path)
            if f.endswith(".parquet")
        )
        # plain read tasks, not ray.data.read_parquet().materialize(): the
        # file list is known and blocks land in plasma either way, but the
        # streaming executor's spin-up was >half the measured load time for
        # a 64-file directory. Row counts come from parquet footers.
        import pyarrow.parquet as _pq

        @ray.remote(num_cpus=0.5)
        def _read_pq(path: str) -> pa.Table:
            return _pq.read_table(path)

        webgraph_refs = [_read_pq.remote(f) for f in files]
        n_pages = sum(_pq.read_metadata(f).num_rows for f in files)
    elif webgraph is not None:
        webgraph_refs = [ray.put(webgraph)]
        n_pages = webgraph.num_rows
        web_fp = _webgraph_fingerprint(webgraph)
    else:
        raise ValueError(
            "need web=, webgraph=, webgraph_path= or preloaded_web="
        )
    if robots_path is not None:
        import pyarrow.parquet as _pq

        robots = _pq.read_table(robots_path)
    robots_ref = ray.put(robots) if robots is not None else None

    # ---- every actor is asked to start before the first blocking call, so
    # their process start-ups (~1 s of CPU each) overlap one another, the
    # index build and the bootstrap/ingest RPCs that wait on them.
    # One shard pool: actor i is seen shard i for i < num_seen_shards and
    # host shard i for i < num_host_shards (SeenShardActor docstring); a
    # host-only actor holds no URLs, so it gets the smallest filter
    shard_actors = [
        SeenShardActor.remote(
            i, cuckoo_capacity=max(1 << 14, n_pages * 2 if i < num_seen_shards else 0)
        )
        for i in range(max(num_seen_shards, num_host_shards))
    ]
    seen_actors = shard_actors[:num_seen_shards]
    host_actors = shard_actors[:num_host_shards]
    host_inits = [
        a.init_host_shard.remote(
            num_host_shards, float(budget_per_host), float(budget_per_host),
            carryover_tokens, robots_ref, user_agent, backend_factory,
        )
        for a in host_actors
    ]

    # documents land on disk, written by the fetcher actors per wave —
    # partitioned, resumable output; span payloads never transit plasma.
    # `scratch_dir` lets callers without a checkpoint root choose the
    # filesystem (benches use tmpfs so the measurement isn't disk-bound)
    doc_root = out_dir if out_dir is not None else tempfile.mkdtemp(
        prefix="crawlray_docs_", dir=scratch_dir or "/tmp"
    )

    # persistent fetch+parse pool: created once per CRAWL (not per wave —
    # per-wave actor pools pay actor spin-up every wave). The url→html
    # index is sorted ONCE by a task and shared zero-copy by every actor.
    from crawlray.stages import build_web_index_task

    if webgraph_refs is not None:
        urls_idx_ref, perm_idx_ref = build_web_index_task.remote(*webgraph_refs)
        web_index = (urls_idx_ref, perm_idx_ref, webgraph_refs)
    else:
        web_index = None  # backend_factory path: no synthetic index
    if fetch_concurrency is None:
        cpus = int(ray.cluster_resources().get("CPU", 4))
        n_fetchers = max(2, int(cpus * 0.75))
    elif isinstance(fetch_concurrency, tuple):
        n_fetchers = max(fetch_concurrency)
    else:
        n_fetchers = int(fetch_concurrency)
    fetcher_actors = [
        FetcherActor.remote(
            None, enrich, seen_actors, num_seen_shards, max_depth,
            doc_root, i, max_pages is not None,
            web_index,
            doc_steps or None,
            backend_factory,
        )
        for i in range(n_fetchers)
    ]
    if _actor_holder is not None:
        _actor_holder["actors"] = shard_actors + fetcher_actors

    if web_fp is None:
        web_fp = _webgraph_fingerprint(
            pa.concat_tables([ray.get(webgraph_refs[0]), ray.get(webgraph_refs[-1])])
        )
    _t_started = time.time()

    # O-24 counters: fetchers return per-wave totals from end_wave and the
    # driver sums them here; resume seeds them from the committed meta.json
    counters: dict = dict((_resume_state or {}).get("counters") or {})
    fetched_total = 0
    seq_base = 0
    wave = 0
    if _resume_state is None:
        # ---- bootstrap: seeds (RBC-4) — canonicalize, scope, dedup keeping
        # the first occurrence (driver-side: seed lists are small by definition)
        seed_urls, seed_keys, seed_depths = [], [], []
        seed_seen: set[str] = set()
        for i, s in enumerate(seeds):
            c = canonicalize(s)
            if c is None or not in_scope(c) or c in seed_seen:
                continue
            seed_seen.add(c)
            seed_urls.append(c)
            seed_keys.append(-LINK_STRIDE + i)
            seed_depths.append(0)
        frontier_tbl = frontier_table_from_urls(
            seed_urls, seed_keys, seed_depths, num_seen_shards
        )
        # register the seeds in the seen set: every shard gets its rows,
        # possibly none (SeenShardActor docstring). The host shards must
        # exist before the first mark task, whose RPCs come from other callers
        seed_rows = frontier_tbl.select(["url", "url_hash_lo", "url_hash_hi"])
        shards = frontier_tbl.column("shard").to_numpy()
        boot = host_inits + [a.begin_wave.remote(0) for a in seen_actors] + [
            a.check_and_add.remote(seed_rows.filter(pa.array(shards == s)))
            for s, a in enumerate(seen_actors)
        ]
        ray.get(boot)
    else:
        # ---- resume: re-ingest seen deltas, host state, stored frontier
        frontier_tbl = _resume_state["frontier_tbl"]
        wave = _resume_state["wave0"]
        seq_base = _resume_state["seq_base"]
        fetched_total = _resume_state["fetched_total"]
        boot = host_inits + [
            a.ingest.remote(t) for a, t in zip(seen_actors, _resume_state["seen_deltas"])
        ]
        # each actor runs its own calls in order: load after init_host_shard
        for shard_id, st in _resume_state["host_state"].items():
            boot.append(
                host_actors[shard_id].load_host_state.remote(
                    st["hosts"], st["tokens"], st["fetched"]
                )
            )
        ray.get(boot)
    _t_booted = time.time()

    frontier_refs, frontier_counts = _split_refs(frontier_tbl, frontier_rows_per_block)
    n_frontier = frontier_tbl.num_rows
    # shipped once; each mark task reads them zero-copy from the store
    fsteps_ref = ray.put(frontier_steps) if frontier_steps else None
    policy_ref = ray.put(priority_policy) if priority_policy is not None else None
    chunk_rows = max(16, int(fetch_batch_size))

    all_log_refs: list = []
    metrics: dict = {"waves": []}
    waves_done = wave
    wave0 = wave
    stop = False
    commit_s = 0.0

    checkpointer = None
    if out_dir is not None:
        cfg = {
            "budget_per_host": budget_per_host,
            "max_depth": max_depth,
            "max_pages": max_pages,
            "num_seen_shards": num_seen_shards,
            "num_host_shards": num_host_shards,
            "carryover_tokens": carryover_tokens,
            "user_agent": user_agent,
            "webgraph_fingerprint": web_fp,
            "priority_policy": policy_name or "bfs",
            "seen_routing": SEEN_ROUTING_VERSION,
        }
        checkpointer = Checkpointer(out_dir, cfg)

    _profile = os.environ.get("CRAWLRAY_PROFILE") == "1"

    def _tick(label: str, t0: float) -> float:
        now = time.time()
        if _profile:
            print(f"#   w{wave} {label}: {now - t0:.2f}s", file=sys.stderr, flush=True)
        return now

    while not stop:
        if n_frontier == 0:
            break
        # Budget already exhausted at wave start (e.g. resuming a checkpoint
        # that finished on max_pages but committed a non-empty frontier):
        # stop before issuing any fetches.
        if max_pages is not None and fetched_total >= max_pages:
            break
        _t = _t_wave = time.time()
        if _fault_hook is not None:
            _fault_hook(
                wave,
                {
                    "seen": seen_actors,
                    "polite": host_actors,
                    "fetchers": fetcher_actors,
                },
            )
        # leftover uncommitted wave dir (crashed run / rerun into same root):
        # clean BEFORE fetchers write into it
        wdir = os.path.join(doc_root, f"wave={wave:05d}")
        if os.path.isdir(wdir):
            shutil.rmtree(wdir)

        # A: robots mask + politeness offers, one task per frontier block
        live = [r for r, c in zip(frontier_refs, frontier_counts) if c > 0]
        marked_refs = [
            mark_block_task.remote(r, host_actors, wave, fsteps_ref, policy_ref)
            for r in live
        ]
        ray.wait(marked_refs, num_returns=len(marked_refs), fetch_local=False)
        _t = _tick("  mark", _t)

        # barrier RPC round: one decide_and_drain per host shard (counts +
        # thresholds + admitted keys + robots-denied keys in ONE call)
        pol_res = ray.get([p.decide_and_drain.remote() for p in host_actors])
        _t = _tick("  decide", _t)
        n_admitted = sum(r[0] for r in pol_res)
        n_offered = sum(r[1] for r in pol_res)
        host_parts = [np.asarray(r[2], dtype=np.str_) for r in pol_res if r[2]]
        thr_parts = [r[3] for r in pol_res if len(r[3])]
        if host_parts:
            all_hosts = np.concatenate(host_parts)
            all_thr = np.concatenate(thr_parts)
            order = np.argsort(all_hosts)
            thr_hosts, thr_vals = all_hosts[order], all_thr[order]
        else:
            thr_hosts = np.empty(0, dtype="<U1")
            thr_vals = np.empty(0, np.int64)
        # admitted + robots-denied keys of every shard
        logged_keys = np.sort(np.concatenate([k for r in pol_res for k in r[4:]]))
        thr_hosts_ref = ray.put(thr_hosts)
        thr_vals_ref = ray.put(thr_vals)
        keys_ref = ray.put(logged_keys)
        _t = _tick("  sort+put", _t)

        # B: gate + seq + fetch DISPATCH, one task per marked block. The
        # feeders return immediately with the chunk ObjectRefs (a feeder
        # blocked in ray.get made Ray spawn 100+ replacement workers —
        # stages.fetch_block_task docstring); the driver groups the refs
        # into gather tasks and waits on their counts, which is the wave's
        # fetch barrier without any worker held hostage.
        # Chunk size adapts to the wave: ~6 chunks per fetcher bounds the
        # end-of-wave straggler tail at ~1/6 of one actor's wave share
        # (a FIXED tail per wave would otherwise cap scaling efficiency).
        from crawlray.stages import gather_log_task

        # ~20 chunks per fetcher: the end-of-wave straggler tail is bounded
        # by ONE chunk's cost, and per-chunk cost varies with host page
        # sizes (zipf), so finer interleave also evens cumulative load —
        # measured busy spread 27-40s at /6 granularity. Per-chunk overhead
        # (RPC + arrow slice + log format) is ~5ms once offers are banked,
        # so 480 chunks/wave cost ~2.5s spread across the pool.
        chunk_wave = int(min(chunk_rows, max(32, -(-n_admitted // (n_fetchers * 20)))))
        live_counts = [c for c in frontier_counts if c > 0]
        triples = []
        chunk_off = 0
        for m, rows in zip(marked_refs, live_counts):
            triples.append(
                fetch_block_task.remote(
                    m, thr_hosts_ref, thr_vals_ref, keys_ref, seq_base, wave,
                    fetcher_actors, chunk_wave, chunk_off,
                )
            )
            chunk_off += -(-rows // chunk_wave)  # upper bound on block's chunks
        metas = ray.get([t[0] for t in triples])  # dispatch metadata only
        den_refs = [t[1] for t in triples]
        def_refs = [t[2] for t in triples]
        chunk_refs = [r for m in metas for r in m["chunk_refs"]]
        n_admitted_blocks = sum(m["n_admitted"] for m in metas)
        n_deferred = sum(m["n_deferred"] for m in metas)
        def_pairs = [
            (r, m["n_deferred"]) for r, m in zip(def_refs, metas) if m["n_deferred"]
        ]
        gathers = [
            gather_log_task.remote(*chunk_refs[off : off + 64])
            for off in range(0, len(chunk_refs), 64)
        ]
        wave_fetched = sum(ray.get([g[1] for g in gathers]))  # fetch barrier
        log_refs = [g[0] for g in gathers] + [
            r for r, m in zip(den_refs, metas) if m["n_denied"]
        ]
        _t = _tick("gate+fetch", _t)

        # budget cut (O-35, rare path): deterministic prefix at the r-th
        # fetch in seq order, computed without driver rows (rank_cut_seq
        # walks per-block metadata of a sorted one-column dataset)
        cut_seq = None
        if max_pages is not None and fetched_total + wave_fetched > max_pages:
            from crawlray.ops.seqassign import rank_cut_seq

            r = max_pages - fetched_total  # >= 1 (guard at wave start)
            cut_seq = rank_cut_seq(ray.data.from_arrow_refs(list(log_refs)), r)
            filt = [filter_log_cut_task.remote(lr, cut_seq) for lr in log_refs]
            log_refs = [f[0] for f in filt]
            n_logged = sum(ray.get([f[1] for f in filt]))
            wave_fetched = r
            def_pairs = []
            stop = True
        else:
            n_logged = int(len(logged_keys))

        # fetchers flush: resolve (possibly cut) offers, await delivery,
        # write this wave's document parquet partition
        for wc in ray.get([f.end_wave.remote(wave, cut_seq) for f in fetcher_actors]):
            for k, v in wc.items():
                counters[k] = counters.get(k, 0) + v
        all_log_refs.extend(log_refs)
        _t = _tick("end_wave", _t)

        # seen shards resolve the wave's discoveries into FRONTIER blocks
        fins = [a.finish_wave.remote() for a in seen_actors]
        d_counts = ray.get([f[1] for f in fins])
        pairs = list(zip([f[0] for f in fins], d_counts)) + def_pairs
        frontier_refs, frontier_counts = _compact_refs(pairs, frontier_rows_per_block)
        n_frontier_next = sum(frontier_counts)
        n_new = sum(d_counts)
        _t = _tick("finish+frontier", _t)

        fetched_total += wave_fetched
        seq_base += n_logged
        metrics["waves"].append(
            {
                "wave": wave,
                "frontier": n_frontier,
                "logged": n_logged,
                "fetched": wave_fetched,
                "deferred": n_deferred,
                "discovered_new": n_new,
                "counters": dict(counters),
                # driver wall seconds from the wave's start to its commit
                "wave_s": round(time.time() - _t_wave, 4),
            }
        )
        if checkpointer is not None:
            # durability fence: the wave's background doc writes must be
            # on storage before _SUCCESS commits (they overlap the
            # finish/derive phase above, so this join is usually free)
            _t_commit = time.time()
            ray.get([f.wait_writes.remote() for f in fetcher_actors])
            checkpointer.commit_wave(
                wave=wave,
                frontier_refs=frontier_refs,
                log_refs=log_refs,
                seen_actors=seen_actors,
                host_actors=host_actors,
                metrics=metrics["waves"][-1],
                seq_base=seq_base,
                fetched_total=fetched_total,
            )
            commit_s += time.time() - _t_commit

        waves_done = wave + 1
        if stop_after_wave is not None and wave >= stop_after_wave:
            break
        if stop:
            break
        n_frontier = n_frontier_next
        wave += 1

    _t_loop = time.time()
    # assemble public outputs: this attempt's log blocks, preceded for a
    # resumed crawl by its earlier waves' committed logs read back;
    # documents from every wave's doc partition (joined writes first)
    first = 0 if checkpointer is not None else wave0
    ray.get([f.wait_writes.remote() for f in fetcher_actors])
    crawl_log, documents = result_datasets(
        Checkpointer.log_refs(doc_root, range(first, wave0)) + all_log_refs,
        Checkpointer.wave_files(doc_root, range(first, waves_done), "documents"),
    )
    metrics["fetched_total"] = fetched_total
    metrics["doc_root"] = doc_root
    # final counters (O-24) + seen-set cardinality estimate (O-32; one RPC
    # round after the wave loop — never inside it)
    metrics["counters"] = counters
    from crawlray.ops.sketch import HLL

    merged_hll = HLL(12)
    for regs in ray.get([a.hll_registers.remote() for a in seen_actors]):
        merged_hll.merge(HLL(12, np.frombuffer(regs, dtype=np.uint8).copy()))
    metrics["seen_url_estimate"] = int(merged_hll.estimate())
    if _profile:
        busy = ray.get([f.busy_seconds.remote() for f in fetcher_actors])
        phases = ray.get([f.phase_times.remote() for f in fetcher_actors])
        agg: dict = {}
        for ph in phases:
            for k, v in ph.items():
                agg[k] = agg.get(k, 0.0) + v
        print(
            f"#   fetchers: n={len(busy)} busy_sum={sum(busy):.1f}s "
            f"min={min(busy):.2f} max={max(busy):.2f} "
            f"phases={{{', '.join(f'{k}: {v:.1f}' for k, v in sorted(agg.items()))}}}",
            file=sys.stderr, flush=True,
        )
    # fetchers are never needed after the wave loop — release their CPUs now
    for a in fetcher_actors:
        try:
            ray.kill(a)
        except Exception:
            pass
    # where the leg's wall time went: asking every actor to start (and
    # loading the web), the bootstrap or resume ingest (which waits for the
    # shard actors to come up), the wave loop (its commits are `commit_s`
    # of it) and building the outputs
    metrics["leg"] = {
        "startup_s": round(_t_started - _t_start, 4),
        "bootstrap_s": round(_t_booted - _t_started, 4),
        "loop_s": round(_t_loop - _t_booted, 4),
        "commit_s": round(commit_s, 4),
        "output_s": round(time.time() - _t_loop, 4),
    }
    return CrawlResult(
        crawl_log=crawl_log,
        documents=documents,
        waves=waves_done if all_log_refs else 0,
        fetched_total=fetched_total,
        metrics=metrics,
        _seen_actors=seen_actors,
        _all_actors=shard_actors,
    )


def _is_actor_death(err: BaseException) -> bool:
    """True if `err` is (or was caused by) the loss of a Ray actor.

    Actor death surfaces three ways in the wave loop: a direct
    `RayActorError` from a `ray.get` on a dead actor's method call, a
    `RayTaskError` whose cause chain ends in one (a wave task's internal
    RPC hit the dead actor), or an `ActorUnavailableError`/`ActorDiedError`
    subclass. Anything else (user code bugs, bad config) must propagate."""
    e: BaseException | None = err
    for _ in range(8):  # bounded cause-chain walk
        if e is None:
            return False
        if isinstance(e, ray.exceptions.RayActorError):
            return True
        e = getattr(e, "cause", None) or e.__cause__
    return False


def run_crawl(seeds: list[str], **kwargs) -> CrawlResult:
    """Run a full crawl with mid-crawl actor-failure recovery (SURVEY §4.3).

    Same parameters as the attempt function (`_run_crawl_attempt`), plus
    `max_actor_recoveries` (default 2). Actors are deliberately created
    with max_restarts=0: a Ray-restarted actor would come back EMPTY
    (seen-set shards, token buckets), which silently corrupts dedup and
    politeness. Instead, when any per-wave `ray.get` observes an actor
    death, the whole wave aborts, every actor of the attempt is killed, and
    the crawl is rebuilt from the last `_SUCCESS`-committed checkpoint via
    `resume_crawl` (re-ingesting seen deltas + host state) — waves are
    idempotent transactions (§4.4), so the continuation is bit-identical to
    an uninterrupted run (tested: tests/resume/test_fault_tolerance.py
    kills a seen shard and a fetcher mid-crawl). Requires `out_dir`
    (checkpointing) — without it there is no committed state to rebuild
    from, and the error propagates.
    """
    recoveries = int(kwargs.pop("max_actor_recoveries", 2))
    out_dir = kwargs.get("out_dir")
    holder: dict = {}
    while True:
        try:
            return _run_crawl_attempt(seeds, _actor_holder=holder, **kwargs)
        except Exception as err:  # noqa: BLE001 — filtered just below
            # kill the failed attempt's actors first, whatever the error: a
            # re-raised error's frames hold their handles, so a caller that
            # keeps the exception (pytest.raises, a REPL, a log) would keep
            # their CPUs; a recovery must not meet a zombie fetcher writing
            # into the wave dir it is about to re-run
            for a in holder.pop("actors", []):
                try:
                    ray.kill(a, no_restart=True)
                except Exception:
                    pass
            if not _is_actor_death(err) or recoveries <= 0 or out_dir is None:
                raise
            recoveries -= 1
            print(
                f"# run_crawl: actor death mid-crawl ({type(err).__name__}); "
                f"aborting wave, rebuilding from last committed checkpoint "
                f"({recoveries} recoveries left)",
                file=sys.stderr,
                flush=True,
            )
        if Checkpointer.committed_waves(out_dir):
            return resume_crawl(
                out_dir,
                web=kwargs.get("web"),
                webgraph=kwargs.get("webgraph"),
                robots=kwargs.get("robots"),
                webgraph_path=kwargs.get("webgraph_path"),
                robots_path=kwargs.get("robots_path"),
                fetch_concurrency=kwargs.get("fetch_concurrency"),
                fetch_batch_size=kwargs.get("fetch_batch_size", 512),
                stop_after_wave=kwargs.get("stop_after_wave"),
                priority_policy=kwargs.get("priority_policy"),
                frontier_steps=kwargs.get("frontier_steps"),
                doc_steps=kwargs.get("doc_steps"),
                backend_factory=kwargs.get("backend_factory"),
                seen_capacity=kwargs.get("seen_capacity"),
                max_actor_recoveries=recoveries,
            )
        # death before the first commit: nothing to resume — retry from
        # scratch (the wave loop cleans the uncommitted wave-0 dir itself)


def resume_crawl(
    out_dir: str,
    web=None,
    webgraph: pa.Table | None = None,
    robots: pa.Table | None = None,
    webgraph_path: str | None = None,
    robots_path: str | None = None,
    fetch_concurrency=None,
    fetch_batch_size: int = 512,
    stop_after_wave: int | None = None,
    priority_policy=None,
    frontier_steps=None,
    doc_steps=None,
    backend_factory=None,
    seen_capacity: int | None = None,
    max_actor_recoveries: int = 2,
    num_seen_shards: int | None = None,
) -> CrawlResult:
    """Resume a checkpointed crawl from its newest committed wave (O-6, §3.3).

    Reads the stored config (the crawl's semantics are pinned by the
    checkpoint, not the caller), deletes uncommitted wave dirs, rebuilds the
    actors from the committed seen-deltas + host state, and continues the
    wave loop. Invariant (tested): run(0..end) ≡ run(0..k) + resume(k..end)
    bit-for-bit. The returned result's crawl_log/documents are assembled
    by the attempt from ALL committed waves, pre- and post-resume.

    `num_seen_shards` resumes into a DIFFERENT seen-shard count than the
    checkpoint was written with (Megaphone-style re-shard on resume,
    SURVEY §7.7-H2 / VERDICT r3 item 9): routing is
    shard = murmur3_lo(url) % N — a pure function of the stored 128-bit
    hash, never of N — so changing N is a re-partition of the same key
    space: the committed seen deltas re-bucket and the stored frontier's
    shard column is recomputed. Results are shard-count-invariant
    (tests/resume/test_resume_reshard.py asserts bit-identity).
    """
    import json as _json

    import pyarrow.parquet as _pq

    with open(os.path.join(out_dir, "config.json")) as f:
        cfg = _json.load(f)["config"]
    if web is not None and webgraph is None:
        webgraph = web.webgraph_table()
        robots = web.robots_table()
        web = None
    want_fp = cfg.get("webgraph_fingerprint")
    if want_fp is not None:
        got_fp = None
        if webgraph is not None:
            got_fp = _webgraph_fingerprint(webgraph)
        elif webgraph_path is not None:
            # same sampling run_crawl uses for the path form: first + last
            # parquet files only — O(1) regardless of webgraph size
            files = sorted(
                os.path.join(webgraph_path, f)
                for f in os.listdir(webgraph_path)
                if f.endswith(".parquet")
            )
            if files:
                got_fp = _webgraph_fingerprint(
                    pa.concat_tables(
                        [_pq.read_table(files[0]), _pq.read_table(files[-1])]
                    )
                )
        if got_fp is not None and got_fp != want_fp:
            raise ValueError(
                f"resume webgraph mismatch: checkpoint was written against web "
                f"fingerprint {want_fp}, caller supplied {got_fp} — resuming "
                f"would continue against a different web"
            )
    # seen-shard routing layout must match: deltas written under a different
    # routing hash would be ingested into the wrong shards, and offers would
    # miss the membership probe — silent re-crawls, not an error (ADVICE r2)
    want_routing = cfg.get("seen_routing", SEEN_ROUTING_VERSION)
    if want_routing != SEEN_ROUTING_VERSION:
        raise ValueError(
            f"resume seen-routing mismatch: checkpoint was written with shard "
            f"routing {want_routing!r} but this build uses "
            f"{SEEN_ROUTING_VERSION!r} — seen deltas would load into the "
            f"wrong shards; re-run the crawl from scratch"
        )
    want_pol = cfg.get("priority_policy", "bfs")
    got_pol = getattr(priority_policy, "name", None if priority_policy is None else "custom")
    if (got_pol or "bfs") != want_pol:
        raise ValueError(
            f"resume priority-policy mismatch: checkpoint was written with "
            f"{want_pol!r}, caller supplied {got_pol or 'bfs'!r} — resuming "
            f"would change admission/seq ordering mid-crawl"
        )
    Checkpointer.clean_uncommitted(out_dir)
    waves = Checkpointer.committed_waves(out_dir)
    if not waves:
        raise ValueError(f"no committed waves under {out_dir}")
    last = waves[-1]
    meta = Checkpointer.load_meta(out_dir, last)

    frontier_tbl = _pq.read_table(
        os.path.join(out_dir, f"wave={last:05d}", "frontier")
    )
    # seen routing is lo % N, a pure function of the stored 128-bit hash:
    # bucketing the committed deltas and the frontier's shard column by
    # lo % new_shards restores them, and re-shards them when N changes
    new_shards = int(
        num_seen_shards if num_seen_shards is not None else cfg["num_seen_shards"]
    )
    deltas = pa.concat_tables(
        [
            _pq.read_table(path, columns=["url_hash_lo", "url_hash_hi"])
            for path in Checkpointer.wave_files(out_dir, waves, "seen_delta")
        ]
    )
    buckets = deltas.column("url_hash_lo").to_numpy() % np.uint64(new_shards)
    seen_deltas = [deltas.filter(pa.array(buckets == s)) for s in range(new_shards)]
    fr_lo = frontier_tbl.column("url_hash_lo").to_numpy()
    frontier_tbl = frontier_tbl.set_column(
        frontier_tbl.schema.get_field_index("shard"),
        "shard",
        pa.array((fr_lo % np.uint64(new_shards)).astype(np.uint32), pa.uint32()),
    )

    host_state: dict[int, dict] = {}
    for path in Checkpointer.wave_files(out_dir, [last], "host_state"):
        t = _pq.read_table(path)
        host_state[int(os.path.basename(path)[len("shard=") : -len(".parquet")])] = {
            "hosts": t.column("host").to_pylist(),
            "tokens": t.column("tokens").to_pylist(),
            "fetched": t.column("fetched_total").to_pylist(),
        }

    return run_crawl(
        seeds=[],
        webgraph=webgraph,
        robots=robots,
        webgraph_path=webgraph_path,
        robots_path=robots_path,
        budget_per_host=cfg["budget_per_host"],
        max_depth=cfg["max_depth"],
        max_pages=cfg["max_pages"],
        num_seen_shards=new_shards,
        num_host_shards=cfg["num_host_shards"],
        carryover_tokens=cfg["carryover_tokens"],
        user_agent=cfg["user_agent"],
        fetch_concurrency=fetch_concurrency,
        fetch_batch_size=fetch_batch_size,
        out_dir=out_dir,
        stop_after_wave=stop_after_wave,
        priority_policy=priority_policy,
        frontier_steps=frontier_steps,
        doc_steps=doc_steps,
        backend_factory=backend_factory,
        seen_capacity=seen_capacity,
        max_actor_recoveries=max_actor_recoveries,
        _resume_state={
            "frontier_tbl": frontier_tbl,
            "wave0": last + 1,
            "seq_base": meta["seq_base_after"],
            "fetched_total": meta["fetched_total_after"],
            "seen_deltas": seen_deltas,
            "host_state": host_state,
            "counters": meta.get("metrics", {}).get("counters"),
        },
    )
