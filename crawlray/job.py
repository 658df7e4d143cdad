"""The distributed crawl job: bootstrap + wave loop (SURVEY.md §3.2).

Replaces the reference's single-process BFS loop (`while queue: url =
queue.popleft(); ...` — see oracle/bfs_crawler.py, the normative stand-in
for the absent reference snapshot, SURVEY.md §0) with a wave loop over a
pool of `num_seen_shards` host-partitioned crawl shards
(crawlray/actors/shard.py), as Mercator partitions a crawl by host: shard
i owns the seen URLs, robots rules, token buckets, fetching and frontier
of every host with `host_shard_of(host, N) == i`. A leg starts exactly
those N actor processes and no task; each leg records where its wall time
went in `metrics["leg"]`, and each wave its driver-measured `wave_s` and
`phases`, which the checkpoint's meta.json keeps.

Determinism under parallelism (§4.2): crawl order is never derived from
execution timing — `seq` ranks the order keys (disc_key under BFS, a pure
function of the crawl graph) in the globally sorted set of every shard's
admitted and robots-denied keys, dedup winners come from the order-free
min-combine, and politeness admission from the B-lowest-keys rule. Any
shard count reproduces the oracle bit-for-bit.

Per-wave dataflow (two RPC rounds per shard; no actor calls another):

    [driver] sort every shard's logged keys, put them once    decide_s
      ├─ fetch round: shard i  fetch_parse_wave(keys)          fetch_s
      │     seq = rank of each row's key; fetch + parse its admitted
      │     rows; write its doc file; return counts (+ fetched seqs
      │     when the page budget may cut this wave) and N outlink
      │     slices routed by the outlink's host
      ├─ [driver] budget cut: cut_seq = r-th smallest fetched seq
      ├─ finish round: shard j  finish_wave(cut_seq, slice j of every
      │     shard's fetch)                                      finish_s
      │     min-combine + admit new URLs; next frontier = new ∪
      │     deferred, kept in the shard; write its crawl_log, frontier,
      │     seen_delta and host_state parts; decide the next wave
      │     (frontier steps, order keys, robots, B-lowest admission)
      │     and return its log block and the decided keys
      └─ [out_dir] commit_wave(): meta.json, then `_SUCCESS`    commit_s

The outlink slices are refs the driver hands from the fetch round to the
finish round, so Ray resolves them before a finish call runs. After the
loop crawl_log is the finish rounds' log blocks; a resumed crawl puts its
earlier waves' committed crawl_log files in front. A fresh checkpointed
crawl refuses a root that already holds committed waves.
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

from crawlray.actors.politeness import HOST_STATE_SCHEMA, host_hashes
from crawlray.actors.shard import CrawlShard
from crawlray.checkpoint import (
    FRONTIER_SCHEMA,
    Checkpointer,
    file_parts,
    ref_parts,
    result_datasets,
)
from crawlray.kernels.url import canonicalize, in_scope
from crawlray.schema import CRAWL_LOG, LINK_STRIDE
from crawlray.stages import SEEN_ROUTING_VERSION, frontier_table_from_urls


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



@dataclass
class CrawlResult:
    crawl_log: ray.data.Dataset
    documents: ray.data.Dataset
    waves: int
    fetched_total: int
    metrics: dict
    _shards: list = field(default_factory=list, repr=False)
    _out_dir: str | None = None

    def crawl_log_table(self) -> pa.Table:
        """Small-scale helper (tests): full log as one Arrow table, seq order."""
        t = pa.Table.from_pylist(self.crawl_log.take_all(), schema=CRAWL_LOG)
        return t.take(pc.sort_indices(t, sort_keys=[("seq", "ascending")]))

    def seen_urls(self) -> set[str]:
        """Full seen set, on every call (tests; at scale read the
        checkpoint's `seen_delta` parts): the committed `seen_delta`
        parts of a checkpointed crawl, which hold everything a resume
        ingested, plus the URLs the live shards have not dumped yet."""
        out = Checkpointer.read_seen_urls(self._out_dir) if self._out_dir else set()
        for urls in ray.get([a.pending_urls.remote() for a in self._shards]):
            out.update(urls)
        return out

    def shutdown(self) -> None:
        """Kill the crawl's shard actors. The result datasets stay
        consumable: crawl_log reads block refs the driver owns and the
        committed crawl_log files, documents reads parquet."""
        for a in self._shards:
            try:
                ray.kill(a)
            except Exception:
                pass
        self._shards = []


def _bucket(table: pa.Table, hashes: np.ndarray, n: int) -> list[pa.Table]:
    """`table`'s rows split by `hashes % n` into n tables (host routing)."""
    dest = hashes % np.uint32(n)
    return [table.filter(pa.array(dest == s)) for s in range(n)]


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
    fetch_batch_size: int = 512,
    carryover_tokens: bool = False,
    enrich: bool = False,
    user_agent: str = "*",
    out_dir: str | None = None,
    stop_after_wave: int | None = None,
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

    `num_seen_shards`: the size N of the crawl-shard pool (each shard owns
    its hosts' seen URLs, politeness state and fetching).
    `fetch_batch_size`: rows a shard fetches and parses at a time.
    `_fault_hook(wave, actors)`: test-only fault injector called at the top
    of every wave iteration with the live shard handles under the keys
    seen, polite and fetchers (one pool serves all three); hooks must
    self-disarm or the recovered run re-dies.
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
        # work — a real crawler doesn't load the web per run)
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

    # documents land on disk, written by the shards per wave — partitioned,
    # resumable output; span payloads never transit plasma. `scratch_dir`
    # lets callers without a checkpoint root choose the filesystem (benches
    # use tmpfs so the measurement isn't disk-bound)
    doc_root = out_dir if out_dir is not None else tempfile.mkdtemp(
        prefix="crawlray_docs_", dir=scratch_dir or "/tmp"
    )

    # ---- every shard is asked to start before the first blocking call, so
    # their process start-ups (~1 s of CPU each) overlap one another and the
    # bootstrap RPCs that wait on them. Each shard indexes its own hosts'
    # pages of the webgraph, which it reads zero-copy from the object store
    n = int(num_seen_shards)
    robots_ref = ray.put(robots) if robots is not None else None
    shards = [
        CrawlShard.remote(
            i, n,
            seen_capacity=max(1 << 14, n_pages * 2),
            budget_per_host=budget_per_host,
            carryover_tokens=carryover_tokens,
            robots=robots_ref,
            user_agent=user_agent,
            webgraph_refs=webgraph_refs,
            backend_factory=backend_factory,
            enrich=enrich,
            max_depth=max_depth,
            fetch_batch_size=fetch_batch_size,
            doc_root=doc_root,
            checkpoint=out_dir is not None,
            frontier_steps=frontier_steps or [],
            doc_steps=doc_steps or [],
            priority_policy=priority_policy,
        )
        for i in range(n)
    ]
    if _actor_holder is not None:
        _actor_holder["actors"] = shards

    if web_fp is None:
        web_fp = _webgraph_fingerprint(
            pa.concat_tables([ray.get(webgraph_refs[0]), ray.get(webgraph_refs[-1])])
        )
    _t_started = time.time()

    # O-24 counters: the shards return per-wave totals from finish_wave and
    # the driver sums them here; resume seeds them from the committed meta.json
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
        frontier_tbl = frontier_table_from_urls(seed_urls, seed_keys, seed_depths, n)
        dest = frontier_tbl.column("shard").to_numpy()
        decisions = ray.get([
            a.start.remote(frontier_tbl.filter(pa.array(dest == i)), 0, True)
            for i, a in enumerate(shards)
        ])
    else:
        # ---- resume: each shard's bucket of the seen deltas, host state and
        # stored frontier (resume_crawl re-buckets them by host shard)
        wave = _resume_state["wave0"]
        seq_base = _resume_state["seq_base"]
        fetched_total = _resume_state["fetched_total"]
        decisions = ray.get([
            a.start.remote(fr, wave, False, seen, hs)
            for a, fr, seen, hs in zip(
                shards, _resume_state["frontier"], _resume_state["seen_deltas"],
                _resume_state["host_state"],
            )
        ])
    _t_booted = time.time()

    log_blocks: list = []  # (ref, rows, bytes) of this leg's log blocks
    metrics: dict = {"waves": []}
    waves_done = wave
    wave0 = wave
    commit_s = 0.0

    checkpointer = None
    if out_dir is not None:
        cfg = {
            "budget_per_host": budget_per_host,
            "max_depth": max_depth,
            "max_pages": max_pages,
            "num_seen_shards": n,
            "carryover_tokens": carryover_tokens,
            "user_agent": user_agent,
            "webgraph_fingerprint": web_fp,
            "priority_policy": policy_name or "bfs",
            "seen_routing": SEEN_ROUTING_VERSION,
        }
        checkpointer = Checkpointer(out_dir, cfg)

    while sum(d["frontier"] for d in decisions):
        # Budget already exhausted at wave start (e.g. resuming a checkpoint
        # that finished on max_pages but committed a non-empty frontier):
        # stop before issuing any fetches.
        if max_pages is not None and fetched_total >= max_pages:
            break
        _t_wave = time.time()
        if _fault_hook is not None:
            _fault_hook(wave, {"seen": shards, "polite": shards, "fetchers": shards})
        # leftover uncommitted wave dir (crashed run / rerun into same root):
        # clean BEFORE the shards write into it
        wdir = os.path.join(doc_root, f"wave={wave:05d}")
        if os.path.isdir(wdir):
            shutil.rmtree(wdir)

        # decide: the shards decided at the end of the previous round; the
        # driver merges their admitted + robots-denied keys into the wave's
        # seq order (O-33 without a distributed sort) and puts them once
        logged_keys = np.sort(np.concatenate([d["keys"] for d in decisions]))
        n_admitted = sum(d["admitted"] for d in decisions)
        # a wave can cross the page budget only if it admits past it
        hold = max_pages is not None and fetched_total + n_admitted > max_pages
        keys_ref = ray.put(logged_keys)
        _t_decided = time.time()

        fetches = [
            a.fetch_parse_wave.options(num_returns=n + 1).remote(keys_ref, seq_base, wave, hold)
            for a in shards
        ]
        fetch_infos = ray.get([f[0] for f in fetches])
        _t_fetched = time.time()
        wave_fetched = sum(f["fetched"] for f in fetch_infos)

        # budget cut (O-35, RBC-10): the deterministic prefix ends at the
        # r-th fetched page in seq order
        cut_seq = None
        if max_pages is not None and fetched_total + wave_fetched > max_pages:
            r = max_pages - fetched_total  # >= 1 (guard at wave start)
            cut_seq = int(np.sort(np.concatenate([f["fetched_seqs"] for f in fetch_infos]))[r - 1])
            wave_fetched = r
        last = (
            cut_seq is not None
            or (stop_after_wave is not None and wave >= stop_after_wave)
            or (max_pages is not None and fetched_total + wave_fetched >= max_pages)
        )
        fins = [
            a.finish_wave.remote(wave, cut_seq, not last, *[f[1 + j] for f in fetches])
            for j, a in enumerate(shards)
        ]
        outs = ray.get([f[1] for f in fins])
        _t_finished = time.time()
        log_blocks.extend((f[0], o["log_rows"], o["log_bytes"]) for f, o in zip(fins, outs))
        for o in outs:
            for k, v in o["counters"].items():
                counters[k] = counters.get(k, 0) + v
        busy = [f["busy_s"] for f in fetch_infos]
        counters["fetch_busy_s"] = round(counters.get("fetch_busy_s", 0.0) + sum(busy), 3)

        n_logged = len(logged_keys) if cut_seq is None else sum(o["log_rows"] for o in outs)
        n_deferred = sum(d["deferred"] for d in decisions)
        fetched_total += wave_fetched
        seq_base += n_logged
        record = {
            "wave": wave,
            "frontier": sum(d["frontier"] for d in decisions),
            "logged": n_logged,
            "fetched": wave_fetched,
            "deferred": n_deferred,
            "discovered_new": sum(o["discovered_new"] for o in outs),
            "counters": dict(counters),
            # driver wall seconds from the wave's start to its commit
            "wave_s": round(_t_finished - _t_wave, 4),
            # where the wave's time went; the shards' own decide runs in
            # the previous finish round (or the leg's bootstrap), so
            # decide_s is the driver's merge of their keys. commit_s is
            # added once the commit returns (meta.json cannot hold it)
            "phases": {
                "decide_s": round(_t_decided - _t_wave, 4),
                "fetch_s": round(_t_fetched - _t_decided, 4),
                "finish_s": round(_t_finished - _t_fetched, 4),
                "fetch_busy_min_s": round(min(busy), 4),
                "fetch_busy_max_s": round(max(busy), 4),
                "fetch_busy_sum_s": round(sum(busy), 4),
                "admitted": n_admitted,
                "deferred": n_deferred,
                "denied": sum(d["denied"] for d in decisions),
            },
        }
        metrics["waves"].append(record)
        if checkpointer is not None:
            _t_commit = time.time()
            checkpointer.commit_wave(
                wave=wave, metrics=record, seq_base=seq_base, fetched_total=fetched_total
            )
            record["phases"] = dict(record["phases"], commit_s=round(time.time() - _t_commit, 4))
            commit_s += time.time() - _t_commit

        waves_done = wave + 1
        if last:
            break
        decisions = [o["next"] for o in outs]
        wave += 1

    _t_loop = time.time()
    # assemble public outputs: this leg's log blocks, preceded for a
    # resumed crawl by its earlier waves' committed log files; documents
    # from every wave's doc partition
    first = 0 if checkpointer is not None else wave0
    crawl_log, documents = result_datasets(
        file_parts(Checkpointer.wave_files(doc_root, range(first, wave0), "crawl_log"), CRAWL_LOG)
        + ref_parts(log_blocks, CRAWL_LOG),
        Checkpointer.wave_files(doc_root, range(first, waves_done), "documents"),
    )
    metrics["fetched_total"] = fetched_total
    metrics["doc_root"] = doc_root
    # final counters (O-24) + seen-set cardinality estimate (O-32; one RPC
    # round after the wave loop — never inside it)
    metrics["counters"] = counters
    from crawlray.ops.sketch import HLL

    merged_hll = HLL(12)
    for regs in ray.get([a.hll_registers.remote() for a in shards]):
        merged_hll.merge(HLL(12, np.frombuffer(regs, dtype=np.uint8).copy()))
    metrics["seen_url_estimate"] = int(merged_hll.estimate())
    # where the leg's wall time went: asking every shard to start (and
    # loading the web), the bootstrap or resume ingest with the first
    # decide (which waits for the shards to come up), the wave loop (its
    # commits are `commit_s` of it) and building the outputs
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
        waves=waves_done if log_blocks else 0,
        fetched_total=fetched_total,
        metrics=metrics,
        _shards=shards,
        _out_dir=out_dir,
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


def _stop(actors: list) -> None:
    """Kill `actors` once each has run the calls queued on it and joined
    its background doc write (the call fails at once on a dead actor):
    `ray.kill` returns before the process stops, and a write that outlives
    it lands in the uncommitted wave dir that a recovery removes."""
    if actors:
        ray.wait([a.join_writes.remote() for a in actors], num_returns=len(actors), timeout=30)
    for a in actors:
        try:
            ray.kill(a, no_restart=True)
        except Exception:
            pass


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
    kills crawl shards mid-crawl). Requires `out_dir`
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
            # their CPUs; a recovery must not meet a zombie shard writing
            # into the wave dir it is about to re-run
            _stop(holder.pop("actors", []))
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

    `num_seen_shards` resumes into a DIFFERENT shard count than the
    checkpoint was written with (Megaphone-style re-shard on resume,
    SURVEY §7.7-H2 / VERDICT r3 item 9): routing is
    shard = host_hash(host) % N — a pure function of the host, never of
    N — so changing N is a re-partition of the same key space: the
    committed seen deltas (which store the host hash), the host state and
    the stored frontier re-bucket together, keyed by the same function as
    the data they serve. Results are shard-count-invariant
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

    # routing is host_hash % N: bucketing the committed deltas, the last
    # wave's host state and its frontier by host_hash % new_shards restores
    # them, and re-shards them when N changes
    new_shards = int(
        num_seen_shards if num_seen_shards is not None else cfg["num_seen_shards"]
    )

    def read(sub: str, waves_, columns=None, schema=None) -> pa.Table:
        parts = [_pq.read_table(p, columns=columns) for p in Checkpointer.wave_files(out_dir, waves_, sub)]
        return pa.concat_tables(parts) if parts else schema.empty_table()

    deltas = read("seen_delta", waves, ["url_hash_lo", "url_hash_hi", "host_hash"])
    host_state = read("host_state", [last], schema=HOST_STATE_SCHEMA)
    frontier = read("frontier", [last], schema=FRONTIER_SCHEMA)
    frontier_hash = host_hashes(frontier.column("host"))
    frontier = frontier.set_column(
        frontier.schema.get_field_index("shard"),
        "shard",
        pa.array(frontier_hash % np.uint32(new_shards), pa.uint32()),
    )

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
        carryover_tokens=cfg["carryover_tokens"],
        user_agent=cfg["user_agent"],
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
            "wave0": last + 1,
            "seq_base": meta["seq_base_after"],
            "fetched_total": meta["fetched_total_after"],
            "frontier": _bucket(frontier, frontier_hash, new_shards),
            "seen_deltas": _bucket(
                deltas, deltas.column("host_hash").to_numpy(), new_shards
            ),
            "host_state": _bucket(
                host_state, host_hashes(host_state.column("host")), new_shards
            ),
            "counters": meta.get("metrics", {}).get("counters"),
        },
    )
