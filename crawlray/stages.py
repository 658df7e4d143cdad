"""Per-wave pipeline stages (SURVEY.md §3.2).

Round-2 architecture: the wave hot loop runs as plain Ray tasks over Arrow
block refs plus key-routed actor RPCs, NOT as per-wave Ray Data streaming
executions. Rationale (measured, BENCH/BASELINE.md round 1): each streaming
execution costs a 0.2–0.5 s driver floor and the wave loop needed ~6 of
them per wave — pure fixed cost that capped N→4N scaling efficiency at
0.40. The wave loop is exactly the case the Dataset API cannot express
without that cost: an iterative loop over shared mutable actor state (the
sharded seen set, politeness buckets). The per-wave checkpoint commit
follows the same rule (crawlray/checkpoint.py): plain write tasks over the
wave's block refs, no `Dataset.write_parquet`. Ray Data remains the IR
everywhere else — blocks are Arrow tables in the object store, the
crawl's public outputs are `ray.data.Dataset`s, and every library
operator (ops/) is Dataset-based.

Data-volume design (the second round-1 scale fix): parsed span payloads
never transit the object store. Fetcher actors buffer their own documents
and write them straight to per-wave parquet (one file per actor per wave —
the resumable, partitioned layout), and offer extracted outlinks directly
to the seen-shard actors (map-side min-combine first). What flows back
through task returns is only the small crawl-log projection.

Stage functions that talk to stateful actors group their batch rows by the
target shard and issue ONE batched RPC per shard per batch — key-routed
RPCs instead of a Ray Data shuffle (SURVEY.md O-26). All stages are
retry-safe: a re-sent host-shard mark re-banks keys that decide_and_drain
deduplicates, seen-shard offers are min-combine idempotent, and fetchers
deduplicate re-sent chunks by (wave, first disc_key).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from crawlray.actors.politeness import NO_ADMIT, host_shard_of
from crawlray.backend import SyntheticBackend
from crawlray.kernels.html import parse_page
from crawlray.kernels.url import url_host
from crawlray.murmur3 import hash_urls_128, murmur3_x64_128_batch
from crawlray.schema import LINK_STRIDE, SPAN_STRUCT, pack_disc_depth

FRONTIER_COLS = ["url", "host", "depth", "disc_key", "url_hash_lo", "url_hash_hi", "shard"]

LOG_SCHEMA = pa.schema(
    [
        ("seq", pa.int64()),
        ("url", pa.string()),
        ("host", pa.string()),
        ("wave", pa.int32()),
        ("depth", pa.int32()),
        ("status", pa.string()),
        ("n_out", pa.int32()),
    ]
)

DOC_FILE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("seq", pa.int64()),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("lang_pred", pa.string()),
        ("n_tokens", pa.int32()),
        ("simhash", pa.uint64()),
    ]
)


# Version tag of the URL→seen-shard routing function. Stored in the
# checkpoint config and validated on resume: a checkpoint written under a
# different routing layout would ingest seen deltas into the wrong shards,
# silently missing membership probes and re-crawling seen URLs (ADVICE r2).
# Bump whenever seen_shard_of's hash or modulus scheme changes.
SEEN_ROUTING_VERSION = "murmur3_lo_v2"


def seen_shard_of(url: str, num_shards: int) -> int:
    """Seen-shard routing: murmur3_128 lo % num_shards — the SAME hash the
    shard uses for membership (schema.py documents the frontier `shard`
    column as url_hash_lo % num_seen_shards). Hashing once per unique URL at
    the offerer (vectorized murmur3_x64_128_batch) serves routing AND
    membership; this scalar form exists for seed bootstrap and small paths.
    Routing must agree everywhere a URL is mapped to a shard (offer, seed
    registration, frontier derivation, checkpoint resume ingest)."""
    from crawlray.murmur3 import murmur3_x64_128

    lo, _ = murmur3_x64_128(url.encode("utf-8", "surrogatepass"))
    return lo % num_shards


def _group_by_shard(shards: np.ndarray) -> dict[int, np.ndarray]:
    order = np.argsort(shards, kind="stable")
    out: dict[int, np.ndarray] = {}
    if len(order) == 0:
        return out
    sorted_shards = shards[order]
    bounds = np.nonzero(np.diff(sorted_shards))[0] + 1
    for chunk in np.split(order, bounds):
        out[int(shards[chunk[0]])] = chunk
    return out


# --------------------------------------------------------------------------
# phase A: robots mask + politeness offers (one task per frontier block)
# --------------------------------------------------------------------------


def mark_block(
    batch: pa.Table,
    host_actors,
    wave: int = 0,
    frontier_steps=None,
    policy=None,
) -> pa.Table:
    """Applies the registered frontier steps, assigns each row's ORDER KEY
    (`okey`, from the priority policy — O-48; BFS default = disc_key), and
    sends each host shard its rows in ONE batched `mark` RPC, which returns
    the robots `allowed` mask. The host shards bank the denied okeys and
    the offered okeys of allowed rows, so after decide_and_drain() the
    driver recovers the wave's full logged key-set from the actors without
    touching the data again."""
    for st in frontier_steps or ():
        batch = st(batch)
    n = batch.num_rows
    if n == 0:
        return batch.append_column("okey", pa.array([], pa.int64())).append_column(
            "allowed", pa.array([], pa.bool_())
        )
    okey = (
        batch.column("disc_key").to_numpy().astype(np.int64)
        if policy is None
        else np.asarray(policy(batch, wave), dtype=np.int64)
    )
    batch = batch.append_column("okey", pa.array(okey, pa.int64()))
    host_arr = batch.column("host").combine_chunks()
    url_arr = batch.column("url").combine_chunks()
    # shard routing hashes each UNIQUE host once (dictionary-encode), not
    # each row: a frontier block has ~1000x more rows than hosts, and the
    # pure-python murmur3 per row was a measured mark-phase floor
    enc = host_arr.dictionary_encode()
    sh_u = np.array(
        [host_shard_of(h, len(host_actors)) for h in enc.dictionary.to_pylist()],
        dtype=np.int64,
    )
    groups = _group_by_shard(sh_u[enc.indices.to_numpy()])
    # RPC payloads are ARROW slices, not python string lists: arrow arrays
    # pickle with out-of-band buffers (one memcpy), while list[str] pays
    # per-string pickling — measured as a large, contention-sensitive cost
    futs = {
        s: host_actors[s].mark.remote(
            host_arr.take(pa.array(idxs, pa.int64())),
            url_arr.take(pa.array(idxs, pa.int64())),
            okey[idxs],
        )
        for s, idxs in groups.items()
    }
    allowed = np.zeros(n, dtype=bool)
    for s, idxs in groups.items():
        allowed[idxs] = ray.get(futs[s])
    return batch.append_column("allowed", pa.array(allowed))


@ray.remote(num_cpus=0.5)
def mark_block_task(
    block: pa.Table, host_actors, wave: int = 0, frontier_steps=None, policy=None
) -> pa.Table:
    return mark_block(block, host_actors, wave, frontier_steps, policy)


# --------------------------------------------------------------------------
# enrichment kernels (run inside fetcher actors, alongside parse)
# --------------------------------------------------------------------------

_ENRICH_STOPWORDS = {
    "en": frozenset("the of and a to in is it that for".split()),
    "de": frozenset("der die das und ist ein nicht mit zu".split()),
    "fr": frozenset("le la les et est un une pas pour".split()),
    "es": frozenset("el la los y es un una no por".split()),
}


def enrich_doc(text: str) -> tuple[str, int, int]:
    """Per-document enrichment for the training-data path: language-ID
    (stopword overlap), token count, and a 64-bit simhash over 3-gram token
    shingles. This is the per-page compute a real 100 TB crawl pipeline
    runs alongside parse — the crawl bench enables it to make the workload
    representative.

    Vectorized shape (round 2): one crc32 per TOKEN (not per 3-gram string
    join), 3-gram hashes combined from shifted token-hash slices with
    odd-constant multiplies + a splitmix-style mix, and bit votes counted
    via np.unpackbits — 64 bytes per shingle of memory traffic instead of
    the former 512-byte bit matrix. The old version moved ~800 KB per page
    through memory, which saturated node bandwidth before CPUs at 24+
    parallel fetchers (measured: per-page cost inflated 2.3x from 8 to 32
    workers)."""
    import zlib

    tokens = text.split()
    nt = len(tokens)
    wset = set(tokens[:200])
    best, best_n = "und", 0
    for lang, sw in _ENRICH_STOPWORDS.items():
        k = len(wset & sw)
        if k > best_n:
            best, best_n = lang, k
    if nt < 3:
        return best, nt, 0
    crc = zlib.crc32
    th = np.array([crc(t.encode()) for t in tokens], dtype=np.uint64)
    h = (
        (th[:-2] * np.uint64(0x9E3779B97F4A7C15))
        ^ (th[1:-1] * np.uint64(0xC2B2AE3D27D4EB4F))
        ^ (th[2:] * np.uint64(0x165667B19E3779F9))
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(29)
    votes = np.unpackbits(h.view(np.uint8)).reshape(-1, 64).sum(
        axis=0, dtype=np.int64
    )
    maj = (votes * 2 >= len(h)).astype(np.uint8)
    sim = int.from_bytes(np.packbits(maj).tobytes(), "little")
    return best, nt, sim


def enrich_batch(texts: list[str]) -> tuple[list[str], list[int], list[int]]:
    """Batch form of enrich_doc — identical outputs, one crc32 per UNIQUE
    token per BATCH instead of one per token per document.

    Tokenization (utf8_split_whitespace + empty-token drop ≡ str.split()),
    dictionary encoding and stopword membership all run as Arrow C kernels
    across the whole batch; crawl text repeats heavily (boilerplate,
    templates), so the unique-token dictionary is a small fraction of the
    token stream and the Python-loop crc32 cost collapses with it. The
    remaining per-document work is a handful of numpy slice ops (simhash
    mixing + distinct-code stopword counts), each on an L1/L2-resident
    working set. Measured ~1.35x faster than per-doc enrich_doc at equal
    outputs, with far fewer Python string/object allocations — which is
    what matters for same-box scaling, since parse+enrich is the
    bandwidth-bound part of the fetch hot loop."""
    import zlib

    n = len(texts)
    if n == 0:
        return [], [], []
    arr = pa.array(texts, pa.string())
    tok = pc.utf8_split_whitespace(arr)
    flat = tok.values
    offs = tok.offsets.to_numpy().astype(np.int64)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    cum = np.zeros(len(keep_np) + 1, np.int64)
    np.cumsum(keep_np, out=cum[1:])
    o = cum[offs]  # per-doc boundaries in the kept-token stream
    enc = flat.filter(keep).dictionary_encode()
    uniq = enc.dictionary
    idx = enc.indices.to_numpy() if len(enc) else np.empty(0, np.int32)
    crc = zlib.crc32
    uh = np.fromiter(
        (crc(t.encode()) for t in uniq.to_pylist()), np.uint64, len(uniq)
    )
    lang_names = list(_ENRICH_STOPWORDS)
    if len(uniq):
        lang_bool = np.stack(
            [
                pc.is_in(
                    uniq, value_set=pa.array(sorted(_ENRICH_STOPWORDS[ln]))
                ).to_numpy(zero_copy_only=False)
                for ln in lang_names
            ]
        )
    else:
        lang_bool = np.zeros((len(lang_names), 0), bool)
    th_flat = uh[idx] if len(idx) else np.empty(0, np.uint64)
    # the 3-gram mixing stays PER DOC: a doc's ~12 KB working set lives in
    # L1/L2, while one whole-stream pass would chain ~6 MB temporaries per
    # op — worse memory traffic under 24 parallel fetchers
    C1 = np.uint64(0x9E3779B97F4A7C15)
    C2 = np.uint64(0xC2B2AE3D27D4EB4F)
    C3 = np.uint64(0x165667B19E3779F9)
    M1 = np.uint64(0xFF51AFD7ED558CCD)
    S33, S29 = np.uint64(33), np.uint64(29)
    langs: list[str] = []
    nts: list[int] = []
    sims: list[int] = []
    for i in range(n):
        a, b = int(o[i]), int(o[i + 1])
        nt = b - a
        codes200 = np.unique(idx[a : min(b, a + 200)])
        best, best_n = "und", 0
        for j, ln in enumerate(lang_names):
            k = int(lang_bool[j, codes200].sum())
            if k > best_n:
                best, best_n = ln, k
        langs.append(best)
        nts.append(nt)
        if nt < 3:
            sims.append(0)
            continue
        th = th_flat[a:b]
        h = (th[:-2] * C1) ^ (th[1:-1] * C2) ^ (th[2:] * C3)
        h ^= h >> S33
        h *= M1
        h ^= h >> S29
        votes = np.unpackbits(h.view(np.uint8)).reshape(-1, 64).sum(
            axis=0, dtype=np.int64
        )
        maj = (votes * 2 >= len(h)).astype(np.uint8)
        sims.append(int.from_bytes(np.packbits(maj).tobytes(), "little"))
    return langs, nts, sims


# --------------------------------------------------------------------------
# outlink explode (vectorized; used by fetcher offers and the library op)
# --------------------------------------------------------------------------


def explode_outlinks(batch: pa.Table, max_depth: int | None) -> pa.Table:
    """Fetched pages → (url, pack) discovery rows; pack carries the dedup
    winner (disc_key, depth) in one int64 so within-wave dedup is a single
    vectorized min-combine (SURVEY.md O-30, §1.3). Only these two columns
    enter the exchange — minimal volume."""
    # select BEFORE filter: the caller's batch carries the heavy spans
    # column, and pa.Table.filter copies every selected column — filtering
    # the full table re-copied ~10 KB of span text per page just to read
    # its outlinks (measured as the dominant offer-phase cost)
    cols = ["status", "outlinks", "seq", "depth"]
    b = batch.select([c for c in cols if c in batch.column_names])
    mask = pc.equal(b.column("status"), "fetched")
    n_fetched = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
    if n_fetched < b.num_rows:
        b = b.filter(mask)
    empty = pa.table({"url": pa.array([], pa.string()), "pack": pa.array([], pa.int64())})
    if b.num_rows == 0:
        return empty
    links = b.column("outlinks").combine_chunks()
    flat = links.flatten()
    total = len(flat)
    if total == 0:
        return empty
    parent_idx = pc.list_parent_indices(links).to_numpy().astype(np.int64)
    lengths = pc.list_value_length(links).to_numpy().astype(np.int64)
    starts = np.cumsum(lengths) - lengths
    link_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    parent_seq = b.column("seq").to_numpy()[parent_idx]
    child_depth = b.column("depth").to_numpy().astype(np.int64)[parent_idx] + 1
    disc = parent_seq * LINK_STRIDE + link_idx
    pack = pack_disc_depth(disc, child_depth)
    tbl = pa.table({"url": flat, "pack": pa.array(pack, pa.int64())})
    if max_depth is not None:
        tbl = tbl.filter(pa.array(child_depth <= max_depth))
    return tbl


# --------------------------------------------------------------------------
# fetch + parse + doc write + offer — the stateful heart of the wave
# --------------------------------------------------------------------------


class FetchParseStage:
    """Stateful fetch+parse stage (SURVEY.md O-23 + O-14/O-15 fused).

    The fetch backend index (url → html for the synthetic web) is built ONCE
    per actor in __init__ from zero-copy object-store table refs — the
    canonical "stateful setup once per actor, work per batch" pattern.

    Wave mode (`fetch_parse_wave`) additionally:
      * buffers this actor's parsed documents and writes them to
        `doc_root/wave=W/documents/part-<actor>.parquet` at end_wave —
        span payloads never transit the object store, and the per-wave
        per-actor files are the resumable partitioned output layout;
      * explodes + min-combines outlinks per chunk and offers them
        directly to the seen-shard actors (fire-and-forget futures,
        awaited at end_wave) — the map side of within-wave dedup runs
        where the data already is.
    When a global page budget is active (`defer_offers=True`), offers and
    doc writes are deferred to end_wave(cut_seq), which filters both to
    seq ≤ cut_seq — the deterministic budget prefix (RBC-10) requires the
    wave barrier anyway.

    Also usable as a plain Ray Data actor-pool stage:
    `ds.map_batches(FetchParseStage, concurrency=..., fn_constructor_kwargs=
    {"webgraph_ref": ref})` for the standalone document-parse pipeline.
    """

    def __init__(
        self,
        webgraph_ref,
        enrich: bool = False,
        seen_actors=None,
        num_seen_shards: int = 0,
        max_depth: int | None = None,
        doc_root: str | None = None,
        actor_idx: int = 0,
        defer_offers: bool = False,
        web_index_refs: tuple | None = None,
        doc_steps=None,
        backend_factory=None,
    ):
        if backend_factory is not None:
            # backend-agnostic path (O-46): the factory runs ONCE per actor
            # in __init__ — e.g. HttpBackend opens its session here — and
            # the synthetic web index machinery is skipped entirely
            self.backend = backend_factory()
        elif web_index_refs is not None:
            # scale path: pre-sorted shared url index (built ONCE by
            # build_web_index_task) + the original webgraph blocks — actor
            # init is zero-copy gets, not a per-actor Python dict build,
            # and the multi-GB html payload is never copied
            urls_ref, perm_ref, wg_refs = web_index_refs
            urls = ray.get(urls_ref) if isinstance(urls_ref, ray.ObjectRef) else urls_ref
            perm = ray.get(perm_ref) if isinstance(perm_ref, ray.ObjectRef) else perm_ref
            if isinstance(wg_refs, list):
                wg = pa.concat_tables(ray.get(wg_refs))
            elif isinstance(wg_refs, ray.ObjectRef):
                wg = ray.get(wg_refs)
            else:
                wg = wg_refs
            self.backend = SyntheticBackend.from_sorted_index(
                urls, perm, wg.column("html")
            )
        else:
            if isinstance(webgraph_ref, list):
                tbl = pa.concat_tables(ray.get(webgraph_ref))  # zero-copy chunks
            elif isinstance(webgraph_ref, ray.ObjectRef):
                tbl = ray.get(webgraph_ref)
            else:
                tbl = webgraph_ref
            self.backend = SyntheticBackend(tbl)
        self.enrich = enrich
        self.seen_actors = seen_actors or []
        self.num_seen_shards = num_seen_shards
        self.max_depth = max_depth
        self.doc_root = doc_root
        self.actor_idx = actor_idx
        self._write_threads: list = []
        self._write_errors: list = []
        self.defer_offers = defer_offers
        # offers accumulate per actor and flush every OFFER_FLUSH_ROWS of
        # combined links: per-chunk offering was ~16 RPCs per 128-row chunk
        # (~75k tiny RPCs per big wave), which drove kernel/IPC time to
        # 30-55% of the node (measured via /proc/stat during a bench run).
        # Batching also deepens the map-side min-combine: duplicates across
        # a whole actor's recent chunks collapse before any RPC is sent.
        self._offer_buf: list[pa.Table] = []
        self._offer_buf_rows = 0
        self.OFFER_FLUSH_ROWS = 16384
        self.doc_steps = list(doc_steps or ())  # registered document steps
        # seqs of this wave's fetched / error rows: end_wave counts them
        # after the budget cut (O-24 counters ride its return value)
        self._fetched_seqs: list[np.ndarray] = []
        self._error_seqs: list[np.ndarray] = []
        self._busy_reported = 0.0
        self._doc_buf: list[pa.Table] = []
        self._link_buf: list[pa.Table] = []  # only when defer_offers
        self._pending_offers: list = []
        self._chunks_done: set[tuple[int, int]] = set()
        self._wave = -1
        self._busy = 0.0  # cumulative seconds inside fetch_parse_wave

    def busy_seconds(self) -> float:
        return self._busy

    # ---- full-output mode (standalone Ray Data pipelines) ----------------

    def fetch_parse(self, batch: pa.Table) -> pa.Table:
        return self(batch)

    @staticmethod
    def empty_output() -> pa.Table:
        return pa.schema(
            [
                ("url", pa.string()),
                ("host", pa.string()),
                ("depth", pa.int32()),
                ("disc_key", pa.int64()),
                ("seq", pa.int64()),
                ("status", pa.string()),
                ("n_out", pa.int32()),
                ("spans", pa.list_(SPAN_STRUCT)),
                ("outlinks", pa.list_(pa.string())),
                ("lang_pred", pa.string()),
                ("n_tokens", pa.int32()),
                ("simhash", pa.uint64()),
            ]
        ).empty_table()

    def phase_times(self) -> dict:
        return dict(self._phase)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time as _t

        if not hasattr(self, "_phase"):
            self._phase = {"fetch": 0.0, "parse": 0.0, "arrow": 0.0}
        urls = batch.column("url").to_pylist()
        statuses: list[str] = []
        n_outs: list[int] = []
        outlinks_col: list[list[str]] = []
        langs: list[str] = []
        n_toks: list[int] = []
        simhashes: list[int] = []
        # columnar span accumulation: flat field lists + list offsets — the
        # struct array is built ONCE from columns (a per-span dict would pay
        # python-dict introspection in pa.array for every span)
        sp_kind: list[str] = []
        sp_text: list[str] = []
        sp_ref: list[str] = []
        sp_off: list[int] = []
        sp_offsets: list[int] = [0]
        enrich_texts: list[str] = []  # fetched-row texts for enrich_batch
        enrich_rows: list[int] = []
        _t0 = _t.time()
        htmls = self.backend.fetch_many(urls)
        _t1 = _t.time()
        self._phase["fetch"] += _t1 - _t0
        for u, html in zip(urls, htmls):
            if html is None:
                statuses.append("error")
                n_outs.append(0)
                sp_offsets.append(len(sp_kind))
                outlinks_col.append([])
                langs.append("")
                n_toks.append(0)
                simhashes.append(0)
                continue
            spans, outlinks = parse_page(html, u)
            statuses.append("fetched")
            n_outs.append(len(outlinks))
            for s in spans:
                sp_kind.append(s.kind)
                sp_text.append(s.text)
                sp_ref.append(s.media_ref)
                sp_off.append(s.offset)
            sp_offsets.append(len(sp_kind))
            outlinks_col.append(outlinks)
            if self.enrich:
                enrich_texts.append(" ".join(s.text for s in spans if s.kind == "text"))
                enrich_rows.append(len(statuses) - 1)
            else:
                langs.append("")
                n_toks.append(0)
                simhashes.append(0)
        if self.enrich:
            # one batch-vectorized pass over every fetched page's text
            # (error rows keep the ""/0/0 placeholders)
            bl, bn, bs = enrich_batch(enrich_texts)
            langs = [""] * len(statuses)
            n_toks = [0] * len(statuses)
            simhashes = [0] * len(statuses)
            for r, lv, nv, sv in zip(enrich_rows, bl, bn, bs):
                langs[r] = lv
                n_toks[r] = nv
                simhashes[r] = sv
        spans_arr = pa.ListArray.from_arrays(
            pa.array(sp_offsets, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(sp_kind, pa.string()),
                    pa.array(sp_text, pa.string()),
                    pa.array(sp_ref, pa.string()),
                    pa.array(sp_off, pa.int32()),
                ],
                fields=list(SPAN_STRUCT),
            ),
        )
        _t2 = _t.time()
        self._phase["parse"] += _t2 - _t1
        out = pa.table(
            {
                "url": batch.column("url"),
                "host": batch.column("host"),
                "depth": batch.column("depth"),
                "disc_key": batch.column("disc_key"),
                "seq": batch.column("seq"),
                "status": pa.array(statuses, pa.string()),
                "n_out": pa.array(n_outs, pa.int32()),
                "spans": spans_arr,
                "outlinks": pa.array(outlinks_col, pa.list_(pa.string())),
                "lang_pred": pa.array(langs, pa.string()),
                "n_tokens": pa.array(n_toks, pa.int32()),
                "simhash": pa.array(simhashes, pa.uint64()),
            }
        )
        self._phase["arrow"] += _t.time() - _t2
        return out

    # ---- wave mode -------------------------------------------------------

    def _bank_links(self, links: pa.Table) -> None:
        """Buffer exploded (url, pack) discovery rows; flush to the seen
        shards once OFFER_FLUSH_ROWS have accumulated (min-combine makes
        partial flushes idempotent and order-free)."""
        if links.num_rows == 0:
            return
        self._offer_buf.append(links)
        self._offer_buf_rows += links.num_rows
        if self._offer_buf_rows >= self.OFFER_FLUSH_ROWS:
            self._flush_offers()

    def _flush_offers(self) -> None:
        if not self._offer_buf:
            return
        links = (
            self._offer_buf[0]
            if len(self._offer_buf) == 1
            else pa.concat_tables(self._offer_buf)
        )
        self._offer_buf = []
        self._offer_buf_rows = 0
        self._offer_links(links)

    def _offer_links(self, links: pa.Table) -> None:
        """Map-side combine + key-routed offer to the seen shards. Futures
        are banked and awaited at end_wave (delivery must complete before
        finish_wave resolves the wave's dedup)."""
        if links.num_rows == 0:
            return
        import time as _tm

        _c0 = _tm.time()
        comb = links.group_by(["url"]).aggregate([("pack", "min")])
        url_arr = comb.column("url").combine_chunks()
        packs = comb.column("pack_min").to_numpy()
        # hash ONCE per unique URL (vectorized): lo%shards is the route and
        # (lo,hi) is the membership key the shard needs anyway — shipping
        # them kills both the per-URL python routing loop here and the
        # re-hash inside the shard's precombine
        lo, hi = murmur3_x64_128_batch(url_arr)
        shards = (lo % np.uint64(self.num_seen_shards)).astype(np.int64)
        _c1 = _tm.time()
        for s, idxs in _group_by_shard(shards).items():
            # arrow slice payload (out-of-band buffers), not a list[str]
            self._pending_offers.append(
                self.seen_actors[s].offer.remote(
                    url_arr.take(pa.array(idxs, pa.int64())),
                    packs[idxs],
                    lo[idxs],
                    hi[idxs],
                )
            )
        _c2 = _tm.time()
        self._phase["offer_combine"] = self._phase.get("offer_combine", 0.0) + (_c1 - _c0)
        self._phase["offer_rpc"] = self._phase.get("offer_rpc", 0.0) + (_c2 - _c1)

    def fetch_parse_wave(self, chunk: pa.Table, wave: int) -> pa.Table:
        """Fetch+parse one chunk; buffer docs, offer outlinks; return the
        chunk's CRAWL_LOG rows (log-formatted, no spans/outlinks)."""
        import time as _time

        _t0 = _time.time()
        try:
            return self._fetch_parse_wave(chunk, wave)
        finally:
            self._busy += _time.time() - _t0

    def _log_format(self, full: pa.Table, wave: int) -> pa.Table:
        return pa.table(
            {
                "seq": full.column("seq"),
                "url": full.column("url"),
                "host": full.column("host"),
                "wave": pa.array(np.full(full.num_rows, wave, np.int32), pa.int32()),
                "depth": full.column("depth"),
                "status": full.column("status"),
                "n_out": full.column("n_out"),
            }
        )

    def _fetch_parse_wave(self, chunk: pa.Table, wave: int) -> pa.Table:
        if wave != self._wave:
            # a new wave implicitly confirms the previous one was flushed
            self._wave = wave
            self._chunks_done = set()
        key = (wave, int(chunk.column("disc_key")[0].as_py())) if chunk.num_rows else None
        if key is not None and key in self._chunks_done:
            # re-sent chunk (task retry upstream): docs/offers already banked
            full = self(chunk)
            return self._log_format(full, wave)
        full = self(chunk)
        _fmask = pc.equal(full.column("status"), "fetched")
        _nf = pc.sum(pc.cast(_fmask, pa.int64())).as_py() or 0
        # all-fetched chunks (the common case on a healthy crawl) skip the
        # filter copy — it would duplicate every span byte in the chunk
        fetched = full if _nf == full.num_rows else full.filter(_fmask)
        seq = full.column("seq").to_numpy()
        ok = _fmask.to_numpy(zero_copy_only=False)
        self._fetched_seqs.append(seq[ok])
        self._error_seqs.append(seq[~ok])
        if fetched.num_rows:
            doc_tbl = pa.table(
                {
                    "doc_id": fetched.column("url"),
                    "seq": fetched.column("seq"),
                    "spans": fetched.column("spans"),
                    "lang_pred": fetched.column("lang_pred"),
                    "n_tokens": fetched.column("n_tokens"),
                    "simhash": fetched.column("simhash"),
                }
            )
            for st in self.doc_steps:  # O-45 document hook, in-actor
                doc_tbl = st(doc_tbl)
            self._doc_buf.append(doc_tbl)
        import time as _t

        _o0 = _t.time()
        if self.defer_offers:
            # budget path: bank discoveries with parent seq attached so the
            # cut can filter them at end_wave (RBC-10 deterministic prefix)
            links = self._links_with_seq(full)
            if links.num_rows:
                self._link_buf.append(links)
        else:
            self._bank_links(explode_outlinks(full, self.max_depth))
        self._phase.setdefault("offer", 0.0)
        self._phase["offer"] += _t.time() - _o0
        if key is not None:
            self._chunks_done.add(key)
        return self._log_format(full, wave)

    def _links_with_seq(self, full: pa.Table) -> pa.Table:
        """(url, pack, parent_seq) discovery rows — defer_offers path only."""
        b = full.select(["status", "outlinks", "seq", "depth"])
        mask = pc.equal(b.column("status"), "fetched")
        if (pc.sum(pc.cast(mask, pa.int64())).as_py() or 0) < b.num_rows:
            b = b.filter(mask)
        empty = pa.table(
            {
                "url": pa.array([], pa.string()),
                "pack": pa.array([], pa.int64()),
                "parent_seq": pa.array([], pa.int64()),
            }
        )
        if b.num_rows == 0:
            return empty
        links = b.column("outlinks").combine_chunks()
        flat = links.flatten()
        total = len(flat)
        if total == 0:
            return empty
        parent_idx = pc.list_parent_indices(links).to_numpy().astype(np.int64)
        lengths = pc.list_value_length(links).to_numpy().astype(np.int64)
        starts = np.cumsum(lengths) - lengths
        link_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        parent_seq = b.column("seq").to_numpy()[parent_idx]
        child_depth = b.column("depth").to_numpy().astype(np.int64)[parent_idx] + 1
        disc = parent_seq * LINK_STRIDE + link_idx
        pack = pack_disc_depth(disc, child_depth)
        tbl = pa.table(
            {
                "url": flat,
                "pack": pa.array(pack, pa.int64()),
                "parent_seq": pa.array(parent_seq, pa.int64()),
            }
        )
        if self.max_depth is not None:
            tbl = tbl.filter(pa.array(child_depth <= self.max_depth))
        return tbl

    def _write_docs(self, docs: pa.Table, path: str) -> None:
        try:
            pq.write_table(
                docs, path, compression="zstd", compression_level=3
            )
        except BaseException as e:  # noqa: BLE001 — surfaced by wait_writes
            self._write_errors.append(e)

    def wait_writes(self) -> None:
        """Durability fence for the background doc writes (call before a
        checkpoint commit and before reading documents back)."""
        for t in self._write_threads:
            t.join()
        self._write_threads = []
        if self._write_errors:
            errs, self._write_errors = self._write_errors, []
            raise errs[0]

    def end_wave(self, wave: int, cut_seq: int | None = None) -> dict:
        """Flush this actor's wave state: resolve deferred offers (budget
        path), await offer delivery, write the doc buffer to the wave's
        parquet partition. Returns the wave's counters (O-24): pages
        fetched and fetch errors up to the budget cut, documents written,
        and seconds spent in fetch_parse_wave since the last end_wave."""
        if self._link_buf:
            links = pa.concat_tables(self._link_buf)
            self._link_buf = []
            if cut_seq is not None:
                links = links.filter(pc.less_equal(links.column("parent_seq"), cut_seq))
            self._offer_links(links.select(["url", "pack"]))
        self._flush_offers()
        if self._pending_offers:
            ray.get(self._pending_offers)
            self._pending_offers = []
        n = 0
        if self._doc_buf:
            docs = pa.concat_tables(self._doc_buf)
            self._doc_buf = []
            if cut_seq is not None:
                docs = docs.filter(pc.less_equal(docs.column("seq"), cut_seq))
            if docs.num_rows and self.doc_root is not None:
                d = os.path.join(self.doc_root, f"wave={wave:05d}", "documents")
                os.makedirs(d, exist_ok=True)
                path = os.path.join(d, f"part-{self.actor_idx:04d}.parquet")
                # zstd-3: ~6.5x smaller than snappy on span text at equal
                # write time — less shared-disk/tmpfs bus traffic per wave.
                # The write runs on a BACKGROUND thread: pyarrow's zstd
                # compressor and the tmpfs write both release the GIL, so
                # it overlaps the driver's next-wave coordination and this
                # actor's next fetch chunks instead of sitting inside the
                # wave barrier. `wait_writes` is the durability fence —
                # the driver calls it before a checkpoint commit and before
                # reading the documents dataset back.
                import threading

                t = threading.Thread(
                    target=self._write_docs, args=(docs, path), daemon=True
                )
                t.start()
                self._write_threads.append(t)
                n = docs.num_rows
        self._chunks_done = set()

        def _count(parts: list[np.ndarray]) -> int:
            seqs = np.concatenate(parts) if parts else np.empty(0, np.int64)
            return int(len(seqs) if cut_seq is None else np.count_nonzero(seqs <= cut_seq))

        counters = {
            "pages_fetched": _count(self._fetched_seqs),
            "fetch_errors": _count(self._error_seqs),
            "docs_written": n,
            "fetcher_busy_s": round(self._busy - self._busy_reported, 3),
        }
        self._fetched_seqs = []
        self._error_seqs = []
        self._busy_reported = self._busy
        return counters


# 0.5 CPU per fetcher: the pool oversubscribes slightly so fetch (I/O-ish)
# and parse (CPU) interleave; the feeding tasks are 0.25-CPU waiters.
FetcherActor = ray.remote(num_cpus=0.5)(FetchParseStage)


@ray.remote(num_cpus=1, num_returns=2)
def build_web_index_task(*tables: pa.Table):
    """Sort the webgraph URLS once, in one task; the returned small
    (urls_sorted numpy, perm numpy) pair is shared zero-copy with every
    fetcher actor, which combines it with the untouched webgraph html
    blocks (see SyntheticBackend.from_sorted_index)."""
    wg = pa.concat_tables(list(tables))
    return SyntheticBackend.build_sorted_index(wg)


# --------------------------------------------------------------------------
# phase B: gate + seq + fetch fan-out (one task per marked block)
# --------------------------------------------------------------------------


def _empty_counts() -> dict:
    return {"n_admitted": 0, "n_denied": 0, "n_deferred": 0, "chunk_refs": []}


@ray.remote(num_cpus=0.25, num_returns=3)
def fetch_block_task(
    block: pa.Table,
    thr_hosts: np.ndarray,
    thr_vals: np.ndarray,
    logged_keys: np.ndarray,
    seq_base: int,
    wave: int,
    fetchers: list,
    chunk_rows: int,
    chunk_base: int = 0,
):
    """Politeness gate (vectorized lookup into the broadcast per-host
    admission thresholds) → seq assignment (searchsorted into the broadcast
    sorted logged-key array — RBC-7 order, no distributed sort) → fan-out
    DISPATCH across the persistent actor pool. Returns
    (meta{chunk log ObjectRefs + counts}, denied_log_block, deferred_block)
    and finishes IMMEDIATELY — it never waits on fetch results. A feeder
    that blocked in ray.get for the fetch window made Ray spawn replacement
    workers for everything queued behind it (measured: 140-166 worker
    processes on a 32-CPU node, kernel time 30-55%); the driver now gathers
    the chunk refs itself via gather_log_task.

    Scale note (SURVEY.md §7.3-H4): the broadcast key/threshold arrays are
    the wave's LOGGED set and ACTIVE host set, bounded by politeness
    (≤ B × active hosts per wave), not by frontier or discovery volume."""
    empty_def = pa.schema(
        [
            ("url", pa.string()),
            ("host", pa.string()),
            ("depth", pa.int32()),
            ("disc_key", pa.int64()),
            ("url_hash_lo", pa.uint64()),
            ("url_hash_hi", pa.uint64()),
            ("shard", pa.uint32()),
        ]
    ).empty_table()
    if block.num_rows == 0:
        return _empty_counts(), LOG_SCHEMA.empty_table(), empty_def
    n = block.num_rows
    allowed = block.column("allowed").to_numpy(zero_copy_only=False)
    okey = block.column("okey").to_numpy()
    # threshold lookup per UNIQUE host (dictionary-encode), broadcast by
    # code: a frontier block has ~1000x more rows than hosts and the
    # full-block np.str_ conversion was a measured feeder cost
    enc = block.column("host").combine_chunks().dictionary_encode()
    uhosts = np.asarray(enc.dictionary.to_pylist(), dtype=np.str_)
    codes = enc.indices.to_numpy()

    thr_u = np.full(len(uhosts), NO_ADMIT, np.int64)
    if len(thr_hosts):
        pos = np.searchsorted(thr_hosts, uhosts)
        pos_c = np.minimum(pos, len(thr_hosts) - 1)
        m = thr_hosts[pos_c] == uhosts
        thr_u[m] = thr_vals[pos_c[m]]
    thr = thr_u[codes]
    admitted = allowed & (okey <= thr)
    deferred_mask = allowed & ~admitted

    # seq = rank of the row's ORDER KEY in the wave's logged key-set
    # (okey = disc_key under the default BFS policy — RBC-7)
    seq = np.searchsorted(logged_keys, okey).astype(np.int64) + seq_base
    base_tbl = block.select(["url", "host", "depth", "disc_key"]).append_column(
        "seq", pa.array(seq, pa.int64())
    )

    counts = _empty_counts()
    adm_tbl = base_tbl.filter(pa.array(admitted))
    if adm_tbl.num_rows:
        counts["n_admitted"] = adm_tbl.num_rows
        n_f = len(fetchers)
        base = chunk_base % n_f
        # static round-robin from a driver-assigned global offset: the
        # driver passes each block the running chunk count of the blocks
        # before it, so the WHOLE WAVE forms one round-robin across the
        # fetcher pool (±1 chunk per actor). Deterministic in CONTENT, not
        # timing; all chunk RPCs go out immediately so every actor's queue
        # stays full. The end-of-wave tail is bounded by the adaptive chunk
        # size chosen by the driver (~1/6 of an actor's wave share).
        for j, off in enumerate(range(0, adm_tbl.num_rows, chunk_rows)):
            chunk = adm_tbl.slice(off, chunk_rows)
            counts["chunk_refs"].append(
                fetchers[(base + j) % n_f].fetch_parse_wave.remote(chunk, wave)
            )

    den_tbl = base_tbl.filter(pa.array(~allowed))
    if den_tbl.num_rows:
        counts["n_denied"] = den_tbl.num_rows
        den_log = pa.table(
            {
                "seq": den_tbl.column("seq"),
                "url": den_tbl.column("url"),
                "host": den_tbl.column("host"),
                "wave": pa.array(np.full(den_tbl.num_rows, wave, np.int32), pa.int32()),
                "depth": den_tbl.column("depth"),
                "status": pa.array(["robots_denied"] * den_tbl.num_rows, pa.string()),
                "n_out": pa.array(np.zeros(den_tbl.num_rows, np.int32), pa.int32()),
            }
        )
    else:
        den_log = LOG_SCHEMA.empty_table()

    deferred = block.select(FRONTIER_COLS).filter(pa.array(deferred_mask))
    counts["n_deferred"] = deferred.num_rows
    return counts, den_log, deferred if deferred.num_rows else empty_def


@ray.remote(num_cpus=0.25, num_returns=2)
def gather_log_task(*chunk_tbls: pa.Table):
    """Concat a group of chunk log tables into one driver-owned block and
    count its fetched rows. The chunk objects are owned by the (transient)
    feeder workers that dispatched them; re-owning the combined block via a
    driver-submitted task keeps crawl_log alive independent of worker
    reaping, without ever moving rows through the driver."""
    t = pa.concat_tables(list(chunk_tbls))
    n_fetched = int(
        pc.sum(pc.cast(pc.equal(t.column("status"), "fetched"), pa.int64())).as_py()
        or 0
    )
    return t, n_fetched


# --------------------------------------------------------------------------
# frontier compaction + budget-cut helpers
# --------------------------------------------------------------------------


@ray.remote(num_cpus=0.25)
def concat_blocks_task(*tbls: pa.Table) -> pa.Table:
    return pa.concat_tables(list(tbls))


@ray.remote(num_cpus=0.25, num_returns=2)
def filter_log_cut_task(block: pa.Table, cut_seq: int):
    """Budget-cut filter for one log block (O-35 rare path)."""
    t = block.filter(pc.less_equal(block.column("seq"), cut_seq))
    return t, t.num_rows


def frontier_table_from_urls(
    urls: list[str], disc_keys: list[int], depths: list[int], num_seen_shards: int
) -> pa.Table:
    """Build FRONTIER rows driver-side (seed bootstrap only — seed lists are
    small by definition; everything discovered flows through the stages)."""
    hosts = [url_host(u) for u in urls]
    lo, hi = hash_urls_128(urls)
    shards = (lo % np.uint64(num_seen_shards)).astype(np.uint32)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array(hosts, pa.string()),
            "depth": pa.array(np.asarray(depths, np.int32), pa.int32()),
            "disc_key": pa.array(np.asarray(disc_keys, np.int64), pa.int64()),
            "url_hash_lo": pa.array(lo, pa.uint64()),
            "url_hash_hi": pa.array(hi, pa.uint64()),
            "shard": pa.array(shards, pa.uint32()),
        }
    )
