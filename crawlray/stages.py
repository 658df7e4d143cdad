"""Per-wave crawl kernels (SURVEY.md §3.2): fetch + parse of a batch of
admitted rows, document enrichment, outlink explode, and the crawl_log
schema. They run inside the crawl shards (crawlray/actors/shard.py), each
of which owns a partition of the hosts: its seen set, its politeness state
and the fetching of its pages.

The wave loop runs as plain actor RPCs over Arrow tables, NOT as per-wave
Ray Data streaming executions. Rationale (measured, BENCH/BASELINE.md
round 1): each streaming execution costs a 0.2–0.5 s driver floor, pure
fixed cost per wave. Ray Data remains the IR everywhere else — blocks are
Arrow tables in the object store, the crawl's public outputs are
`ray.data.Dataset`s, and every library operator (ops/) is Dataset-based.

Data-volume design: parsed span payloads never transit the object store.
A shard writes its own documents straight to per-wave parquet (one file per
shard per wave — the resumable, partitioned layout); only outlinks, routed
by host after a map-side min-combine, travel between shards.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from crawlray.actors.politeness import host_hashes
from crawlray.kernels.html import parse_page
from crawlray.kernels.url import url_hosts
from crawlray.murmur3 import hash_urls_128
from crawlray.schema import CRAWL_LOG, LINK_STRIDE, SPAN_STRUCT, pack_disc_depth

FRONTIER_COLS = ["url", "host", "depth", "disc_key", "url_hash_lo", "url_hash_hi", "shard"]

# Version tag of the URL→shard routing function. Stored in the checkpoint
# config and validated on resume: a checkpoint written under a different
# routing layout would ingest seen deltas into the wrong shards, silently
# missing membership probes and re-crawling seen URLs (ADVICE r2). Bump
# whenever `politeness.host_shard_of`'s hash or modulus scheme changes.
SEEN_ROUTING_VERSION = "host_murmur3_32_v3"


# --------------------------------------------------------------------------
# enrichment kernels (run inside the crawl shards, alongside parse)
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
# outlink explode (vectorized; the map side of the shards' outlink routing)
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
# fetch + parse of one batch of admitted rows
# --------------------------------------------------------------------------


def fetch_parse(backend, batch: pa.Table, enrich: bool) -> pa.Table:
    """Fetch and parse `batch` (url, host, depth, disc_key, seq) through
    `backend` → the rows with status, n_out, spans, outlinks and the
    enrichment columns."""
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
    htmls = backend.fetch_many(urls)
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
        if enrich:
            enrich_texts.append(" ".join(s.text for s in spans if s.kind == "text"))
            enrich_rows.append(len(statuses) - 1)
        else:
            langs.append("")
            n_toks.append(0)
            simhashes.append(0)
    if enrich:
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
    return pa.table(
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


def log_rows(rows: pa.Table, wave: int, status=None) -> pa.Table:
    """CRAWL_LOG rows of fetched (`status` None: the rows' own status and
    n_out) or robots-denied rows (`status` given, n_out 0)."""
    n = rows.num_rows
    return pa.table(
        {
            "seq": rows.column("seq"),
            "url": rows.column("url"),
            "host": rows.column("host"),
            "wave": pa.array(np.full(n, wave, np.int32), pa.int32()),
            "depth": rows.column("depth"),
            "status": rows.column("status") if status is None else pa.array([status] * n, pa.string()),
            "n_out": rows.column("n_out") if status is None else pa.array(np.zeros(n, np.int32), pa.int32()),
        },
        schema=CRAWL_LOG,
    )


def frontier_table_from_urls(
    urls: list[str], disc_keys: list[int], depths: list[int], num_seen_shards: int
) -> pa.Table:
    """Build FRONTIER rows driver-side (seed bootstrap only — seed lists are
    small by definition; everything discovered flows through the shards).
    `shard` is the row's host shard."""
    url_arr = pa.array(urls, pa.string())
    hosts = url_hosts(url_arr)
    lo, hi = hash_urls_128(urls)
    shards = (host_hashes(hosts) % np.uint32(num_seen_shards)).astype(np.uint32)
    return pa.table(
        {
            "url": url_arr,
            "host": hosts,
            "depth": pa.array(np.asarray(depths, np.int32), pa.int32()),
            "disc_key": pa.array(np.asarray(disc_keys, np.int64), pa.int64()),
            "url_hash_lo": pa.array(lo, pa.uint64()),
            "url_hash_hi": pa.array(hi, pa.uint64()),
            "shard": pa.array(shards, pa.uint32()),
        }
    )
