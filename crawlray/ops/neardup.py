"""Near-duplicate detection for training-data pipelines (task brief:
MinHash+LSH, SimHash, n-gram Jaccard; SURVEY.md O-39).

Pipeline shape (the 100 TB path — no full-dataset materialization anywhere):
the LSH operators keep only their signature and similarity kernels and
run on `ops.pairs`: shingle → minhash (vectorized exact universal hashing
mod 2^61-1) → band → LSH bucket `group_map` (keyed by (band, bucket)) →
vectorized candidate pairs within size-capped buckets (oversize buckets
are truncated DETERMINISTICALLY and the drop count is surfaced, never
silent) → pair dedup `hash_exchange` on (id_a, id_b) → exact n-gram
Jaccard verify over CANDIDATE volume only: candidate docs are
re-shingled, each pair gets both docs' sorted shingle-hash arrays (a
broadcast, or two joins past `exchange.BROADCAST_BYTES`), and one sort
of the pair-tagged shingles per slice of pairs counts every
intersection. The driver only ever holds final verified pairs and the
candidate-id set — the corpus itself is never pulled to the driver.
SimHash and CDC share the same candidate path; `ngram_jaccard_pairs` is
the exact block-pair baseline.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from crawlray.ops.exchange import map_blocks
from crawlray.ops.pairs import (
    band_rows, block_pairs, collect, lsh_pairs, pack, unpack, verify,
)

_P61 = (1 << 61) - 1
_MERSENNE = np.uint64(_P61)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK61 = np.uint64(_P61)
_JACCARD = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64())])


def _mulmod_mersenne(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (a*x + b) mod p, p = 2^61-1, fully vectorized in uint64.

    Requires a, b < 2^61 and x < 2^32 (crc32 shingle hashes). The naive
    `(a*x + b) % p` silently wraps mod 2^64 (a*x can reach 2^93), so the
    product is computed in 29/32-bit limbs and reduced with the Mersenne
    fold v = hi*2^61 + lo ≡ hi + lo (mod p); every intermediate fits uint64,
    so the claimed universal-hash family property actually holds.
    """
    ah = a >> np.uint64(32)  # < 2^29
    al = a & np.uint64(0xFFFFFFFF)  # < 2^32
    m1 = ah * x  # < 2^61
    m0 = al * x  # < 2^64
    # a*x = m1*2^32 + m0;  m1*2^32 ≡ (m1>>29) + ((m1 & 2^29-1) << 32)
    t = (
        (m1 >> np.uint64(29))
        + ((m1 & _MASK29) << np.uint64(32))
        + (m0 >> np.uint64(61))
        + (m0 & _MASK61)
        + b
    )
    t = (t >> np.uint64(61)) + (t & _MASK61)
    t = (t >> np.uint64(61)) + (t & _MASK61)
    return np.where(t >= _MERSENNE, t - _MERSENNE, t)


# token-position mixing constants for the vectorized shingle hash (splitmix /
# murmur finalizer constants — public values, same family enrich_batch uses)
_SH_POS = (
    np.uint64(0x9E3779B97F4A7C15),
    np.uint64(0xC2B2AE3D27D4EB4F),
    np.uint64(0x165667B19E3779F9),
    np.uint64(0xFF51AFD7ED558CC5),
    np.uint64(0x2545F4914F6CDD1D),
)
_SH_M1 = np.uint64(0xFF51AFD7ED558CCD)
_MASK32_U64 = np.uint64(0xFFFFFFFF)


def _mix_to_32(h: np.ndarray) -> np.ndarray:
    """Avalanche + truncate to 32 bits (minhash's mulmod needs x < 2^32)."""
    h = h ^ (h >> np.uint64(33))
    h = h * _SH_M1
    h = h ^ (h >> np.uint64(29))
    return h & _MASK32_U64


def _shingle_hashes_batch(texts: list[str], n: int = 3) -> list[np.ndarray]:
    """Distinct 32-bit n-gram shingle hashes for a BATCH of docs.

    Vectorized via the enrich_batch pattern (crawlray/stages.py): tokenize +
    dictionary-encode the whole batch with Arrow C kernels, compute ONE
    crc32 per unique token per batch, then combine each doc's token-hash
    array into n-gram hashes with shifted numpy slices. Replaces round 2's
    per-shingle `" ".join` + crc32 Python loop (VERDICT r2 item 3); the
    remaining per-doc work is a handful of L1-resident numpy slice ops.
    Docs with 0 < tokens < n yield one shingle over the available tokens
    (matching the old "short doc" semantics); empty docs yield none.
    """
    if not texts:
        return []
    if n > len(_SH_POS):
        raise ValueError(f"n must be <= {len(_SH_POS)}")
    arr = pa.array([t or "" for t in texts], pa.string())
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
    th_flat = uh[idx] if len(idx) else np.empty(0, np.uint64)
    out: list[np.ndarray] = []
    for i in range(len(texts)):
        a, b = int(o[i]), int(o[i + 1])
        k = b - a
        if k == 0:
            out.append(np.empty(0, np.uint64))
            continue
        th = th_flat[a:b]
        w = min(n, k)  # short docs: one shingle over all tokens
        h = th[0 : k - w + 1] * _SH_POS[0]
        for j in range(1, w):
            h = h ^ (th[j : k - w + 1 + j] * _SH_POS[j])
        out.append(np.unique(_mix_to_32(h)))
    return out


def _shingle_hashes_batch_md5(texts: list[str], n: int = 3) -> list[np.ndarray]:
    """Oracle-parity shingle hashes: x = first 4 bytes of md5 of the
    space-joined n-gram — exactly DuckDB's
    ('0x' || SUBSTR(MD5(gram), 1, 8))::BIGINT, the idiom the repo's SQL
    oracles already use for hash_sample / weighted_sample. Same tokenizer
    (whitespace split, empty tokens dropped) and short-doc semantics
    (0 < tokens < n → one shingle over all tokens; empty → none) as the
    vectorized crc32mix kernel. Hashing is one Python md5 per UNIQUE gram
    per batch — use the default crc32mix mode for production volume (the
    same dual-path convention as relational.weighted_sample's md5/murmur3).
    """
    import hashlib

    out: list[np.ndarray] = []
    cache: dict[str, int] = {}
    arr = pa.array([t or "" for t in texts], pa.string())
    tok = pc.utf8_split_whitespace(arr)
    for i in range(len(texts)):
        toks = [t for t in tok[i].as_py() if t != ""]
        k = len(toks)
        if k == 0:
            out.append(np.empty(0, np.uint64))
            continue
        w = min(n, k)
        hs: set[int] = set()
        for j in range(k - w + 1):
            g = " ".join(toks[j : j + w])
            v = cache.get(g)
            if v is None:
                v = int.from_bytes(hashlib.md5(g.encode()).digest()[:4], "big")
                cache[g] = v
            hs.add(v)
        out.append(np.fromiter(sorted(hs), np.uint64, len(hs)))
    return out


def _perm_params(k: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)  # seeded → deterministic
    a = rng.randint(1, _P61, size=k, dtype=np.uint64)
    b = rng.randint(0, _P61, size=k, dtype=np.uint64)
    return a, b


def minhash_signatures(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    hash_mode: str = "crc32mix",
) -> ray.data.Dataset:
    """Per-doc minhash signature: (id, sig: list<uint64>[num_perm]).

    hash_mode="crc32mix" (default) is the fully vectorized production
    shingle hash; hash_mode="md5" swaps in the SQL-reproducible md5 gram
    hash (see _shingle_hashes_batch_md5) so the signatures themselves are
    DuckDB-oracle-able — the permutation math (a·x + b mod 2^61−1) is
    identical in both modes and expressible in HUGEINT SQL.
    """
    shingles = _shingle_fn(hash_mode)

    def _sig(batch: pa.Table) -> pa.Table:
        sigs = _signatures(shingles(batch.column(text_col).to_pylist()), num_perm)
        offsets = np.arange(0, sigs.size + 1, num_perm, dtype=np.int32)
        values = pa.array(sigs.astype(np.uint64, copy=False).ravel())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "sig": pa.ListArray.from_arrays(offsets, values),
            }
        )

    return ds.map_batches(_sig, batch_format="pyarrow")


def _shingle_fn(hash_mode: str):
    if hash_mode not in ("crc32mix", "md5"):
        raise ValueError("hash_mode must be 'crc32mix' or 'md5'")
    return _shingle_hashes_batch if hash_mode == "crc32mix" else _shingle_hashes_batch_md5


def _signatures(shs: list[np.ndarray], num_perm: int) -> np.ndarray:
    """(len(shs), num_perm) minhash matrix of per-doc shingle-hash sets
    (a doc with no shingle gets all zeros)."""
    a, b = _perm_params(num_perm)
    sigs = np.zeros((len(shs), num_perm), dtype=np.uint64)
    for i, sh in enumerate(shs):
        if len(sh) == 0:
            continue
        # chunk huge shingle sets so the (k × |sh|) temporaries stay small
        mins = np.full(num_perm, _P61, dtype=np.uint64)
        for off in range(0, len(sh), 16384):
            chunk = sh[off : off + 16384]
            v = _mulmod_mersenne(a[:, None], chunk[None, :], b[:, None])
            np.minimum(mins, v.min(axis=1), out=mins)
        sigs[i] = mins
    return sigs


def _band_bucket_hash(chunk: np.ndarray) -> np.ndarray:
    """Stable FNV-style hash of each row of a (n, rows_per_band) uint64
    matrix → int64 bucket keys (python hash() is process-salted; this isn't)."""
    h = np.full(chunk.shape[0], 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for c in range(chunk.shape[1]):
        h = (h ^ chunk[:, c]) * prime
        h = (h ^ (chunk[:, c] >> np.uint64(32))) * prime
    return h.view(np.int64)


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.5,
    max_bucket: int = 8192,
    hash_mode: str = "crc32mix",
) -> pa.Table:
    """MinHash+LSH near-dup pairs with exact distributed Jaccard verification.

    Emits (id_a, id_b, jaccard) for verified pairs, id_a < id_b, sorted.
    See the module docstring for the scale shape; the driver never holds
    more than the candidate-id list and the final verified pairs.
    hash_mode="md5" makes the whole pipeline (signatures, band
    candidates, exact-Jaccard verify) DuckDB-reproducible."""
    r = num_perm // bands
    shingles = _shingle_fn(hash_mode)

    def _bucketize(batch: pa.Table) -> pa.Table:
        sigs = _signatures(shingles(batch.column(text_col).to_pylist()), num_perm)
        keys = [_band_bucket_hash(sigs[:, i * r : (i + 1) * r]) for i in range(bands)]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return band_rows(ids, np.stack(keys, axis=1), "bucket")

    pairs = lsh_pairs(map_blocks(ds, _bucketize), ["band", "bucket"], "id",
                      max_bucket, "minhash_lsh_pairs")

    def _encode(docs: pa.Table) -> pa.Array:
        return pack(shingles(docs.column(text_col).to_pylist()))

    refs = verify(pairs, ds, id_col, _encode,
                  partial(_jaccard_verify, threshold=jaccard_threshold))
    return collect(refs, _JACCARD)


def _jaccard_verify(t: pa.Table, threshold: float) -> pa.Table:
    """Exact Jaccard of each pair's distinct shingle-hash sets (packed in
    p_a / p_b), kept at ≥ threshold and rounded to 4 decimals. One sort of
    the pair-tagged shingles of both sides finds every intersection: a
    (pair, shingle) that occurs twice is in both sets. A pair whose docs
    have no shingle at all has no union and is never kept."""
    va, la = unpack(t.column("p_a"), np.uint64)
    vb, lb = unpack(t.column("p_b"), np.uint64)
    tag = np.repeat(np.tile(np.arange(t.num_rows), 2), np.concatenate([la, lb]))
    val = np.concatenate([va, vb])
    order = np.lexsort((val, tag))
    tag, val = tag[order], val[order]
    both = (tag[1:] == tag[:-1]) & (val[1:] == val[:-1])
    inter = np.bincount(tag[1:][both], minlength=t.num_rows).astype(np.float64)
    union = (la + lb) - inter
    jac = inter / np.maximum(union, 1.0)
    keep = np.flatnonzero((union > 0) & (jac >= threshold))
    return pa.table({
        "id_a": t.column("id_a").take(keep),
        "id_b": t.column("id_b").take(keep),
        "jaccard": np.round(jac[keep], 4),
    })


def _simhash_md5_batch(texts: list[str], n: int = 3) -> np.ndarray:
    """Oracle-parity simhash: per doc, shingles are the w=min(n, len(tk))
    token windows of the empty-filtered whitespace split (the SAME window
    convention as the minhash md5 oracle), hashed to 64 bits as the first
    8 bytes of md5; bit j of the signature is 1 iff the ±1 bit-sum over
    the shingle MULTISET is strictly positive (docs with no tokens → 0).
    md5 runs once per UNIQUE shingle per batch; the bit-sum is one
    vectorized (total_shingles × 64) reduceat — no per-bit Python."""
    import hashlib

    memo: dict[str, int] = {}
    per_doc: list[np.ndarray] = []
    for t in texts:
        tk = [x for x in (t or "").split(" ") if x]
        if not tk:
            per_doc.append(np.empty(0, np.uint64))
            continue
        w = min(n, len(tk))
        hs = []
        for i in range(len(tk) - w + 1):
            g = " ".join(tk[i : i + w])
            v = memo.get(g)
            if v is None:
                v = int.from_bytes(
                    hashlib.md5(g.encode()).digest()[:8], "big"
                )
                memo[g] = v
            hs.append(v)
        per_doc.append(np.array(hs, np.uint64))

    sims = np.zeros(len(texts), np.uint64)
    lens = np.array([len(h) for h in per_doc], np.int64)
    if not lens.sum():
        return sims
    flat = np.concatenate([h for h in per_doc if len(h)])
    shifts = np.arange(64, dtype=np.uint64)
    contrib = (
        ((flat[:, None] >> shifts[None, :]) & np.uint64(1))
        .astype(np.int32) * 2 - 1
    )
    nz = np.nonzero(lens)[0]
    starts = np.concatenate(([0], np.cumsum(lens[nz])))[:-1]
    sums = np.add.reduceat(contrib, starts, axis=0)
    sims[nz] = ((sums > 0).astype(np.uint64) << shifts[None, :]).sum(axis=1)
    return sims


def simhash_table(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_mode: str = "crc32mix",
) -> ray.data.Dataset:
    """Per-doc 64-bit simhash over 3-gram token shingles.

    hash_mode="crc32mix" (default) is the production kernel the crawl
    fetcher's enrichment uses (batch-vectorized); hash_mode="md5" swaps in
    the SQL-reproducible md5 shingle hash (_simhash_md5_batch) so the
    signatures — and the near-dup pairs built on them — are themselves
    DuckDB-oracled (same dual-path convention as minhash_signatures)."""
    if hash_mode not in ("crc32mix", "md5"):
        raise ValueError("hash_mode must be 'crc32mix' or 'md5'")
    from crawlray.stages import enrich_batch

    def _sh(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch.column(text_col).to_pylist()]
        if hash_mode == "md5":
            sims = _simhash_md5_batch(texts)
        else:
            _, _, sims = enrich_batch(texts)
        return pa.table(
            {id_col: batch.column(id_col), "simhash": pa.array(sims, pa.uint64())}
        )

    return ds.map_batches(_sh, batch_format="pyarrow")


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def simhash_dup_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    max_bucket: int = 8192,
    hash_mode: str = "crc32mix",
    sims: ray.data.Dataset | None = None,
) -> pa.Table:
    """SimHash near-dup pairs: bucket by 4 × 16-bit simhash bands (a pair
    within Hamming distance ≤ max_hamming < 4 bands must agree on ≥1 band),
    verify Hamming distance exactly within buckets.

    Per-bucket verification is vectorized (XOR byte-view + popcount table,
    chunked so memory stays O(chunk × bucket)); buckets above max_bucket are
    deterministically truncated with the drop count surfaced, and pair dedup
    across bands is one hash exchange — the driver only ever holds the
    final pair set. `sims` lets callers reuse an already-computed signature
    dataset (e.g. when emitting signatures AND pairs from one pass).
    """
    if sims is None:
        sims = simhash_table(ds, id_col, text_col, hash_mode=hash_mode)

    def _bands(batch: pa.Table) -> pa.Table:
        vals = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        keys = (vals[:, None] >> (np.arange(4, dtype=np.uint64) * np.uint64(16))) & np.uint64(0xFFFF)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return band_rows(ids, keys.astype(np.int64), "key", simhash=vals)

    def _hamming(bucket: pa.Table, ra: np.ndarray, rb: np.ndarray):
        sh = bucket.column("simhash").to_numpy(zero_copy_only=False)
        x = (sh[ra] ^ sh[rb]).view(np.uint8).reshape(-1, 8)
        d = _POPCOUNT8[x].sum(axis=1, dtype=np.int32)
        keep = d <= max_hamming
        return keep, {"hamming": d[keep]}

    pairs = lsh_pairs(map_blocks(sims, _bands), ["band", "key"], "id", max_bucket,
                      "simhash_dup_pairs", score=_hamming, reduce={"hamming": np.minimum})
    return collect(pairs, pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                                     ("hamming", pa.int32())]))


# --------------------------------------------------------------------------
# exact n-gram Jaccard pairs — the brute-force baseline (LSH is the scale
# path above; this is its exact counterpart, as knn's brute-force cosine is
# to IVF)
# --------------------------------------------------------------------------


def _shingle_strings(text: str, n: int = 3) -> list[str]:
    """Distinct n-gram token shingles as STRINGS (docs shorter than n tokens
    yield none). String shingles — not crc32 hashes — so exact Jaccard has
    no collision caveat and the DuckDB oracle can reproduce it verbatim."""
    toks = text.split()
    if len(toks) < n:
        return []
    return sorted({" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)})


def _jaccard_block(ta: pa.Table, tb: pa.Table, threshold: float) -> pa.Table:
    """(id_a, id_b, jaccard) of every row pair of two (id, shingle list)
    blocks with Jaccard ≥ threshold, rounded to 6 decimals. Intersection
    counts come from ONE Arrow (Acero) hash join on the shingle value + a
    C++ group_by — no Python per-pair loop."""

    def _side(t: pa.Table, s: str) -> tuple[pa.Table, pa.Table]:
        lists = t.column(1).combine_chunks()
        ids = t.column(0).to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.asarray(lists.value_lengths())
        return (pa.table({f"id_{s}": np.repeat(ids, n), "s": lists.flatten()}),
                pa.table({f"id_{s}": ids, f"n_{s}": n.astype(np.float64)}))

    (ea, na), (eb, nb) = _side(ta, "a"), _side(tb, "b")
    t = (ea.join(eb, keys="s").group_by(["id_a", "id_b"]).aggregate([("s", "count")])
         .join(na, keys="id_a").join(nb, keys="id_b"))
    c = t.column("s_count").to_numpy(zero_copy_only=False).astype(np.float64)
    jac = c / (t.column("n_a").to_numpy() + t.column("n_b").to_numpy() - c)
    keep = np.flatnonzero(jac >= threshold)
    return pa.table({"id_a": t.column("id_a").take(keep), "id_b": t.column("id_b").take(keep),
                     "jaccard": np.round(jac[keep], 6)})


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    rows_per_block: int = 4096,
) -> pa.Table:
    """EXACT all-pairs n-gram Jaccard ≥ threshold (id_a < id_b, sorted).

    Block-pair design (same shape as ops/knn.similar_pairs_cosine): docs are
    shingled once into bounded object-store blocks; each (i ≤ j) block pair
    is one Ray task doing a C++ hash join on shingle values. The driver
    holds block refs and the final pair set only. O(n²) block pairs are the
    inherent cost of the exact answer — `minhash_lsh_pairs` is the
    sub-quadratic approximation for corpus scale.
    """

    def _sh(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table({
            "id": pa.array(batch.column(id_col).to_numpy(zero_copy_only=False), pa.int64()),
            "sh": pa.array([_shingle_strings(t or "", n) for t in texts],
                           pa.list_(pa.string())),
        })

    blocks = block_pairs(partial(_jaccard_block, threshold=threshold),
                         map_blocks(ds, _sh), rows_per_block=rows_per_block)
    return collect([r for r, _ in blocks], _JACCARD)


def cdc_dup_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_shared: int = 3,
    max_bucket: int = 8192,
    **cdc_kwargs,
) -> pa.Table:
    """Partial-duplicate pairs via shared CDC chunk fingerprints.

    Docs sharing ≥ min_shared rolling-hash chunk fingerprints are emitted as
    (id_a, id_b, shared_chunks). Same distributed shape as the LSH pipeline:
    chunk rows → `group_map` on chunk_fp co-locates each fingerprint's holders →
    vectorized within-bucket pairs (size-capped, drops surfaced) → the pair
    dedup exchange sums DISTINCT shared fingerprints (ids are uniqued within
    a bucket, so each bucket adds 1 per pair). Catches partially
    overlapping docs (shared boilerplate, quoted passages, edited copies)
    that whole-document and shingle-set methods under-score.
    """
    from crawlray.ops.textqa import cdc_chunks

    def _one(bucket: pa.Table, ra: np.ndarray, rb: np.ndarray):
        return slice(None), {"shared_chunks": np.ones(len(ra), np.int64)}

    def _enough(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("shared_chunks"), int(min_shared)))

    pairs = lsh_pairs(cdc_chunks(ds, id_col, text_col, **cdc_kwargs), ["chunk_fp"], id_col,
                      max_bucket, "cdc_dup_pairs", score=_one,
                      reduce={"shared_chunks": np.add}, keep=_enough)
    return collect(pairs, pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                                     ("shared_chunks", pa.int64())]))
