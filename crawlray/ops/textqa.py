"""Text-analysis operators for training-data pipelines (task brief:
language-ID, quality scoring, token counting, document fingerprinting),
plus token explode (the flat analogue of span flattening, SURVEY.md O-43).

All per-batch functions are vectorized with pyarrow.compute / numpy where a
kernel exists; the only Python loops are over strings for hashing (hashlib
has no batch API) and run inside parallel map tasks.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from crawlray.ops.exchange import hash_exchange, join, typed_map
from crawlray.ops.relational import count_fns

# Tiny per-language stopword lists for the n-gram/stopword heuristic
# language-ID. Deterministic, dependency-free; not a production model.
_STOPWORDS = {
    "en": {"the", "of", "and", "a", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "nicht", "mit", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pas", "pour"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "no", "por"},
}


def split_tokens(batch: pa.Table, text_col: str = "text") -> pa.ChunkedArray:
    """Whitespace-split token lists (Arrow list<string>), vectorized."""
    return pc.split_pattern(batch.column(text_col), pattern=" ")


def explode_tokens(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    with_len: bool = False,
) -> ray.data.Dataset:
    """(id, text) → one row per token, in document order (DuckDB UNNEST).

    with_len=True additionally carries `dl` (the parent document's token
    count) on every row — computed map-side from the same split, so
    downstream length-normalized scoring (BM25) needs no doc-length join."""
    return ds.map_batches(
        _token_exploder(id_col, text_col, with_len), batch_format="pyarrow"
    )


def _token_exploder(id_col: str, text_col: str, with_len: bool = False):
    """The per-batch kernel of `explode_tokens`."""

    def _explode(batch: pa.Table) -> pa.Table:
        toks = split_tokens(batch, text_col).combine_chunks()
        parents = pc.list_parent_indices(toks)
        ids = batch.column(id_col).take(parents)
        cols = {id_col: ids, "token": pc.list_flatten(toks)}
        if with_len:
            lens = pc.list_value_length(toks).cast(pa.int64())
            cols["dl"] = lens.take(parents)
        return pa.table(cols)

    return _explode


# GPT-2-style pretokenizer pattern, RE2-compatible (no lookahead — RE2
# rejects GPT-2's `\s+(?!\S)` tail, so trailing-space handling differs
# from tiktoken; counts are still a faithful BPE-ish proxy): contraction
# suffixes, space-prefixed letter runs, digit runs, punctuation runs,
# then bare whitespace runs.
BPE_TOKEN_PATTERN = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s']+|\s+"


def bpe_token_count(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """BPE-ish token counts (task brief: 'whitespace + a BPE-ish regex').

    One vectorized `pc.count_substring_regex` per batch — Arrow's RE2
    engine, the SAME engine DuckDB's regexp_extract_all uses, so the SQL
    oracle reproduces the counts exactly. The regex is compiled once
    inside Arrow; no Python row loop.
    """

    def _count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            batch.column(text_col), pattern=BPE_TOKEN_PATTERN
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_bpe_tokens": pc.cast(n, pa.int64()),
            }
        )

    return ds.map_batches(_count, batch_format="pyarrow")


def doc_stats(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Per-doc quality stats: chars, tokens, avg token length, punct count."""

    def _stats(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        toks = pc.split_pattern(text, pattern=" ")
        n_chars = pc.utf8_length(text)
        n_tokens = pc.list_value_length(toks)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_chars2": pc.cast(n_chars, pa.int64()),
                "n_tokens": pc.cast(n_tokens, pa.int64()),
            }
        )

    return ds.map_batches(_stats, batch_format="pyarrow")


def fingerprint(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Content fingerprint (md5 hex) per document — exact-dup key at scale."""

    def _fp(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table({id_col: batch.column(id_col), "fp": pa.array(fps)})

    return ds.map_batches(_fp, batch_format="pyarrow")


def doc_profile(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Fused per-doc profile: the doc_stats, bpe_token_count, fingerprint,
    Gopher repetition AND language-ID kernels in ONE map_batches pass (one
    read, one stream — the shape five separate passes over a 100 TB corpus
    should fuse into). Columns: (id, n_chars2, n_tokens, n_bpe_tokens, fp,
    top_token_frac, dup_2gram_frac, lang_pred, lang_score). The individual
    operators remain available (and unit-tested) for callers that need
    just one of them.
    """

    def _profile(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        toks = pc.split_pattern(text, pattern=" ")
        bpe = pc.count_substring_regex(text, pattern=BPE_TOKEN_PATTERN)
        fps = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in text.to_pylist()
        ]
        top, dup = repetition_arrays(text)
        preds, scores = lang_arrays(text)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_chars2": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
                "n_bpe_tokens": pc.cast(bpe, pa.int64()),
                "fp": pa.array(fps),
                "top_token_frac": top,
                "dup_2gram_frac": dup,
                "lang_pred": preds,
                "lang_score": scores,
            }
        )

    return ds.map_batches(_profile, batch_format="pyarrow")


def repetition_arrays(text: pa.Array) -> tuple[pa.Array, pa.Array]:
    """Gopher-style per-document repetition signals over one text array:
    (top_token_frac, dup_2gram_frac) — the fraction of tokens taken by the
    single most frequent token, and the fraction of word 2-grams that are
    repeats of an earlier 2-gram in the same document (0.0 when the doc
    has <2 tokens). Both are exact IEEE divisions of small int64 counts,
    so a SQL oracle computing MAX(c)/SUM(c) and (n-d)/n reproduces them
    bit-for-bit.

    Fully vectorized: one whitespace split, one Arrow group_by over
    (doc, token) for the mode count, one shifted binary_join +
    group_by over (doc, 2-gram) for the distinct-gram count; per-doc
    folds are numpy ufunc.at scatters — no Python loop over rows.
    """
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern(text, pattern=" ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    lens = lens.astype(np.int64)
    flat = pc.list_flatten(toks)
    n_docs = len(lens)
    if n_docs == 0:
        empty = pa.array([], pa.float64())
        return empty, empty

    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    tc = (
        pa.table({"d": pa.array(doc_idx), "w": flat})
        .group_by(["d", "w"])
        .aggregate([("w", "count")])
    )
    maxc = np.zeros(n_docs, np.int64)
    np.maximum.at(
        maxc,
        tc.column("d").to_numpy(zero_copy_only=False),
        tc.column("w_count").to_numpy(zero_copy_only=False).astype(np.int64),
    )
    # split(" ") of "" yields [""], so lens >= 1 always; division is safe
    top_frac = maxc / lens

    g_per = np.maximum(lens - 1, 0)
    total = int(g_per.sum())
    dup_frac = np.zeros(n_docs, np.float64)
    if total:
        gidx = np.repeat(np.arange(n_docs, dtype=np.int64), g_per)
        gram_starts = np.concatenate(([0], np.cumsum(g_per)))[:-1]
        doc_starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        within = np.arange(total, dtype=np.int64) - np.repeat(
            gram_starts, g_per
        )
        s = doc_starts[gidx] + within
        grams = pc.binary_join_element_wise(
            flat.take(pa.array(s, pa.int64())),
            flat.take(pa.array(s + 1, pa.int64())),
            " ",
        )
        gt = (
            pa.table({"d": pa.array(gidx), "g": grams})
            .group_by(["d", "g"])
            .aggregate([("g", "count")])
        )
        distinct = np.zeros(n_docs, np.int64)
        np.add.at(
            distinct, gt.column("d").to_numpy(zero_copy_only=False), 1
        )
        nz = g_per > 0
        dup_frac[nz] = (g_per[nz] - distinct[nz]) / g_per[nz]
    return pa.array(top_frac, pa.float64()), pa.array(dup_frac, pa.float64())


def repetition_stats(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """(id, top_token_frac, dup_2gram_frac) — the Gopher repetition-filter
    signals as a standalone zero-shuffle stage (callers threshold them to
    drop boilerplate/spam docs). Also fused into `doc_profile`."""

    def _rep(batch: pa.Table) -> pa.Table:
        top, dup = repetition_arrays(batch.column(text_col))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "top_token_frac": top,
                "dup_2gram_frac": dup,
            }
        )

    return ds.map_batches(_rep, batch_format="pyarrow")


def lang_arrays(col: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, pa.Array]:
    """Stopword-overlap language ID over one text array →
    (lang_pred: string, lang_score: int64) arrays, row-aligned with `col`.

    Batch-vectorized (same dictionary-encode pattern as the crawl
    enrichment kernel): lowercase + whitespace-split + stopword membership
    run as Arrow C kernels over the whole array; per document only a
    distinct-code lookup over its first 200 tokens remains. Semantics are
    identical to the scalar form `set(text.lower().split()[:200]) ∩
    stopwords`. Shared by `lang_id` and the fused `doc_profile` pass."""
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    arr = pc.utf8_lower(pc.fill_null(col, ""))
    tok = pc.utf8_split_whitespace(arr)
    offs = tok.offsets.to_numpy().astype(np.int64)
    flat = tok.values
    keep = pc.not_equal(flat, "")  # split() drops empties; this does too
    keep_np = keep.to_numpy(zero_copy_only=False)
    cum = np.zeros(len(keep_np) + 1, np.int64)
    np.cumsum(keep_np, out=cum[1:])
    o = cum[offs]
    enc = flat.filter(keep).dictionary_encode()
    uniq = enc.dictionary
    idx = enc.indices.to_numpy() if len(enc) else np.empty(0, np.int32)
    lang_names = list(_STOPWORDS)
    if len(uniq):
        lb = np.stack(
            [
                pc.is_in(
                    uniq, value_set=pa.array(sorted(_STOPWORDS[ln]))
                ).to_numpy(zero_copy_only=False)
                for ln in lang_names
            ]
        )
    else:
        lb = np.zeros((len(lang_names), 0), bool)
    preds, scores = [], []
    for i in range(n):
        a, b = int(o[i]), int(o[i + 1])
        codes = np.unique(idx[a : min(b, a + 200)])
        best, best_n = "und", 0
        for j, ln in enumerate(lang_names):
            k = int(lb[j, codes].sum())
            if k > best_n:
                best, best_n = ln, k
        preds.append(best)
        scores.append(best_n)
    return pa.array(preds, pa.string()), pa.array(scores, pa.int64())


def lang_id(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Stopword-overlap language ID heuristic → (id, lang_pred, lang_score).
    Thin Dataset wrapper over the `lang_arrays` kernel (which the fused
    `doc_profile` pass also calls — one corpus stream instead of two)."""

    def _lid(batch: pa.Table) -> pa.Table:
        preds, scores = lang_arrays(batch.column(text_col))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "lang_pred": preds,
                "lang_score": scores,
            }
        )

    return ds.map_batches(_lid, batch_format="pyarrow")


def tfidf(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    ndigits: int = 6,
    bm25: bool = False,
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """TF-IDF scores per (document, term): tf × ln(N / df).

    bm25=True adds Okapi BM25 on the SAME rows (two extra columns, zero
    extra shuffles): `dl` (doc token count, carried map-side through the
    explode — no doc-length join) and `bm25` =
    ln(1 + (N - df + 0.5)/(df + 0.5)) × tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl)).
    avgdl is the one extra driver scalar, summed off the already-
    materialized tf dataset (no extra scan of the corpus).

    Distributed shape (no driver rows, vocabulary never broadcast — its
    heavy tail can be huge at corpus scale):
      1. token explode (vectorized split, one row per occurrence);
      2. (doc, term) count → tf: map-side Arrow hash partials over the
         exploded batch + ONE `hash_exchange` on (doc, term) (round 4:
         Ray's sort-based two-key groupby was the pipeline's dominant
         cost); tf is materialized by the exchange;
      3. ONE `hash_exchange` of tf on term: each partition holds every
         tf row of its terms, so df (the number of tf rows per term) and
         the scores come out of a local Arrow group_by + join — no
         shuffle join.
    N (corpus size) is the only driver-side scalar (Dataset.count() reads
    metadata). Scores are rounded to `ndigits` so distributed float jitter
    can't flip an external oracle's value hash.
    """
    n_docs = ds.count()
    # dl is functionally dependent on id_col, so adding it as a group key
    # changes no group and costs only the extra int64 hash mix per row.
    tf_keys = [id_col, "token", "dl"] if bm25 else [id_col, "token"]
    partial, merge = count_fns(
        _token_exploder(id_col, text_col, with_len=bm25), tf_keys, "tf"
    )
    tf = hash_exchange(ds, tf_keys, merge, partial)
    # an empty corpus has no average length (and no rows to score)
    avgdl = float(tf.sum("tf")) / float(n_docs) if bm25 and n_docs else 0.0

    def _score(group: pa.Table) -> pa.Table:
        df = group.group_by(["token"]).aggregate([([], "count_all")])
        batch = group.join(df.rename_columns(["token", "df"]), keys="token")
        tfv = batch.column("tf").combine_chunks().to_numpy().astype(np.float64)
        dfv = batch.column("df").combine_chunks().to_numpy().astype(np.float64)
        score = tfv * np.log(float(n_docs) / dfv)
        cols = {
            id_col: batch.column(id_col),
            "token": batch.column("token"),
            "tf": batch.column("tf"),
            "df": batch.column("df"),
            "tfidf": pa.array(np.round(score, ndigits)),
        }
        if bm25:
            dlv = (
                batch.column("dl").combine_chunks().to_numpy().astype(np.float64)
            )
            # parenthesization mirrors the DuckDB oracle exactly so the
            # doubles are bit-identical before rounding
            idf = np.log(1.0 + (float(n_docs) - dfv + 0.5) / (dfv + 0.5))
            denom = tfv + k1 * (1.0 - b + b * dlv / avgdl)
            okapi = idf * (tfv * (k1 + 1.0)) / denom
            cols["dl"] = batch.column("dl")
            cols["bm25"] = pa.array(np.round(okapi, ndigits))
        return pa.table(cols)

    return hash_exchange(tf, ["token"], _score)


def explode_bigrams(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    extra_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """(id, text) → one row per adjacent token pair (w1, w2), document
    order; `extra_cols` carried through. Vectorized shifted-take: one
    whitespace split per batch, flat token buffer indexed by numpy offset
    arithmetic — no Python loop over rows. DuckDB equivalent:
    `FROM toks, UNNEST(range(1, len(t))) u(i)` with t[i] / t[i+1]."""
    return ds.map_batches(
        _bigram_exploder(id_col, text_col, extra_cols), batch_format="pyarrow"
    )


def _bigram_exploder(
    id_col: str, text_col: str, extra_cols: tuple[str, ...] = ()
):
    """The per-batch kernel of `explode_bigrams`."""

    def _explode(batch: pa.Table) -> pa.Table:
        toks = split_tokens(batch, text_col).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        flat = pc.list_flatten(toks)
        g_per = np.maximum(lens - 1, 0)
        total = int(g_per.sum())
        gidx = np.repeat(np.arange(len(lens), dtype=np.int64), g_per)
        gram_starts = np.concatenate(([0], np.cumsum(g_per)))[:-1]
        doc_starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        within = np.arange(total, dtype=np.int64) - np.repeat(
            gram_starts, g_per
        )
        s = doc_starts[gidx] + within
        take_parent = pa.array(gidx, pa.int64())
        cols = {id_col: batch.column(id_col).take(take_parent)}
        for c in extra_cols:
            cols[c] = batch.column(c).take(take_parent)
        cols["w1"] = flat.take(pa.array(s, pa.int64()))
        cols["w2"] = flat.take(pa.array(s + 1, pa.int64()))
        return pa.table(cols)

    return _explode


def pmi_collocations(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_count: int = 2,
    ndigits: int = 6,
    broadcast_threshold: int = 1 << 20,
) -> ray.data.Dataset:
    """Collocation mining: pointwise mutual information over adjacent
    token pairs → (w1, w2, c12, c1, c2, pmi) for every bigram seen at
    least `min_count` times corpus-wide, with
    pmi = ln(TU·c12 / (c1·c2)), TU = total token occurrences.

    Distributed shape (neither the vocabulary nor the bigram table is
    ever broadcast or driver-held — both have huge heavy tails at corpus
    scale):
      1. vectorized bigram explode → c12 via `grouped_count_hash`
         (map-side partials + ONE hash exchange); the min_count filter
         runs BEFORE the joins, pruning the pair table to the
         collocation tail;
      2. token explode → unigram counts (one exchange), materialized
         once and joined twice — keyed on w1 then on w2. Adaptive (the
         pagerank broadcast-chooser pattern, O(1) metadata check on the
         materialized table): a vocabulary of at most
         `broadcast_threshold` rows is pulled once and broadcast-joined
         (zero further shuffles — two chained Dataset.join aggregator
         pools cost seconds of spin-up that a 31-row vocab never
         earns, measured round 5: 4.2 s → sub-second); above the
         threshold both joins run as hash shuffle joins (unigram side
         is one row per distinct term, so its skew is bounded);
      3. TU is the one driver scalar (summed off the materialized
         unigram table, no extra corpus scan).
    Scores are rounded to `ndigits`; the arithmetic parenthesization
    mirrors the DuckDB oracle so doubles are bit-identical."""
    c12_partial, c12_sum = count_fns(
        _bigram_exploder(id_col, text_col), ["w1", "w2"], "c12"
    )

    def _c12_merge(group: pa.Table) -> pa.Table:
        g = c12_sum(group)
        return g.filter(pc.greater_equal(g.column("c12"), pa.scalar(min_count)))

    c12 = hash_exchange(ds, ["w1", "w2"], _c12_merge, c12_partial)
    uni_partial, uni_merge = count_fns(
        _token_exploder(id_col, text_col), ["token"], "c"
    )
    uni = hash_exchange(ds, ["token"], uni_merge, uni_partial)
    # an empty corpus has no tokens: TU is unused, there is nothing to score
    tu = float(uni.sum("c") or 0)

    def _as(w: str, c: str):
        def _ren(batch: pa.Table) -> pa.Table:
            return pa.table(
                {w: batch.column("token"), c: batch.column("c")}
            )

        return _ren

    def _score(batch: pa.Table) -> pa.Table:
        c12v = batch.column("c12").combine_chunks().to_numpy().astype(
            np.float64
        )
        c1v = batch.column("c1").combine_chunks().to_numpy().astype(
            np.float64
        )
        c2v = batch.column("c2").combine_chunks().to_numpy().astype(
            np.float64
        )
        pmi = np.log((tu * c12v) / (c1v * c2v))
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "c12": batch.column("c12"),
                "c1": batch.column("c1"),
                "c2": batch.column("c2"),
                "pmi": pa.array(np.round(pmi, ndigits)),
            }
        )

    if uni.count() <= broadcast_threshold:
        ut = pa.concat_tables(ray.get(uni.to_arrow_refs())).combine_chunks()
        sides_ref = ray.put((_as("w1", "c1")(ut), _as("w2", "c2")(ut)))

        def _attach_score(batch: pa.Table) -> pa.Table:
            u1, u2 = ray.get(sides_ref)
            return _score(batch.join(u1, keys="w1").join(u2, keys="w2"))

        return typed_map(c12, _attach_score)
    j1 = join(c12, uni.map_batches(_as("w1", "c1"), batch_format="pyarrow"),
              on=["w1"])
    j2 = join(j1, uni.map_batches(_as("w2", "c2"), batch_format="pyarrow"),
              on=["w2"])
    return typed_map(j2, _score)


def ngram_lm_score(
    ds: ray.data.Dataset,
    train_sources: list[str],
    k: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
) -> ray.data.Dataset:
    """CCNet-style corpus quality filter: train an add-k-smoothed bigram
    language model on a trusted source slice, score EVERY document by its
    per-token negative log-likelihood under that model (low = fluent /
    in-domain, high = noise) → (id, n_grams, nll). CCNet (Wenzek et al.,
    LREC 2020) ranks Common Crawl docs by target-domain LM perplexity;
    this is that operator re-expressed as Dataset stages.

    Distributed shape — the LM is never driver-held or broadcast (at
    100 TB the bigram table is itself huge):
      1. bigram explode (vectorized, one row per adjacent pair),
         materialized ONCE (block pinning; read by the train filter and
         the scoring join);
      2. train slice (vectorized is_in filter) → C(w1,w2), C(w1) and the
         vocabulary size V via three `grouped_*_hash` tree aggregations
         (one hash exchange each; only V is a driver scalar);
      3. all-docs grams ⋈ C(w1,w2) on (w1,w2), then ⋈ C(w1) on w1 — both
         LEFT OUTER hash-shuffle joins (unseen pairs/contexts get count
         0, the smoothing floor), the tfidf term-keyed-join shape;
      4. per-term logprob ln((cb+k)/(cu+k·V)) rounded to integer
         MICRO-UNITS (×1e6 → int64): per-doc sums are then EXACT and
         addition-order-free in every engine, so the distributed reduce
         (`grouped_sum_hash`) and a SQL oracle's SUM agree bit-for-bit —
         no float-jitter rounding hedge needed on the aggregate;
      5. nll = -sum_micro / (n_grams · 1e6): one exact IEEE division of
         exactly-representable values.

    Docs with < 2 tokens have no bigrams and are absent from the result
    (same as the SQL oracle's GROUP BY over exploded pairs).
    """
    import numpy as np

    from crawlray.ops.relational import grouped_count_hash, grouped_sum_hash

    train_set = pa.array(sorted(train_sources), pa.string())
    grams = explode_bigrams(
        ds, id_col, text_col, extra_cols=(source_col,)
    ).materialize()

    def _train_filter(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(source_col), value_set=train_set)
        return batch.filter(mask).select(["w1", "w2"])

    train = grams.map_batches(_train_filter, batch_format="pyarrow")
    cb = grouped_count_hash(train, ["w1", "w2"], alias="cb")
    cu = grouped_count_hash(
        train.map_batches(lambda b: b.select(["w1"]), batch_format="pyarrow"),
        ["w1"],
        alias="cu",
    )
    vocab = train.map_batches(
        lambda b: pa.table({"w": b.column("w1")}), batch_format="pyarrow"
    ).union(
        train.map_batches(
            lambda b: pa.table({"w": b.column("w2")}), batch_format="pyarrow"
        )
    )
    v = int(grouped_count_hash(vocab, ["w"], alias="_c").count())
    if v == 0:
        raise ValueError(
            f"ngram_lm_score: train slice {train_sources!r} produced no "
            "bigrams — nothing to train on"
        )

    left = grams.map_batches(
        lambda b: b.select([id_col, "w1", "w2"]), batch_format="pyarrow"
    )
    j1 = join(left, cb, on=["w1", "w2"], join_type="left_outer")
    j2 = join(j1, cu, on=["w1"], join_type="left_outer")

    def _logprob_micro(batch: pa.Table) -> pa.Table:
        cbv = (
            pc.fill_null(batch.column("cb"), 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        cuv = (
            pc.fill_null(batch.column("cu"), 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        lp = np.log((cbv + k) / (cuv + k * float(v)))
        lpm = np.round(lp * 1e6).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "lpm": pa.array(lpm, pa.int64()),
            }
        )

    terms = j2.map_batches(_logprob_micro, batch_format="pyarrow")
    per_doc = grouped_sum_hash(
        terms, [id_col], "lpm", alias="lpm_sum", count_alias="n_grams"
    )

    def _final(batch: pa.Table) -> pa.Table:
        s = (
            batch.column("lpm_sum")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        n = (
            batch.column("n_grams")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_grams": pc.cast(batch.column("n_grams"), pa.int64()),
                "nll": pa.array(-s / (n * 1e6), pa.float64()),
            }
        )

    return per_doc.map_batches(_final, batch_format="pyarrow")


def dsir_weights(
    ds: ray.data.Dataset,
    target_sources: list[str],
    n_buckets: int = 4096,
    alpha: float = 0.5,
    hash_mode: str = "md5",
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
) -> ray.data.Dataset:
    """DSIR data selection (Xie et al., NeurIPS 2023): per-document
    importance weight log(p_target/p_source) over HASHED bigram features →
    (id, n_grams, dsir = mean per-gram log-ratio; positive = looks like
    the target domain, negative = looks like the background corpus).
    Callers keep the top slice (or sample ∝ exp(weight)) to tilt a raw
    crawl toward a trusted domain without training a model.

    Scale shape — the fixed B-bucket feature space is the whole trick:
      1. bigram explode (shared `explode_bigrams` kernel), hashed to
         `n_buckets` feature ids (hash_mode="md5" = the repo's standard
         oracle-parity idiom, per-row like `weighted_sample`;
         hash_mode="murmur3" = the vectorized production path);
      2. target / corpus feature histograms via `grouped_count_hash` —
         each is ≤ B rows NO MATTER THE CORPUS SIZE, so unlike
         `ngram_lm_score`'s unbounded bigram table both fit on the
         driver (documented O(B) pull) and the smoothed log-ratio
         lookup broadcasts into the scoring stage as a B-float numpy
         closure — ZERO joins;
      3. per-term log-ratios in int64 micro-units → `grouped_sum_hash`
         per doc (the one shuffle) → exact, order-free sums, bit-equal
         to the SQL oracle.

    Docs with < 2 tokens have no features and are absent (as in
    `ngram_lm_score`).
    """
    import hashlib

    import numpy as np

    if hash_mode not in ("md5", "murmur3"):
        raise ValueError("hash_mode must be 'md5' or 'murmur3'")

    from crawlray.ops.relational import grouped_count_hash, grouped_sum_hash

    target_set = pa.array(sorted(target_sources), pa.string())
    grams = explode_bigrams(
        ds, id_col, text_col, extra_cols=(source_col,)
    ).materialize()

    def _bucket_of(batch: pa.Table) -> np.ndarray:
        gram = pc.binary_join_element_wise(
            batch.column("w1").combine_chunks(),
            batch.column("w2").combine_chunks(),
            " ",
        )
        if hash_mode == "md5":
            return np.fromiter(
                (
                    int(hashlib.md5(s.encode("utf-8")).hexdigest()[:8], 16)
                    % n_buckets
                    for s in gram.to_pylist()
                ),
                np.int64,
                count=len(gram),
            )
        from crawlray.murmur3 import murmur3_x64_128_batch

        lo, _hi = murmur3_x64_128_batch(gram)
        return (lo % np.uint64(n_buckets)).astype(np.int64)

    def _features(batch: pa.Table) -> pa.Table:
        b = _bucket_of(batch)
        return pa.table(
            {
                id_col: batch.column(id_col),
                source_col: batch.column(source_col),
                "b": pa.array(b, pa.int64()),
            }
        )

    feats = grams.map_batches(_features, batch_format="pyarrow").materialize()

    def _target_only(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(source_col), value_set=target_set)
        return batch.filter(mask).select(["b"])

    def _histogram(cnt_ds: ray.data.Dataset) -> tuple[np.ndarray, int]:
        h = np.zeros(n_buckets, np.int64)
        for row in cnt_ds.take_all():  # ≤ n_buckets rows by construction
            h[int(row["b"])] = int(row["c"])
        return h, int(h.sum())

    tgt_h, tgt_n = _histogram(
        grouped_count_hash(
            feats.map_batches(_target_only, batch_format="pyarrow"),
            ["b"],
            alias="c",
        )
    )
    src_h, src_n = _histogram(
        grouped_count_hash(
            feats.map_batches(
                lambda t: t.select(["b"]), batch_format="pyarrow"
            ),
            ["b"],
            alias="c",
        )
    )
    if tgt_n == 0:
        raise ValueError(
            f"dsir_weights: target slice {target_sources!r} produced no "
            "bigram features"
        )
    # smoothed log-ratio per bucket, pre-rounded to int64 micro-units so
    # the distributed per-doc SUM is exact and addition-order-free
    lr = np.log(
        ((tgt_h + alpha) / (tgt_n + alpha * n_buckets))
        / ((src_h + alpha) / (src_n + alpha * n_buckets))
    )
    lrm = np.round(lr * 1e6).astype(np.int64)

    def _score_terms(batch: pa.Table) -> pa.Table:
        b = batch.column("b").combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "lrm": pa.array(lrm[b], pa.int64()),
            }
        )

    terms = feats.map_batches(_score_terms, batch_format="pyarrow")
    per_doc = grouped_sum_hash(
        terms, [id_col], "lrm", alias="lrm_sum", count_alias="n_grams"
    )

    def _final(batch: pa.Table) -> pa.Table:
        s = (
            batch.column("lrm_sum")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        n = (
            batch.column("n_grams")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_grams": pc.cast(batch.column("n_grams"), pa.int64()),
                "dsir": pa.array(s / (n * 1e6), pa.float64()),
            }
        )

    return per_doc.map_batches(_final, batch_format="pyarrow")


def nb_quality_score(
    ds: ray.data.Dataset,
    pos_sources: list[str],
    k: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
) -> ray.data.Dataset:
    """fastText-style quality classifier (the GPT-3/LLaMA CommonCrawl
    filter shape): train a multinomial Naive-Bayes log-odds model with
    unigram features — positive class = docs whose `source` is in
    `pos_sources`, negative = the rest — then score EVERY document by
    log P(pos|d) - log P(neg|d) (prior + per-token add-k-smoothed
    log-likelihood ratios). Same role as the linear fastText classifier
    used to select "looks like curated text" training data; NB with
    bag-of-words features is its closed-form, SQL-expressible sibling.
    → (id, n_tokens, nb); docs with zero tokens are absent (GROUP BY
    over the token explode, same as the oracle).

    Distributed shape — the per-token weight table is never driver-held
    or broadcast (at 100 TB the vocabulary is huge):
      1. token explode carrying an int 0/1 label (vectorized is_in),
         materialized ONCE (read by training and scoring);
      2. train = ONE hash exchange: per-token SUM(label) + COUNT(*)
         (`grouped_sum_hash`) → cpos, cneg = ctot - cpos; class totals
         Tpos/Tneg and vocabulary size V are O(1) driver scalars folded
         from the count table's own per-block partials;
      3. score: tokens ⋈ weights LEFT OUTER on token (tfidf/ppl join
         shape; unseen tokens — impossible here since train covers the
         corpus, but kept for the API — fall to the smoothing floor);
      4. per-token log-odds ln((cpos+k)/(Tpos+kV)) - ln((cneg+k)/(Tneg+kV))
         rounded to int64 MICRO-UNITS so the per-doc distributed SUM is
         exact and addition-order-free — bit-identical to a SQL oracle;
      5. nb = (prior_micro + sum_micro)/1e6, prior = ln(Dpos/Dneg).
    """
    import math

    import numpy as np

    from crawlray.ops.relational import grouped_sum_hash

    pos_set = pa.array(sorted(pos_sources), pa.string())

    def _explode_lab(batch: pa.Table) -> pa.Table:
        toks = split_tokens(batch, text_col).combine_chunks()
        parents = pc.list_parent_indices(toks)
        lab = pc.cast(
            pc.is_in(batch.column(source_col), value_set=pos_set),
            pa.int64(),
        )
        return pa.table(
            {
                id_col: batch.column(id_col).take(parents),
                "token": pc.list_flatten(toks),
                "lab": lab.take(parents),
            }
        )

    tok = ds.map_batches(_explode_lab, batch_format="pyarrow").materialize()

    cnt = grouped_sum_hash(
        tok, ["token"], "lab", alias="cpos", count_alias="ctot"
    )

    # class totals + vocab size: O(#blocks) driver rows off the (already
    # vocab-sized) count table — one row of partial sums per block.
    def _totals(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tpos": pa.array(
                    [pc.sum(batch.column("cpos")).as_py() or 0], pa.int64()
                ),
                "ttot": pa.array(
                    [pc.sum(batch.column("ctot")).as_py() or 0], pa.int64()
                ),
                "v": pa.array([batch.num_rows], pa.int64()),
            }
        )

    tot = cnt.map_batches(_totals, batch_format="pyarrow").take_all()
    tpos = sum(r["tpos"] for r in tot)
    ttot = sum(r["ttot"] for r in tot)
    v = sum(r["v"] for r in tot)
    tneg = ttot - tpos
    if tpos == 0 or tneg == 0:
        raise ValueError(
            f"nb_quality_score: pos_sources {pos_sources!r} yields an "
            f"empty class (tpos={tpos}, tneg={tneg}) — nothing to train on"
        )

    def _doc_lab(batch: pa.Table) -> pa.Table:
        lab = pc.cast(
            pc.is_in(batch.column(source_col), value_set=pos_set),
            pa.int64(),
        )
        return pa.table(
            {
                "dpos": pa.array([pc.sum(lab).as_py() or 0], pa.int64()),
                "dtot": pa.array([batch.num_rows], pa.int64()),
            }
        )

    dparts = ds.map_batches(_doc_lab, batch_format="pyarrow").take_all()
    dpos = sum(r["dpos"] for r in dparts)
    dneg = sum(r["dtot"] for r in dparts) - dpos
    prior_micro = int(np.round(math.log(dpos / dneg) * 1e6))

    left = tok.map_batches(
        lambda b: b.select([id_col, "token"]), batch_format="pyarrow"
    )
    j = join(left, cnt, on=["token"], join_type="left_outer")

    kv = float(k) * float(v)

    def _logodds_micro(batch: pa.Table) -> pa.Table:
        cp = (
            pc.fill_null(batch.column("cpos"), 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        ct = (
            pc.fill_null(batch.column("ctot"), 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        cn = ct - cp
        lo = np.log((cp + k) / (tpos + kv)) - np.log((cn + k) / (tneg + kv))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "m": pa.array(np.round(lo * 1e6).astype(np.int64), pa.int64()),
            }
        )

    terms = j.map_batches(_logodds_micro, batch_format="pyarrow")
    per_doc = grouped_sum_hash(
        terms, [id_col], "m", alias="m_sum", count_alias="n_tokens"
    )

    def _final(batch: pa.Table) -> pa.Table:
        s = (
            batch.column("m_sum")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": pc.cast(batch.column("n_tokens"), pa.int64()),
                "nb": pa.array(
                    (prior_micro + s).astype(np.float64) / 1e6, pa.float64()
                ),
            }
        )

    return per_doc.map_batches(_final, batch_format="pyarrow")


def corpus_diagnostics(
    ds: ray.data.Dataset,
    source_col: str = "source",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-source corpus statistics for data-mixing decisions →
    (source, n_docs, n_tokens, n_types, ttr, entropy):
    type-token ratio (lexical diversity) and unigram Shannon entropy
    H = ln(T) - (Σ c·ln c)/T — the standard diversity diagnostics run
    before choosing mixture weights (a low-entropy source is repetitive
    boilerplate however many tokens it has).

    Distributed shape: ONE (source, token) hash-count exchange (the
    vocabulary × source table — never driver-held), then two per-source
    summary exchanges over that already-aggregated table (sum c +
    type count; sum of per-type c·ln(c) in int64 MICRO-UNITS so the
    distributed sum is exact), plus the tiny per-source doc count. The
    final entropy/ttr are single IEEE ops over exactly-representable
    ints — bit-identical to the SQL oracle."""
    import math

    import numpy as np

    from crawlray.ops.relational import (
        broadcast_join,
        grouped_count_hash,
        grouped_sum_hash,
    )

    def _stok(batch: pa.Table) -> pa.Table:
        toks = split_tokens(batch, text_col).combine_chunks()
        parents = pc.list_parent_indices(toks)
        return pa.table(
            {
                source_col: batch.column(source_col).take(parents),
                "token": pc.list_flatten(toks),
            }
        )

    sc = grouped_count_hash(
        ds.map_batches(_stok, batch_format="pyarrow"),
        [source_col, "token"],
        alias="c",
    )

    g1 = grouped_sum_hash(
        sc, [source_col], "c", alias="n_tokens", count_alias="n_types"
    )

    def _micro(batch: pa.Table) -> pa.Table:
        c = (
            batch.column("c")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        m = np.round(c * np.log(c) * 1e6).astype(np.int64)
        return pa.table(
            {
                source_col: batch.column(source_col),
                "m": pa.array(m, pa.int64()),
            }
        )

    g2 = grouped_sum_hash(
        sc.map_batches(_micro, batch_format="pyarrow"),
        [source_col],
        "m",
        alias="sm",
    )

    # g2 / doc counts are per-source summaries (one row per source) —
    # collected once and broadcast against the equally-small g1 side
    g2_tbl = pa.Table.from_pylist(
        g2.take_all(),
        schema=pa.schema([(source_col, pa.string()), ("sm", pa.int64())]),
    )
    nd_tbl = pa.Table.from_pylist(
        ds.groupby(source_col).count().take_all(),
        schema=pa.schema(
            [(source_col, pa.string()), ("count()", pa.int64())]
        ),
    )
    j = broadcast_join(g1, g2_tbl, keys=[source_col])
    j = broadcast_join(j, nd_tbl, keys=[source_col])

    def _final(batch: pa.Table) -> pa.Table:
        nt = (
            batch.column("n_tokens")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        sm = (
            batch.column("sm")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        tp = (
            batch.column("n_types")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        return pa.table(
            {
                source_col: batch.column(source_col),
                "n_docs": pc.cast(batch.column("count()"), pa.int64()),
                "n_tokens": pc.cast(batch.column("n_tokens"), pa.int64()),
                "n_types": pc.cast(batch.column("n_types"), pa.int64()),
                "ttr": pa.array(tp / nt, pa.float64()),
                # math.log (libm), not np.log: numpy's SIMD log can be
                # 1-2 ULP off DuckDB's LN, and this value lands in the
                # final answer unrounded; one call per SOURCE, not row
                "entropy": pa.array(
                    np.array([math.log(x) for x in nt], np.float64)
                    - sm / (nt * 1e6),
                    pa.float64(),
                ),
            }
        )

    return j.map_batches(_final, batch_format="pyarrow")


def parse_json_field(
    ds: ray.data.Dataset, json_col: str, field: str, out_col: str
) -> ray.data.Dataset:
    """Extract one scalar field from a JSON string column (O-44)."""

    def _jx(batch: pa.Table) -> pa.Table:
        vals = [
            json.loads(s).get(field) if s else None
            for s in batch.column(json_col).to_pylist()
        ]
        cols = {name: batch.column(name) for name in batch.column_names}
        cols[out_col] = pa.array(vals)
        return pa.table(cols)

    return ds.map_batches(_jx, batch_format="pyarrow")


# --------------------------------------------------------------------------
# content-defined chunking (task brief: rolling-hash document fingerprints)
# --------------------------------------------------------------------------

_CDC_P = np.uint64(0x100000001B3)  # odd → invertible mod 2^64
_CDC_PINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))


def _cdc_boundaries(
    data: bytes, window: int, mask: int, min_len: int, max_len: int
) -> list[int]:
    """Content-defined chunk end offsets (exclusive) for one document.

    Rolling window hash, fully VECTORIZED: with S[j] = Σ_{t<j} b[t]·p^t
    (uint64, wrap-around), the window hash at i is
    (S[i+1] − S[i+1−w]) · p^{−(i+1−w)} — cumulative sums plus a modular
    inverse power, all numpy. A position is a CUT CANDIDATE when
    (hash & mask) == 0; min/max chunk lengths are then enforced in a tiny
    loop over candidates only (a handful per KB), never per byte.
    """
    n = len(data)
    if n == 0:
        return []
    if n <= min_len:
        return [n]
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    pw = np.empty(n + 1, np.uint64)
    pw[0] = 1
    np.cumprod(np.full(n, _CDC_P, np.uint64), out=pw[1:])
    ipw = np.empty(n + 1, np.uint64)
    ipw[0] = 1
    np.cumprod(np.full(n, _CDC_PINV, np.uint64), out=ipw[1:])
    s = np.zeros(n + 1, np.uint64)
    np.cumsum(b * pw[:n], out=s[1:])
    w = min(window, n)
    # hash of window ending at i (inclusive), i >= w-1
    hw = (s[w:] - s[:-w]) * ipw[: n - w + 1]
    cand = np.nonzero((hw & np.uint64(mask)) == 0)[0] + w  # cut AFTER byte i
    cuts: list[int] = []
    start = 0
    ci = 0
    while start < n:
        hi = min(start + max_len, n)
        lo = start + min_len
        cut = hi
        while ci < len(cand) and cand[ci] <= start + min_len:
            ci += 1  # candidates inside the min-length zone never cut
        if ci < len(cand) and lo < cand[ci] <= hi:
            cut = int(cand[ci])
        cuts.append(cut)
        start = cut
    return cuts


def cdc_chunks(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 16,
    mask: int = 0x3F,  # avg chunk ≈ 64 bytes past the window
    min_len: int = 32,
    max_len: int = 1024,
) -> ray.data.Dataset:
    """Rolling-hash content-defined chunk fingerprints per document.

    Output rows (doc_id, chunk_idx, chunk_off, chunk_len, chunk_fp) — the
    partial-duplicate primitive: because boundaries depend only on local
    content, an insertion or edit changes O(1) chunks and every other
    fingerprint survives, so shared-chunk joins find near-identical docs
    that whole-document hashing misses. Fingerprints are md5-low-64 of the
    chunk bytes.
    """

    def _chunks(batch: pa.Table) -> pa.Table:
        ids_out, idxs, offs, lens, fps = [], [], [], [], []
        ids = batch.column(id_col).to_pylist()
        for did, t in zip(ids, batch.column(text_col).to_pylist()):
            data = (t or "").encode("utf-8")
            start = 0
            for k, cut in enumerate(
                _cdc_boundaries(data, window, mask, min_len, max_len)
            ):
                ids_out.append(did)
                idxs.append(k)
                offs.append(start)
                lens.append(cut - start)
                fps.append(
                    int.from_bytes(
                        hashlib.md5(data[start:cut]).digest()[:8], "little"
                    )
                )
                start = cut
        return pa.table(
            {
                id_col: pa.array(ids_out),
                "chunk_idx": pa.array(idxs, pa.int32()),
                "chunk_off": pa.array(offs, pa.int64()),
                "chunk_len": pa.array(lens, pa.int64()),
                "chunk_fp": pa.array(np.array(fps, dtype=np.uint64), pa.uint64()),
            }
        )

    return ds.map_batches(_chunks, batch_format="pyarrow")


def clean_corpus_stats(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
    min_tokens: int = 5,
    max_chars: int = 20_000,
) -> ray.data.Dataset:
    """Flagship training-data cleaning pipeline, end to end:

        quality filter → exact dedup → per-source corpus stats

    1. QUALITY: one vectorized pass computes n_tokens (single-space split,
       matching SQL string_split semantics) and n_chars; rows failing
       min_tokens / max_chars are dropped at the scan — downstream stages
       never see them.
    2. EXACT DEDUP: md5(text) fingerprint, keep the smallest id per
       fingerprint (`dedup_keep_first` — sort + per-block keep-first +
       O(#blocks) boundary repair, never a per-group Python call).
    3. STATS: groupby(source) tree aggregate — surviving docs and their
       token volume per source.

    Output: (source, n_docs, total_tokens), the corpus-card numbers a
    training-data pipeline reports after cleaning. Every stage streams;
    the only shuffles are the dedup sort and the final small groupby.
    """
    from ray.data.aggregate import Count, Sum

    from crawlray.ops.dedup import dedup_keep_first

    def _quality(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        n_tokens = pc.cast(
            pc.list_value_length(pc.split_pattern(text, pattern=" ")),
            pa.int64(),
        )
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        keep = pc.and_(
            pc.greater_equal(n_tokens, min_tokens),
            pc.less_equal(n_chars, max_chars),
        )
        fps = pa.array(
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in text.to_pylist()
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                source_col: batch.column(source_col),
                "fp": fps,
                "n_tokens": n_tokens,
            }
        ).filter(keep)

    slim = ds.select_columns([id_col, source_col, text_col]).map_batches(
        _quality, batch_format="pyarrow"
    )
    deduped = dedup_keep_first(slim, key="fp", order=id_col)
    return deduped.groupby(source_col).aggregate(
        Count(alias_name="n_docs"), Sum("n_tokens", alias_name="total_tokens")
    )


# --------------------------------------------------------------------------
# model-inference stage: logistic quality scorer (actor pool)

# Deterministic stand-in for a trained quality model: logistic regression
# over cheap text statistics. Weights are a module constant so the score is
# a pure function of the text (and the SQL oracle can reproduce it); a real
# deployment would load them from a model artifact in __init__ below.
QUALITY_BIAS = -1.0
QUALITY_WEIGHTS = (
    0.002,   # n_chars
    -0.01,   # n_tokens
    0.3,     # avg token length (n_chars / n_tokens)
    5.0,     # period density ((n_chars - n_chars_without_periods)/n_chars)
)


class QualityScorerStage:
    """Actor-pool model-inference stage (task brief: 'stateful stages are
    actor pools - setup in __init__ once per actor, work in __call__ per
    batch'). __init__ stands in for the model-artifact load (weights into
    numpy); __call__ is one vectorized pass: Arrow kernels for the
    features, numpy for the logistic. Use via
    ds.map_batches(QualityScorerStage, concurrency=N,
    batch_format="pyarrow")."""

    def __init__(
        self,
        id_col: str = "doc_id",
        text_col: str = "text",
        weights: tuple = QUALITY_WEIGHTS,
        bias: float = QUALITY_BIAS,
    ):
        self.id_col = id_col
        self.text_col = text_col
        self.w = np.asarray(weights, np.float64)
        self.b = float(bias)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column(self.text_col)
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        n_tokens = (
            pc.list_value_length(pc.split_pattern(text, pattern=" "))
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        no_period = (
            pc.utf8_length(pc.replace_substring(text, ".", ""))
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        denom = np.maximum(n_chars, 1.0)
        # feature order and arithmetic MUST mirror the SQL oracle exactly
        z = (
            self.b
            + self.w[0] * n_chars
            + self.w[1] * n_tokens
            + self.w[2] * (n_chars / np.maximum(n_tokens, 1.0))
            + self.w[3] * ((n_chars - no_period) / denom)
        )
        score = 1.0 / (1.0 + np.exp(-z))
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "quality": pa.array(np.round(score, 6)),
            }
        )


def quality_score(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Per-document model score via the QualityScorerStage actor pool."""
    import crawlray

    # actor CLASSES pickle by reference unless the package is registered
    # by-value — without this, workers whose cwd isn't the repo root hang
    # in an actor-restart loop on `No module named 'crawlray'`
    crawlray.ensure_worker_importability()
    return ds.map_batches(
        QualityScorerStage,
        fn_constructor_kwargs={"id_col": id_col, "text_col": text_col},
        concurrency=concurrency,
        # fractional CPUs: a full-CPU pool sized at the cluster width
        # starves upstream task operators (e.g. a preceding repartition)
        # and deadlocks the stream — same sizing rule as the media stages
        num_cpus=0.5,
        batch_format="pyarrow",
    )


def embed_documents(
    ds: ray.data.Dataset,
    dim: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
    seed: int = 0,
) -> ray.data.Dataset:
    """Deterministic document embeddings via the hashing trick (feature
    hashing, Weinberger et al. 2009): lowercase whitespace tokens →
    murmur3_x64_128 → bucket = lo mod dim, sign = ±1 from hi's top bit →
    signed token counts, L2-normalized. Output (id_col, embedding:
    list<double>), unit-norm (all-zero for token-free docs).

    This is the embedding-generation stage of the text → embed →
    semantic-dedup chain: a stateless zero-shuffle `map_batches` whose
    output is a pure per-document function of the text, so identical texts
    get IDENTICAL vectors (cosine 1 — exact dups always fall to the
    downstream dedup) and near-identical texts land nearby. It stands in
    for a model-inference embedder at the same pipeline position (swap the
    batch fn for a real encoder actor pool — the schema, batch shape, and
    downstream ops are unchanged; cf. QualityScorerStage for the
    actor-pool pattern).

    Fully vectorized: one murmur3 batch hash over the flattened token
    stream, one np.add.at scatter per batch — no per-row Python.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")

    from crawlray.murmur3 import murmur3_x64_128_batch

    def _embed(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.utf8_lower(batch.column(text_col)), pattern=" "
        ).combine_chunks()
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        emb = np.zeros((batch.num_rows, dim), dtype=np.float64)
        if keep.any():
            flat = flat.filter(pa.array(keep))
            parents = parents[keep]
            lo, hi = murmur3_x64_128_batch(flat, seed=seed)
            bucket = (lo % np.uint64(dim)).astype(np.int64)
            sign = np.where(hi >> np.uint64(63), 1.0, -1.0)
            np.add.at(emb, (parents, bucket), sign)
            n = np.linalg.norm(emb, axis=1)
            n[n == 0] = 1.0
            emb /= n[:, None]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float64())),
            }
        )

    return ds.map_batches(_embed, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Gopher-style rule-based quality filtering (Rae et al. 2021, §A1.1 —
# public heuristics; re-derived here as vectorized Arrow/numpy kernels)

GOPHER_STOPWORDS = ("the", "of", "and", "to", "in", "that", "with", "for")

GOPHER_DEFAULTS = dict(
    min_tokens=32,
    max_tokens=100_000,
    min_mean_wlen=3.0,
    max_mean_wlen=4.6,
    min_stop_hits=1,
    max_top_token_frac=0.10,
    max_dup_2gram_frac=0.05,
)


def _gopher_signal_batch(
    batch: pa.Table, id_col: str, text_col: str, thr: dict
) -> pa.Table:
    """Per-batch kernel shared by gopher_signals (emit) and gopher_filter
    (apply): every signal is an exact integer count or an exact IEEE
    division of integer counts, so a SQL oracle reproduces each value
    bit-for-bit with no rounding.

      * mean_wlen == list_avg(word lengths): under a single-space split,
        sum(len(word)) == len(text) - (n_tokens - 1) identically, so the
        flattened tokens are never touched for this signal;
      * stop_hits counts DISTINCT stopwords present (an 8-bit presence
        mask scattered per token with np.bitwise_or.at, then popcount);
      * top_token_frac / dup_2gram_frac come from the shared
        `repetition_arrays` kernel (also used by doc_profile).
    """
    text = batch.column(text_col).combine_chunks()
    toks = pc.split_pattern(text, pattern=" ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    n_tok = (
        pc.list_value_length(toks)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    n_char = pc.utf8_length(text).to_numpy(zero_copy_only=False)
    # exact identity: sum of token lengths under a single-space split;
    # split(" ") of "" yields [""] so n_tok >= 1 and division is safe
    mean_wlen = (n_char - (n_tok - 1)) / n_tok

    n = len(n_tok)
    flat = pc.list_flatten(toks)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), n_tok)
    sw_idx = pc.index_in(flat, value_set=pa.array(GOPHER_STOPWORDS))
    present = sw_idx.is_valid().to_numpy(zero_copy_only=False)
    bits = np.zeros(n, np.uint32)
    if present.any():
        np.bitwise_or.at(
            bits,
            doc_idx[present],
            np.uint32(1)
            << sw_idx.drop_null()
            .to_numpy(zero_copy_only=False)
            .astype(np.uint32),
        )
    stop_hits = np.zeros(n, np.int64)
    for b in range(len(GOPHER_STOPWORDS)):
        stop_hits += (bits >> b) & 1

    top_frac, dup_frac = repetition_arrays(text)
    topn = top_frac.to_numpy(zero_copy_only=False)
    dupn = dup_frac.to_numpy(zero_copy_only=False)

    keep = (
        (n_tok >= thr["min_tokens"])
        & (n_tok <= thr["max_tokens"])
        & (mean_wlen >= thr["min_mean_wlen"])
        & (mean_wlen <= thr["max_mean_wlen"])
        & (stop_hits >= thr["min_stop_hits"])
        & (topn <= thr["max_top_token_frac"])
        & (dupn <= thr["max_dup_2gram_frac"])
    )
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "mean_wlen": pa.array(mean_wlen, pa.float64()),
            "stop_hits": pa.array(stop_hits, pa.int64()),
            "top_token_frac": top_frac,
            "dup_2gram_frac": dup_frac,
            "keep": pa.array(keep, pa.bool_()),
        }
    )


def gopher_signals(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    **thresholds,
) -> ray.data.Dataset:
    """Per-document Gopher quality signals + combined `keep` verdict.

    One zero-shuffle streaming map pass (see `_gopher_signal_batch` for
    the kernels and the exactness argument). Threshold defaults bisect
    the synthetic corpus so the verdict exercises both branches;
    real-corpus deployments pass Gopher's published bounds instead.
    """
    thr = {**GOPHER_DEFAULTS, **thresholds}

    def _sig(batch: pa.Table) -> pa.Table:
        return _gopher_signal_batch(batch, id_col, text_col, thr)

    return ds.map_batches(_sig, batch_format="pyarrow")


def gopher_filter(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    **thresholds,
) -> ray.data.Dataset:
    """Keep only documents passing the Gopher rules — the production
    filter form: signals are computed and applied per batch in one
    streaming pass (original columns preserved, failing rows never leave
    the scan stage), no shuffle, no second read of the corpus."""
    thr = {**GOPHER_DEFAULTS, **thresholds}

    def _filt(batch: pa.Table) -> pa.Table:
        sig = _gopher_signal_batch(batch, id_col, text_col, thr)
        return batch.filter(sig.column("keep"))

    return ds.map_batches(_filt, batch_format="pyarrow")


def inverted_index(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Build an inverted index: one row per term with its document
    frequency and the comma-joined posting list of doc ids in ascending
    id order — (token, df, postings).

    Shape for 100 TB: the only exchange is ONE hash shuffle of the
    DISTINCT (token, doc) pairs on token (`hash_exchange` co-locates each
    term's postings without a global sort); map-side the explode dedups pairs
    per batch, which is globally exact because a document is one row and
    never spans batches. The per-partition kernel is fully vectorized:
    one Arrow sort + group_by list-aggregate + a flat cast/binary_join —
    no Python loop over terms. Posting lists are bounded by the term's
    df; a web-scale stopword term yields one long string row, which
    Arrow handles as a large_string chunk (callers wanting bounded rows
    can pre-filter ultra-high-df terms with frequent_items).
    """
    def _pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), pattern=" ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        parents = pc.list_parent_indices(toks)
        pairs = pa.table(
            {
                "token": pc.list_flatten(toks),
                id_col: batch.column(id_col).take(parents),
            }
        )
        # per-batch distinct == global distinct (a doc never spans batches)
        return pairs.group_by(["token", id_col]).aggregate([])

    def _index(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[("token", "ascending"), (id_col, "ascending")],
        )
        t = group.take(idx)
        g = t.group_by(["token"], use_threads=False).aggregate(
            [(id_col, "list"), (id_col, "count")]
        )
        lists = g.column(f"{id_col}_list").combine_chunks()
        flat_str = pc.cast(pc.list_flatten(lists), pa.string())
        as_str_lists = pa.ListArray.from_arrays(lists.offsets, flat_str)
        return pa.table(
            {
                "token": g.column("token"),
                "df": pc.cast(g.column(f"{id_col}_count"), pa.int64()),
                "postings": pc.binary_join(as_str_lists, ","),
            }
        )

    return hash_exchange(
        ds.select_columns([id_col, text_col]),
        ["token"],
        _index,
        _pairs,
        num_partitions,
    )
