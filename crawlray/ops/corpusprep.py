"""Training-corpus preparation operators: sequence packing and benchmark
decontamination (task brief's large-scale-training-data-pipeline set;
no reference counterpart — /root/reference is empty, SURVEY §0).

Both are Ray-Data-first compositions over Arrow batches with explicit
partitioning stories for the 100 TB design point:

- `pack_sequences` — GPT-style concat-and-chunk packing: documents are
  concatenated in a deterministic per-source order and split every
  `budget` tokens; each document learns which pack (context-window bin)
  it starts in; `pack_bins` packs whole documents next-fit instead.
  Both are one `exchange.sort` by (source, order) and one
  `exchange.scan` that carries a source's state from partition to
  partition — the driver folds one summary per partition, never data
  rows.

- `decontaminate` — benchmark n-gram decontamination: flags every
  corpus document sharing at least one word n-gram with a benchmark
  set (the standard train/test-contamination check). Grams are built
  fully vectorized (one Arrow `binary_join_element_wise` over shifted
  token arrays — no per-row Python), deduped with a hash-bucket
  exchange, and matched through the existing Bloom semi-join (bitmap
  partials OR-merged, broadcast probe, exact shuffle verify), so the
  benchmark side never needs to fit in one heap and only candidate
  grams reach the verification join.

- `paragraph_dedup` — corpus-wide exact paragraph dedup (boilerplate
  stripping): vectorized separator explode with per-doc positions, then
  ONE murmur3 hash-bucket exchange on paragraph content with a local
  keep-first — the cheapest shape for a global keep-first at 100 TB
  (no global sort).

- `redact_pii` — regex PII scrubbing (emails / IPv4 / SSN-shaped ids
  by default), the Dolma/CCNet-style cleaning stage every public web
  corpus runs before training. Pure per-batch map — zero shuffle, the
  cheapest possible 100 TB shape — with RE2 kernels
  (`pc.count_substring_regex` / `pc.replace_substring_regex`) applied
  SEQUENTIALLY per pattern so counts and replacements are exactly
  reproducible by the same nested `regexp_replace` chain in any other
  RE2 engine (the DuckDB oracle uses the identical patterns verbatim).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from crawlray.ops.exchange import (
    aggregate, aggregate_fns, concat, hash_exchange, map_blocks, pin, run_starts, scan, sort,
)


def _count_tokens(
    ds: ray.data.Dataset, source_col: str, order_col: str, text_col: str
) -> ray.data.Dataset:
    """(source, order, n_tokens) — single-space split, the same token
    convention every textqa oracle uses (LEN(str_split(text, ' ')))."""

    def _count(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), pattern=" ")
        return pa.table(
            {
                source_col: batch.column(source_col),
                order_col: batch.column(order_col),
                "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
            }
        )

    return ds.map_batches(_count, batch_format="pyarrow")


def _source_runs(part: pa.Table, source_col: str) -> tuple[list, np.ndarray, np.ndarray]:
    """The source, first row and end row of every run of one source in a
    partition sorted by source."""
    bounds = np.append(np.flatnonzero(run_starts(part, [source_col])), part.num_rows)
    return part.column(source_col).take(bounds[:-1]).to_pylist(), bounds[:-1], bounds[1:]


def pack_sequences(
    ds: ray.data.Dataset,
    source_col: str = "source",
    order_col: str = "doc_id",
    text_col: str = "text",
    budget: int = 256,
) -> ray.data.Dataset:
    """Concat-and-chunk sequence packing: within each `source_col`
    partition, documents are laid end-to-end in `order_col` order and the
    stream is cut every `budget` tokens; each document reports its running
    token total and the 0-based pack (bin) its first token falls in.

    Output: (source, order, n_tokens, cum_tokens, pack_id) with
      cum_tokens = SUM(n_tokens) OVER (PARTITION BY source ORDER BY order)
      pack_id    = (cum_tokens - n_tokens) // budget

    Distributed shape: one `exchange.sort` by (source, order) and one
    `exchange.scan`, never a task per source, so one giant source (the
    common case in crawl corpora) spans as many partitions as its size
    needs. A partition's summary is the token total of each of its
    source runs; the scan state is the last source seen and its running
    total, which the partition after it adds to its first run.
    """
    counted = sort(_count_tokens(ds, source_col, order_col, text_col), [source_col, order_col])

    def _totals(part: pa.Table) -> list[tuple]:
        src, starts, ends = _source_runs(part, source_col)
        cum = np.append(0, np.cumsum(part.column("n_tokens").to_numpy()))
        return list(zip(src, (cum[ends] - cum[starts]).tolist()))

    def _step(state: tuple, runs: list[tuple]) -> tuple:
        for s, total in runs:
            state = (s, state[1] + total if s == state[0] else total)
        return state

    def _assign(part: pa.Table, state: tuple) -> pa.Table:
        src, starts, ends = _source_runs(part, source_col)
        n = part.column("n_tokens").to_numpy()
        cum = np.cumsum(n)
        base = np.array([state[1] if s == state[0] else 0 for s in src], np.int64)
        cum_tokens = cum + np.repeat(base - (cum - n)[starts], ends - starts)
        return pa.table(
            {
                source_col: part.column(source_col),
                order_col: pc.cast(part.column(order_col), pa.int64()),
                "n_tokens": part.column("n_tokens"),
                "cum_tokens": pa.array(cum_tokens, pa.int64()),
                "pack_id": pa.array((cum_tokens - n) // budget, pa.int64()),
            }
        )

    return scan(counted, _totals, _step, _assign, (None, 0))


# (count-column suffix, RE2 pattern, replacement token). Patterns are
# plain RE2 — valid verbatim in pyarrow.compute AND DuckDB regexp_* —
# and are applied IN ORDER, each one counting/replacing on the output
# of the previous (an IPv4-shaped string inside an email domain is the
# email's problem, not the IP pattern's).
DEFAULT_PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("emails", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ips", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("ids", r"\b\d{3}-\d{2}-\d{4}\b", "<ID>"),
)


def _nf_from(P: np.ndarray, m: int, budget: int):
    """Memoized fresh-start next-fit walk over prefix sums P (P[0]=0,
    docs 1-based): walk(c) = (bins, fill_out) for next-fit over docs
    c..m starting with no open bin. A fresh bin opened at doc c ends at
    e(c) = max{j >= c : P[j]-P[c-1] <= budget} (an oversize doc occupies
    a bin alone), and walk(c) = (1 + walk(e(c)+1).bins, ...). Different
    start points CONVERGE onto the same boundary chain, so computing
    walk for every start in 1..budget+1 costs O(#bins + budget)
    searchsorteds total, not O(budget · #bins)."""
    memo: dict[int, tuple[int, int]] = {}

    def _end(c: int) -> int:
        limit = P[c - 1] + budget
        j = int(np.searchsorted(P, limit, side="right")) - 1
        return c if j < c else j

    def walk(c: int) -> tuple[int, int]:
        if c > m:
            return (0, 0)
        path = []
        while c <= m and c not in memo:
            path.append(c)
            c = _end(c) + 1
        for start in reversed(path):
            e = _end(start)
            if e == m:
                memo[start] = (1, int(P[m] - P[start - 1]))
            else:
                b_next, f_next = memo[e + 1]
                memo[start] = (1 + b_next, f_next)
        return memo[path[0]] if path else memo[c]

    return walk


def pack_bins(
    ds: ray.data.Dataset,
    source_col: str = "source",
    order_col: str = "doc_id",
    text_col: str = "text",
    budget: int = 256,
) -> ray.data.Dataset:
    """Next-fit whole-document bin packing (the SFT-style packer that
    never splits a document, complementing `pack_sequences`' concat-and-
    chunk): within each source, docs in `order_col` order join the open
    bin while its token total stays <= budget, else open a new bin; an
    oversize doc occupies a bin alone. Output: (source, order, n_tokens,
    bin_id) with bin_id 0-based per source — identical to the sequential
    greedy
        f = None
        for t in sizes: f, b = (f+t, b) if f is not None and f+t<=budget
                                 else (t, b+1)

    Distributed shape: one `exchange.sort` by (source, order) and one
    `exchange.scan` whose state, (source, open-bin fill, bins so far) of
    the last source seen, is not a sum. The structural fact that makes
    it foldable: once a run opens its first fresh bin, the rest of its
    packing is independent of the fill it entered with. So a
    partition's summary per source run is the leading prefix sums (the
    docs one bin can absorb) plus (bins, fill_out) for every possible
    absorbed-prefix length (`_nf_from`, O(#bins + budget) per run); the
    driver folds a run in O(1) lookups, and each partition assigns its
    bin ids locally from the state before it.
    """
    counted = sort(_count_tokens(ds, source_col, order_col, text_col), [source_col, order_col])

    def _enter(state: tuple, src, leading) -> tuple[int, int]:
        """(docs joining the open bin, bins before the run) for a run of
        `src` whose docs have prefix sums `leading`."""
        if src != state[0] or state[1] is None:
            return 0, 0
        return int(np.searchsorted(leading, budget - state[1], side="right")), state[2]

    def _sims(part: pa.Table) -> list[tuple]:
        src, starts, ends = _source_runs(part, source_col)
        n = part.column("n_tokens").to_numpy()
        runs = []
        for s, a, e in zip(src, starts, ends):
            P = np.concatenate(([0], np.cumsum(n[a:e])))
            m = e - a
            W = min(m, max(int(np.searchsorted(P, budget, side="right")) - 1, 0))
            walk = _nf_from(P, m, budget)
            sims = [walk(j) if j <= m else (0, 0) for j in range(1, W + 2)]
            runs.append((s, P[1 : W + 1], sims, int(P[m]), m))
        return runs

    def _step(state: tuple, runs: list[tuple]) -> tuple:
        for s, leading, sims, total, m in runs:
            j, base = _enter(state, s, leading)
            if j >= m:  # the open bin absorbs the whole run
                state = (s, state[1] + total, base)
            else:
                state = (s, sims[j][1], base + sims[j][0])
        return state

    def _assign(part: pa.Table, state: tuple) -> pa.Table:
        src, starts, ends = _source_runs(part, source_col)
        n = part.column("n_tokens").to_numpy()
        bin_id = np.empty(part.num_rows, np.int64)
        for s, a, e in zip(src, starts, ends):
            P = np.concatenate(([0], np.cumsum(n[a:e])))
            m = e - a
            j, base = _enter(state, s, P[1:])
            bin_id[a : a + j] = base - 1
            cur, nb = j + 1, 0
            while cur <= m:
                end = max(cur, int(np.searchsorted(P, P[cur - 1] + budget, side="right")) - 1)
                bin_id[a + cur - 1 : a + end] = base + nb
                nb += 1
                cur = end + 1
        return pa.table(
            {
                source_col: part.column(source_col),
                order_col: pc.cast(part.column(order_col), pa.int64()),
                "n_tokens": part.column("n_tokens"),
                "bin_id": pa.array(bin_id, pa.int64()),
            }
        )

    return scan(counted, _sims, _step, _assign, (None, None, 0))


def redact_pii(
    ds: ray.data.Dataset,
    text_col: str = "text",
    patterns: tuple[tuple[str, str, str], ...] = DEFAULT_PII_PATTERNS,
    count_prefix: str = "n_",
) -> ray.data.Dataset:
    """Scrub PII-shaped substrings from `text_col` in place and append one
    `{count_prefix}{name}` int64 column per pattern with the number of
    redactions that pattern made in that document.

    Semantics (mirrored exactly by a nested-regexp_replace SQL oracle):
    for each (name, pattern, token) in order, count matches on the
    CURRENT text, then replace them globally with `token`; later
    patterns see earlier patterns' tokens, never the original matches.

    Scale shape: stateless per-batch map over Arrow — no shuffle, no
    driver state, no actor pool needed (RE2 compilation is cached inside
    Arrow's kernel); the op streams at read bandwidth and composes ahead
    of `clean_corpus` / `pack_sequences` in a corpus-prep chain.
    """

    def _redact(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        counts = []
        for _, pattern, token in patterns:
            counts.append(
                pc.cast(
                    pc.count_substring_regex(text, pattern=pattern),
                    pa.int64(),
                )
            )
            text = pc.replace_substring_regex(
                text, pattern=pattern, replacement=token
            )
        out = batch.set_column(
            batch.column_names.index(text_col), text_col, text
        )
        for (name, _, _), c in zip(patterns, counts):
            out = out.append_column(count_prefix + name, c)
        return out

    return ds.map_batches(_redact, batch_format="pyarrow")


def explode_paragraphs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = " | ",
) -> ray.data.Dataset:
    """(id, pos, paragraph) rows: documents split on a literal separator,
    with the paragraph's 0-based position in its document. Vectorized:
    one `split_pattern` (literal, not regex), `list_parent_indices` for
    the id fan-out, and an arange-minus-offsets numpy pos column."""

    def _ex(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts = pc.split_pattern(col, pattern=sep)
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        parents = pc.list_parent_indices(parts)
        lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
            starts, lens
        )
        return pa.table(
            {
                id_col: batch.column(id_col).take(parents),
                "pos": pa.array(pos, pa.int64()),
                "paragraph": pc.list_flatten(parts),
            }
        )

    return ds.map_batches(_ex, batch_format="pyarrow")


def paragraph_dedup(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = " | ",
) -> ray.data.Dataset:
    """Corpus-wide exact paragraph-level dedup (the Dolma/CCNet stage that
    strips boilerplate headers/footers repeated across documents): split
    every document on `sep`, keep each distinct paragraph ONCE — at its
    first occurrence in global (id, pos) order — and drop every repeat.
    Output: the surviving (id, pos, paragraph) rows; callers reassemble
    with a per-id sort-by-pos join or consume the rows directly.

    Scale shape: the explode is a zero-shuffle vectorized map; the
    dedup is ONE murmur3 hash-bucket exchange on paragraph content
    (`dedup_keep_first`) with a per-partition vectorized sort +
    keep-first — no global sort, no driver state.
    Identical semantics to
      QUALIFY ROW_NUMBER() OVER (PARTITION BY paragraph
                                 ORDER BY id, pos) = 1.
    """
    from crawlray.ops.dedup import dedup_keep_first

    return dedup_keep_first(
        explode_paragraphs(ds, id_col, text_col, sep),
        key="paragraph",
        order=[id_col, "pos"],
    )


def word_ngrams(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    with_pos: bool = False,
) -> ray.data.Dataset:
    """(id, gram) rows: every word n-gram (single-space tokens joined by a
    single space) of every document, in document order — the oracle is
    array_to_string(t[i:i+n-1], ' ') over UNNEST(range(...)). With
    `with_pos=True` a third column `pos:int64` carries the 0-based token
    index of the gram's first word (for span-level consumers: dup_spans).

    Fully vectorized: tokens are flattened once per batch; the n shifted
    views of the flat token array are joined with ONE
    `binary_join_element_wise` call. Docs shorter than n tokens emit
    nothing. Output volume is ~(tokens - (n-1)·docs) rows per batch —
    bound the batch size upstream for very long documents.
    """

    def _grams(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            batch.column(text_col), pattern=" "
        ).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        doc_starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        g_per = np.maximum(lens - (n - 1), 0)
        total = int(g_per.sum())
        ids = batch.column(id_col)
        if total == 0:
            cols = {
                id_col: ids.slice(0, 0),
                "gram": pa.array([], pa.string()),
            }
            if with_pos:
                cols["pos"] = pa.array([], pa.int64())
            return pa.table(cols)
        doc_idx = np.repeat(np.arange(len(lens)), g_per)
        gram_starts = np.concatenate(([0], np.cumsum(g_per)))[:-1]
        within = np.arange(total) - np.repeat(gram_starts, g_per)
        starts = doc_starts[doc_idx] + within
        shifted = [
            flat.take(pa.array(starts + k, pa.int64())) for k in range(n)
        ]
        gram = pc.binary_join_element_wise(*shifted, " ")
        cols = {id_col: ids.take(pa.array(doc_idx, pa.int64())), "gram": gram}
        if with_pos:
            cols["pos"] = pa.array(within.astype(np.int64))
        return pa.table(cols)

    return map_blocks(ds, _grams)


def dup_spans(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 5,
    min_count: int = 2,
    num_partitions: int | None = None,
    hits: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Corpus-level EXACT duplicate-span detection (the substring-dedup
    pass of Lee et al., "Deduplicating Training Data Makes Language Models
    Better", ACL 2022): find every maximal token span covered by word
    n-grams that occur >= min_count times ANYWHERE in the corpus
    (including repeats within the same document). Output one row per
    merged span: (id, span_start, span_end, n_dup_grams) — token indices,
    0-based, end-exclusive; span_end - span_start >= n. Callers cut these
    spans out of the text (or drop the doc) to remove boilerplate and
    templated repetition that whole-doc dedup can't see.

    Distributed shape (mirrors `decontaminate` — no driver rows, no
    all-pairs work):
      1. gram frequency: an `aggregate` count over the gram stream —
         map-side Arrow hash partials + ONE hash exchange whose volume is
         distinct-grams-per-block, not the raw token stream;
      2. the duplicated-gram set (count >= min_count — a small fraction of
         distinct grams at realistic dup rates) is materialized as a
         distributed Dataset, never collected to the driver;
      3. positional grams are re-derived (recomputing the vectorized
         split is deliberately cheaper at 100 TB than pinning a
         larger-than-input exploded gram stream in the object store) and
         probed with `bloom_semi_join`: O(#blocks) bitmap partials,
         broadcast probe, exact hash-join verify of candidates only — the
         overwhelmingly-unique grams cross the wire zero times;
      4. surviving (id, pos) hits take ONE hash exchange on id; the
         per-partition island merge (sort by (id, pos), merge intervals
         [pos, pos+n) when the gap <= n) is a pure numpy kernel.
    """
    if hits is None:
        # callers running BOTH halves (dup_spans + remove_dup_spans over
        # one corpus) should precompute dup_gram_hits(...) once,
        # materialize it, and pass it to both — halving the gram-count
        # exchange and bloom probe
        hits = dup_gram_hits(ds, id_col, text_col, n, min_count)
    return _island_merge(hits, id_col, n, num_partitions)


def _island_merge(
    hits: ray.data.Dataset,
    id_col: str,
    n: int,
    num_partitions: int | None,
    count_col: str = "n_dup_grams",
) -> ray.data.Dataset:
    """(id, pos) gram hits → merged maximal spans (id, span_start,
    span_end, count_col): one murmur3(id) hash exchange, then a
    per-partition vectorized gaps-and-islands merge (sort by (id, pos),
    new island when the doc changes or the gap exceeds n — equal-length
    intervals [pos, pos+n) merge exactly when the next start is at or
    before the previous end). Shared by dup_spans and
    decontaminate_spans."""

    def _merge(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[(id_col, "ascending"), ("pos", "ascending")],
        )
        t = group.take(idx)
        ids = t.column(id_col).combine_chunks()
        pos = t.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
        codes = ids.dictionary_encode().indices.to_numpy(
            zero_copy_only=False
        )
        new_isl = np.ones(len(pos), bool)
        if len(pos) > 1:
            same_doc = codes[1:] == codes[:-1]
            close = (pos[1:] - pos[:-1]) <= n
            new_isl[1:] = ~(same_doc & close)
        starts = np.flatnonzero(new_isl)
        # an empty partition has no islands (and no last island to end)
        ends = np.append(starts[1:], len(pos))[: len(starts)]
        return pa.table(
            {
                id_col: ids.take(pa.array(starts, pa.int64())),
                "span_start": pa.array(pos[starts]),
                "span_end": pa.array(pos[ends - 1] + n),
                count_col: pa.array(ends - starts, pa.int64()),
            }
        )

    return hash_exchange(
        hits, [id_col], _merge, lambda t: t.select([id_col, "pos"]), num_partitions
    )


def dup_gram_hits(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    n: int,
    min_count: int,
) -> ray.data.Dataset:
    """(id, pos) of every positional word n-gram whose gram occurs >=
    min_count times corpus-wide — the shared discovery stage of dup_spans
    and remove_dup_spans (see dup_spans' docstring for the scale shape:
    hash-partial gram counts, bloom-probed semi-join, unique-gram traffic
    is zero)."""
    from crawlray.ops.relational import bloom_semi_join

    ds = pin(ds)  # read twice: the gram counts and the positional grams
    dup_grams = _gram_set(word_ngrams(ds, id_col, text_col, n), min_count)
    hits = bloom_semi_join(
        word_ngrams(ds, id_col, text_col, n, with_pos=True),
        dup_grams,
        key="gram",
        right_is_distinct=True,  # _gram_set output: 1 row/gram
    )
    return map_blocks(hits, lambda t: t.select([id_col, "pos"]))


def _gram_set(grams: ray.data.Dataset, min_count: int = 1) -> ray.data.Dataset:
    """Distinct `gram` values occurring >= min_count times: map-side
    Arrow hash partials + one hash exchange → one `gram` column."""

    partial, count = aggregate_fns(["gram"], {"n": (None, "count")})

    def _merge(group: pa.Table) -> pa.Table:
        g = count(group)
        return g.filter(pc.greater_equal(g.column("n"), min_count)).select(
            ["gram"]
        )

    return hash_exchange(grams, ["gram"], _merge, partial)


def remove_dup_spans(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 5,
    min_count: int = 2,
    num_partitions: int | None = None,
    hits: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """The CUT half of Lee et al.'s substring dedup: drop every token
    covered by a corpus-duplicated word n-gram (>= min_count occurrences
    anywhere, same-doc repeats included) and rejoin the survivors with
    single spaces. Output one row per input document:
    (id, text_clean, n_removed) — n_removed = tokens cut; clean documents
    pass through with n_removed = 0, fully-covered documents come back as
    ''.

    Distributed shape: the duplicated-gram discovery is `dup_gram_hits`
    (shared with dup_spans — see its scale notes); then documents and hit
    positions are CO-GROUPED WITHOUT A JOIN — both normalize to one
    (id, pos, text) schema (docs: pos = -1; hits: text = null), union, and
    take ONE murmur3(id) hash exchange, so each partition holds every doc
    of its id range next to all its hits. The per-partition cut is fully
    vectorized: one Arrow split over the partition's texts, one flat
    boolean mask scatter over token indices (hit coverage [pos, pos+n) is
    always in-bounds by gram construction), one ListArray rebuild + one
    binary_join — no Python loop over tokens or docs.
    """
    if hits is None:
        # callers running BOTH halves (dup_spans + remove_dup_spans over
        # one corpus) should precompute dup_gram_hits(...) once,
        # materialize it, and pass it to both — halving the gram-count
        # exchange and bloom probe
        hits = dup_gram_hits(ds, id_col, text_col, n, min_count)

    def _norm_hits(batch: pa.Table) -> pa.Table:
        pos = pc.cast(batch.column("pos"), pa.int64())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pos": pos,
                "end": pc.add(pos, n),
            }
        )

    return _cut_cover(ds, map_blocks(hits, _norm_hits), id_col, text_col, num_partitions)


def _cut_cover(
    ds: ray.data.Dataset,
    cover: ray.data.Dataset,
    id_col: str,
    text_col: str,
    num_partitions: int | None,
) -> ray.data.Dataset:
    """The cut engine of remove_dup_spans. `cover` rows are
    (id, pos, end) half-open token-index intervals. Docs normalize into
    the same schema (pos = end = -1, text carried in a fourth column),
    union with cover, ONE murmur3(id) hash exchange co-locates each doc
    with all its intervals, and the per-partition kernel scatters one
    flat boolean mask (variable-length ranges via the repeat/arange
    trick), filters, and rebuilds the strings — no Python loop over
    tokens or docs."""

    def _norm_docs(batch: pa.Table) -> pa.Table:
        m1 = pa.array(np.full(batch.num_rows, -1, np.int64))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pos": m1,
                "end": m1,
                text_col: batch.column(text_col),
            }
        )

    def _widen(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            text_col, pa.nulls(batch.num_rows, pa.string())
        )

    tagged = concat([map_blocks(ds, _norm_docs), map_blocks(cover, _widen)])

    def _cut(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[(id_col, "ascending"), ("pos", "ascending")],
        )
        t = group.take(idx)
        pos = t.column("pos").to_numpy(zero_copy_only=False)
        is_doc = pos == -1
        docs_t = t.filter(pa.array(is_doc))
        hits_t = t.filter(pa.array(~is_doc))
        text = docs_t.column(text_col).combine_chunks()
        toks = pc.split_pattern(text, pattern=" ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        flat = pc.list_flatten(toks)
        doc_starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        doc_ids = docs_t.column(id_col).combine_chunks()
        keep = np.ones(len(flat), bool)
        if hits_t.num_rows:
            hit_doc = pc.index_in(
                hits_t.column(id_col).combine_chunks(), value_set=doc_ids
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            # every interval's doc hashes to this partition with it
            hit_pos = hits_t.column("pos").to_numpy(zero_copy_only=False)
            hit_end = hits_t.column("end").to_numpy(zero_copy_only=False)
            # clip to the doc's token range (arbitrary caller spans)
            hit_pos = np.maximum(hit_pos, 0)
            hit_end = np.minimum(hit_end, lens[hit_doc])
            seg = np.maximum(hit_end - hit_pos, 0)
            total = int(seg.sum())
            if total:
                base = doc_starts[hit_doc] + hit_pos
                seg_starts = np.concatenate(([0], np.cumsum(seg)))[:-1]
                within = np.arange(total) - np.repeat(seg_starts, seg)
                cover_idx = np.repeat(base, seg) + within
                keep[cover_idx] = False
        kept_per_doc = np.add.reduceat(
            keep, doc_starts, dtype=np.int64
        ) if len(lens) else np.zeros(0, np.int64)
        # reduceat misbehaves on zero-length segments; lens >= 1 always
        # (split of "" yields [""]), so doc_starts are strictly increasing
        kept_flat = flat.filter(pa.array(keep))
        offsets = np.concatenate(([0], np.cumsum(kept_per_doc)))
        kept_lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), kept_flat
        )
        clean = pc.binary_join(kept_lists, " ")
        return pa.table(
            {
                id_col: doc_ids,
                "text_clean": clean,
                "n_removed": pa.array(lens - kept_per_doc, pa.int64()),
            }
        )

    return hash_exchange(tagged, [id_col], _cut, num_partitions=num_partitions)


def benchmark_grams(
    benchmark: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
) -> ray.data.Dataset:
    """The benchmark's DISTINCT word-n-gram set as a materialized Dataset
    (one row per gram) — the shared probe side of `decontaminate` and
    `decontaminate_spans`; callers running both should build it once."""
    return _gram_set(word_ngrams(benchmark, id_col, text_col, n))


def decontaminate(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset | None,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    bench_grams: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Benchmark decontamination: (id, n_hits) for every corpus document
    sharing >= 1 word n-gram with the benchmark set, n_hits = the number
    of DISTINCT shared grams. Clean documents emit no row — the caller
    anti-joins on the result (or inspects it) to drop contaminated docs.

    Shape at scale: the benchmark gram set dedupes through a hash-bucket
    exchange (`aggregate` — no sort shuffle); the RAW corpus gram
    stream is probed by the Bloom semi-join FIRST (O(#blocks) bitmap
    partials OR-merged on the driver, broadcast probe, exact hash-join
    verify of candidates only) and only the surviving hits pay the
    distinct-(id, gram) exchange — so non-matching corpus grams (the
    overwhelming majority at realistic contamination rates) cross the
    wire exactly zero times. Profiled at 1M docs: the pre-probe order
    moves the biggest shuffle (44M pairs → hit volume) behind the
    filter; at saturation (everything matches) cost is unchanged.
    """
    from crawlray.ops.relational import bloom_semi_join

    if bench_grams is None:
        bench_grams = benchmark_grams(benchmark, id_col, text_col, n)
    hits_raw = bloom_semi_join(
        word_ngrams(docs, id_col, text_col, n), bench_grams, key="gram",
        # bench_grams is already one row per gram (_gram_set output) —
        # skip bloom_semi_join's internal dedup exchange
        right_is_distinct=True,
    )
    hits = aggregate(hits_raw, [id_col, "gram"], {})
    return aggregate(hits, [id_col], {"n_hits": (None, "count")})


def decontaminate_spans(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset | None,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    num_partitions: int | None = None,
    bench_grams: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Positional benchmark decontamination — the CUT-LIST form of
    `decontaminate`: for every corpus document sharing word n-grams with
    the benchmark set, the merged maximal token spans those shared grams
    cover, as (id, span_start, span_end, n_grams) — 0-based token
    indices, end-exclusive. Callers excise the spans (feed them to the
    same span-cut machinery as remove_dup_spans) instead of dropping the
    whole document — the surgical decontamination large corpora prefer
    when benchmark overlap is a few sentences inside long documents.

    Scale shape: the benchmark gram set dedupes once (`benchmark_grams`,
    shareable with `decontaminate`); the corpus's POSITIONAL gram stream
    is probed by the Bloom semi-join (non-matching grams — the
    overwhelming majority — never cross the wire), and only the hits pay
    the one murmur3(id) exchange of the shared `_island_merge` stage."""
    from crawlray.ops.relational import bloom_semi_join

    if bench_grams is None:
        bench_grams = benchmark_grams(benchmark, id_col, text_col, n)
    hits = bloom_semi_join(
        word_ngrams(docs, id_col, text_col, n, with_pos=True),
        bench_grams,
        key="gram",
        right_is_distinct=True,
    )
    return _island_merge(
        hits, id_col, n, num_partitions, count_col="n_grams"
    )
