"""Exact deduplication operators (SURVEY.md O-30/O-38).

The crawl engine's within-wave frontier dedup (keep the winning row per
URL, re-derived from a packed winner value) is the seen-shard actors'
offer/finish min-combine (crawlray/actors), not an operator here.

* `dedup_keep_first` — generic full-row "keep first by order column"
  dedup for arbitrary schemas: one hash exchange on the key and a
  vectorized keep-first per partition.
* `fuzzy_dedup_keep` — near-duplicate documents: MinHash+LSH pairs,
  connected components, one document kept per cluster.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from crawlray.ops.exchange import from_table, hash_exchange, pin, sorted_runs, to_table


def dedup_keep_first(
    ds: ray.data.Dataset, key: str, order: str | list[str]
) -> ray.data.Dataset:
    """Keep, per `key`, the first row by ascending `order` (one column or
    several; the full row survives). Equivalent SQL: QUALIFY
    ROW_NUMBER() OVER (PARTITION BY key ORDER BY order) = 1, so null
    keys form one group; `order` should be unique within a key for a
    deterministic winner.

    One `hash_exchange` on `key` puts every key's rows in one partition,
    where a vectorized (key, order) sort keeps the first row of each key
    run. Rows come in no particular order.
    """
    then = [order] if isinstance(order, str) else list(order)

    def _kf(part: pa.Table) -> pa.Table:
        part, first = sorted_runs(part, [key], then)
        return part.filter(first)

    return hash_exchange(ds, [key], _kf)


def fuzzy_dedup_keep(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.5,
    max_bucket: int = 8192,
    hash_mode: str = "crc32mix",
    pairs: pa.Table | None = None,
) -> ray.data.Dataset:
    """End-to-end fuzzy corpus dedup — the composition every near-dup
    pipeline ships: MinHash+LSH verified pairs (ops/neardup) → connected
    components (ops/graph, min-label propagation) → keep exactly ONE
    document per duplicate cluster (the smallest id), return the surviving
    corpus with all input columns, streaming.

    Scale shape: the pair and CC stages never materialize the corpus
    driver-side (see their docstrings); the only driver state here is the
    DROP id set — cluster members minus representatives, i.e. O(#near-dup
    docs), which is the small side of the final anti-join by the usual
    corpus statistics (dup fraction ≪ 1). The drop set broadcasts once
    (`ray.put` inside broadcast_semi_anti) and the corpus streams through
    one vectorized membership filter — no shuffle. For a pathological
    corpus that is MOSTLY duplicates, invert the composition: broadcast
    the (smaller) keep set instead (`anti=False` on the representatives).
    """
    from crawlray.ops.neardup import minhash_lsh_pairs
    from crawlray.ops.relational import broadcast_semi_anti

    # pairs pass + final anti-join both consume the corpus: pin blocks once
    ds = pin(ds)
    if pairs is None:  # callers may reuse an already-verified pair table
        pairs = minhash_lsh_pairs(
            ds, id_col, text_col, num_perm, bands,
            jaccard_threshold, max_bucket, hash_mode,
        )
    if pairs.num_rows == 0:
        return ds
    from crawlray.ops.graph import connected_components

    cc = to_table(connected_components(from_table(pairs)))
    drop = cc.filter(pc.not_equal(cc.column("node"), cc.column("component")))
    drop = drop.column("node").combine_chunks()
    if len(drop) == 0:
        return ds
    return broadcast_semi_anti(ds, id_col, drop, anti=True)
