"""Exact deduplication operators (SURVEY.md O-30/O-38).

The crawl engine's within-wave frontier dedup (keep the winning row per
URL, re-derived from a packed winner value) is the seen-shard actors'
offer/finish min-combine (crawlray/actors), not an operator here.

* `dedup_keep_first` — generic full-row "keep first by order column" dedup
  for arbitrary schemas. Sort-based and scale-safe:
    1. range-shuffle sort by (key, order) → duplicates co-locate per block
       except across block boundaries;
    2. per-block vectorized keep-first (no Python row loops);
    3. boundary repair: only keys that straddle a block boundary (O(#blocks)
       keys; ≤ one surviving row per block each after step 2) are re-deduped
       through a single-partition pass. The driver holds O(#blocks) edge
       metadata, never data.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from crawlray.ops.exchange import hash_exchange


def _keep_first_in_block(batch: pa.Table, key: str) -> pa.Table:
    """Vectorized within-block keep-first; input sorted by (key, order)."""
    if batch.num_rows <= 1:
        return batch
    col = batch.column(key).combine_chunks()
    same = pc.equal(col.slice(1), col.slice(0, len(col) - 1))
    keep = pa.concat_arrays(
        [pa.array([True]), pc.invert(pc.fill_null(same, False))]
    )
    return batch.filter(keep)


def dedup_keep_first(ds: ray.data.Dataset, key: str, order: str) -> ray.data.Dataset:
    """Keep, per key, the first row by ascending `order` (full row survives).

    Equivalent SQL: QUALIFY ROW_NUMBER() OVER (PARTITION BY key ORDER BY
    order) = 1. `order` should be unique within a key group for a
    deterministic winner.
    """
    mat = ds.sort([key, order]).materialize()

    local = mat.map_batches(
        lambda b: _keep_first_in_block(b, key),
        batch_format="pyarrow",
        batch_size=None,
    ).materialize()

    # boundary-straddling keys from per-block edge metadata (O(#blocks) rows)
    def _edges(b: pa.Table) -> pa.Table:
        col = b.column(key)
        if b.num_rows == 0:
            return pa.table({"edge": col.slice(0, 0), "which": pa.array([], pa.string())})
        return pa.table(
            {
                "edge": pa.concat_arrays(
                    [col.slice(0, 1).combine_chunks(), col.slice(len(col) - 1).combine_chunks()]
                ),
                "which": pa.array(["first", "last"]),
            }
        )

    edges = mat.map_batches(_edges, batch_format="pyarrow", batch_size=None).take_all()
    firsts = {e["edge"] for e in edges if e["which"] == "first"}
    lasts = {e["edge"] for e in edges if e["which"] == "last"}
    straddle = sorted(firsts & lasts)
    if not straddle:
        return local
    straddle_arr = pa.array(straddle)

    def _part(keep_straddle: bool):
        def fn(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch.column(key), value_set=straddle_arr)
            return batch.filter(mask if keep_straddle else pc.invert(mask))

        return fn

    clean = local.map_batches(_part(False), batch_format="pyarrow")
    # ≤ #blocks rows per straddling key survive step 2 → single-partition
    # resolve stays tiny regardless of input size
    resolved = (
        local.map_batches(_part(True), batch_format="pyarrow")
        .repartition(1)
        .sort([key, order])
        .map_batches(
            lambda b: _keep_first_in_block(b, key),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
    return clean.union(resolved)


def dedup_keep_first_hash(
    ds: ray.data.Dataset,
    key: str,
    order: str | list[str],
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Keep-first dedup via ONE `hash_exchange` on `key` (VERDICT r3
    item 5): the exchange co-locates every key's rows in a single
    partition, and a per-partition vectorized (key, order) sort +
    keep-first finishes locally. Compared to `dedup_keep_first` (range
    sort): no global order, no boundary repair, no second materialize —
    one shuffle total. Output block order is arbitrary; use the
    sort-based variant when the caller needs key-ordered output. Same
    semantics otherwise: QUALIFY ROW_NUMBER() OVER (PARTITION BY key
    ORDER BY order) = 1.
    """
    order_cols = [order] if isinstance(order, str) else list(order)

    def _kf(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[(key, "ascending")]
            + [(c, "ascending") for c in order_cols],
        )
        return _keep_first_in_block(group.take(idx), key)

    return hash_exchange(ds, [key], _kf, num_partitions=num_partitions)


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
    ds = ds.materialize()
    if pairs is None:  # callers may reuse an already-verified pair table
        pairs = minhash_lsh_pairs(
            ds, id_col, text_col, num_perm, bands,
            jaccard_threshold, max_bucket, hash_mode,
        )
    if pairs.num_rows == 0:
        return ds
    from crawlray.ops.graph import connected_components

    cc = connected_components(ray.data.from_arrow(pairs))
    drop_tbls = []
    for b in cc.iter_batches(batch_format="pyarrow"):
        t = pa.table(b)
        drop_tbls.append(
            t.filter(pc.not_equal(t.column("node"), t.column("component")))
        )
    drop = pa.concat_tables(drop_tbls).column("node").combine_chunks()
    if len(drop) == 0:
        return ds
    return broadcast_semi_anti(ds, id_col, drop, anti=True)
