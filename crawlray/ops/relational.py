"""Relational operators over ray.data.Dataset (SURVEY.md §2.4–2.7).

The reference engine (single-process PyCrawler-class loop; SURVEY.md §0) has
no relational algebra — these operators cover the QA/aggregation surface the
driver checks via DuckDB oracles, and are the same kernels the crawl engine
uses (e.g. the broadcast lookup pattern backs O-25, the anti-join backs the
seen-set semantics of O-26).

Scale notes baked into each op:
  * small sides are broadcast once via `ray.put` and joined per batch with
    Arrow kernels — never re-shipped per batch, never a shuffle;
  * large-large joins go through `exchange.join` (hash-partition both sides);
  * grouped aggregates are `exchange.aggregate` hash exchanges (Arrow
    partials per block, one merge per partition; no driver
    materialization of the big side);
  * a hot key is the exchange's concern, not the operator's: joins,
    `grouped_topk` and `session_windows` split a skewed partition into
    sub-reduces inside `exchange._shuffle` (SURVEY §4.3), so no operator
    here salts its keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from crawlray.ops.exchange import (
    aggregate,
    aggregate_fns,
    concat,
    from_table,
    group_map,
    hash_exchange,
    join,
    map_blocks,
    partials,
    pin,
    sort_order,
    sorted_runs,
)


def broadcast_join(
    big: ray.data.Dataset,
    small: pa.Table,
    keys: list[str],
    join_type: str = "inner",
) -> ray.data.Dataset:
    """Join a big Dataset against a small in-memory Arrow table.

    The small side is put in the object store ONCE; every map task reads it
    zero-copy and runs a vectorized Arrow (Acero) join per batch. This is the
    broadcast-hash-join pattern — no shuffle of the big side.
    """
    small_ref = ray.put(small)

    def _join(batch: pa.Table) -> pa.Table:
        rhs = ray.get(small_ref)
        return batch.join(rhs, keys=keys, join_type=join_type)

    return map_blocks(big, _join)


# Large-large join: hash-shuffle both sides on the key. Chooser — which
# join to use:
#   * one side fits comfortably in a worker's heap (dimension table, lookup
#     set): `broadcast_join` — no shuffle at all, the big side streams;
#   * both sides large (fact ⋈ fact, e.g. documents ⋈ crawl_log at full
#     corpus scale): `shuffle_join` — O(|L|+|R|) network, bounded
#     per-partition memory. `exchange.join` sizes the partitions and
#     splits a partition that a hot key makes skewed by itself.
shuffle_join = join


def broadcast_semi_anti(
    big: ray.data.Dataset,
    key: str,
    small_keys: pa.Array | pa.ChunkedArray | list,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi/anti join: keep rows whose key is (not) in the small key set."""
    if isinstance(small_keys, list):
        small_keys = pa.array(small_keys)
    keys_ref = ray.put(small_keys)

    def _filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = pc.is_in(batch.column(key), value_set=ks)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return map_blocks(big, _filter)


def topk(
    ds: ray.data.Dataset,
    keys: list[str],
    k: int,
    descending: bool | list[bool] = True,
) -> ray.data.Dataset:
    """Global top-k (nulls last): the top k rows of every block, then the
    top k of those on the driver, which holds at most k rows per block.
    No exchange: nothing but k rows needs an order.

    Pass a unique tiebreak column last in `keys` so results are deterministic.
    """
    order = sort_order(keys, descending)

    def _top(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=order)[:k])

    return from_table(_top(pa.concat_tables(partials(ds, _top), promote_options="permissive")))


def md5_digest_col(
    ds: ray.data.Dataset, key: str, out_col: str = "_md5"
) -> ray.data.Dataset:
    """Append the full md5 hex digest of `key` as `out_col` — ONE
    per-row hashing pass that every md5-keyed sampler downstream can
    share via its `digest_col` parameter (the md5 is the only per-row
    Python in this family; computing it once instead of once per
    sampler is the whole win when several samplers ride one pinned
    scan, as the driver's `samples` query does)."""
    import hashlib

    def _digest(batch: pa.Table) -> pa.Table:
        digs = pa.array(
            hashlib.md5(str(v).encode("utf-8")).hexdigest()
            for v in batch.column(key).to_pylist()
        )
        return batch.append_column(out_col, digs)

    return ds.map_batches(_digest, batch_format="pyarrow")


def hash_sample(
    ds: ray.data.Dataset,
    key: str,
    buckets_kept: int,
    total_buckets: int = 256,
    invert: bool = False,
    digest_col: str | None = None,
) -> ray.data.Dataset:
    """Deterministic content-keyed sample (O-36, the reproducible variant).

    Keeps rows whose md5(key) falls in the first `buckets_kept` of
    `total_buckets` hex-prefix buckets — e.g. (25, 256) ≈ a 9.8% sample.
    Unlike `Dataset.random_sample`, the kept set is a pure function of the
    key: stable across runs, parallelism levels and engines (the DuckDB
    oracle expresses the same predicate as
    `substr(md5(key), 1, 2) < '<hex>'`), and consistent between tables —
    sampling two tables by the same join key keeps matching rows together,
    which a per-row RNG cannot do. Per-batch work is a vectorized string
    compare on the 2-hex-char prefix; only the md5 itself is per-row.

    `invert=True` keeps the COMPLEMENT (the other 256 - buckets_kept
    buckets) — the two calls partition the input exactly, which is how a
    benchmark/candidate split stays disjoint by construction.
    """
    if total_buckets != 256:
        raise ValueError("total_buckets must be 256 (2 hex chars)")
    if not 0 <= buckets_kept <= 256:
        raise ValueError("buckets_kept must be in [0, 256]")
    if buckets_kept == 256:
        # keep-all: '100' would compare lexicographically wrong. The
        # complement of keep-all is EMPTY — honor invert so the two
        # calls still partition the input exactly at this edge.
        if invert:
            return map_blocks(ds, lambda b: b.slice(0, 0))
        return ds
    threshold = format(buckets_kept, "02x")
    cmp = pc.greater_equal if invert else pc.less
    import hashlib

    def _sample(batch: pa.Table) -> pa.Table:
        if digest_col is not None:
            prefixes = pc.utf8_slice_codeunits(
                batch.column(digest_col), 0, 2
            )
        else:
            prefixes = pa.array(
                hashlib.md5(str(v).encode("utf-8")).hexdigest()[:2]
                for v in batch.column(key).to_pylist()
            )
        return batch.filter(cmp(prefixes, threshold))

    return map_blocks(ds, _sample)


def hash_split(
    ds: ray.data.Dataset,
    key: str,
    splits: list[tuple[str, int]],
    hash_fn: str = "md5",
    digest_col: str | None = None,
) -> ray.data.Dataset:
    """Deterministic train/val/test split: append a `split` label column
    assigning each row to one of the named bucket ranges — e.g.
    [("train", 205), ("val", 25), ("test", 26)] ≈ 80/10/10. Bucket counts
    must sum to 256, so the split is EXHAUSTIVE and DISJOINT by
    construction; the label is a pure function of md5(key) (the same
    2-hex-prefix bucketing as `hash_sample`, so split membership is
    stable across runs / parallelism / engines, and any table keyed by
    the same id lands in the same split — the property that keeps a
    held-out set held out across every derived table).

    hash_fn="md5" (default) keeps SQL-oracle parity (the oracle is a
    CASE over `substr(md5(key), 1, 2)` thresholds); hash_fn="murmur3"
    uses the repo's vectorized murmur3_x64_128 batch kernel (no per-row
    Python) for production volume, same contract. Zero shuffle either
    way — one stateless map_batches.
    """
    if hash_fn not in ("md5", "murmur3"):
        raise ValueError("hash_fn must be 'md5' or 'murmur3'")
    names = [n for n, _ in splits]
    sizes = [b for _, b in splits]
    if any(b < 0 for b in sizes) or sum(sizes) != 256:
        raise ValueError("split bucket counts must be >= 0 and sum to 256")
    cum = np.cumsum(sizes)
    import hashlib

    if hash_fn == "md5":
        # hex-string boundaries, compared against the 2-char md5 prefix
        bounds = np.array(
            [format(c, "02x") if c < 256 else "g0" for c in cum[:-1]]
        )
    else:
        bounds = cum[:-1].astype(np.uint64)
    name_arr = np.array(names)

    def _split(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("split", pa.array([], pa.string()))
        if hash_fn == "md5":
            if digest_col is not None:
                h = np.array(
                    pc.utf8_slice_codeunits(
                        batch.column(digest_col), 0, 2
                    ).to_pylist()
                )
            else:
                h = np.array(
                    [
                        hashlib.md5(str(v).encode("utf-8")).hexdigest()[:2]
                        for v in batch.column(key).to_pylist()
                    ]
                )
        else:
            from crawlray.murmur3 import murmur3_x64_128_batch

            col = batch.column(key)
            if not pa.types.is_string(col.type):
                col = pc.cast(col, pa.string())
            lo, _ = murmur3_x64_128_batch(col)
            h = lo % np.uint64(256)
        idx = np.searchsorted(bounds, h, side="right")
        return batch.append_column(
            "split", pa.array(name_arr[idx], pa.string())
        )

    return ds.map_batches(_split, batch_format="pyarrow")


def mixture_sample(
    ds: ray.data.Dataset,
    source_col: str,
    key_col: str,
    rates: dict[str, float],
    default_rate: float = 0.0,
    digest_col: str | None = None,
) -> ray.data.Dataset:
    """Deterministic data-mixing sampler: downsample each source to its
    target mixture rate (the 'domain weights' stage of a training-data
    pipeline — e.g. {'web': 0.3, 'books': 1.0, 'spam': 0.0}). A row is
    kept iff md5(key) falls in the first round(rate·256) of 256
    hex-prefix buckets for ITS source, so the kept set is a pure function
    of (key, source→rate): stable across runs, parallelism and engines,
    and the same key survives in every table sampled with the same rates
    (hash_sample's cross-table property, per source). Rates ≥ 1 keep the
    whole source; this op only downsamples (upsampling = repeat epochs
    downstream).

    Shape: zero shuffle — one dict-encode of the source column per batch
    (one threshold lookup per DISTINCT source, not per row) + the same
    md5-prefix compare hash_sample uses (md5 kept for oracle parity; see
    hash_sample_fast for the murmur3 production path). `rates` rides the
    task closure — fine for the O(10²–10³) sources real corpora have.
    """

    def _thr(rate: float) -> str:
        b = int(round(max(0.0, min(1.0, rate)) * 256))
        # every md5 prefix is [0-9a-f]{2} < 'g0', so 'g0' == keep-all
        return "g0" if b >= 256 else format(b, "02x")

    thr_by_source = {s: _thr(r) for s, r in rates.items()}
    default_thr = _thr(default_rate)
    import hashlib

    def _sample(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        src = batch.column(source_col)
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        uniq_thr = pa.array(
            [
                thr_by_source.get(s, default_thr)
                for s in enc.dictionary.to_pylist()
            ],
            pa.string(),
        )
        thr = uniq_thr.take(enc.indices)
        if digest_col is not None:
            prefixes = pc.utf8_slice_codeunits(
                batch.column(digest_col), 0, 2
            )
        else:
            prefixes = pa.array(
                hashlib.md5(str(v).encode("utf-8")).hexdigest()[:2]
                for v in batch.column(key_col).to_pylist()
            )
        return batch.filter(pc.less(prefixes, thr))

    return ds.map_batches(_sample, batch_format="pyarrow")


def epoch_mixture(
    ds: ray.data.Dataset,
    source_col: str,
    key_col: str,
    epochs: dict[str, float],
    default_epochs: float = 1.0,
    digest_col: str | None = None,
) -> ray.data.Dataset:
    """Fractional-EPOCH data mixing — the upsampling counterpart of
    `mixture_sample` ('2.3 epochs of books, 0.5 of web'): every row of
    source s is emitted floor(e_s) or ceil(e_s) times, getting the extra
    copy iff md5(key) falls in the first round(frac(e_s)·256) of 256
    hex-prefix buckets — so the copy multiset is a pure function of
    (key, source→epochs): stable across runs, parallelism and engines,
    and the SAME keys get the extra copy in every table mixed with the
    same spec. e < 1 downsamples (0-or-1 copies, ≡ mixture_sample);
    e = 0 drops the source. Output appends `epoch:int64` (0-based copy
    index) so downstream shuffles/packing can tell copies apart.

    Shape: zero shuffle — one dict-encode of the source column per batch
    (floor + threshold per DISTINCT source), one md5 prefix per row (the
    oracle-parity hash, as in mixture_sample/hash_sample), then one
    vectorized np.repeat/take to emit copies. Output volume is
    sum(e_s · rows_s); the repeat is per-batch so blocks grow by at most
    max(ceil(e)) — re-block downstream if epochs are large.
    """
    import hashlib

    def _parts(e: float) -> tuple[int, str]:
        e = max(0.0, float(e))
        base = int(np.floor(e))
        b = int(round((e - base) * 256))
        if b >= 256:  # frac rounds up to a whole extra copy
            return base + 1, "00"
        # every md5 prefix is [0-9a-f]{2}; '00' keeps nothing extra
        return base, format(b, "02x")

    by_source = {s: _parts(e) for s, e in epochs.items()}
    default_parts = _parts(default_epochs)

    def _expand(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch.append_column("epoch", pa.array([], pa.int64()))
        src = batch.column(source_col)
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        uniq = [
            by_source.get(s, default_parts)
            for s in enc.dictionary.to_pylist()
        ]
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        base = np.array([u[0] for u in uniq], np.int64)[idx]
        thr = pa.array([u[1] for u in uniq], pa.string()).take(enc.indices)
        if digest_col is not None:
            prefixes = pc.utf8_slice_codeunits(
                batch.column(digest_col), 0, 2
            )
            if isinstance(prefixes, pa.ChunkedArray):
                prefixes = prefixes.combine_chunks()
        else:
            prefixes = pa.array(
                hashlib.md5(str(v).encode("utf-8")).hexdigest()[:2]
                for v in batch.column(key_col).to_pylist()
            )
        extra = pc.less(prefixes, thr).to_numpy(zero_copy_only=False)
        copies = base + extra.astype(np.int64)
        total = int(copies.sum())
        take = np.repeat(np.arange(n), copies)
        starts = np.concatenate(([0], np.cumsum(copies)))[:-1]
        epoch = np.arange(total) - np.repeat(starts, copies)
        out = batch.take(pa.array(take, pa.int64()))
        return out.append_column("epoch", pa.array(epoch, pa.int64()))

    return ds.map_batches(_expand, batch_format="pyarrow")


def hash_sample_fast(
    ds: ray.data.Dataset,
    key: str,
    rate: float,
    total_buckets: int = 1 << 16,
) -> ray.data.Dataset:
    """Engine-native deterministic content-keyed sample (O-36 hot path).

    Same semantics as `hash_sample` — kept rows are a pure function of the
    key, stable across runs / parallelism / block layout, consistent
    between tables sampled on a shared key — but hashed with the repo's
    VECTORIZED murmur3_x64_128 batch kernel (numpy, no per-row Python)
    instead of per-row md5. Keeps rows whose bucket
    (hash_lo mod total_buckets) < rate * total_buckets. Use `hash_sample`
    only where md5 parity with an external SQL oracle is required; this is
    the variant for production-volume sampling.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    threshold = int(rate * total_buckets)
    if threshold >= total_buckets:
        return ds

    from crawlray.murmur3 import murmur3_x64_128_batch

    def _sample(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(
            col.type
        ):
            col = pc.cast(col, pa.string())
        lo, _ = murmur3_x64_128_batch(col.combine_chunks())
        keep = (lo % np.uint64(total_buckets)) < np.uint64(threshold)
        return batch.filter(pa.array(keep))

    return ds.map_batches(_sample, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    group_col: str,
    key_col: str,
    n_per_group: int,
    digest_col: str | None = None,
) -> ray.data.Dataset:
    """Deterministic stratified sample: n rows per group, chosen as the
    n smallest md5(key) — a balanced per-source/per-language training-data
    sample that is a pure function of the data (stable across runs,
    parallelism and engines; DuckDB expresses it as ROW_NUMBER() OVER
    (PARTITION BY group ORDER BY md5(key), key) <= n). One `group_map`;
    the per-group kernel is the vectorized `grouped_topk` argsort. The md5
    order is uniform-random-like per key, so each group's sample is
    unbiased; `key_col` doubles as the tie-break for identical digests.
    """
    import hashlib

    def _digest(batch: pa.Table) -> pa.Table:
        if digest_col is not None:
            return batch.append_column("_dig", batch.column(digest_col))
        digs = pa.array(
            hashlib.md5(str(v).encode("utf-8")).hexdigest()
            for v in batch.column(key_col).to_pylist()
        )
        return batch.append_column("_dig", digs)

    withdig = ds.map_batches(_digest, batch_format="pyarrow")

    def _take_n(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[("_dig", "ascending"), (key_col, "ascending")]
        )
        return group.take(order.slice(0, n_per_group)).drop_columns(["_dig"])

    return group_map(withdig, [group_col], _take_n)


def grouped_topk(
    ds: ray.data.Dataset,
    group_cols: list[str],
    order_col: str,
    k: int,
    descending: bool = True,
    tiebreak_col: str | None = None,
) -> ray.data.Dataset:
    """Top-k rows per group (SQL: QUALIFY ROW_NUMBER() OVER (PARTITION BY
    group ORDER BY order_col [DESC]) <= k).

    One `group_map` exchange co-locates each group; the per-group kernel is a
    vectorized argsort + head-k — group sizes bound the memory, never the
    dataset. Pass `tiebreak_col` (unique within groups) for a deterministic
    winner when order_col has ties.
    """

    def _topk(group: pa.Table) -> pa.Table:
        v = group.column(order_col).to_numpy(zero_copy_only=False)
        keys = [v if not descending else -v]
        if tiebreak_col is not None:
            keys = [group.column(tiebreak_col).to_numpy(zero_copy_only=False)] + keys
        order = np.lexsort(tuple(keys))
        return group.take(pa.array(order[:k]))

    # top-k of the top-k of parts of a group is its top-k
    return group_map(ds, group_cols, _topk, combine=_topk)


def _gap_cuts(
    t0: pa.ChunkedArray, t1: pa.ChunkedArray, gap_seconds: float
) -> np.ndarray:
    """Per consecutive row pair i, i+1: whether t0[i+1] - t1[i] exceeds
    `gap_seconds`. Timestamps compare in integer microseconds, numeric
    columns as float seconds; a gap of exactly `gap_seconds` is no cut."""
    a, b = t0.to_numpy()[1:], t1.to_numpy()[:-1]
    if a.dtype.kind == "M":  # datetime64 → compare in microseconds
        d = (a - b).astype("timedelta64[us]").astype(np.int64)
        return d > int(gap_seconds * 1_000_000)
    if a.dtype.kind in "iuf":  # numeric → values are seconds
        return (a.astype(np.float64) - b.astype(np.float64)) > float(gap_seconds)
    raise TypeError(
        f"session_windows: ts column has unsupported dtype {a.dtype} "
        "(need timestamp or numeric seconds)"
    )


def _session_rows(
    t: pa.Table, keys: list[str], key_new: np.ndarray, new: np.ndarray,
    weight: np.ndarray, t_start: pa.ChunkedArray, t_end: pa.ChunkedArray,
) -> pa.Table:
    """One row per session of `t`, which is sorted by (keys, time): a
    session starts where `new` is set and a key group where `key_new`
    is. `session_id` counts from 0 within each key group; `n_events`
    sums `weight` over the session's rows; `t_start`/`t_end` are taken
    at its first/last row."""
    starts = np.flatnonzero(new)
    ends = np.flatnonzero(np.append(new[1:], True)) if len(new) else starts
    first = np.flatnonzero(key_new[starts])  # each key group's first session
    i = np.arange(len(starts))
    sid = i - first[np.searchsorted(first, i, side="right") - 1]
    n_events = np.add.reduceat(weight, starts) if len(starts) else weight[:0]
    starts, ends = pa.array(starts), pa.array(ends)
    return pa.table({
        **{k: t.column(k).take(starts) for k in keys},
        "session_id": pa.array(sid, pa.int64()),
        "n_events": pa.array(n_events, pa.int64()),
        "t_start": t_start.take(starts),
        "t_end": t_end.take(ends),
    })


def _sessionize(
    t: pa.Table, keys: list[str], ts_col: str, gap_seconds: float
) -> pa.Table:
    """Sessions of every key group of one exchange partition: sort by
    (keys, ts); a session starts where the key tuple changes or the gap
    to the previous event exceeds `gap_seconds`.
    Output: (*keys, session_id, n_events, t_start, t_end)."""
    t, key_new = sorted_runs(t, keys, [ts_col])
    ts = t.column(ts_col)
    new = key_new.copy()
    new[1:] |= _gap_cuts(ts, ts, gap_seconds)
    return _session_rows(t, keys, key_new, new, np.ones(t.num_rows, np.int64), ts, ts)


def session_windows(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    gap_seconds: float,
) -> ray.data.Dataset:
    """Gap-based session windows per key — the streaming windowed-aggregate
    shape (sessionization) as a batch operator.

    Events for one key more than `gap_seconds` apart start a new session.
    ONE `hash_exchange` on key co-locates each key's events; each
    partition is sessionized whole by one vectorized sort on (key, ts) +
    diff (no per-key or per-event Python). Session ids
    are 0-based in time order, so output is a pure function of the data —
    deterministic under any parallelism (equal timestamps share a session
    regardless of sort-tie order). `ts_col` may be a timestamp column (gaps
    measured in real time) or a plain numeric column interpreted as SECONDS
    — numeric deltas are NOT reinterpreted as timedelta64[us] (ADVICE r2).
    Output: (key, session_id, n_events, t_start, t_end).
    """
    return hash_exchange(
        ds, [key], lambda t: _sessionize(t, [key], ts_col, gap_seconds),
        lambda b: b.select([key, ts_col]),
        combine=lambda t: _merge_sessions(t, key, gap_seconds),
    )


def _merge_sessions(t: pa.Table, key: str, gap_seconds: float) -> pa.Table:
    """The sessions of whole key groups from the sessions of parts of
    them (the outputs of one partition's sub-reduces). Parts interleave
    in time, so one part's session may lie inside another's: sorted by
    (key, t_start), a session starts where the key changes or its
    t_start is more than `gap_seconds` past the running maximum of the
    key's earlier t_end values. Its t_end is that running maximum, its
    n_events the sum, and session_id counts from 0 again."""
    t, key_new = sorted_runs(t, [key], ["t_start"])
    # running max of t_end per key: dense ranks offset by key group, so
    # one accumulate never carries a value across groups
    vals, rank = np.unique(t.column("t_end").to_numpy(), return_inverse=True)
    base = (np.cumsum(key_new) - 1) * len(vals)
    t_end = pa.array(vals[np.maximum.accumulate(base + rank) - base],
                     t.schema.field("t_end").type)
    new = key_new.copy()
    new[1:] |= _gap_cuts(t.column("t_start"), t_end, gap_seconds)
    return _session_rows(t, [key], key_new, new, t.column("n_events").to_numpy(),
                         t.column("t_start"), t_end)


def hopping_window_agg(
    ds: ray.data.Dataset,
    ts_col: str,
    value_col: str,
    window_seconds: float,
    hop_seconds: float,
) -> ray.data.Dataset:
    """Hopping (sliding) window aggregate — the overlapping-window
    streaming shape as a batch operator (tumbling = `window_bucket`;
    gap-based = `session_windows`).

    Each event belongs to every window [s, s+window) whose hop-aligned
    start s = k·hop satisfies s ≤ t < s+window — i.e. window/hop
    overlapping windows per event. One vectorized map_batches EXPLODES
    each event into its window assignments (np.repeat + arange, no row
    loop; fan-out factor window/hop is a constant chosen by the caller),
    and ONE `aggregate` on window_start counts and sums them. Timestamps
    are truncated to whole epoch seconds before window math (matches the
    DuckDB oracle's floor(epoch(ts))); numeric ts columns are taken as
    seconds. Output: (window_start: int64 epoch-seconds, n, total_value).
    """
    w = int(window_seconds)
    h = int(hop_seconds)
    if w <= 0 or h <= 0 or w % h:
        raise ValueError("need window_seconds % hop_seconds == 0, both > 0")

    def _explode(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col).to_numpy()
        if ts.dtype.kind == "M":
            es = ts.astype("datetime64[us]").astype(np.int64) // 1_000_000
        else:
            es = np.floor(ts.astype(np.float64)).astype(np.int64)
        k1 = np.floor_divide(es, h)
        k0 = np.floor_divide(es - w, h) + 1
        counts = (k1 - k0 + 1).astype(np.int64)
        starts_rep = np.repeat(k0, counts)
        # rank-within-row via global arange minus each row's group start
        grp0 = np.repeat(np.cumsum(counts) - counts, counts)
        ks = starts_rep + (np.arange(len(starts_rep)) - grp0)
        vals = np.repeat(
            batch.column(value_col).to_numpy(zero_copy_only=False), counts
        )
        return pa.table(
            {
                "window_start": pa.array(ks * h, pa.int64()),
                value_col: pa.array(vals),
            }
        )

    return aggregate(
        ds, ["window_start"],
        {"n": (None, "count"), "total_value": (value_col, "sum")}, _explode,
    )


def window_shift_cum(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    value_col: str,
    ntile_k: int = 4,
) -> ray.data.Dataset:
    """SQL window functions over a partition: LAG(value), LEAD(value),
    the running SUM(value) (ROWS UNBOUNDED PRECEDING), plus the rank
    family — ROW_NUMBER, PERCENT_RANK, CUME_DIST and NTILE(ntile_k) —
    all ordered by `order_cols` within each `key` group. The rank family
    assumes `order_cols` ends with a unique tie-break (as the docstring
    below already requires for determinism), under which RANK ==
    ROW_NUMBER and CUME_DIST == row/n, exactly the SQL values.

    One `group_map` exchange co-locates each partition; the per-group kernel is
    one vectorized Arrow sort + numpy shifted views + cumsum — group sizes
    bound the memory, never the dataset. Pass a unique tie-break column
    last in `order_cols` so the frame order (and therefore LAG/LEAD and
    the running sum) is deterministic, exactly as the equivalent OVER
    clause requires.

    NULL semantics match SQL (ADVICE r3): LAG/LEAD propagate a NULL value
    as NULL (not NaN), and the running SUM ignores NULL rows (the frame's
    sum is NULL only while no non-null value has been seen yet).
    """

    def _kernel(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group, sort_keys=[(c, "ascending") for c in order_cols]
        )
        g = group.take(idx)
        col = g.column(value_col).combine_chunks()
        null_mask = (
            pc.is_null(col).to_numpy(zero_copy_only=False)
            if col.null_count
            else np.zeros(len(col), bool)
        )
        v = col.to_numpy(zero_copy_only=False).astype(np.float64)
        v_filled = np.where(null_mask, 0.0, v)
        n = len(v)
        lag = np.concatenate(([0.0], v_filled))[:n]
        lead = np.concatenate((v_filled, [0.0]))[1:]
        lag_mask = np.concatenate(([True], null_mask))[:n]
        lead_mask = np.concatenate((null_mask, [True]))[1:]
        rs = np.cumsum(v_filled)
        rs_mask = np.cumsum(~null_mask) == 0  # NULL until a value appears
        r = np.arange(1, n + 1, dtype=np.int64)
        pct = (r - 1) / (n - 1) if n > 1 else np.zeros(n, np.float64)
        cume = r / n if n else np.zeros(0, np.float64)
        # NTILE(k): the first n % k buckets take ceil(n/k) rows (SQL)
        q, rem = divmod(n, ntile_k)
        i0 = r - 1
        if q == 0:
            nt = r.copy()  # n < k: one row per bucket
        else:
            head = rem * (q + 1)
            nt = np.where(
                i0 < head, i0 // (q + 1), rem + (i0 - head) // q
            ) + 1
        return pa.table(
            {
                **{c: g.column(c) for c in g.column_names},
                "lag_value": pa.array(lag, mask=lag_mask),
                "lead_value": pa.array(lead, mask=lead_mask),
                "running_sum": pa.array(rs, mask=rs_mask),
                "row_num": pa.array(r),
                "pct_rank": pa.array(pct, pa.float64()),
                "cume_dist": pa.array(cume, pa.float64()),
                "ntile": pa.array(nt.astype(np.int64)),
            }
        )

    return group_map(ds, [key], _kernel)


def grouping_sets_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    sets: list[tuple[str, ...]] | list[list[str]],
    all_label: str = "(all)",
) -> ray.data.Dataset:
    """GROUP BY GROUPING SETS(sets): count + sum at every requested key
    subset. Absent key columns carry `all_label` (a sentinel instead of
    SQL's NULL so downstream value-hash comparisons are unambiguous; the
    oracle COALESCEs its NULLs to the same label).

    Scale shape: the DATA takes exactly ONE `aggregate` exchange — at the
    finest granularity (all of `keys`) — and every coarser set is
    re-aggregated from that materialized result, which is one row per
    distinct key tuple (cardinality of the domain, not of the data).
    Count and sum are distributive, so the re-aggregation is exact for
    counts and integer-valued sums; float sums can differ from a direct
    single-level GROUP BY only by summation order, same as any
    distributed aggregation. The previous one-shuffle-PER-LEVEL shape
    cost len(sets) passes over the raw input.
    """
    key_order = {k: i for i, k in enumerate(keys)}
    fine = aggregate(ds, keys, {"n": (None, "count"), "sum_v": (value_col, "sum")})
    out = None
    for raw in sets:
        sub = sorted(set(raw), key=key_order.__getitem__)
        assert all(k in key_order for k in sub), f"unknown keys in {raw}"
        if sub == list(keys):
            level = fine
        else:  # with no keys, one total row
            level = aggregate(fine, sub, {"n": ("n", "sum"), "sum_v": ("sum_v", "sum")})

        def _pad(batch: pa.Table, sub=tuple(sub)) -> pa.Table:
            label = pa.array([all_label] * batch.num_rows, pa.string())
            cols = {c: batch.column(c) if c in sub else label for c in keys}
            # the keyless level's one row counts the input: 0, not null, when empty
            n = batch.column("n") if sub else pc.fill_null(batch.column("n"), 0)
            return pa.table({**cols, "n": n, "sum_v": batch.column("sum_v")})

        level = map_blocks(level, _pad)
        out = level if out is None else out.union(level)
    return out


def rollup_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    all_label: str = "(all)",
) -> ray.data.Dataset:
    """GROUP BY ROLLUP(keys): the key-prefix grouping sets, from the full
    key down to the grand total — `grouping_sets_agg` with prefixes (one
    data exchange total; see its scale note)."""
    sets = [tuple(keys[:i]) for i in range(len(keys), -1, -1)]
    return grouping_sets_agg(ds, keys, value_col, sets, all_label)


def cube_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    all_label: str = "(all)",
) -> ray.data.Dataset:
    """GROUP BY CUBE(keys): every key subset — `grouping_sets_agg` with
    the powerset (2^len(keys) sets over the one materialized finest
    aggregate; keep `keys` short, exactly as in SQL)."""
    from itertools import combinations

    sets: list[tuple[str, ...]] = []
    for r in range(len(keys), -1, -1):
        sets.extend(combinations(keys, r))
    return grouping_sets_agg(ds, keys, value_col, sets, all_label)


def bloom_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    anti: bool = False,
    num_bits: int = 1 << 23,
    num_hashes: int = 4,
    right_is_distinct: bool = False,
) -> ray.data.Dataset:
    """EXACT semi/anti join with a Bloom-filter pre-filter — the at-scale
    middle ground between `broadcast_semi_anti` (needs the exact right key
    SET in one heap) and a full shuffle join (moves every left row).

    Build: one streaming pass over the right side emits a per-block Bloom
    bitmap partial (num_bits/8 bytes, OR-mergeable like the HLL
    registers); the driver ORs them and `ray.put`s the final filter once.
    Probe: every left batch tests membership with vectorized double
    hashing (murmur3_128 hi/lo words) — no false negatives, FP rate
    ~(1-e^(-kn/m))^k. Exactness rescue: Bloom candidates (tiny vs left
    when selectivity is low) are verified with a hash-shuffle join against
    the distinct right keys, so the result is EXACT; for anti joins the
    Bloom-rejected rows pass immediately (no false negatives ⇒ definitely
    unmatched) and only candidates are double-checked.

    Saturation guard: when the merged filter's bit density is so high
    that a probe would pass more than half of ALL keys (density^k > 0.5 —
    one driver-side popcount of the bitmap it already holds), the probe
    pass is pure overhead: every left row goes straight to the exact
    verify join instead (identical results — the verify is always exact).
    This is the regime a saturated-contamination `decontaminate` hits.
    """
    from crawlray.murmur3 import murmur3_x64_128_batch

    if num_bits % 64:
        raise ValueError("num_bits must be a multiple of 64")
    nb = np.uint64(num_bits)

    def _key_hashes(col) -> tuple:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(
            col.type
        ):
            col = pc.cast(col, pa.string())
        lo, hi = murmur3_x64_128_batch(col)
        return lo, hi | np.uint64(1)  # odd step for double hashing

    def _build_partial(batch: pa.Table) -> np.ndarray:
        bits = np.zeros(num_bits // 64, np.uint64)
        lo, step = _key_hashes(batch.column(key))
        for i in range(num_hashes):
            pos = (lo + np.uint64(i) * step) % nb
            np.bitwise_or.at(
                bits, (pos >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (pos & np.uint64(63)),
            )
        return bits

    # the right side is read twice (the filter and the verify side), and
    # the left side twice for an anti join: pin both
    left, right = pin(left), pin(right)
    merged = np.bitwise_or.reduce(
        [np.zeros(num_bits // 64, np.uint64), *partials(right, _build_partial)]
    )
    bloom_ref = ray.put(merged)

    def _probe(hit_wanted: bool):
        def _filter(batch: pa.Table) -> pa.Table:
            bits = ray.get(bloom_ref)
            lo, step = _key_hashes(batch.column(key))
            hit = np.ones(len(lo), bool)
            for i in range(num_hashes):
                pos = (lo + np.uint64(i) * step) % nb
                word = bits[(pos >> np.uint64(6)).astype(np.int64)]
                hit &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
            return batch.filter(pa.array(hit == hit_wanted))

        return _filter

    density = float(np.unpackbits(merged.view(np.uint8)).sum()) / num_bits
    saturated = density**num_hashes > 0.5
    candidates = left if saturated else map_blocks(left, _probe(True))
    # no fixed repartition here (ADVICE r3): join's size-aware
    # num_partitions default scales with the right key set; a hardcoded
    # repartition(2) would funnel a large key set into 2 reduce tasks.
    # right_is_distinct skips the dedup exchange when the caller already
    # guarantees one row per key (e.g. decontaminate feeds the output of
    # a no-aggs `aggregate`). The dedup is a hash exchange, not Ray's
    # sort-based groupby (the sort shuffle was measured at 20x+ a hash
    # exchange on key sets of this shape).
    if right_is_distinct:
        rdist = map_blocks(right, lambda t: t.select([key]))
    else:
        rdist = aggregate(right, [key], {})
    # semi/anti joins emit each left row at most once, whatever the
    # multiplicity of its key on the right
    verified = join(
        candidates, rdist, on=[key],
        join_type="left_anti" if anti else "left_semi",
    )
    if not anti or saturated:
        # saturated: every left row was a candidate, so the verify IS the
        # full anti result — a probe_inv pass would reject ~nothing
        return verified
    return concat([map_blocks(left, _probe(False)), verified])


def weighted_sample(
    ds: ray.data.Dataset,
    key_col: str,
    weight_col: str,
    k: int,
    hash_fn: str = "md5",
) -> ray.data.Dataset:
    """Deterministic weighted sample WITHOUT replacement (Efraimidis &
    Spirakis, IPL 2006): each row draws u = hash-uniform(key) ∈ (0,1] and
    the k rows with the largest u^(1/weight) win — inclusion probability
    proportional to weight, yet a pure function of the data (stable across
    runs, parallelism and engines).

    hash_fn="md5" (default) keeps SQL-oracle parity — the oracle expresses
    the identical score as POW(('0x'||SUBSTR(MD5(key),1,8))::BIGINT+1 /
    4294967297.0, 1.0/weight) — at the cost of a per-row Python md5.
    hash_fn="murmur3" uses the repo's vectorized murmur3_x64_128 batch
    kernel (no per-row Python) for production-volume runs (ADVICE r3),
    mirroring hash_sample_fast. Selection is `topk` either way.
    """
    import hashlib

    if hash_fn not in ("md5", "murmur3"):
        raise ValueError("hash_fn must be 'md5' or 'murmur3'")

    def _uniform(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
        if hash_fn == "md5":
            u = np.array(
                [
                    int.from_bytes(
                        hashlib.md5(str(v).encode("utf-8")).digest()[:4], "big"
                    )
                    for v in col.to_pylist()
                ],
                np.float64,
            )
            return (u + 1.0) / 4294967297.0
        from crawlray.murmur3 import murmur3_x64_128_batch

        scol = col
        if not pa.types.is_string(scol.type) and not pa.types.is_large_string(
            scol.type
        ):
            scol = pc.cast(scol, pa.string())
        lo, _hi = murmur3_x64_128_batch(scol)
        # map uint64 hash → (0, 1]: (h + 1) / 2^64, vectorized
        return (lo.astype(np.float64) + 1.0) / 18446744073709551616.0

    def _score(batch: pa.Table) -> pa.Table:
        u = _uniform(batch.column(key_col).combine_chunks())
        w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        return batch.append_column("_es", pa.array(u ** (1.0 / w)))

    scored = map_blocks(ds, _score)
    return map_blocks(topk(scored, ["_es", key_col], k, [True, False]),
                      lambda t: t.drop_columns(["_es"]))


def set_op(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cols: list[str],
    op: str = "except",
) -> ray.data.Dataset:
    """SQL EXCEPT / INTERSECT (distinct set semantics) in ONE `aggregate`
    exchange, no join: tag each side, union, group by the row value, and
    keep groups seen only-left (EXCEPT) or on both sides (INTERSECT) via
    min/max of the side tag. Map-side partial aggregation bounds the
    shuffle volume by the number of DISTINCT rows per block."""
    if op not in ("except", "intersect"):
        raise ValueError("op must be 'except' or 'intersect'")

    def _tag(side: int):
        def _t(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    **{c: batch.column(c) for c in cols},
                    "_side": pa.array([side] * batch.num_rows, pa.int8()),
                }
            )

        return _t

    both = concat([map_blocks(left, _tag(0)), map_blocks(right, _tag(1))])
    partial, merge = aggregate_fns(cols, {"mn": ("_side", "min"), "mx": ("_side", "max")})

    def _keep(group: pa.Table) -> pa.Table:
        g = merge(group)
        mask = pc.and_(pc.equal(g.column("mn"), 0),
                       pc.equal(g.column("mx"), 0 if op == "except" else 1))
        return g.filter(mask).select(cols)

    return hash_exchange(both, cols, _keep, partial)


def pivot_agg(
    ds: ray.data.Dataset,
    group_col: str,
    pivot_col: str,
    value_col: str,
    pivot_values: list[str],
) -> ray.data.Dataset:
    """PIVOT: one output column per pivot value, summed per group (SQL:
    SUM(CASE WHEN pivot=v THEN value ELSE 0 END) ... GROUP BY group).

    Map-side the batch is widened with one masked value column per pivot
    value (vectorized if_else) — then ONE `aggregate` sums them all, so the
    shuffle moves one row per (block, group) regardless of how many pivot
    columns exist. `pivot_values` must be the explicit category list (at
    scale you get it from a no-`aggs` `aggregate` or `frequent_items()`),
    which also fixes the output schema up front."""

    def _widen(batch: pa.Table) -> pa.Table:
        cols = {group_col: batch.column(group_col)}
        pv = batch.column(pivot_col)
        val = pc.cast(batch.column(value_col), pa.float64())
        zero = pa.scalar(0.0, pa.float64())
        for v in pivot_values:
            cols[f"v_{v}"] = pc.if_else(pc.equal(pv, v), val, zero)
        return pa.table(cols)

    return aggregate(
        ds, [group_col], {f"v_{v}": (f"v_{v}", "sum") for v in pivot_values}, _widen
    )


def group_rank(
    ds: ray.data.Dataset,
    key: str,
    order_col: str,
    tiebreak_col: str,
    descending: bool = False,
) -> ray.data.Dataset:
    """RANK / DENSE_RANK / ROW_NUMBER per partition (SQL window ranks):
    one `group_map` exchange; the per-group kernel is one vectorized argsort +
    tie-run detection (numpy). rank/dense_rank order by `order_col` alone
    (ties share a rank); row_number breaks ties with `tiebreak_col`."""

    def _kernel(group: pa.Table) -> pa.Table:
        direction = "descending" if descending else "ascending"
        idx = pc.sort_indices(
            group,
            sort_keys=[(order_col, direction), (tiebreak_col, "ascending")],
        )
        g = group.take(idx)
        v = g.column(order_col).to_numpy(zero_copy_only=False)
        n = len(v)
        row_number = np.arange(1, n + 1, dtype=np.int64)
        if n:
            new_run = np.concatenate(([True], v[1:] != v[:-1]))
            rank = np.maximum.accumulate(np.where(new_run, row_number, 0))
            dense = np.cumsum(new_run).astype(np.int64)
        else:
            rank = np.empty(0, np.int64)
            dense = np.empty(0, np.int64)
        return pa.table(
            {
                **{c: g.column(c) for c in g.column_names},
                "row_number": pa.array(row_number),
                "rank": pa.array(rank.astype(np.int64)),
                "dense_rank": pa.array(dense),
            }
        )

    return group_map(ds, [key], _kernel)


def unpivot(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    key_name: str = "key",
    value_name: str = "value",
) -> ray.data.Dataset:
    """UNPIVOT / melt: widen-to-long, one output row per (input row,
    value column). Pure map — a vectorized per-batch explode (concat of
    per-column slices), no shuffle, streams at any scale. Value columns
    are cast to float64 (the common melt type)."""

    def _melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parts = []
        for vc in value_cols:
            parts.append(
                pa.table(
                    {
                        **{c: batch.column(c) for c in id_cols},
                        key_name: pa.array([vc] * n),
                        value_name: pc.cast(
                            batch.column(vc), pa.float64()
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    return ds.map_batches(_melt, batch_format="pyarrow")


def moments(
    ds: ray.data.Dataset, x_col: str, y_col: str | None = None
) -> dict[str, float]:
    """Numerically stable distributed second moments: count, mean and
    SAMPLE variance/stddev of `x_col`, plus (when `y_col` is given) the
    same for y and the sample covariance / Pearson correlation of (x, y).

    Statistical aggregates DuckDB exposes as STDDEV_SAMP / VAR_SAMP /
    COVAR_SAMP / CORR. The naive sum-of-squares identity
    E[x²]−E[x]² catastrophically cancels when stddev ≪ mean (for
    lineitem prices, sum(x²) ≈ 1e15 eats the low-order digits the
    variance lives in), so each block computes a Chan/Welford partial
    (n, mean, M2, and the comoment C2 for pairs) and the driver folds
    the O(#blocks) partials pairwise with Chan's update:

        delta = mean_b − mean_a
        M2    = M2_a + M2_b + delta² · n_a·n_b/(n_a+n_b)

    Partials are folded in sorted block order so the float result is
    bit-deterministic run to run regardless of task completion order
    (the same trick as the distributed k-means reduce in ops/knn.py).
    Rows where x (or y, when given) is NULL are skipped, matching SQL
    aggregate semantics. Scale: one streaming map pass; only one tiny
    partial row per block ever reaches the driver.
    """

    two = y_col is not None
    cols = [x_col] + ([y_col] if two else [])

    def _partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(x_col), pa.float64())
        if two:
            y = pc.cast(batch.column(y_col), pa.float64())
            valid = pc.and_(x.is_valid(), y.is_valid())
            x, y = x.filter(valid), y.filter(valid)
            ya = y.to_numpy(zero_copy_only=False)
        else:
            x = x.drop_null()
        xa = x.to_numpy(zero_copy_only=False)
        n = len(xa)
        mx = float(xa.mean()) if n else 0.0
        m2x = float(((xa - mx) ** 2).sum()) if n else 0.0
        row = {"n": n, "mean_x": mx, "m2_x": m2x, "key": ""}
        if two:
            my = float(ya.mean()) if n else 0.0
            row["mean_y"] = my
            row["m2_y"] = float(((ya - my) ** 2).sum()) if n else 0.0
            row["c2"] = float(((xa - mx) * (ya - my)).sum()) if n else 0.0
        # tag with a content-derived sort key so the driver fold order is
        # independent of which block finishes first
        row["key"] = f"{n:020d}:{mx!r}:{m2x!r}"
        return pa.Table.from_pylist([row])

    parts = (
        ds.select_columns(cols)
        .map_batches(_partial, batch_format="pyarrow")
        .take_all()
    )
    parts.sort(key=lambda r: r["key"])

    n = 0
    mx = m2x = my = m2y = c2 = 0.0
    for p in parts:
        nb = p["n"]
        if nb == 0:
            continue
        if n == 0:
            n, mx, m2x = nb, p["mean_x"], p["m2_x"]
            if two:
                my, m2y, c2 = p["mean_y"], p["m2_y"], p["c2"]
            continue
        tot = n + nb
        dx = p["mean_x"] - mx
        m2x += p["m2_x"] + dx * dx * n * nb / tot
        if two:
            dy = p["mean_y"] - my
            m2y += p["m2_y"] + dy * dy * n * nb / tot
            c2 += p["c2"] + dx * dy * n * nb / tot
            my += dy * nb / tot
        mx += dx * nb / tot
        n = tot

    out: dict[str, float] = {"n": float(n), "mean_x": mx}
    out["var_x"] = m2x / (n - 1) if n > 1 else float("nan")
    out["std_x"] = float(np.sqrt(out["var_x"]))
    if two:
        out["mean_y"] = my
        out["var_y"] = m2y / (n - 1) if n > 1 else float("nan")
        out["std_y"] = float(np.sqrt(out["var_y"]))
        out["covar_xy"] = c2 / (n - 1) if n > 1 else float("nan")
        denom = np.sqrt(m2x) * np.sqrt(m2y)
        out["corr_xy"] = float(c2 / denom) if denom > 0 else float("nan")
    return out
