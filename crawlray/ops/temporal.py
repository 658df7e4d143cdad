"""Temporal joins the Dataset API lacks: as-of join and range (interval)
join (task brief: "when the reference has an operator Ray Data lacks
(as-of join, range join, ...) implement it as a composition of map_batches +
groupby().map_groups + sort ... and document the partitioning assumption";
the per-key grouping is `exchange.group_map`).

The reference engine (single-process BFS loop, SURVEY.md §0) has no temporal
algebra; these cover the time-series surface of the driver's events/orders
tables and are SQL-oracled against DuckDB's native ASOF JOIN / inequality
join.

Partitioning assumptions (documented per the brief):
  * `asof_join` shuffles BOTH sides once on the `by` key (one `group_map`);
    the per-group kernel is a vectorized numpy searchsorted, so per-task
    memory is bounded by the largest single key group. An as-of match
    needs the whole key group in time order, so its kernel has no
    `combine`, and a hot `by` key stays one reduce.
  * `asof_join_broadcast` assumes the RIGHT side fits in a worker heap
    (a reference time series / calendar / rate table): it is put in the
    object store once, sorted, and probed zero-copy per batch. The left
    side streams with no shuffle at all.
  * `range_join` assumes intervals are short relative to `bucket_width`:
    each right interval is replicated to ceil(len/width)+1 hash buckets
    and each left row lands in exactly ONE bucket, so the equi-join on
    bucket produces each qualifying pair exactly once (no post-dedup).
    Replication factor = avg_interval_len/width + 1; pick width near the
    typical interval length.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from crawlray.ops.exchange import concat, group_map, join, map_blocks, pin


def _ts_i64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Timestamp/int/float column → int64 numpy (µs for timestamps)."""
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.int64())
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return arr.to_numpy(zero_copy_only=False)


def _take_with_null(col: pa.ChunkedArray | pa.Array, idx: np.ndarray,
                    valid: np.ndarray) -> pa.Array:
    """col.take(idx) but rows where ~valid become null (idx may be junk)."""
    safe = np.where(valid, idx, 0)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    taken = arr.take(pa.array(safe))
    if valid.all():
        return taken
    return pc.if_else(pa.array(valid), taken, pa.scalar(None, arr.type))


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    by: str,
    right_payload: list[str],
    direction: str = "backward",
    tolerance: int | None = None,
    join_type: str = "inner",
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Distributed as-of join (SQL: ASOF JOIN ... ON l.by = r.by AND
    l.on >= r.on): for each left row, attach the single right row of the
    same `by` key whose `on` is the closest at-or-before (backward) /
    at-or-after (forward) the left row's `on`.

    Shape: both sides are tagged and unioned into one padded schema, ONE
    `group_map` exchange on `by` co-locates each key, and the per-group kernel
    sorts the right rows once and binary-searches all left rows against
    them (numpy searchsorted — vectorized, no per-row Python). Memory per
    task is bounded by the largest `by` group, never the dataset.

    `right_payload` names the right columns to attach (each emitted as
    `<name><suffix>` if the name collides with a left column). Right rows
    should be unique per (`by`, `on`); among equal `on` values the
    last-sorted row wins (matching DuckDB, which requires uniqueness for a
    deterministic answer — dedup the right side first if needed).
    `tolerance` (same unit as `on`; µs for timestamps) drops matches
    farther than that. `join_type`: "inner" drops unmatched left rows,
    "left" keeps them with null payload.
    """
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")
    if join_type not in ("inner", "left"):
        raise ValueError("join_type must be 'inner' or 'left'")

    left, right = pin(left), pin(right)
    left_schema = left.schema()
    left_names = list(left_schema.names)
    left_types = dict(zip(left_schema.names, left_schema.types))
    right_schema = right.schema()
    right_types = dict(zip(right_schema.names, right_schema.types))
    for c in right_payload:
        if c not in right_types:
            raise ValueError(f"right_payload column {c!r} not in right schema")
    out_names = {
        c: (c + suffix if c in left_types else c) for c in right_payload
    }
    # Padded union schema: by, on(left), _side, left payloads, right
    # payloads (under their output names). `on` holds the right row's `on`
    # for side=1 rows.
    pay_left = [c for c in left_names if c not in (by,)]
    if on not in pay_left:
        raise ValueError(f"`on` column {on!r} must be a left column")

    def _pad_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {by: batch.column(by)}
        for c in pay_left:
            cols[c] = batch.column(c)
        for c in right_payload:
            cols[out_names[c]] = pa.nulls(n, right_types[c])
        cols["_side"] = pa.array(np.zeros(n, dtype=np.int8))
        return pa.table(cols)

    def _pad_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {by: batch.column(by)}
        for c in pay_left:
            if c == on:
                cols[c] = batch.column(on).cast(left_types[on])
            else:
                cols[c] = pa.nulls(n, left_types[c])
        for c in right_payload:
            cols[out_names[c]] = batch.column(c)
        cols["_side"] = pa.array(np.ones(n, dtype=np.int8))
        return pa.table(cols)

    both = concat([map_blocks(left, _pad_left), map_blocks(right, _pad_right)])
    out_payload_names = [out_names[c] for c in right_payload]

    def _kernel(group: pa.Table) -> pa.Table:
        side = group.column("_side").combine_chunks().to_numpy(
            zero_copy_only=False
        )
        lt = group.filter(pa.array(side == 0))
        rt = group.filter(pa.array(side == 1))
        empty = lt.drop_columns(["_side"]).slice(0, 0)
        if lt.num_rows == 0:
            return empty
        if rt.num_rows == 0:
            if join_type == "left":
                return lt.drop_columns(["_side"])
            return empty
        r_ts = _ts_i64(rt.column(on))
        order = np.argsort(r_ts, kind="stable")
        r_ts = r_ts[order]
        rt = rt.take(pa.array(order))
        l_ts = _ts_i64(lt.column(on))
        if direction == "backward":
            idx = np.searchsorted(r_ts, l_ts, side="right") - 1
            valid = idx >= 0
            if tolerance is not None:
                valid &= (l_ts - r_ts[np.where(valid, idx, 0)]) <= tolerance
        else:
            idx = np.searchsorted(r_ts, l_ts, side="left")
            valid = idx < len(r_ts)
            idx = np.where(valid, idx, 0)
            if tolerance is not None:
                valid &= (r_ts[idx] - l_ts) <= tolerance
        cols = {by: lt.column(by)}
        for c in pay_left:
            cols[c] = lt.column(c)
        for c in out_payload_names:
            cols[c] = _take_with_null(rt.column(c), idx, valid)
        out = pa.table(cols)
        if join_type == "inner" and not valid.all():
            out = out.filter(pa.array(valid))
        return out

    return group_map(both, [by], _kernel)


def asof_join_broadcast(
    left: ray.data.Dataset,
    right: pa.Table,
    on: str,
    right_payload: list[str],
    direction: str = "backward",
    tolerance: int | None = None,
    join_type: str = "inner",
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Keyless as-of join against a SMALL right table (calendar / rate /
    reference series). The right side is sorted once, `ray.put` once, and
    every map task probes it zero-copy with numpy searchsorted — the left
    side streams with NO shuffle. Use `asof_join` when the right side is
    itself a big Dataset keyed by entity.
    """
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")
    r_ts_all = _ts_i64(right.column(on))
    order = np.argsort(r_ts_all, kind="stable")
    right_sorted = right.take(pa.array(order))
    ref = ray.put((r_ts_all[order], right_sorted))
    left_names = set(left.schema().names)
    out_names = {
        c: (c + suffix if c in left_names else c) for c in right_payload
    }

    def _probe(batch: pa.Table) -> pa.Table:
        r_ts, rt = ray.get(ref)
        l_ts = _ts_i64(batch.column(on))
        if direction == "backward":
            idx = np.searchsorted(r_ts, l_ts, side="right") - 1
            valid = idx >= 0
            idx = np.where(valid, idx, 0)
            if tolerance is not None:
                valid &= (l_ts - r_ts[idx]) <= tolerance
        else:
            idx = np.searchsorted(r_ts, l_ts, side="left")
            valid = idx < len(r_ts)
            idx = np.where(valid, idx, 0)
            if tolerance is not None:
                valid &= (r_ts[idx] - l_ts) <= tolerance
        out = batch
        for c in right_payload:
            out = out.append_column(
                out_names[c], _take_with_null(rt.column(c), idx, valid)
            )
        if join_type == "inner" and not valid.all():
            out = out.filter(pa.array(valid))
        return out

    return left.map_batches(_probe, batch_format="pyarrow")


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_ts: str,
    right_start: str,
    right_end: str,
    bucket_width: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Interval join (SQL: l JOIN r ON l.ts BETWEEN r.start AND r.end,
    both ends inclusive) with NO equi-key — the pattern Ray Data's
    hash-join cannot express.

    Shape: time is cut into `bucket_width`-sized buckets (µs for
    timestamps). Each right interval is REPLICATED to every bucket it
    overlaps (vectorized numpy repeat — replication factor is
    len/width + 1, so pick width near the typical interval length); each
    left row lands in exactly ONE bucket, so the bucket equi-join emits
    every qualifying pair exactly once and no post-join dedup is needed.
    The residual `start <= ts <= end` filter drops same-bucket non-overlaps.
    Output: all left columns + all right columns (collisions get `_r`).
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    left, right = pin(left), pin(right)
    # Rename colliding right columns up front (Dataset.join has no default
    # suffixing) so the output schema is deterministic.
    left_names = set(left.schema().names)
    rename = {
        c: (c + "_r" if c in left_names else c) for c in right.schema().names
    }
    ws_name, we_name = rename[right_start], rename[right_end]

    def _bucket_left(batch: pa.Table) -> pa.Table:
        ts = _ts_i64(batch.column(left_ts))
        return batch.append_column(
            "_bkt", pa.array(ts // bucket_width, type=pa.int64())
        )

    def _explode_right(batch: pa.Table) -> pa.Table:
        ws = _ts_i64(batch.column(right_start))
        we = _ts_i64(batch.column(right_end))
        if np.any(we < ws):
            raise ValueError("right_end < right_start in range_join input")
        b0 = ws // bucket_width
        b1 = we // bucket_width
        reps = (b1 - b0 + 1).astype(np.int64)
        parents = np.repeat(np.arange(batch.num_rows, dtype=np.int64), reps)
        # bucket id = b0[parent] + offset-within-run (vectorized cumcount)
        offs = np.arange(len(parents), dtype=np.int64)
        run_starts = np.cumsum(reps) - reps
        offs -= np.repeat(run_starts, reps)
        bkt = b0[parents] + offs
        out = batch.take(pa.array(parents))
        out = out.rename_columns([rename[c] for c in out.column_names])
        return out.append_column("_bkt", pa.array(bkt, type=pa.int64()))

    joined = join(
        map_blocks(left, _bucket_left),
        map_blocks(right, _explode_right),
        on=["_bkt"],
        num_partitions=num_partitions,
    )

    def _residual(batch: pa.Table) -> pa.Table:
        ts = batch.column(left_ts)
        mask = pc.and_(
            pc.greater_equal(ts, batch.column(ws_name)),
            pc.less_equal(ts, batch.column(we_name)),
        )
        return batch.filter(mask).drop_columns(["_bkt"])

    return map_blocks(joined, _residual)
