"""The one hash exchange and the one join of the operator library.

Ray Data 2.49.2 has three behaviours that every exchange and join would
otherwise have to work around (measured, not documented by Ray):

* `groupby(...).map_groups(f)` writes a (0 rows, 0 columns) block for
  each empty partition without calling `f`;
* `map_batches(f)` never calls `f` on a 0-row block and emits a
  schema-less block in its place, so an empty input loses its schema;
* `Dataset.join` raises `ArrowInvalid: No match ... for key field` when
  a side has zero rows in total (even with a schema), or when a side's
  zero-column blocks meet a join partition its real rows do not reach.

Everything here returns datasets that are materialized, hold no 0-row
blocks, and carry a schema even when they are empty, so no operator
module needs to know about the above. `route` is the only rule that maps
key values to partitions and `partition_count` the only rule that sizes
an exchange.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from crawlray.murmur3 import _fmix64_vec, murmur3_x64_128_batch

Fn = Callable[[pa.Table], pa.Table]

_PK = "_pk"  # the routing column; never visible outside this module
_MIX = np.uint64(0x9E3779B97F4A7C15)
# join types whose result keeps the rows of the other side when one side is
# empty, keyed by the side that must be non-empty
_KEEPS_LEFT = {"left_outer", "full_outer", "left_anti"}
_KEEPS_RIGHT = {"right_outer", "full_outer", "right_anti"}


def partition_count(*datasets: ray.data.Dataset) -> int:
    """Partitions for an exchange over `datasets`: about 64 MiB of the
    largest input per partition, at least 2, never fewer than one per CPU
    once an input passes CPUs x 256 MiB. With no sized input, max(8, CPUs).

    Each partition costs ~60 ms of aggregator spin-up, so a fixed
    max(8, CPUs) on small inputs is mostly overhead (measured: 32
    partitions on a 27 MB input dominated the wall time). `size_bytes`
    is metadata on a materialized dataset but executes a lazy one, so
    pass only materialized datasets.
    """
    cpus = int(ray.cluster_resources().get("CPU", 8))
    size = max((ds.size_bytes() or 0 for ds in datasets), default=0)
    if not size:
        return max(8, cpus)
    want = -(-size // (64 << 20))
    return int(min(max(2, want), max(cpus, -(-size // (256 << 20)))))


def route(table: pa.Table, keys: list[str], n: int) -> pa.Array:
    """Partition id in [0, n) of every row, from the values of `keys`.

    Integers of any width hash by value through murmur3's 64-bit
    finalizer; every other type hashes its string form with murmur3. The
    id depends only on the key values, so rows built by separate
    datasets and later unioned still meet. Nulls route like 0 / ""."""
    acc = np.zeros(table.num_rows, np.uint64)
    for k in keys:
        col = table.column(k)
        if pa.types.is_integer(col.type):
            v = pc.fill_null(col, 0).to_numpy().astype(np.int64)
            h = _fmix64_vec(v.view(np.uint64))
        else:
            if not (
                pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
            ):
                col = pc.cast(col, pa.string())
            h, _ = murmur3_x64_128_batch(pc.fill_null(col, "").combine_chunks())
        acc = acc * _MIX + h
    return pa.array((acc % np.uint64(n)).astype(np.int32))


def hash_exchange(
    ds: ray.data.Dataset,
    keys: list[str],
    merge: Fn,
    partial: Fn | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Run `partial` on every input batch (map side), send each of its
    rows to the partition `route` picks for `keys`, and run `merge` once
    per partition on all rows routed there: every key tuple is complete
    inside exactly one `merge` call. `merge` must accept an empty table.
    Without `num_partitions` the input is materialized and sized by
    `partition_count`.

    The output is materialized, has no 0-row blocks, and when it has no
    rows it still carries the schema of `merge(partial(empty input))`.
    """
    if num_partitions is None:
        ds = ds.materialize()
        num_partitions = partition_count(ds)

    def _route(batch: pa.Table) -> pa.Table:
        if partial is not None:
            batch = partial(batch)
        return batch.append_column(_PK, route(batch, keys, num_partitions))

    def _merge(group: pa.Table) -> pa.Table:
        return merge(group.drop_columns([_PK]))

    def _typed_empty() -> pa.Table | None:
        t = _empty_table(ds)
        if t is None:
            return None
        return merge(partial(t) if partial is not None else t)

    out = (
        ds.map_batches(_route, batch_format="pyarrow")
        .groupby(_PK)
        .map_groups(_merge, batch_format="pyarrow")
        .materialize()
    )
    return _without_empty_blocks(out, _typed_empty)


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    right_on: list[str] | None = None,
    join_type: str = "inner",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Hash-shuffle join of two datasets (`ray.data.Dataset.join`; each
    of the `num_partitions` key ranges joins independently, so neither
    side is ever held on one node). Columns and types are those of
    `pyarrow.Table.join` with the same arguments.

    Both sides are materialized first so their row counts are metadata.
    A side with zero rows is answered here without a shuffle; otherwise
    only non-empty blocks reach `Dataset.join`. The result is
    materialized, has no 0-row blocks, and is typed when empty.
    """
    left = _without_empty_blocks(left.materialize(), lambda: None)
    right = _without_empty_blocks(right.materialize(), lambda: None)
    right_on = list(right_on or on)
    how = join_type.replace("_", " ")

    def _local(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.join(rt, keys=list(on), right_keys=right_on, join_type=how)

    def _typed_empty() -> pa.Table | None:
        lt, rt = _empty_table(left), _empty_table(right)
        if lt is None or rt is None:
            return None
        return _local(lt, rt)

    n_left, n_right = left.count(), right.count()
    if n_left and n_right:
        out = left.join(
            right,
            join_type=join_type,
            num_partitions=num_partitions or partition_count(left, right),
            on=tuple(on),
            right_on=tuple(right_on),
        ).materialize()
        return _without_empty_blocks(out, _typed_empty)
    if n_left and join_type in _KEEPS_LEFT:
        rt = _empty_table(right)
        if rt is None:
            raise ValueError(f"join: empty right side has no schema ({join_type})")
        return left.map_batches(
            lambda b: _local(b, rt), batch_format="pyarrow"
        ).materialize()
    if n_right and join_type in _KEEPS_RIGHT:
        lt = _empty_table(left)
        if lt is None:
            raise ValueError(f"join: empty left side has no schema ({join_type})")
        return right.map_batches(
            lambda b: _local(lt, b), batch_format="pyarrow"
        ).materialize()
    empty = _typed_empty()
    if empty is None:  # a schema-less empty side: nothing to type it with
        return right if n_left else left
    return ray.data.from_arrow(empty)


def typed_map(ds: ray.data.Dataset, fn: Fn) -> ray.data.Dataset:
    """`ds.map_batches(fn)`, materialized, without 0-row blocks, and
    typed by `fn(empty input)` when it has no rows (Ray emits a
    schema-less block for an empty input without calling `fn`)."""

    def _typed_empty() -> pa.Table | None:
        t = _empty_table(ds)
        return fn(t) if t is not None else None

    out = ds.map_batches(fn, batch_format="pyarrow").materialize()
    return _without_empty_blocks(out, _typed_empty)


def _empty_table(ds: ray.data.Dataset) -> pa.Table | None:
    sch = ds.schema()
    if sch is None or not sch.names:
        return None
    return pa.schema(list(zip(sch.names, sch.types))).empty_table()


def _without_empty_blocks(
    mat: ray.data.Dataset, typed_empty: Callable[[], pa.Table | None]
) -> ray.data.Dataset:
    """`mat` (materialized) minus its 0-row blocks, read from block
    metadata only. With no rows left, `typed_empty()` is the result."""
    refs, total = [], 0
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            total += 1
            if meta.num_rows:
                refs.append(ref)
    if not refs:
        empty = typed_empty()
        if empty is not None:
            return ray.data.from_arrow(empty)
        return mat
    if len(refs) == total:
        return mat
    return ray.data.from_arrow_refs(refs)
