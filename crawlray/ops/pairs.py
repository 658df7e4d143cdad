"""Candidate pairs for every near-duplicate pair operator, written once.

Two shapes produce pairs of ids:

- `lsh_pairs` (the LSH operators: minhash, simhash, SRP, CDC) follows
  the Distributed Streaming Set Similarity Join shape: partition rows by
  signature bucket (`exchange.group_map`), emit the pairs among each
  bucket's at most `max_bucket` smallest ids, report the ids dropped from
  larger buckets in one message, and deduplicate (id_a, id_b) with one
  `hash_exchange` whose extra columns reduce by a ufunc per column.
  `verify` then attaches each pair's per-id payload (packed into one
  binary column) by a broadcast or by two joins, chosen once by
  `exchange.fits_broadcast` from the payload's size, and runs the
  operator's similarity kernel on bounded slices of pairs.
- `block_pairs` (the exact operators) runs a kernel on every block pair
  of one dataset (i <= j) or of two (left x right), one Ray task each.

`collect` is the one output step: result blocks into a typed table
sorted by its first two columns. Every step accepts an input with no
rows, typed or not, and the result is then the empty table of its schema.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from crawlray.ops import exchange
from crawlray.ops.exchange import (
    Block, _metadata, _row_blocks, from_blocks, from_table, group_map, hash_exchange, join,
    map_blocks,
)

# id_a of the one row a bucket emits to carry its drop count in id_b
_DROPS = -(1 << 62)
# pairs slices handed to a verify kernel hold about this many payload bytes
_SLICE_BYTES = 16 << 20


def lsh_pairs(
    rows: ray.data.Dataset,
    keys: list[str],
    id_col: str,
    max_bucket: int,
    op: str,
    score: Callable | None = None,
    reduce: dict[str, np.ufunc] | None = None,
    keep: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """Distinct (id_a < id_b, *extras) pairs of ids that share a `keys`
    bucket in `rows`.

    A bucket with more than `max_bucket` distinct ids keeps its
    `max_bucket` smallest; the total dropped is printed once, under `op`.
    `score(bucket, rows_a, rows_b)` may screen a bucket's pairs, given as
    row indices into the bucket table: it returns a mask (or slice) of the
    pairs to keep and their extra columns. Each extra column reduces over
    a pair's buckets by its ufunc in `reduce`. `keep` filters the complete
    deduplicated pairs. The result is materialized."""
    reduce = reduce or {}
    no_pairs: list[pa.Table] = []  # a bucket's result without pairs, made once

    def _bucket(group: pa.Table) -> pa.Table:
        # most buckets hold one id, which makes no pair (and, unless
        # max_bucket is 0, drops none): skip the pair machinery for them
        if no_pairs and group.num_rows < min(2, max_bucket + 1):
            return no_pairs[0]
        ids, first = np.unique(
            group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64),
            return_index=True,
        )
        dropped = max(0, len(ids) - max_bucket)
        ids, first = ids[:max_bucket], first[:max_bucket]
        n, outs = len(ids), []
        for i0 in range(0, max(n, 1), 256):  # memory O(256 x bucket) per step
            ia, ib = np.nonzero(np.arange(n) > np.arange(i0, min(i0 + 256, n))[:, None])
            ia += i0
            extra: dict[str, np.ndarray] = {}
            if score is not None:
                mask, extra = score(group, first[ia], first[ib])
                ia, ib = ia[mask], ib[mask]
            outs.append({"id_a": ids[ia], "id_b": ids[ib], **extra})
        if dropped:
            row = {c: np.zeros(1, v.dtype) for c, v in outs[0].items()}
            row["id_a"][0], row["id_b"][0] = _DROPS, dropped
            outs.append(row)
        out = pa.table({c: np.concatenate([o[c] for o in outs]) for c in outs[0]})
        if not (out.num_rows or no_pairs):
            no_pairs.append(out)
        return out

    cand = group_map(rows, keys, _bucket)
    dropped = sum(ray.get([_dropped.remote(r) for r in _row_blocks(cand)]))
    if dropped:
        print(f"# {op}: {dropped} ids dropped from oversize buckets "
              f"(max_bucket={max_bucket}) — recall is bounded, not exact")

    def _dedup(t: pa.Table) -> pa.Table:
        a = t.column("id_a").to_numpy(zero_copy_only=False)
        b = t.column("id_b").to_numpy(zero_copy_only=False)
        real = np.flatnonzero(a != _DROPS)
        order = real[np.lexsort((b[real], a[real]))]
        a, b = a[order], b[order]
        new = np.ones(len(a), bool)
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(new)
        cols = {"id_a": a[starts], "id_b": b[starts]}
        for c, uf in reduce.items():
            v = t.column(c).to_numpy(zero_copy_only=False)[order]
            cols[c] = uf.reduceat(v, starts) if len(starts) else v
        return pa.table(cols)

    def _merge(t: pa.Table) -> pa.Table:
        return keep(_dedup(t)) if keep else _dedup(t)

    return hash_exchange(cand, ["id_a", "id_b"], _merge, partial=_dedup)


def band_rows(ids: np.ndarray, keys: np.ndarray, key_col: str, **cols) -> pa.Table:
    """The bucket rows of `lsh_pairs`, one per (doc, band), from an
    (n, bands) key matrix: the doc's id as "id", the band number as
    "band", the band's key as `key_col`, and each of `cols` per band."""
    n, bands = keys.shape
    return pa.table({
        "id": np.repeat(ids, bands),
        "band": np.tile(np.arange(bands, dtype=np.int32), n),
        key_col: keys.reshape(-1),
        **{c: np.repeat(v, bands) for c, v in cols.items()},
    })


def verify(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    id_col: str,
    encode: Callable[[pa.Table], pa.Array],
    kernel: Callable[[pa.Table], pa.Table],
) -> list[ray.ObjectRef]:
    """Run `kernel` on the pairs of materialized `pairs` with each id's
    payload attached as binary columns p_a and p_b; returns the result
    blocks.

    The payload is `encode(rows)` of the rows of `docs` whose `id_col` is
    in some pair, so only candidate docs are encoded. When its size
    `exchange.fits_broadcast` it is `ray.put` once and looked up by id in
    every task; otherwise it rides two `exchange.join`s so no task holds
    all of it. Either way the kernel sees slices of about `_SLICE_BYTES` of
    payload."""
    refs = _row_blocks(pairs)
    if not refs:
        return []
    need = ray.put(np.unique(np.concatenate(ray.get([_ids.remote(r) for r in refs]))))

    def _payload(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.flatnonzero(np.isin(ids, ray.get(need)))
        return pa.table({"id": ids[sel], "p": encode(batch.take(sel))})

    payload = map_blocks(docs, _payload)
    blocks, size = _row_blocks(payload), payload.size_bytes() or 0
    if not blocks:
        return []
    step = max(1, _SLICE_BYTES * payload.count() // max(1, 2 * size))
    if exchange.fits_broadcast(size):
        bcast = ray.put(pa.concat_tables(ray.get(blocks)).sort_by("id").combine_chunks())
    else:
        bcast = None
        for side in "ab":
            named = map_blocks(payload, lambda t, s=side: t.rename_columns(["id", f"p_{s}"]))
            pairs = join(pairs, named, on=[f"id_{side}"], right_on=["id"])
        refs = _row_blocks(pairs)
    return [_verify_task.remote(r, bcast, kernel, step) for r in refs]


def block_pairs(
    kernel: Callable[[pa.Table, pa.Table], pa.Table],
    left: ray.data.Dataset,
    right: ray.data.Dataset | None = None,
    rows_per_block: int = 8192,
    exclude_equal: bool = False,
) -> list[Block]:
    """`kernel(block_a, block_b)` on every block pair, one Ray task each;
    returns the result blocks that hold rows, with their metadata.

    Sides are (id, value) by position, cut into blocks of at most
    `rows_per_block` rows. Without `right` it is a self join over i <= j
    with every unordered pair once as (min id, max id); with `right` each
    pair keeps its (left, right) direction, and `exclude_equal` drops
    pairs of equal ids. The kernel's result leads with the two id columns."""

    def _blocks(ds: ray.data.Dataset) -> list[ray.ObjectRef]:
        return _row_blocks(exchange.rechunk(ds, rows_per_block))

    lb = _blocks(left)
    if right is None:
        jobs = [(lb[i], lb[j], "lt" if i == j else "fold")
                for i in range(len(lb)) for j in range(i, len(lb))]
    else:
        rb = _blocks(right)
        jobs = [(a, b, "ne" if exclude_equal else None) for a in lb for b in rb]
    outs = [_pair_task.remote(kernel, a, b, mode) for a, b, mode in jobs]
    metas = ray.get([m for _, m in outs])
    return [(t, m) for (t, _), m in zip(outs, metas) if m.num_rows]


def orient(t: pa.Table, mode: str | None) -> pa.Table:
    """Pairs led by two id columns: "lt" keeps first < second (pairs
    within one block), "fold" drops equal ids and orders the rest as
    (min, max) (pairs across two blocks of one dataset), "ne" drops equal
    ids, None keeps all."""
    if mode is None:
        return t
    a, b = t.column(0), t.column(1)
    if mode == "lt":
        return t.filter(pc.less(a, b))
    t = t.filter(pc.not_equal(a, b))
    if mode == "fold":
        a, b = t.column(0), t.column(1)
        t = t.set_column(0, t.field(0), pc.min_element_wise(a, b))
        t = t.set_column(1, t.field(1), pc.max_element_wise(a, b))
    return t


def collect(refs: list[ray.ObjectRef] | ray.data.Dataset, schema: pa.Schema) -> pa.Table:
    """The result blocks (or a materialized Dataset's) as one table of
    `schema`, sorted by its first two columns; the empty table of `schema`
    when no block holds rows."""
    if isinstance(refs, ray.data.Dataset):
        refs = _row_blocks(refs)
    parts = [t.select(schema.names).cast(schema) for t in ray.get(refs) if t.num_rows]
    if not parts:
        return schema.empty_table()
    return pa.concat_tables(parts).sort_by([(c, "ascending") for c in schema.names[:2]])


def as_dataset(blocks: list[Block], schema: pa.Schema) -> ray.data.Dataset:
    """The result blocks of `block_pairs` as a Dataset, typed by `schema`
    when none holds rows."""
    return from_blocks(blocks) if blocks else from_table(schema.empty_table())


def pack(rows: np.ndarray | list[np.ndarray]) -> pa.Array:
    """One large_binary value per row: the bytes of each row of a 2-D
    array, or of each 1-D array of a list (all of one dtype)."""
    if isinstance(rows, np.ndarray):
        flat, lens = rows.ravel(), np.full(len(rows), rows.shape[1])
    else:
        flat = np.concatenate(rows) if rows else np.empty(0, np.uint8)
        lens = np.fromiter(map(len, rows), np.int64, len(rows))
    offs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens * flat.dtype.itemsize, out=offs[1:])
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(lens),
        [None, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(flat))])


def unpack(col: pa.ChunkedArray | pa.Array, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A `pack`ed column as (all values in row order, values per row)."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    dtype = np.dtype(dtype)
    if not len(col):
        return np.empty(0, dtype), np.empty(0, np.int64)
    offs = np.frombuffer(col.buffers()[1], np.int64)[col.offset : col.offset + len(col) + 1]
    n = int(offs[-1] - offs[0]) // dtype.itemsize
    flat = (np.frombuffer(col.buffers()[2], dtype, n, int(offs[0])) if n
            else np.empty(0, dtype))
    return flat, np.diff(offs) // dtype.itemsize


@ray.remote
def _dropped(block: pa.Table) -> int:
    a = block.column("id_a").to_numpy(zero_copy_only=False)
    return int(block.column("id_b").to_numpy(zero_copy_only=False)[a == _DROPS].sum())


@ray.remote
def _ids(block: pa.Table) -> np.ndarray:
    return np.unique(np.concatenate([
        block.column(c).to_numpy(zero_copy_only=False) for c in ("id_a", "id_b")]))


@ray.remote
def _verify_task(block: pa.Table, payload: pa.Table | None, kernel, step: int) -> pa.Table:
    """`kernel` on `step`-row slices of one block of pairs, each slice's
    payload looked up in the broadcast `payload` unless the block was
    joined to it."""
    if payload is not None:
        pid = payload.column("id").to_numpy(zero_copy_only=False)
    out = []
    for s in range(0, block.num_rows, step):
        t = block.slice(s, step)
        if payload is not None:
            for side in "ab":
                pos = np.searchsorted(pid, t.column(f"id_{side}").to_numpy(zero_copy_only=False))
                t = t.append_column(f"p_{side}", payload.column("p").take(pa.array(pos)))
        out.append(kernel(t))
    return pa.concat_tables(out)


@ray.remote(num_returns=2)
def _pair_task(kernel, a: pa.Table, b: pa.Table, mode: str | None):
    t = orient(kernel(a, b), mode)
    return t, _metadata(t)
