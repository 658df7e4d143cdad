"""Global order assignment without a driver bottleneck (SURVEY.md O-33,
§7.3-H4: never take_all the data; the driver touches O(#blocks) metadata).

`sort_and_zip_index(ds, key, base)`:
  1. range-shuffle sort by `key` → materialize (block order == key order);
  2. tiny pass: one (first_key, n_rows) row per block (batch_size=None maps
     one batch per materialized block) — the driver sorts these #blocks
     entries by first_key to recover block order and prefix-sums offsets;
  3. second pass over the same materialized blocks: seq = base + offset of
     the block (looked up by its first key, which is unique because `key`
     is unique) + arange(len(block)).

Requires `key` values to be unique (true for disc_key: one row per URL per
wave, (parent_seq, link_idx) unique by construction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from crawlray.ops.exchange import group_map


def rank_values(
    ds: ray.data.Dataset, col: str, ranks: list[int], presorted: bool = False
) -> dict[int, float]:
    """Values at the given 0-based global ranks of ds[col] ascending.

    No driver rows: distributed sort, then an O(#blocks) metadata walk
    fetching ONLY the blocks that contain a requested rank. Pass presorted=True when `ds` is already a
    materialized sort-by-`col` result to skip the (expensive) re-sort —
    exact_quantiles was paying the sort TWICE before this flag existed
    (VERDICT r3 item 6: quantiles 1.95→3.65 s regression)."""
    mat = ds if presorted else ds.select_columns([col]).sort(col).materialize()
    want = sorted(set(int(r) for r in ranks))
    out: dict[int, float] = {}
    acc = 0
    idx = 0
    for bundle in mat.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            n = meta.num_rows
            if n and idx < len(want) and want[idx] < acc + n:
                block = ray.get(block_ref)
                while idx < len(want) and want[idx] < acc + n:
                    out[want[idx]] = block.column(col)[want[idx] - acc].as_py()
                    idx += 1
            acc += n
    missing = [r for r in want if r not in out]
    if missing:
        raise ValueError(f"ranks {missing} out of range (n={acc})")
    return out


def exact_quantiles(
    ds: ray.data.Dataset, col: str, qs: list[float]
) -> list[float]:
    """EXACT quantiles with linear interpolation (the percentile_cont /
    quantile_cont definition: position q·(n−1), interpolate between the
    flanking order statistics). One distributed sort; the driver touches
    O(#blocks) metadata plus the ≤2·len(qs) blocks holding the flanking
    ranks — never the dataset. For sketch-based streaming quantiles at
    extreme scale, pre-aggregate per block and trade exactness; this is
    the exact path."""
    mat = ds.select_columns([col]).sort(col).materialize()
    n = mat.count()
    if n == 0:
        raise ValueError("exact_quantiles on empty dataset")
    ranks: set[int] = set()
    pos = []
    for q in qs:
        p = q * (n - 1)
        lo, hi = int(np.floor(p)), int(np.ceil(p))
        ranks.update((lo, hi))
        pos.append((p, lo, hi))
    vals = rank_values(mat, col, sorted(ranks), presorted=True)
    out = []
    for p, lo, hi in pos:
        vlo, vhi = float(vals[lo]), float(vals[hi])
        out.append(vlo if lo == hi else vlo + (p - lo) * (vhi - vlo))
    return out


def grouped_quantiles(
    ds: ray.data.Dataset,
    group_cols: list[str],
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Per-group exact quantiles (quantile_cont linear interpolation).

    One `group_map` exchange co-locates each group; per-group work is one
    numpy quantile over the group's values. Group sizes bound memory — use the
    global `exact_quantiles` (sort + rank-select) when a single group is
    itself too large for one task. Output: group cols + one `q<NN>` column
    per requested quantile.
    """

    def _q(group: pa.Table) -> pa.Table:
        v = group.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        out = {c: group.column(c).slice(0, 1) for c in group_cols}
        # linear interpolation == quantile_cont; a 0-row group gives 0 rows
        vals = np.quantile(v, qs)[:, None] if len(v) else np.empty((len(qs), 0))
        for q, val in zip(qs, vals):
            out[f"q{int(round(q * 100)):02d}"] = pa.array(val, pa.float64())
        return pa.table(out)

    return group_map(ds, group_cols, _q)


def sort_and_zip_index(
    ds: ray.data.Dataset, key: str, base: int = 0, out_col: str = "seq"
) -> ray.data.Dataset:
    mat = ds.sort(key).materialize()

    def _block_meta(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"first_key": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
        return pa.table(
            {
                "first_key": pa.array([b.column(key)[0].as_py()], pa.int64()),
                "n": pa.array([b.num_rows], pa.int64()),
            }
        )

    meta = mat.map_batches(_block_meta, batch_format="pyarrow", batch_size=None).take_all()
    meta.sort(key=lambda r: r["first_key"])  # block order == sorted key order
    offsets: dict[int, int] = {}
    acc = 0
    for m in meta:
        offsets[m["first_key"]] = acc
        acc += m["n"]

    def _assign(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column(out_col, pa.array([], pa.int64()))
        off = base + offsets[b.column(key)[0].as_py()]
        seq = pa.array(off + np.arange(b.num_rows, dtype=np.int64), pa.int64())
        return b.append_column(out_col, seq)

    return mat.map_batches(_assign, batch_format="pyarrow", batch_size=None)
