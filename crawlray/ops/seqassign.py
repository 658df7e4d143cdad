"""Global order statistics without a driver bottleneck (SURVEY.md O-33,
§7.3-H4: never take_all the data; the driver touches O(#blocks) metadata).

`rank_values` and `exact_quantiles` sort once through `exchange.sort`,
whose blocks come back in key order with their row counts, then walk
those counts on the driver and fetch only the blocks that hold a
requested rank. `grouped_quantiles` is one `group_map` exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from crawlray.ops.exchange import group_map, sort


def rank_values(ds: ray.data.Dataset, col: str, ranks: list[int]) -> dict[int, float]:
    """Values at the given 0-based global ranks of ds[col] ascending
    (nulls last): one `exchange.sort`, then `_values_at`."""
    return _values_at(sort(ds.select_columns([col]), [col]), col, ranks)


def _values_at(mat: ray.data.Dataset, col: str, ranks: list[int]) -> dict[int, float]:
    """Values at `ranks` of sorted `mat`: an O(#blocks) walk of the
    block row counts that fetches only the blocks holding a rank."""
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
    mat = sort(ds.select_columns([col]), [col])
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
    vals = _values_at(mat, col, sorted(ranks))
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
