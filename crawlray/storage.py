"""Storage backend abstraction (SURVEY.md O-47).

The north rule targets Lance-backed document tables; `pylance` is NOT
installed in this sandbox and cannot be installed (no network — SURVEY.md
§0), so storage is an interchangeable backend: Lance when importable,
Parquet otherwise, identical logical layout either way. Engine code paths
go through these helpers rather than importing lance directly, so a
Lance-capable environment switches by default without code changes.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


DEFAULT_FORMAT = "lance" if lance_available() else "parquet"


def write_table(table: pa.Table, path: str, fmt: str | None = None) -> str:
    """Write one Arrow table; returns the concrete path written."""
    fmt = fmt or DEFAULT_FORMAT
    if fmt == "lance":
        import lance

        uri = path if path.endswith(".lance") else path + ".lance"
        lance.write_dataset(table, uri, mode="overwrite")
        return uri
    uri = path if path.endswith(".parquet") else path + ".parquet"
    os.makedirs(os.path.dirname(uri) or ".", exist_ok=True)
    pq.write_table(table, uri)
    return uri


def read_table(path: str, columns: list[str] | None = None) -> pa.Table:
    if path.endswith(".lance"):
        import lance

        return lance.dataset(path).to_table(columns=columns)
    return pq.read_table(path, columns=columns)


def write_dataset(ds, path: str, fmt: str | None = None) -> None:
    """Write a ray.data.Dataset (distributed write — one file per block)."""
    fmt = fmt or DEFAULT_FORMAT
    if fmt == "lance":
        ds.write_lance(path)  # ray.data native Lance sink (needs pylance)
    else:
        ds.write_parquet(path)


def read_dataset(path: str, columns: list[str] | None = None):
    import ray.data

    if path.endswith(".lance") or (
        os.path.isdir(path) and any(f.endswith(".lance") for f in os.listdir(path))
    ):
        return ray.data.read_lance(path, columns=columns)
    return ray.data.read_parquet(path, columns=columns)


def resumable_write(
    ds,
    out_dir: str,
    key_col: str,
    num_partitions: int = 64,
    fmt: str | None = None,
) -> pa.Table:
    """Resumable partitioned dataset write (task brief: "write partitioned
    output … so a failed run can skip finished partitions; never one giant
    file").

    Rows hash-partition on murmur3(key_col) % num_partitions — a pure
    function of the DATA, so re-runs at any parallelism produce identical
    partition contents. Each partition is written by one call of an
    `exchange.group_map` kernel on `_part` as `part=<i>/data.<fmt>` via
    write-tmp-then-rename with a `_SUCCESS` marker committed LAST (the
    crawl checkpoint's idempotent-transaction pattern, SURVEY §4.4,
    generalized to any dataset): a crashed run
    leaves either a committed partition or junk-without-marker, and the
    re-run rewrites exactly the unmarked partitions. Rows within a
    partition are sorted by key for a deterministic file.

    Returns a manifest table (part, rows, skipped) — `skipped` rows were
    already committed by a previous run and were NOT rewritten.
    """
    import numpy as np
    import pyarrow.compute as pc_  # noqa: N813 — avoid shadowing callers

    from crawlray.murmur3 import murmur3_x64_128_batch
    from crawlray.ops.exchange import group_map

    fmt = fmt or DEFAULT_FORMAT
    manifest_schema = pa.schema(
        [("part", pa.int32()), ("rows", pa.int64()), ("skipped", pa.bool_())]
    )
    os.makedirs(out_dir, exist_ok=True)

    def _assign(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(
            col.type
        ):
            col = pc_.cast(col, pa.string())
        lo, _ = murmur3_x64_128_batch(col.combine_chunks())
        part = (lo % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("_part", pa.array(part, pa.int32()))

    def _write_part(group: pa.Table) -> pa.Table:
        if not group.num_rows:
            return manifest_schema.empty_table()
        part = int(group.column("_part")[0].as_py())
        pdir = os.path.join(out_dir, f"part={part}")
        marker = os.path.join(pdir, "_SUCCESS")
        if os.path.exists(marker):
            return pa.table(
                {
                    "part": pa.array([part], pa.int32()),
                    "rows": pa.array([group.num_rows], pa.int64()),
                    "skipped": pa.array([True]),
                }
            )
        os.makedirs(pdir, exist_ok=True)
        body = group.drop_columns(["_part"])
        body = body.take(pc_.sort_indices(body, sort_keys=[(key_col, "ascending")]))
        tmp = os.path.join(pdir, ".data.tmp")
        ext = "lance" if fmt == "lance" else "parquet"
        final = os.path.join(pdir, f"data.{ext}")
        if fmt == "lance":
            write_table(body, final, fmt="lance")
        else:
            pq.write_table(body, tmp)
            os.replace(tmp, final)  # atomic on one filesystem
        with open(marker, "w") as f:
            f.write(str(body.num_rows))
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "rows": pa.array([body.num_rows], pa.int64()),
                "skipped": pa.array([False]),
            }
        )

    manifest = group_map(
        ds.map_batches(_assign, batch_format="pyarrow"), ["_part"], _write_part
    ).take_all()
    manifest.sort(key=lambda r: r["part"])
    return pa.Table.from_pylist(manifest, schema=manifest_schema)
