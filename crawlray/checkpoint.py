"""Per-wave checkpointing + resume (SURVEY.md O-5/O-6, §3.3, §4.4).

A wave is the transaction unit. Layout under the checkpoint root:

    root/config.json                     crawl config + hash (validated on resume)
    root/wave=00000/
        documents/part-K.parquet         shard K's DOCUMENTS rows of this wave
        crawl_log/shard=K.parquet        shard K's CRAWL_LOG rows of this wave
        frontier/shard=K.parquet         shard K's frontier for wave W+1
        seen_delta/shard=K.parquet       URLs shard K first saw during this wave
        host_state/shard=K.parquet       shard K's token-bucket levels + fetch counters
        meta.json                        lineage: wave, parent, seq_base/fetched
                                         counters after the wave, config hash,
                                         the wave's metrics and phase ledger
        _SUCCESS                         commit marker, written last

Every part is written, typed even when empty, by the crawl shard that owns
it (`write_shard_parts`, in the shard's finish round): a commit starts no
task and no Ray Data execution. The driver's commit writes only meta.json
and `_SUCCESS`.

Exactly-once: all files land in the wave dir before `_SUCCESS`; resume reads
the newest committed wave, deletes newer uncommitted dirs, re-buckets the
seen-set deltas of waves 0..W, the host state and the frontier by host
shard, and continues. Since actor state at wave W is a deterministic
function of committed waves 0..W (SURVEY.md §4.2), the continuation is
bit-identical to an uninterrupted run — asserted by tests/resume/.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data import ReadTask
from ray.data.block import BlockMetadata

from crawlray.schema import CRAWL_LOG, DOCUMENTS, FRONTIER
from crawlray.stages import FRONTIER_COLS

FRONTIER_SCHEMA = pa.schema([FRONTIER.field(c) for c in FRONTIER_COLS])


def write_shard_parts(wave_dir: str, shard_id: int, parts: dict[str, pa.Table]) -> None:
    """Write one shard's checkpoint parts of a wave: `sub/shard=K.parquet`
    for each `sub` → table."""
    for sub, table in parts.items():
        d = os.path.join(wave_dir, sub)
        os.makedirs(d, exist_ok=True)
        pq.write_table(table, os.path.join(d, f"shard={shard_id}.parquet"))


class BlocksDatasource(ray.data.Datasource):
    """Blocks whose row counts and schemas the driver already knows, as a
    Dataset: one read task per block, so `count()` and `schema()` start no
    remote work. A part is (read_fn, rows, bytes, schema); `file_parts`
    takes them from parquet footers read on the driver, `ref_parts` from the
    counts the crawl shards return with their blocks. `ray.data.read_parquet`
    instead starts remote footer tasks past 24 files and `_sample_fragment`
    tasks always, and `ray.data.from_arrow_refs` one metadata task per
    block."""

    def __init__(self, parts: list[tuple]):
        self._parts = parts

    def estimate_inmemory_data_size(self) -> int:
        return sum(p[2] for p in self._parts)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [
            ReadTask(
                read_fn,
                BlockMetadata(num_rows=rows, size_bytes=size, exec_stats=None, input_files=None),
                schema=schema,
            )
            for read_fn, rows, size, schema in self._parts
        ]


def _read_file(path: str, columns: list[str]) -> list[pa.Table]:
    return [pq.read_table(path, columns=columns)]


def _get_block(ref) -> list[pa.Table]:
    return [ray.get(ref)]


def file_parts(files: list[str], schema: pa.Schema) -> list[tuple]:
    """Parts reading `schema`'s columns of each parquet file (the files
    may carry more)."""
    parts = []
    for path in files:
        m = pq.read_metadata(path)
        file_schema = m.schema.to_arrow_schema()
        parts.append((
            functools.partial(_read_file, path, schema.names),
            m.num_rows,
            # uncompressed bytes of all columns: an upper bound on the read's
            sum(m.row_group(i).total_byte_size for i in range(m.num_row_groups)),
            pa.schema([file_schema.field(c) for c in schema.names]),
        ))
    return parts


def ref_parts(blocks: list[tuple], schema: pa.Schema) -> list[tuple]:
    """Parts of (block ref, rows, bytes) triples typed `schema`."""
    return [(functools.partial(_get_block, ref), rows, size, schema) for ref, rows, size in blocks]


def result_datasets(log_parts: list[tuple], doc_files: list[str]):
    """A crawl's public (crawl_log, documents) Datasets, typed when empty.
    documents reads `doc_files` lazily, so those files must stay until it
    is consumed."""
    doc_parts = file_parts(doc_files, DOCUMENTS)
    return tuple(
        ray.data.read_datasource(BlocksDatasource(parts)) if parts else ray.data.from_arrow(schema.empty_table())
        for parts, schema in ((log_parts, CRAWL_LOG), (doc_parts, DOCUMENTS))
    )


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


class Checkpointer:
    def __init__(self, root: str, cfg: dict):
        self.root = root
        self.cfg = cfg
        self.hash = config_hash(cfg)
        os.makedirs(root, exist_ok=True)
        with open(os.path.join(root, "config.json"), "w") as f:
            json.dump({"config": cfg, "hash": self.hash}, f, indent=2)

    def _wave_dir(self, wave: int) -> str:
        return os.path.join(self.root, f"wave={wave:05d}")

    def commit_wave(self, wave: int, metrics: dict, seq_base: int, fetched_total: int) -> None:
        """Commit a wave whose parts the shards have written: meta.json,
        then `_SUCCESS`."""
        d = self._wave_dir(wave)
        with open(os.path.join(d, "meta.json"), "w") as f:
            json.dump(
                {
                    "wave": wave,
                    "parent": wave - 1,
                    "config_hash": self.hash,
                    "seq_base_after": seq_base,
                    "fetched_total_after": fetched_total,
                    "metrics": metrics,
                },
                f,
                indent=2,
            )
        with open(os.path.join(d, "_SUCCESS"), "w") as f:
            f.write("")

    # ---------------- resume-side helpers ----------------

    @staticmethod
    def committed_waves(root: str) -> list[int]:
        out = []
        if not os.path.isdir(root):
            return out
        for name in sorted(os.listdir(root)):
            if name.startswith("wave=") and os.path.exists(
                os.path.join(root, name, "_SUCCESS")
            ):
                out.append(int(name.split("=")[1]))
        return sorted(out)

    @staticmethod
    def clean_uncommitted(root: str) -> list[str]:
        removed = []
        for name in sorted(os.listdir(root)):
            p = os.path.join(root, name)
            if name.startswith("wave=") and not os.path.exists(os.path.join(p, "_SUCCESS")):
                shutil.rmtree(p)
                removed.append(name)
        return removed

    @staticmethod
    def load_meta(root: str, wave: int) -> dict:
        with open(os.path.join(root, f"wave={wave:05d}", "meta.json")) as f:
            return json.load(f)

    @staticmethod
    def wave_files(root: str, waves, sub: str) -> list[str]:
        """Parquet files under `sub` of each listed wave dir, in wave order."""
        out = []
        for w in waves:
            d = os.path.join(root, f"wave={w:05d}", sub)
            if os.path.isdir(d):
                out.extend(
                    os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
                )
        return out

    @staticmethod
    def read_results(root: str):
        """Full crawl_log + documents datasets from the committed waves."""
        waves = Checkpointer.committed_waves(root)
        return result_datasets(
            file_parts(Checkpointer.wave_files(root, waves, "crawl_log"), CRAWL_LOG),
            Checkpointer.wave_files(root, waves, "documents"),
        )

    @staticmethod
    def read_seen_urls(root: str) -> set[str]:
        out: set[str] = set()
        waves = Checkpointer.committed_waves(root)
        for path in Checkpointer.wave_files(root, waves, "seen_delta"):
            out.update(pq.read_table(path, columns=["url"]).column("url").to_pylist())
        return out
