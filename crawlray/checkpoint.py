"""Per-wave checkpointing + resume (SURVEY.md O-5/O-6, §3.3, §4.4).

A wave is the transaction unit. Layout under the checkpoint root:

    root/config.json                     crawl config + hash (validated on resume)
    root/wave=00000/
        documents/*.parquet              this wave's DOCUMENTS rows, one file
                                         per fetcher (written by the fetchers)
        crawl_log/part-0.parquet         this wave's CRAWL_LOG rows
        frontier/part-0.parquet          frontier for wave W+1 (resume input)
        seen_delta/shard=K.parquet       URLs first seen during this wave, per shard
        host_state/shard=K.parquet       token-bucket levels + fetch counters
        meta.json                        lineage: wave, parent, seq_base/fetched
                                         counters after the wave, config hash
        _SUCCESS                         commit marker, written last

`crawl_log` and `frontier` are each written, typed even when empty, by one
plain Ray task from the wave's block refs: a commit starts no Ray Data
execution and so pays no per-execution driver floor (stages.py docstring).
One file per wave assumes a wave fits one worker: the task holds the whole
wave's log (~100-150 B per fetched page) or next frontier (about the same
per new URL) at once, e.g. ~150 MB for a wave of 10^6 pages. Waves far
past that want one file per block ref, written by one task each.

Exactly-once: all files land in the wave dir before `_SUCCESS`; resume reads
the newest committed wave, deletes newer uncommitted dirs, re-ingests the
seen-set deltas of waves 0..W into fresh shard actors, reloads host state,
and continues from the stored frontier. Since actor state at wave W is a
deterministic function of committed waves 0..W (SURVEY.md §4.2), the
continuation is bit-identical to an uninterrupted run — asserted by
tests/resume/.
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

from crawlray.schema import DOCUMENTS, FRONTIER
from crawlray.stages import FRONTIER_COLS, LOG_SCHEMA

_FRONTIER_SCHEMA = pa.schema([FRONTIER.field(c) for c in FRONTIER_COLS])


@ray.remote(num_cpus=0.25)
def _write_part_task(path: str, schema: pa.Schema, *blocks: pa.Table) -> None:
    """Write the blocks as one `schema`-typed parquet file (0 rows if none)."""
    parts = [b.select(schema.names).cast(schema) for b in blocks if b.num_rows]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.concat_tables(parts) if parts else schema.empty_table(), path)


class DocFilesDatasource(ray.data.Datasource):
    """A crawl's doc files as the public DOCUMENTS columns: one read task
    per file, reading (doc_id, spans) — the files also carry seq and the
    enrichment columns. Each task's row count and schema come from the
    file's footer, read here on the driver, so `count()` reads no data and
    planning starts no remote work. `ray.data.read_parquet` instead starts
    remote footer tasks past 24 files and `_sample_fragment` tasks always
    (a crawl_durable run writes 75 doc files)."""

    def __init__(self, files: list[str]):
        # (path, rows, uncompressed bytes of all columns — an upper bound on
        # the read's —, the read's schema) per file
        self._parts = []
        for path in files:
            m = pq.read_metadata(path)
            schema = m.schema.to_arrow_schema()
            self._parts.append((
                path,
                m.num_rows,
                sum(m.row_group(i).total_byte_size for i in range(m.num_row_groups)),
                pa.schema([schema.field(c) for c in DOCUMENTS.names]),
            ))

    def estimate_inmemory_data_size(self) -> int:
        return sum(p[2] for p in self._parts)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [
            ReadTask(
                functools.partial(_read_doc_file, path),
                BlockMetadata(
                    num_rows=rows, size_bytes=size, exec_stats=None, input_files=[path]
                ),
                schema=schema,
            )
            for path, rows, size, schema in self._parts
        ]


def _read_doc_file(path: str) -> list[pa.Table]:
    return [pq.read_table(path, columns=DOCUMENTS.names)]


def result_datasets(log_refs: list, doc_files: list[str]):
    """A crawl's public (crawl_log, documents) Datasets, typed when empty.
    crawl_log wraps the log block refs; documents reads `doc_files` lazily
    through `DocFilesDatasource`, so those files must stay until it is
    consumed, and its `count()` reads only their footers, on the driver."""
    crawl_log = (
        ray.data.from_arrow_refs(log_refs)
        if log_refs
        else ray.data.from_arrow(LOG_SCHEMA.empty_table())
    )
    documents = (
        ray.data.read_datasource(DocFilesDatasource(doc_files))
        if doc_files
        else ray.data.from_arrow(DOCUMENTS.empty_table())
    )
    return crawl_log, documents


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

    def commit_wave(
        self,
        wave: int,
        frontier_refs: list,
        log_refs: list,
        seen_actors,
        host_actors,
        metrics: dict,
        seq_base: int,
        fetched_total: int,
    ) -> None:
        # documents/ under the wave dir were already written DIRECTLY by the
        # fetcher actors during the wave (stages.FetchParseStage.end_wave) —
        # the wave dir therefore already exists and must not be cleared here
        # (leftover uncommitted dirs are cleaned by the driver at wave START,
        # before any fetcher writes).
        d = self._wave_dir(wave)
        os.makedirs(d, exist_ok=True)
        # the two block writes run while the driver collects the actors'
        # seen deltas and host state below
        writes = [
            _write_part_task.remote(os.path.join(d, sub, "part-0.parquet"), schema, *refs)
            for sub, schema, refs in (
                ("crawl_log", LOG_SCHEMA, log_refs),
                ("frontier", _FRONTIER_SCHEMA, frontier_refs),
            )
        ]
        sdir = os.path.join(d, "seen_delta")
        os.makedirs(sdir, exist_ok=True)
        for i, t in enumerate(ray.get([a.dump_delta.remote() for a in seen_actors])):
            pq.write_table(t, os.path.join(sdir, f"shard={i}.parquet"))
        hdir = os.path.join(d, "host_state")
        os.makedirs(hdir, exist_ok=True)
        for i, st in enumerate(ray.get([a.host_state.remote() for a in host_actors])):
            pq.write_table(
                pa.table(
                    {
                        "host": pa.array(st["hosts"], pa.string()),
                        "tokens": pa.array(st["tokens"], pa.float64()),
                        "fetched_total": pa.array(st["fetched_total"], pa.int64()),
                    }
                ),
                os.path.join(hdir, f"shard={i}.parquet"),
            )
        ray.get(writes)
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
    def log_refs(root: str, waves) -> list:
        """Object refs of the listed waves' crawl_log files, in wave order.
        The driver reads them and puts them in the object store: a crawl_log
        file is small (~100-150 B per page), and reading them by tasks or
        `read_parquet` cost ~1.3 s more per resume in traced crawl_durable
        runs on a 4-CPU Ray session (a worker start-up, or parquet metadata
        task rounds past 24 files)."""
        return [
            ray.put(pq.read_table(p).cast(LOG_SCHEMA))
            for p in Checkpointer.wave_files(root, waves, "crawl_log")
        ]

    @staticmethod
    def read_results(root: str):
        """Full crawl_log + documents datasets from the committed waves."""
        waves = Checkpointer.committed_waves(root)
        return result_datasets(
            Checkpointer.log_refs(root, waves),
            Checkpointer.wave_files(root, waves, "documents"),
        )

    @staticmethod
    def read_seen_urls(root: str) -> set[str]:
        out: set[str] = set()
        waves = Checkpointer.committed_waves(root)
        for path in Checkpointer.wave_files(root, waves, "seen_delta"):
            out.update(pq.read_table(path, columns=["url"]).column("url").to_pylist())
        return out
