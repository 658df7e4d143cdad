"""Checkpoint commit layout and its guarantees: one typed
`shard=K.parquet` per shard and committed wave for crawl_log and frontier,
written without any Ray Data execution; a checkpointed crawl's outputs read back from the committed
waves equal the in-memory crawl; and a fresh crawl refuses a checkpoint
root that already holds committed waves."""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from crawlray.backend import SyntheticBackend
from crawlray.checkpoint import Checkpointer
from crawlray.schema import CRAWL_LOG, FRONTIER
from crawlray.stages import FRONTIER_COLS
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl

CFG = dict(budget_per_host=2, max_depth=8)
RUN = dict(fetch_batch_size=16)


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all(), schema=CRAWL_LOG)
    return t.take(pc.sort_indices(t, sort_keys=[("seq", "ascending")]))


def _web():
    return SynthWeb(seed=23, shape="zipf_hosts", n_urls=80, n_hosts=6)


def _oracle(web, **cfg):
    return crawl(web.default_seeds(), SyntheticBackend.from_web(web), CrawlConfig(**cfg))


def test_checkpoint_layout(ray_session, tmp_path):
    from crawlray.job import run_crawl

    web = _web()
    out = str(tmp_path / "ckpt")
    mem = run_crawl(web.default_seeds(), web=web, **RUN, **CFG)
    disk = run_crawl(web.default_seeds(), web=web, out_dir=out, **RUN, **CFG)
    try:
        waves = Checkpointer.committed_waves(out)
        assert waves == list(range(disk.waves))
        frontier_schema = pa.schema([FRONTIER.field(c) for c in FRONTIER_COLS])
        for w in waves:
            wdir = os.path.join(out, f"wave={w:05d}")
            parts = [f"shard={i}.parquet" for i in range(4)]
            assert sorted(os.listdir(os.path.join(wdir, "crawl_log"))) == parts
            assert sorted(os.listdir(os.path.join(wdir, "frontier"))) == parts
            log_t = pq.read_table(os.path.join(wdir, "crawl_log"))
            fr_t = pq.read_table(os.path.join(wdir, "frontier"))
            assert log_t.schema.remove_metadata().equals(CRAWL_LOG)
            assert fr_t.schema.remove_metadata().equals(frontier_schema)
            assert log_t.num_rows > 0
        # the final wave discovers nothing new: its frontier is typed, 0 rows
        assert fr_t.num_rows == 0

        log_mem = _log_sorted(mem.crawl_log)
        log_disk, docs_disk = Checkpointer.read_results(out)
        assert _log_sorted(log_disk).equals(log_mem)
        assert _log_sorted(disk.crawl_log).equals(log_mem)
        assert log_mem.to_pylist() == _oracle(web, **CFG).crawl_log.to_pylist()
        docs_mem = {r["doc_id"]: r["spans"] for r in mem.documents.take_all()}
        assert {r["doc_id"]: r["spans"] for r in docs_disk.take_all()} == docs_mem
    finally:
        mem.shutdown()
        disk.shutdown()


def test_checkpointed_wave_loop_runs_no_ray_data_write(ray_session, tmp_path, monkeypatch):
    from crawlray.job import resume_crawl, run_crawl

    def _no_write(self, *a, **k):
        raise AssertionError("the checkpointed wave loop ran Dataset.write_parquet")

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", _no_write)
    web = _web()
    out = str(tmp_path / "ckpt")
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=1,
                      num_seen_shards=4, **RUN, **CFG)
    first.shutdown()
    res = resume_crawl(out, web=web, num_seen_shards=3, **RUN)
    try:
        ora = _oracle(web, **CFG)
        assert _log_sorted(res.crawl_log).to_pylist() == ora.crawl_log.to_pylist()
        assert res.documents.count() == ora.documents.num_rows
        assert Checkpointer.read_seen_urls(out) == ora.seen
    finally:
        res.shutdown()


def test_fresh_crawl_rejects_committed_root(ray_session, tmp_path):
    """A fresh crawl into a root with committed waves would rewrite only the
    waves it reaches and leave the older crawl's later waves committed; a
    resume would then continue from them. It must refuse instead, and leave
    the older checkpoint resumable."""
    from crawlray.job import resume_crawl, run_crawl

    web = SynthWeb(seed=7, shape="zipf_hosts", n_urls=120, n_hosts=6)
    out = str(tmp_path / "ckpt")
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=2,
                      **RUN, **CFG)
    first.shutdown()
    with open(os.path.join(out, "config.json")) as f:
        config_before = json.load(f)

    with pytest.raises(ValueError, match="already holds committed waves"):
        run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=0,
                  budget_per_host=50, max_depth=8, **RUN)
    with open(os.path.join(out, "config.json")) as f:
        assert json.load(f) == config_before
    assert Checkpointer.committed_waves(out) == [0, 1, 2]

    res = resume_crawl(out, web=web, **RUN)
    try:
        ora = _oracle(web, **CFG)
        assert _log_sorted(res.crawl_log).to_pylist() == ora.crawl_log.to_pylist()
    finally:
        res.shutdown()


def test_actor_death_before_first_commit_retries_fresh(ray_session, tmp_path):
    """An actor lost before wave 0 commits leaves no committed waves: the
    retry starts a fresh crawl in the same root, which must not be refused."""
    from crawlray.job import run_crawl

    web = _web()
    out = str(tmp_path / "ckpt")
    killed = {"done": False}

    def hook(wave, actors):
        if wave == 0 and not killed["done"]:
            killed["done"] = True
            ray.kill(actors["seen"][0], no_restart=True)

    res = run_crawl(web.default_seeds(), web=web, out_dir=out, _fault_hook=hook,
                    **RUN, **CFG)
    try:
        assert killed["done"]
        ora = _oracle(web, **CFG)
        assert _log_sorted(res.crawl_log).to_pylist() == ora.crawl_log.to_pylist()
    finally:
        res.shutdown()


def test_documents_typed_when_the_crawl_writes_none(ray_session):
    from crawlray.job import run_crawl
    from crawlray.schema import DOCUMENTS

    res = run_crawl(["not a url"], web=_web(), **RUN, **CFG)
    try:
        assert res.waves == 0
        assert res.documents.count() == 0
        schema = res.documents.schema()
        assert list(zip(schema.names, schema.types)) == list(zip(DOCUMENTS.names, DOCUMENTS.types))
    finally:
        res.shutdown()


def test_documents_past_24_files_start_no_parquet_metadata_tasks(ray_session, tmp_path):
    """`read_parquet` fetches footers in remote tasks past 24 files and
    samples fragments in remote tasks; the documents dataset reads its
    footers on the driver, so `count()` is metadata-only and no such task
    runs in the crawl or in reading the documents back."""
    import time

    from crawlray.job import run_crawl

    t0 = time.time()
    # a 40-page chain crawls in 28 waves, each writing at least one doc file
    web = SynthWeb(seed=13, shape="chain", n_urls=40, n_hosts=2)
    out = str(tmp_path / "ckpt")
    res = run_crawl(web.default_seeds(), web=web, out_dir=out, budget_per_host=2, **RUN)
    try:
        files = Checkpointer.wave_files(out, Checkpointer.committed_waves(out), "documents")
        assert len(files) > 24
        n = res.documents.count()
        assert n == sum(pq.read_metadata(f).num_rows for f in files)
        rows = res.documents.take_all()
        assert len(rows) == n == _oracle(web, budget_per_host=2).documents.num_rows
        assert set(rows[0]) == {"doc_id", "spans"}
        names = {
            e.get("cat", "") + " " + e.get("name", "")
            for e in ray.timeline()
            if e.get("ts", 0) / 1e6 >= t0
        }
        assert not [x for x in names if "fetch_func" in x or "_sample_fragment" in x]
    finally:
        res.shutdown()
