"""Checkpoint commit layout and its guarantees: one typed `part-0.parquet`
per committed wave for crawl_log and frontier, written without any Ray Data
execution; a checkpointed crawl's outputs read back from the committed
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
from crawlray.schema import FRONTIER
from crawlray.stages import FRONTIER_COLS, LOG_SCHEMA
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl

CFG = dict(budget_per_host=2, max_depth=8)
RUN = dict(fetch_concurrency=2, fetch_batch_size=16)


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all(), schema=LOG_SCHEMA)
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
            assert os.listdir(os.path.join(wdir, "crawl_log")) == ["part-0.parquet"]
            assert os.listdir(os.path.join(wdir, "frontier")) == ["part-0.parquet"]
            log_t = pq.read_table(os.path.join(wdir, "crawl_log", "part-0.parquet"))
            fr_t = pq.read_table(os.path.join(wdir, "frontier", "part-0.parquet"))
            assert log_t.schema.remove_metadata().equals(LOG_SCHEMA)
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
