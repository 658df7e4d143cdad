"""Resume equivalence (SURVEY.md §5.2.4): run(0..end) ≡ run(0..k) +
resume(k..end) bit-for-bit — crawl_log, documents, and seen set all match,
and both match the sequential oracle."""

import pyarrow as pa
import pyarrow.compute as pc

from crawlray.backend import SyntheticBackend
from crawlray.checkpoint import Checkpointer
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all())
    return t.select(["seq", "url", "host", "wave", "depth", "status", "n_out"]).take(
        pc.sort_indices(t, sort_keys=[("seq", "ascending")])
    )


def test_resume_equivalence(ray_session, tmp_path):
    from crawlray.job import resume_crawl, run_crawl

    web = SynthWeb(seed=11, shape="zipf_hosts", n_urls=70, n_hosts=5)
    seeds = web.default_seeds()
    cfg = dict(budget_per_host=2, max_depth=8)
    ora = crawl(seeds, SyntheticBackend.from_web(web), CrawlConfig(**cfg))

    dir_a = str(tmp_path / "ckpt_a")
    dir_b = str(tmp_path / "ckpt_b")

    a = run_crawl(seeds, web=web, out_dir=dir_a,
                  fetch_batch_size=16, **cfg)
    a.shutdown()

    b1 = run_crawl(seeds, web=web, out_dir=dir_b, stop_after_wave=2, fetch_batch_size=16, **cfg)
    b1.shutdown()
    committed = Checkpointer.committed_waves(dir_b)
    assert committed == [0, 1, 2]

    b2 = resume_crawl(dir_b, web=web, fetch_batch_size=16)
    try:
        log_a = _log_sorted(a.crawl_log)
        log_b = _log_sorted(b2.crawl_log)
        assert log_a.equals(log_b), "resumed crawl_log differs from uninterrupted"
        # oracle parity too
        assert log_b.to_pylist() == ora.crawl_log.to_pylist()

        seen_a = Checkpointer.read_seen_urls(dir_a)
        seen_b = Checkpointer.read_seen_urls(dir_b)
        assert seen_a == seen_b == ora.seen

        docs_a = {r["doc_id"]: r["spans"] for r in a.documents.take_all()}
        docs_b = {r["doc_id"]: r["spans"] for r in b2.documents.take_all()}
        assert docs_a == docs_b
    finally:
        b2.shutdown()


def test_resume_cleans_uncommitted(ray_session, tmp_path):
    import os

    from crawlray.job import resume_crawl, run_crawl

    web = SynthWeb(seed=12, shape="chain", n_urls=8, n_hosts=1)
    d = str(tmp_path / "ck")
    r = run_crawl(web.default_seeds(), web=web, budget_per_host=2,
                  out_dir=d, stop_after_wave=1)
    r.shutdown()
    # fake a crashed wave: dir without _SUCCESS
    os.makedirs(os.path.join(d, "wave=00002", "crawl_log"))
    r2 = resume_crawl(d, web=web)
    try:
        waves = Checkpointer.committed_waves(d)
        assert waves == sorted(waves)
        assert all(
            os.path.exists(os.path.join(d, f"wave={w:05d}", "_SUCCESS")) for w in waves
        )
        # the resumed run overwrote the fake uncommitted wave=2
        assert 2 in waves
    finally:
        r2.shutdown()


def test_resume_rejects_different_webgraph_path(ray_session, tmp_path):
    """Path-form resume must validate the webgraph fingerprint too: resuming
    against a directory holding a DIFFERENT web errors instead of silently
    continuing the crawl on the wrong graph."""
    import os

    import pyarrow.parquet as pq
    import pytest

    from crawlray.job import resume_crawl, run_crawl
    from crawlray.synthgraph import SynthWeb

    web_a = SynthWeb(seed=42, shape="zipf_hosts", n_urls=80, n_hosts=4)
    web_b = SynthWeb(seed=43, shape="zipf_hosts", n_urls=90, n_hosts=4)
    dir_a = str(tmp_path / "wga")
    dir_b = str(tmp_path / "wgb")
    for d, w in ((dir_a, web_a), (dir_b, web_b)):
        os.makedirs(os.path.join(d, "webgraph"))
        pq.write_table(
            w.webgraph_table(), os.path.join(d, "webgraph", "part-0.parquet")
        )
        pq.write_table(w.robots_table(), os.path.join(d, "robots.parquet"))
    ckpt = str(tmp_path / "ckpt")
    r = run_crawl(
        web_a.default_seeds(),
        webgraph_path=os.path.join(dir_a, "webgraph"),
        robots_path=os.path.join(dir_a, "robots.parquet"),
        budget_per_host=2,
        out_dir=ckpt,
        stop_after_wave=1,
    )
    r.shutdown()
    with pytest.raises(ValueError, match="webgraph mismatch"):
        resume_crawl(
            ckpt,
            webgraph_path=os.path.join(dir_b, "webgraph"),
            robots_path=os.path.join(dir_b, "robots.parquet"),
        )
    # the matching path resumes fine
    r2 = resume_crawl(
        ckpt,
        webgraph_path=os.path.join(dir_a, "webgraph"),
        robots_path=os.path.join(dir_a, "robots.parquet"),
    )
    assert r2.fetched_total > 0
    r2.shutdown()


def test_resume_rejects_seen_routing_mismatch(ray_session, tmp_path):
    """A checkpoint written under a different URL→shard routing layout must
    refuse to resume (its seen deltas would load into the wrong shards and
    offers would silently miss the membership probe — ADVICE r2)."""
    import json
    import os

    import pytest

    from crawlray.job import resume_crawl, run_crawl

    web = SynthWeb(seed=12, shape="chain", n_urls=20, n_hosts=2)
    out = str(tmp_path / "ckpt_route")
    r = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=1,
                  budget_per_host=2, max_depth=8,
                  fetch_batch_size=16)
    r.shutdown()

    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path) as f:
        blob = json.load(f)
    assert blob["config"]["seen_routing"]  # written by run_crawl
    blob["config"]["seen_routing"] = "crc32_v1"  # simulate an old layout
    with open(cfg_path, "w") as f:
        json.dump(blob, f)

    with pytest.raises(ValueError, match="seen-routing mismatch"):
        resume_crawl(out, web=web, fetch_batch_size=16)
