"""Resume under a NEW seen-shard count (SURVEY §7.7-H2, VERDICT r3 item 9):
checkpoint with N shards, resume with M != N — seen deltas, host state and
the stored frontier re-bucket by host hash % M, so the continuation is
bit-identical to the uninterrupted N-shard run (routing is a pure function
of the host, never of the shard count)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from crawlray.checkpoint import Checkpointer
from crawlray.synthgraph import SynthWeb


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all())
    return t.select(["seq", "url", "host", "wave", "depth", "status", "n_out"]).take(
        pc.sort_indices(t, sort_keys=[("seq", "ascending")])
    )


@pytest.mark.parametrize("n_before,n_after", [(4, 7), (4, 2)])
def test_resume_reshard_bit_identical(ray_session, tmp_path, n_before, n_after):
    from crawlray.job import resume_crawl, run_crawl

    web = SynthWeb(seed=23, shape="zipf_hosts", n_urls=80, n_hosts=6)
    seeds = web.default_seeds()
    cfg = dict(budget_per_host=2, max_depth=8)

    dir_a = str(tmp_path / f"ckpt_full_{n_after}")
    dir_b = str(tmp_path / f"ckpt_part_{n_after}")

    a = run_crawl(
        seeds, web=web, out_dir=dir_a,
        fetch_batch_size=16, num_seen_shards=n_before, **cfg,
    )
    a.shutdown()

    b1 = run_crawl(
        seeds, web=web, out_dir=dir_b, stop_after_wave=2, fetch_batch_size=16,
        num_seen_shards=n_before, **cfg,
    )
    b1.shutdown()
    assert Checkpointer.committed_waves(dir_b) == [0, 1, 2]

    # resume into a different shard count
    b2 = resume_crawl(
        dir_b, web=web, fetch_batch_size=16,
        num_seen_shards=n_after,
    )
    try:
        log_a = _log_sorted(a.crawl_log)
        log_b = _log_sorted(b2.crawl_log)
        assert log_a.equals(log_b), (
            f"reshard {n_before}->{n_after}: resumed crawl_log differs "
            f"from uninterrupted run"
        )
        seen_a = Checkpointer.read_seen_urls(dir_a)
        seen_b = Checkpointer.read_seen_urls(dir_b)
        assert seen_a == seen_b
        docs_a = {r["doc_id"]: r["spans"] for r in a.documents.take_all()}
        docs_b = {r["doc_id"]: r["spans"] for r in b2.documents.take_all()}
        assert docs_a == docs_b
    finally:
        b2.shutdown()
