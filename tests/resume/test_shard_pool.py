"""The crawl's shard pool and its leg records: one actor per shard index
carries seen shard i and host shard i, so a leg starts max(seen, host)
shard actors; the outputs equal the oracle under any split of the two
counts, including a resume into another seen-shard count. A leg records
where its time went, each wave its `wave_s` (kept in meta.json), and a
failed attempt releases its actors while its exception is still held."""

import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from crawlray.backend import SyntheticBackend
from crawlray.checkpoint import Checkpointer
from crawlray.stages import LOG_SCHEMA
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl

CFG = dict(budget_per_host=2, max_depth=8)
RUN = dict(fetch_concurrency=2, fetch_batch_size=16)
LEG_KEYS = {"startup_s", "bootstrap_s", "loop_s", "commit_s", "output_s"}


def _web():
    return SynthWeb(seed=23, shape="robots_blocked", n_urls=80, n_hosts=6)


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all(), schema=LOG_SCHEMA)
    return t.take(pc.sort_indices(t, sort_keys=[("seq", "ascending")]))


def _assert_matches_oracle(res, ora, seen: set[str]) -> None:
    assert _log_sorted(res.crawl_log).to_pylist() == ora.crawl_log.to_pylist()
    docs = {r["doc_id"]: r["spans"] for r in res.documents.take_all()}
    assert docs == {r["doc_id"]: r["spans"] for r in ora.documents.to_pylist()}
    assert seen == ora.seen


def _pool_recorder(pools: list):
    """A fault hook that records the actor handles at its first call."""

    def hook(wave, actors):
        if not pools:
            pools.append(actors)

    return hook


def _check_pool(actors: dict, n_seen: int, n_host: int) -> None:
    seen, host = actors["seen"], actors["polite"]
    assert (len(seen), len(host)) == (n_seen, n_host)
    ids = {a._actor_id for a in seen + host}
    assert len(ids) == max(n_seen, n_host)
    # host shard i is seen shard i's actor wherever both exist
    for a, b in zip(seen, host):
        assert a._actor_id == b._actor_id
    names = {a._ray_actor_creation_function_descriptor.class_name for a in seen + host}
    assert names == {"SeenShardActor"}


@pytest.mark.parametrize("n_seen,n_host", [(4, 2), (1, 2)], ids=["default-4-2", "1-2"])
def test_shard_pool_size_matches_oracle(ray_session, n_seen, n_host):
    from crawlray.job import run_crawl

    web = _web()
    ora = crawl(web.default_seeds(), SyntheticBackend.from_web(web), CrawlConfig(**CFG))
    pools: list = []
    res = run_crawl(web.default_seeds(), web=web, num_seen_shards=n_seen,
                    num_host_shards=n_host, _fault_hook=_pool_recorder(pools), **RUN, **CFG)
    try:
        _check_pool(pools[0], n_seen, n_host)
        assert len(res._all_actors) == max(n_seen, n_host)
        _assert_matches_oracle(res, ora, res.seen_urls())
    finally:
        res.shutdown()


def test_resume_reshard_into_fewer_seen_shards_than_pool(ray_session, tmp_path, monkeypatch):
    """4 seen + 2 host shards, resumed into 3 seen shards: the resume's pool
    has 3 actors, the first 2 of which are the host shards."""
    from crawlray import job
    from crawlray.job import resume_crawl, run_crawl

    web = _web()
    ora = crawl(web.default_seeds(), SyntheticBackend.from_web(web), CrawlConfig(**CFG))
    out = str(tmp_path / "ckpt")
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=2,
                      num_seen_shards=4, num_host_shards=2, **RUN, **CFG)
    first.shutdown()
    # resume_crawl takes no fault hook: hand one to its attempt
    pools: list = []
    real = job._run_crawl_attempt
    monkeypatch.setattr(job, "_run_crawl_attempt", lambda *a, **k: real(
        *a, **dict(k, _fault_hook=_pool_recorder(pools))))
    res = resume_crawl(out, web=web, num_seen_shards=3, **RUN)
    try:
        _check_pool(pools[0], 3, 2)
        _assert_matches_oracle(res, ora, Checkpointer.read_seen_urls(out))
    finally:
        res.shutdown()


def test_leg_and_wave_timing_persist_through_resume(ray_session, tmp_path):
    from crawlray.job import resume_crawl, run_crawl

    web = _web()
    out = str(tmp_path / "ckpt")
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=1, **RUN, **CFG)
    first.shutdown()
    res = resume_crawl(out, web=web, **RUN)
    try:
        for leg in (first, res):
            assert set(leg.metrics["leg"]) == LEG_KEYS
            assert all(v >= 0 for v in leg.metrics["leg"].values())
            assert leg.metrics["waves"] and all(w["wave_s"] > 0 for w in leg.metrics["waves"])
        waves = Checkpointer.committed_waves(out)
        assert len(waves) == len(first.metrics["waves"]) + len(res.metrics["waves"])
        for w in waves:
            meta = Checkpointer.load_meta(out, w)
            assert meta["metrics"]["wave_s"] > 0
        # the resumed leg's records are its own waves'
        assert [w["wave"] for w in res.metrics["waves"]] == waves[2:]
    finally:
        res.shutdown()


def test_failed_attempt_releases_its_actors(ray_session, tmp_path):
    """A non-actor error is re-raised with the attempt's actors already
    killed: their CPUs come back while the caller still holds the error."""
    from crawlray.job import run_crawl

    def broken_doc_step(docs: pa.Table) -> pa.Table:
        raise RuntimeError("broken doc step")

    deadline = time.time() + 30
    before = ray.available_resources().get("CPU", 0)
    while before < ray.cluster_resources()["CPU"] and time.time() < deadline:
        time.sleep(0.2)  # tasks of earlier tests still draining
        before = ray.available_resources().get("CPU", 0)
    web = _web()
    with pytest.raises(Exception, match="broken doc step") as excinfo:
        run_crawl(web.default_seeds(), web=web, out_dir=str(tmp_path / "c"),
                  doc_steps=[broken_doc_step], **RUN, **CFG)
    deadline = time.time() + 30
    while ray.available_resources().get("CPU", 0) < before and time.time() < deadline:
        time.sleep(0.2)
    assert ray.available_resources().get("CPU", 0) >= before
    assert excinfo.value is not None  # held until here
