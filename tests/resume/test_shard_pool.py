"""The crawl's shard pool and its leg records: one actor class, and
`num_seen_shards` actors, each of which owns its hosts' seen URLs,
politeness state and fetching; every shard fetches on a multi-host web;
the outputs equal the oracle at any pool size, including a resume into
another one, and `seen_urls` is the whole seen set on every call. A leg
records where its time went, each wave its `wave_s` and `phases` (kept
in meta.json), a leg runs none of the retired per-wave tasks, and a
failed attempt releases its actors while its exception is still held."""

import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from crawlray.backend import SyntheticBackend
from crawlray.checkpoint import Checkpointer
from crawlray.schema import CRAWL_LOG
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl

CFG = dict(budget_per_host=2, max_depth=8)
RUN = dict(fetch_batch_size=16)
LEG_KEYS = {"startup_s", "bootstrap_s", "loop_s", "commit_s", "output_s"}
PHASE_KEYS = {
    "decide_s", "fetch_s", "finish_s", "fetch_busy_min_s", "fetch_busy_max_s",
    "fetch_busy_sum_s", "admitted", "deferred", "denied",
}


def _web(n_hosts: int = 6):
    return SynthWeb(seed=23, shape="robots_blocked", n_urls=80, n_hosts=n_hosts)


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all(), schema=CRAWL_LOG)
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


def _check_pool(actors: dict, n: int) -> None:
    pool = actors["seen"]
    assert len(pool) == n
    assert actors["polite"] == actors["fetchers"] == pool
    assert len({a._actor_id for a in pool}) == n
    names = {a._ray_actor_creation_function_descriptor.class_name for a in pool}
    assert names == {"FetchParseStage"}


def _fetching_workers(t0: float) -> set:
    return {
        e.get("tid")
        for e in ray.timeline()
        if e.get("cat") == "task::FetchParseStage.fetch_parse_wave" and e["ts"] / 1e6 >= t0
    }


@pytest.mark.parametrize("n", [4, 1], ids=["4", "1"])
def test_shard_pool_size_matches_oracle(ray_session, n):
    from crawlray.job import run_crawl

    web = _web(n_hosts=12)  # every one of 4 shards owns a fetchable host
    ora = crawl(web.default_seeds(), SyntheticBackend.from_web(web), CrawlConfig(**CFG))
    pools: list = []
    t0 = time.time()
    res = run_crawl(web.default_seeds(), web=web, num_seen_shards=n,
                    _fault_hook=_pool_recorder(pools), **RUN, **CFG)
    try:
        _check_pool(pools[0], n)
        assert len(res._shards) == n
        assert len(_fetching_workers(t0)) == n
        # every shard fetched pages of its own hosts and wrote them
        doc_files = Checkpointer.wave_files(
            res.metrics["doc_root"], range(res.waves), "documents")
        assert {os.path.basename(f) for f in doc_files} == {
            f"part-{i:04d}.parquet" for i in range(n)}
        _assert_matches_oracle(res, ora, res.seen_urls())
    finally:
        res.shutdown()


def test_resume_reshard_4_to_3_matches_oracle(ray_session, tmp_path, monkeypatch):
    """A 4-shard crawl resumed into 3 shards: the resume's pool has 3
    actors, and the outputs still equal the oracle."""
    from crawlray import job
    from crawlray.job import resume_crawl, run_crawl

    web = _web()
    ora = crawl(web.default_seeds(), SyntheticBackend.from_web(web), CrawlConfig(**CFG))
    out = str(tmp_path / "ckpt")
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=2,
                      num_seen_shards=4, **RUN, **CFG)
    first.shutdown()
    # resume_crawl takes no fault hook: hand one to its attempt
    pools: list = []
    real = job._run_crawl_attempt
    monkeypatch.setattr(job, "_run_crawl_attempt", lambda *a, **k: real(
        *a, **dict(k, _fault_hook=_pool_recorder(pools))))
    res = resume_crawl(out, web=web, num_seen_shards=3, **RUN)
    try:
        _check_pool(pools[0], 3)
        _assert_matches_oracle(res, ora, Checkpointer.read_seen_urls(out))
    finally:
        res.shutdown()


def test_seen_urls_is_the_whole_seen_set_on_every_call(ray_session, tmp_path):
    """`seen_urls` reads without draining: twice on an uncheckpointed
    crawl; and on a resumed checkpointed crawl, whose shards dumped each
    wave's new URLs to `seen_delta` and hold only hashes of the URLs
    the resume ingested."""
    from crawlray.job import resume_crawl, run_crawl

    web = _web()
    ora = crawl(web.default_seeds(), SyntheticBackend.from_web(web), CrawlConfig(**CFG))
    res = run_crawl(web.default_seeds(), web=web, **RUN, **CFG)
    try:
        assert res.seen_urls() == ora.seen
        assert res.seen_urls() == ora.seen
    finally:
        res.shutdown()
    out = str(tmp_path / "ckpt")
    run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=2, **RUN, **CFG).shutdown()
    res = resume_crawl(out, web=web, **RUN)
    try:
        assert res.seen_urls() == ora.seen
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
            for w in leg.metrics["waves"]:
                assert set(w["phases"]) == PHASE_KEYS | {"commit_s"}
                assert w["phases"]["admitted"] >= w["fetched"]
        waves = Checkpointer.committed_waves(out)
        assert len(waves) == len(first.metrics["waves"]) + len(res.metrics["waves"])
        for w in waves:
            meta = Checkpointer.load_meta(out, w)
            assert meta["metrics"]["wave_s"] > 0
            assert set(meta["metrics"]["phases"]) == PHASE_KEYS
        # the resumed leg's records are its own waves'
        assert [w["wave"] for w in res.metrics["waves"]] == waves[2:]
    finally:
        res.shutdown()


def test_checkpointed_leg_runs_no_per_wave_tasks(ray_session, tmp_path):
    """A checkpointed leg and its resume run none of the retired per-wave
    tasks, no checkpoint write task and no Ray Data metadata task."""
    from crawlray.job import resume_crawl, run_crawl

    web = _web()
    out = str(tmp_path / "ckpt")
    t0 = time.time()
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=1, **RUN, **CFG)
    first.shutdown()
    res = resume_crawl(out, web=web, num_seen_shards=3, **RUN)
    t1 = time.time()
    res.shutdown()
    banned = ("mark_block_task", "fetch_block_task", "gather_log_task", "concat_blocks_task",
              "_write_part_task", "get_table_block_metadata_schema")
    names = {
        e.get("cat", "") + " " + e.get("name", "")
        for e in ray.timeline()
        if t0 <= e.get("ts", 0) / 1e6 <= t1
    }
    assert not [x for x in names if any(b in x for b in banned)]


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
