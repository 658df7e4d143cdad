"""Mid-crawl fault tolerance (SURVEY.md §4.3, VERDICT r2 item 1): killing
actors mid-crawl must yield output bit-identical to an uninterrupted run.

The recovery contract: actors hold cross-wave state (seen shards, token
buckets) with max_restarts=0 — a Ray auto-restart would resurrect them
EMPTY. run_crawl instead detects the death at the wave's ray.get barriers,
aborts the wave, kills the attempt's actors, and rebuilds everything from
the last _SUCCESS-committed checkpoint (resume_crawl's tested machinery).
Waves are idempotent transactions, so the re-run wave is bit-identical.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from crawlray.backend import SyntheticBackend
from crawlray.checkpoint import Checkpointer
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl


def _log_sorted(ds) -> pa.Table:
    t = pa.Table.from_pylist(ds.take_all())
    return t.select(["seq", "url", "host", "wave", "depth", "status", "n_out"]).take(
        pc.sort_indices(t, sort_keys=[("seq", "ascending")])
    )


@pytest.mark.parametrize(
    "shape,n_hosts,victims",
    [("zipf_hosts", 6, ("seen", "fetchers")), ("robots_blocked", 8, ("polite",))],
    ids=["seen+fetcher", "host_shard"],
)
def test_actor_death_mid_crawl_recovers_bit_identical(
    shape, n_hosts, victims, ray_session, tmp_path
):
    """Kill actors at the top of wave 2. `host_shard` kills a host shard,
    which holds robots rules and token buckets, on a web whose robots deny
    rows in wave 2 and later."""
    from crawlray.job import run_crawl

    web = SynthWeb(seed=13, shape=shape, n_urls=120, n_hosts=n_hosts)
    seeds = web.default_seeds()
    cfg = dict(budget_per_host=2, max_depth=8)
    ora = crawl(seeds, SyntheticBackend.from_web(web), CrawlConfig(**cfg))

    a = run_crawl(seeds, web=web, out_dir=str(tmp_path / "a"), fetch_batch_size=16, **cfg)
    a.shutdown()

    # kill the first actor of each victim pool at the top of wave 2 — the
    # wave's RPCs then hit dead actors and the recovery path must engage
    killed = {"done": False}

    def hook(wave, actors):
        if wave == 2 and not killed["done"]:
            killed["done"] = True
            for pool in victims:
                ray.kill(actors[pool][0], no_restart=True)

    b = run_crawl(seeds, web=web, out_dir=str(tmp_path / "b"), fetch_batch_size=16,
                  _fault_hook=hook, **cfg)
    try:
        assert killed["done"], "fault hook never fired"
        log_a = _log_sorted(a.crawl_log)
        log_b = _log_sorted(b.crawl_log)
        assert log_a.equals(log_b), "recovered crawl_log differs"
        assert log_b.to_pylist() == ora.crawl_log.to_pylist()

        seen_a = Checkpointer.read_seen_urls(str(tmp_path / "a"))
        seen_b = Checkpointer.read_seen_urls(str(tmp_path / "b"))
        assert seen_a == seen_b == ora.seen

        docs_a = {r["doc_id"]: r["spans"] for r in a.documents.take_all()}
        docs_b = {r["doc_id"]: r["spans"] for r in b.documents.take_all()}
        assert docs_a == docs_b
    finally:
        b.shutdown()


def test_actor_death_without_checkpoint_raises(ray_session):
    """No out_dir → no committed state to rebuild from: the actor death
    must propagate (never silently return partial results)."""
    from crawlray.job import run_crawl

    web = SynthWeb(seed=13, shape="chain", n_urls=30, n_hosts=2)

    def hook(wave, actors):
        if wave == 1:
            ray.kill(actors["seen"][0], no_restart=True)

    with pytest.raises(Exception) as ei:
        r = run_crawl(web.default_seeds(), web=web, budget_per_host=2,
                      max_depth=8, fetch_batch_size=16,
                      _fault_hook=hook)
        r.shutdown()
    from crawlray.job import _is_actor_death

    assert _is_actor_death(ei.value)


def test_non_actor_errors_propagate(ray_session, tmp_path):
    """User-code errors must NOT trigger recovery (they would re-run the
    same failing wave forever)."""
    from crawlray.job import run_crawl

    web = SynthWeb(seed=13, shape="chain", n_urls=30, n_hosts=2)

    def bad_hook(wave, actors):
        if wave == 1:
            raise RuntimeError("user bug")

    with pytest.raises(RuntimeError, match="user bug"):
        r = run_crawl(web.default_seeds(), web=web, budget_per_host=2,
                      max_depth=8, out_dir=str(tmp_path / "c"), fetch_batch_size=16,
                      _fault_hook=bad_hook)
        r.shutdown()
