"""Oracle conformance (SURVEY.md §5.2.3): the distributed Ray engine must
reproduce the sequential oracle bit-for-bit — crawl_log equality (seq, url,
host, wave, depth, status, n_out), seen-set equality, and per-document
span-sequence equality (kind, text, media_ref, order) — on a corpus of
synthetic web shapes exercising skew, robots, budgets, and dup-heavy
rediscovery. This operationalizes BASELINE.json's exact-match mandate."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from crawlray.backend import SyntheticBackend
from crawlray.synthgraph import SynthWeb
from oracle.bfs_crawler import CrawlConfig, crawl

CORPUS = [
    # (shape, n_urls, n_hosts, cfg)
    ("chain", 12, 2, dict(budget_per_host=3)),
    ("star", 30, 3, dict(budget_per_host=2)),
    ("clique", 12, 2, dict(budget_per_host=4)),
    ("two_islands", 40, 4, dict(budget_per_host=3)),
    ("zipf_hosts", 80, 6, dict(budget_per_host=2)),
    ("zipf_hosts", 80, 6, dict(budget_per_host=2, max_pages=23)),
    ("robots_blocked", 90, 8, dict(budget_per_host=2)),
    ("budget_tight", 60, 5, dict(budget_per_host=1)),
    ("deep", 40, 3, dict(budget_per_host=5, max_depth=6)),
    ("dup_heavy", 50, 4, dict(budget_per_host=3)),
]


def _sorted_log(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[("seq", "ascending")]))


def _docs_map(t: pa.Table) -> dict:
    return {r["doc_id"]: r["spans"] for r in t.to_pylist()}


@pytest.mark.parametrize("shape,n_urls,n_hosts,cfg", CORPUS)
def test_engine_matches_oracle(shape, n_urls, n_hosts, cfg, ray_session):
    from crawlray.job import run_crawl

    web = SynthWeb(seed=42, shape=shape, n_urls=n_urls, n_hosts=n_hosts)
    seeds = web.default_seeds()
    ora = crawl(seeds, SyntheticBackend.from_web(web), CrawlConfig(**cfg))
    eng = run_crawl(seeds, web=web, num_seen_shards=3,
                    fetch_batch_size=16, **cfg)
    try:
        # 1. crawl_log bit-for-bit
        got = _sorted_log(eng.crawl_log_table())
        want = _sorted_log(ora.crawl_log)
        assert got.num_rows == want.num_rows, (
            f"{shape}: log rows {got.num_rows} != {want.num_rows}\n"
            f"got={got.to_pylist()[:5]}\nwant={want.to_pylist()[:5]}"
        )
        for col in ["seq", "url", "host", "wave", "depth", "status", "n_out"]:
            assert got.column(col).equals(want.column(col)), (
                f"{shape}: column {col} differs:\n"
                + "\n".join(
                    f"  seq={a['seq']} got={a[col]!r} want={b[col]!r}"
                    for a, b in zip(got.to_pylist(), want.to_pylist())
                    if a[col] != b[col]
                )[:2000]
            )

        # 2. seen-set equality
        assert eng.seen_urls() == ora.seen, f"{shape}: seen set differs"

        # 3. per-row span-sequence equality
        got_docs = _docs_map(pa.Table.from_pylist(eng.documents.take_all()))
        want_docs = _docs_map(ora.documents)
        assert set(got_docs) == set(want_docs)
        for k in want_docs:
            assert got_docs[k] == want_docs[k], f"{shape}: spans differ for {k}"
    finally:
        eng.shutdown()


@pytest.mark.parametrize(
    "shape,n_urls,n_hosts",
    [("zipf_hosts", 60, 5), ("robots_blocked", 90, 8)],
    ids=["zipf_hosts", "robots_blocked"],
)
def test_parallelism_invariance(shape, n_urls, n_hosts, ray_session):
    """Same web, different shard counts / batch sizes → identical output
    (the §4.2 determinism property the N→4N scaling criterion rides on).
    Robots bodies are split by host shard, so on robots_blocked a denied
    host whose body loaded on the wrong shard changes the log."""
    from crawlray.job import run_crawl

    web = SynthWeb(seed=7, shape=shape, n_urls=n_urls, n_hosts=n_hosts)
    seeds = web.default_seeds()
    kw = dict(budget_per_host=2, max_depth=8)
    a = run_crawl(seeds, web=web, num_seen_shards=1,
                  fetch_batch_size=4, **kw)
    b = run_crawl(seeds, web=web, num_seen_shards=5,
                  fetch_batch_size=64, **kw)
    ta, tb = _sorted_log(a.crawl_log_table()), _sorted_log(b.crawl_log_table())
    assert ta.equals(tb)
    if shape == "robots_blocked":
        assert "robots_denied" in tb.column("status").to_pylist()
    assert a.seen_urls() == b.seen_urls()
    a.shutdown()
    b.shutdown()


def test_preloaded_web_form_matches_table_form(ray_session):
    """run_crawl(preloaded_web=(refs, n_pages)) — the bench/scaling form
    that keeps fixture bring-up out of the timed window — is bit-identical
    to the web= form."""
    import ray

    from crawlray.job import run_crawl

    web = SynthWeb(seed=42, shape="zipf_hosts", n_urls=80, n_hosts=6)
    seeds = web.default_seeds()
    base = run_crawl(seeds, web=web, budget_per_host=2)
    try:
        tbl = web.webgraph_table()
        pre = run_crawl(
            seeds,
            preloaded_web=([ray.put(tbl)], tbl.num_rows),
            robots=web.robots_table(),
            budget_per_host=2,
        )
        try:
            got = _sorted_log(pre.crawl_log_table())
            want = _sorted_log(base.crawl_log_table())
            assert got.equals(want)
            assert pre.seen_urls() == base.seen_urls()
        finally:
            pre.shutdown()
    finally:
        base.shutdown()
