"""Crawl counters (SURVEY.md O-24) across checkpoint and resume: fetchers
return per-wave counters from end_wave, the driver sums them, every
committed wave persists the running totals in meta.json, and resume seeds
them from there. The totals must agree with the crawl's own page count and
its documents, also when the page budget cuts a resumed wave."""

import json
import os

import pytest

from crawlray.checkpoint import Checkpointer
from crawlray.synthgraph import SynthWeb


@pytest.mark.parametrize("max_pages", [None, 30], ids=["no_budget", "budget_cut"])
def test_counters_match_fetched_and_documents(max_pages, ray_session, tmp_path):
    from crawlray.job import resume_crawl, run_crawl

    web = SynthWeb(seed=11, shape="zipf_hosts", n_urls=70, n_hosts=5)
    out = str(tmp_path / "ckpt")
    first = run_crawl(web.default_seeds(), web=web, out_dir=out, stop_after_wave=2,
                      budget_per_host=2, max_depth=8, max_pages=max_pages, fetch_batch_size=16)
    first.shutdown()
    res = resume_crawl(out, web=web, fetch_batch_size=16)
    try:
        waves = Checkpointer.committed_waves(out)
        assert len(waves) > 3
        for w in waves:
            with open(os.path.join(out, f"wave={w:05d}", "meta.json")) as f:
                meta = json.load(f)
            counters = meta["metrics"]["counters"]
            assert counters["pages_fetched"] == meta["fetched_total_after"], w

        counters = res.metrics["counters"]
        assert counters["pages_fetched"] == res.fetched_total
        if max_pages is not None:
            assert res.fetched_total == max_pages
        assert counters["docs_written"] == res.documents.count()
        statuses = [r["status"] for r in res.crawl_log.take_all()]
        assert counters["fetch_errors"] == statuses.count("error")
    finally:
        res.shutdown()
