"""O-45 PipelineStep registry + O-48 priority-policy plug: the BFS policy
must reproduce the default (reference) ordering bit-for-bit; a non-BFS
policy must be deterministic under parallelism while actually changing the
order; frontier/document steps compose into the wave without new stages."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from crawlray.steps import (
    BfsPolicy,
    DepthWeightedPolicy,
    get_step,
    make_host_block_step,
    register_step,
    resolve_steps,
)


def _web():
    from crawlray.synthgraph import SynthWeb

    return SynthWeb(seed=42, shape="zipf_hosts", n_urls=150, n_hosts=6)


def _log_rows(res):
    t = res.crawl_log_table()
    return list(zip(t.column("seq").to_pylist(), t.column("url").to_pylist()))


def test_registry_roundtrip():
    @register_step("test_only_step")
    def _st(batch):
        return batch

    assert get_step("test_only_step") is _st
    assert resolve_steps(["test_only_step", _st]) == [_st, _st]
    with pytest.raises(ValueError):
        register_step("test_only_step", _st)
    with pytest.raises(KeyError):
        get_step("no_such_step")


def test_bfs_policy_equals_default(ray_session):
    from crawlray.job import run_crawl

    web = _web()
    a = run_crawl(web.default_seeds(), web=web, budget_per_host=2)
    b = run_crawl(
        web.default_seeds(), web=web, budget_per_host=2,
        priority_policy=BfsPolicy(),
    )
    assert _log_rows(a) == _log_rows(b)
    a.shutdown(); b.shutdown()


def test_depth_weighted_policy_deterministic_and_different(ray_session):
    from crawlray.job import run_crawl

    web = _web()
    pol = DepthWeightedPolicy()
    runs = []
    for conc in (2, 4):
        r = run_crawl(
            web.default_seeds(), web=web, budget_per_host=1,  # tight budget:
            num_seen_shards=conc,                              # order matters
            priority_policy=pol,
        )
        runs.append(_log_rows(r))
        r.shutdown()
    assert runs[0] == runs[1], "non-BFS policy must be parallelism-independent"
    bfs = run_crawl(web.default_seeds(), web=web, budget_per_host=1)
    bfs_rows = _log_rows(bfs)
    bfs.shutdown()
    # same URL set may be crawled eventually, but with B=1 per wave the
    # admission/ordering must differ somewhere on this skewed web
    assert runs[0] != bfs_rows, "depth_weighted unexpectedly identical to BFS"


def test_frontier_step_host_block(ray_session):
    from crawlray.job import run_crawl

    web = _web()
    base = run_crawl(web.default_seeds(), web=web, budget_per_host=3)
    hosts = set(base.crawl_log_table().column("host").to_pylist())
    base.shutdown()
    victim = sorted(hosts)[-1]
    res = run_crawl(
        web.default_seeds(), web=web, budget_per_host=3,
        frontier_steps=[make_host_block_step({victim})],
    )
    t = res.crawl_log_table()
    assert victim not in set(t.column("host").to_pylist())
    assert t.num_rows > 0
    res.shutdown()


def test_doc_step_adds_column(ray_session):
    from crawlray.job import run_crawl

    def add_n_spans(doc_tbl: pa.Table) -> pa.Table:
        return doc_tbl.append_column(
            "n_spans", pc.cast(pc.list_value_length(doc_tbl.column("spans")), pa.int32())
        )

    web = _web()
    res = run_crawl(
        web.default_seeds(), web=web, budget_per_host=3,
        doc_steps=[add_n_spans],
    )
    droot = res.metrics["doc_root"]
    import pyarrow.parquet as pq

    found = False
    for dirpath, _, files in os.walk(droot):
        for f in files:
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(dirpath, f))
                assert "n_spans" in t.column_names
                assert t.column("n_spans").to_pylist() == [
                    len(s) for s in t.column("spans").to_pylist()
                ]
                found = True
    assert found
    res.shutdown()
