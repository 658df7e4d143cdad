"""Benchmark inputs and their oracle results, generated once per
(parameters, seed) and cached under ``perfbench/.cache``.

Everything here runs outside every timed span: a crawl web is rendered by
``SynthWeb`` and crawled once by the single-process oracle
(``oracle.bfs_crawler.crawl``); the query tables are drawn from the seed
and answered once by DuckDB through ``__ray_entry__.oracle_sql()``. Timed
runs only compare against what is stored here.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")

# the columns the oracle and the engine must agree on, bit for bit
LOG_COLS = ["seq", "url", "host", "wave", "depth", "status", "n_out"]


def _key(obj, sources: list[str]) -> str:
    """Cache key of a fixture: its parameters and the source files that
    generate it or answer it, so an edited generator or oracle never reads
    a stale cache entry."""
    h = hashlib.sha256(json.dumps(obj, sort_keys=True).encode())
    for path in [__file__] + sources:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def _publish(tmp: str, final: str) -> None:
    """Move a fully written fixture directory into place (a run killed
    half-way leaves only a ``.tmp`` directory, never a partial fixture)."""
    try:
        os.rename(tmp, final)
    except OSError:  # another process published it first
        shutil.rmtree(tmp, ignore_errors=True)


def log_digest(log: pa.Table) -> str:
    """sha256 over the crawl log's oracle columns in ``seq`` order."""
    log = log.select(LOG_COLS)
    log = log.take(pc.sort_indices(log, sort_keys=[("seq", "ascending")]))
    h = hashlib.sha256()
    for c in LOG_COLS:
        h.update(json.dumps(log.column(c).to_pylist()).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- crawl webs


def seed_urls(web, n_seed_hosts: int) -> list[str]:
    """First page of hosts ``0 .. n_seed_hosts-1``."""
    return [web.url_of(web._base_uid[i]) for i in range(min(n_seed_hosts, web.n_hosts))]


def web_fixture(web_params: dict, crawl_cfg: dict, n_seed_hosts: int) -> dict:
    """Webgraph + robots tables, seed list and the oracle's answer.

    Returns ``{"webgraph", "robots", "seeds", "oracle"}`` where ``oracle``
    holds the crawl-log digest, row and document counts, seen-set size,
    pages fetched and the oracle's own crawl time (a baseline reading,
    never gated)."""
    import crawlray.synthgraph
    import oracle.bfs_crawler
    from crawlray.backend import SyntheticBackend
    from crawlray.synthgraph import SynthWeb
    from oracle.bfs_crawler import CrawlConfig, crawl

    key = _key([web_params, crawl_cfg, n_seed_hosts], [crawlray.synthgraph.__file__, oracle.bfs_crawler.__file__])
    d = os.path.join(CACHE, "web-" + key)
    if not os.path.exists(os.path.join(d, "oracle.json")):
        tmp = f"{d}.tmp{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        web = SynthWeb(**web_params)
        seeds = seed_urls(web, n_seed_hosts)
        webgraph, robots = web.webgraph_table(), web.robots_table()
        t0 = time.perf_counter()
        ora = crawl(seeds, SyntheticBackend(webgraph, robots), CrawlConfig(**crawl_cfg))
        oracle_s = time.perf_counter() - t0
        pq.write_table(webgraph, os.path.join(tmp, "webgraph.parquet"))
        pq.write_table(robots, os.path.join(tmp, "robots.parquet"))
        denied = pc.equal(ora.crawl_log.column("status"), "robots_denied")
        meta = {
            "web_params": web_params,
            "crawl_cfg": crawl_cfg,
            "seeds": seeds,
            "log_digest": log_digest(ora.crawl_log),
            "log_rows": ora.crawl_log.num_rows,
            "documents": ora.documents.num_rows,
            "fetched": ora.crawl_log.num_rows - pc.sum(denied).as_py(),
            "seen": len(ora.seen),
            "waves": ora.waves,
            "oracle_s": oracle_s,
        }
        with open(os.path.join(tmp, "oracle.json"), "w") as f:
            json.dump(meta, f, indent=1)
        _publish(tmp, d)
    with open(os.path.join(d, "oracle.json")) as f:
        meta = json.load(f)
    return {
        "webgraph": pq.read_table(os.path.join(d, "webgraph.parquet")),
        "robots": pq.read_table(os.path.join(d, "robots.parquet")),
        "seeds": meta["seeds"],
        "oracle": meta,
    }


# ------------------------------------------------------------- query tables

QUERY_TABLES = ["customer", "orders", "lineitem", "events", "documents", "embeddings"]

# the 30-word vocabulary and the ~5% planted "<copy of another doc> dup"
# documents give dup_spans, decontaminate and the PMI/BPE arms of
# flatten_tokens repeated n-grams to find, as in the driver's testdata
_VOCAB = (
    "a the row column table key value data hash join merge sort scan filter "
    "group agg window batch stream query order customer line part vector "
    "spark big small fast slow"
).split()


def _ts(base: str, offsets_us: np.ndarray) -> pa.Array:
    start = np.datetime64(base, "us").astype(np.int64)
    return pa.array(start + offsets_us.astype(np.int64), pa.timestamp("us"))


def make_query_tables(seed: int) -> dict[str, pa.Table]:
    """TPC-H-like tables plus events, documents and embeddings, drawn from
    ``seed`` with the row counts of the driver's sf0.01 set."""
    rng = np.random.default_rng(seed)
    n_cust, n_ord, n_li = 1500, 15000, 60000
    n_ev, n_doc, n_emb = 10000, 500, 500
    day_us = 86_400_000_000

    cust = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{k:09d}" for k in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int64()),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
        "c_mktsegment": rng.choice(
            ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], n_cust
        ),
    })
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": rng.choice(["F", "O", "P"], n_ord),
        "o_totalprice": np.round(rng.uniform(1000.0, 500000.0, n_ord), 2),
        "o_orderdate": _ts("1995-01-01", rng.integers(0, 2400, n_ord) * day_us),
        "o_orderpriority": rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], n_ord
        ),
    })
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_ord, n_li), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, n_li), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900.0, 105000.0, n_li), 2),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": rng.choice(["A", "N", "R"], n_li),
        "l_linestatus": rng.choice(["F", "O"], n_li),
        "l_shipdate": _ts("1995-01-02", rng.integers(0, 2500, n_li) * day_us),
    })
    events = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "ts": _ts("2024-01-01", np.sort(rng.integers(0, 30 * day_us, n_ev))),
        "user_id": pa.array(rng.integers(0, 150, n_ev), pa.int64()),
        "event_type": rng.choice(["click", "error", "purchase", "signup", "view"], n_ev),
        "value": np.round(rng.uniform(0.01, 500.0, n_ev), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)],
    })
    texts = [
        " ".join(rng.choice(_VOCAB, int(rng.integers(10, 100))))
        for _ in range(n_doc)
    ]
    for i in np.nonzero(rng.random(n_doc) < 0.05)[0]:
        texts[i] = texts[int(rng.integers(0, n_doc))] + " dup"
    documents = pa.table({
        "doc_id": pa.array(np.arange(n_doc), pa.int64()),
        "text": texts,
        "lang": rng.choice(["de", "en", "es", "fr", "zh"], n_doc),
        "source": [f"src{i % 20}" for i in range(n_doc)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    # 128-d background vectors sit far below the 0.35 cosine threshold of
    # dedup_clusters; near-duplicate groups of 2-5 noisy copies (pairwise
    # cosine ~0.75) make the cliques and pendants that query clusters
    vecs = rng.standard_normal((n_emb, 128))
    for base in range(0, n_emb - 5, 12):
        size = int(rng.integers(2, 6))
        vecs[base + 1:base + size] = vecs[base] + 0.6 * rng.standard_normal((size - 1, 128))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    embeddings = pa.table({
        "vec_id": pa.array(np.arange(n_emb), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_emb), pa.int32()),
    })
    return {
        "customer": cust, "orders": orders, "lineitem": lineitem,
        "events": events, "documents": documents, "embeddings": embeddings,
    }


def normalize_frame(df):
    """The driver's order-insensitive comparison form: columns sorted by
    name, object columns as str, rows sorted by every column."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def frame_matches(got, want) -> bool:
    """Row count, column names, dtype kinds and values (rtol 1e-9) — the
    same checks tests/test_driver_contract.py applies."""
    import pandas as pd

    if len(got) != len(want) or sorted(got.columns) != sorted(want.columns):
        return False
    for c in got.columns:
        ka, kb = got[c].dtype.kind, want[c].dtype.kind
        if ("i" if ka == "u" else ka) != ("i" if kb == "u" else kb):
            return False
    try:
        pd.testing.assert_frame_equal(
            normalize_frame(got), normalize_frame(want),
            check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9,
        )
    except AssertionError:
        return False
    return True


def query_fixture(seed: int, names: list[str]) -> dict:
    """Directory of seeded query tables plus each query's DuckDB oracle
    result (stored as parquet with its sha256)."""
    import duckdb

    import __ray_entry__ as entry

    d = os.path.join(CACHE, "query-" + _key([seed, names], [entry.__file__]))
    if not os.path.exists(os.path.join(d, "oracle.json")):
        tmp = f"{d}.tmp{os.getpid()}"
        os.makedirs(os.path.join(tmp, "oracle"), exist_ok=True)
        for name, t in make_query_tables(seed).items():
            pq.write_table(t, os.path.join(tmp, f"{name}.parquet"))
        con = duckdb.connect()
        for name in QUERY_TABLES:
            con.execute(
                f"CREATE VIEW {name} AS SELECT * FROM "
                f"'{os.path.join(tmp, name + '.parquet')}'"
            )
        sql = entry.oracle_sql()
        meta = {"seed": seed, "queries": {}}
        for q in names:
            t0 = time.perf_counter()
            want = con.execute(sql[q]).fetchdf()
            oracle_s = time.perf_counter() - t0
            path = os.path.join(tmp, "oracle", f"{q}.parquet")
            want.to_parquet(path)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            meta["queries"][q] = {"rows": len(want), "sha256": digest, "oracle_s": oracle_s}
        con.close()
        with open(os.path.join(tmp, "oracle.json"), "w") as f:
            json.dump(meta, f, indent=1)
        _publish(tmp, d)
    with open(os.path.join(d, "oracle.json")) as f:
        meta = json.load(f)
    return {"dir": d, "oracle": meta}


def oracle_frame(fixture: dict, name: str):
    import pandas as pd

    return pd.read_parquet(os.path.join(fixture["dir"], "oracle", f"{name}.parquet"))
