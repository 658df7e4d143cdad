"""Unit tests for ops/relational kernels (SURVEY.md §2.4–2.6)."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pytest
import ray.data


def test_mixture_sample_per_source_rates(ray_session):
    """Data-mixing sampler: each source downsampled to ITS rate; kept set
    is the exact md5-bucket predicate, parallelism-invariant; rate 0 drops
    a source entirely, rate 1 keeps it whole, unknown sources get
    default_rate."""
    from crawlray.ops.relational import mixture_sample

    rows = []
    for i in range(3000):
        rows.append({"doc_id": i, "source": f"s{i % 3}"})
    ds = ray.data.from_items(rows)
    rates = {"s0": 1.0, "s1": 0.25, "s2": 0.0}
    got = sorted(
        r["doc_id"]
        for r in mixture_sample(
            ds, source_col="source", key_col="doc_id", rates=rates
        ).take_all()
    )
    thr = {"s0": "g0", "s1": format(64, "02x"), "s2": "00"}
    want = sorted(
        i
        for i in range(3000)
        if hashlib.md5(str(i).encode()).hexdigest()[:2] < thr[f"s{i % 3}"]
    )
    assert got == want
    kept_by_src = {
        s: sum(1 for i in got if i % 3 == int(s[1])) for s in rates
    }
    assert kept_by_src["s0"] == 1000          # rate 1.0: whole source
    assert kept_by_src["s2"] == 0             # rate 0.0: dropped
    assert 150 < kept_by_src["s1"] < 350      # ~25% of 1000
    # parallelism-invariant
    got2 = sorted(
        r["doc_id"]
        for r in mixture_sample(
            ds.repartition(11), source_col="source", key_col="doc_id",
            rates=rates,
        ).take_all()
    )
    assert got2 == got
    # unknown source falls back to default_rate
    extra = ray.data.from_items(
        [{"doc_id": i, "source": "mystery"} for i in range(100)]
    )
    assert (
        mixture_sample(
            extra, source_col="source", key_col="doc_id", rates=rates,
            default_rate=1.0,
        ).count()
        == 100
    )
    assert (
        mixture_sample(
            extra, source_col="source", key_col="doc_id", rates=rates
        ).count()
        == 0
    )


def test_hash_sample_deterministic_and_exact(ray_session):
    ids = [f"doc-{i:05d}" for i in range(2000)]
    tbl = pa.table({"doc_id": ids, "v": list(range(2000))})
    from crawlray.ops.relational import hash_sample

    ds = ray.data.from_arrow(tbl)
    got = sorted(r["doc_id"] for r in hash_sample(ds, "doc_id", 25).take_all())
    want = sorted(
        i for i in ids if hashlib.md5(i.encode()).hexdigest()[:2] < "19"
    )
    assert got == want
    # rate is ~25/256 of rows (binomial; loose bounds)
    assert 0.05 < len(want) / len(ids) < 0.15
    # repartitioned input yields the SAME kept set (parallelism-invariant)
    got2 = sorted(
        r["doc_id"]
        for r in hash_sample(ds.repartition(13), "doc_id", 25).take_all()
    )
    assert got2 == got


def test_hash_sample_edge_rates(ray_session):
    tbl = pa.table({"k": [str(i) for i in range(50)]})
    from crawlray.ops.relational import hash_sample

    ds = ray.data.from_arrow(tbl)
    assert hash_sample(ds, "k", 0).count() == 0
    assert hash_sample(ds, "k", 256).count() == 50
    # invert at both edges: the complement of keep-all is EMPTY and the
    # complement of keep-none is everything (the keep/invert pair must
    # partition the input exactly at every rate, including the edges)
    assert hash_sample(ds, "k", 256, invert=True).count() == 0
    assert hash_sample(ds, "k", 0, invert=True).count() == 50
    # schema survives the empty-complement path
    assert hash_sample(ds, "k", 256, invert=True).schema().names == ["k"]


def test_hash_sample_fast_invariant_and_consistent(ray_session):
    """Engine-native murmur3 variant: parallelism-invariant kept set,
    ~rate fraction kept, and consistent across tables sharing the key."""
    from crawlray.ops.relational import hash_sample_fast

    ids = [f"doc-{i:05d}" for i in range(4000)]
    a = pa.table({"doc_id": ids, "v": list(range(4000))})
    ds = ray.data.from_arrow(a)
    kept = sorted(
        r["doc_id"] for r in hash_sample_fast(ds, "doc_id", 0.1).take_all()
    )
    # rate ≈ 10% (binomial, loose bounds)
    assert 0.07 < len(kept) / len(ids) < 0.13
    # parallelism-invariant: same kept set under a different block layout
    kept2 = sorted(
        r["doc_id"]
        for r in hash_sample_fast(ds.repartition(17), "doc_id", 0.1).take_all()
    )
    assert kept2 == kept
    # cross-table consistency: another table sampled on the same key keeps
    # exactly the matching rows
    b = pa.table({"doc_id": ids, "w": [i * 2 for i in range(4000)]})
    kept_b = sorted(
        r["doc_id"]
        for r in hash_sample_fast(
            ray.data.from_arrow(b).repartition(5), "doc_id", 0.1
        ).take_all()
    )
    assert kept_b == kept
    # edge rates
    assert hash_sample_fast(ds, "doc_id", 0.0).count() == 0
    assert hash_sample_fast(ds, "doc_id", 1.0).count() == 4000
    # non-string key columns are cast, not crashed on
    c = pa.table({"k": list(range(1000))})
    n = hash_sample_fast(ray.data.from_arrow(c), "k", 0.5).count()
    assert 400 < n < 600


def test_session_windows_gap_semantics(ray_session):
    import datetime as dt

    import ray.data

    from crawlray.ops.relational import session_windows

    t0 = dt.datetime(2024, 1, 1)
    sec = dt.timedelta(seconds=1)
    # user 1: gaps 5s, exactly 10s (same session: > is strict), 11s (new)
    rows = [
        (1, t0), (1, t0 + 5 * sec), (1, t0 + 15 * sec), (1, t0 + 26 * sec),
        (2, t0),  # single event → one session
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        }
    )
    out = (
        session_windows(ray.data.from_arrow(tbl).repartition(3),
                        "user_id", "ts", gap_seconds=10)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    got = list(zip(out.user_id, out.session_id, out.n_events))
    assert got == [(1, 0, 3), (1, 1, 1), (2, 0, 1)]
    assert out.t_end[0] == t0 + 15 * sec


def test_grouped_topk_deterministic(ray_session):
    import ray.data

    from crawlray.ops.relational import grouped_topk

    tbl = pa.table(
        {
            "g": ["a"] * 5 + ["b"] * 3,
            "v": pa.array([3.0, 1.0, 3.0, 2.0, 5.0, 7.0, 7.0, 7.0]),
            "id": pa.array(list(range(8)), pa.int64()),
        }
    )
    out = (
        grouped_topk(ray.data.from_arrow(tbl).repartition(4), ["g"], "v", 2,
                     descending=True, tiebreak_col="id")
        .to_pandas().sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    got = list(zip(out.g, out.v, out.id))
    # group a: 5.0(id4), then tie 3.0 → smaller id wins (id0)
    # group b: all 7.0 → ids 5, 6
    assert got == [("a", 5.0, 4), ("a", 3.0, 0), ("b", 7.0, 5), ("b", 7.0, 6)]


def test_exact_quantiles_vs_numpy(ray_session):
    import numpy as np
    import ray.data

    from crawlray.ops.seqassign import exact_quantiles, rank_values

    rng = np.random.RandomState(3)
    vals = rng.rand(5000) * 100
    tbl = pa.table({"v": vals})
    ds = ray.data.from_arrow(tbl).repartition(11)
    got = exact_quantiles(ds, "v", [0.0, 0.25, 0.5, 0.9, 1.0])
    want = np.quantile(vals, [0.0, 0.25, 0.5, 0.9, 1.0])  # linear interp
    assert np.allclose(got, want, rtol=0, atol=1e-9)
    rv = rank_values(ds, "v", [0, 4999])
    assert rv[0] == vals.min() and rv[4999] == vals.max()


def test_lang_id_vectorized_matches_scalar(ray_session):
    """Vectorized lang_id must equal the scalar reference semantics:
    set(text.lower().split()[:200]) intersected with each stopword list."""
    import ray.data

    from crawlray.ops.textqa import _STOPWORDS, lang_id

    cases = [
        "", "  ", "The OF and A to in", "der und das ist ein",
        "le la les et est", "x " * 500 + "the of and a to in is it that for",
        "mixed the der le el y es und of", None,
        "tab\tthe\nof  and",
    ]
    tbl = pa.table({"doc_id": list(range(len(cases))), "text": cases})
    out = (
        lang_id(ray.data.from_arrow(tbl).repartition(3))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    for i, t in enumerate(cases):
        words = set((t or "").lower().split()[:200])
        best, best_n = "und", 0
        for lang, sw in _STOPWORDS.items():
            k = len(words & sw)
            if k > best_n:
                best, best_n = lang, k
        assert out.lang_pred[i] == best, (i, t)
        assert out.lang_score[i] == best_n, (i, t)


def test_session_windows_numeric_seconds(ray_session):
    """Numeric ts columns are seconds — not reinterpreted as µs (ADVICE r2)."""
    import pyarrow as pa
    import ray.data

    from crawlray.ops.relational import session_windows

    # gaps of 10s within sessions; 100s gap splits at t=300
    tbl = pa.table(
        {
            "uid": ["u"] * 6,
            "ts": pa.array([0.0, 10.0, 20.0, 300.0, 310.0, 320.0], pa.float64()),
        }
    )
    out = session_windows(ray.data.from_arrow(tbl), "uid", "ts", gap_seconds=30.0)
    rows = sorted(out.take_all(), key=lambda r: r["session_id"])
    assert len(rows) == 2
    assert rows[0]["n_events"] == 3 and rows[0]["t_start"] == 0.0
    assert rows[1]["n_events"] == 3 and rows[1]["t_start"] == 300.0

    # integer-typed timestamps behave the same
    tbl_i = pa.table({"uid": ["u"] * 4, "ts": pa.array([0, 10, 100, 105], pa.int64())})
    out_i = session_windows(ray.data.from_arrow(tbl_i), "uid", "ts", gap_seconds=30.0)
    assert sorted(r["n_events"] for r in out_i.take_all()) == [2, 2]


def test_hopping_window_agg_vs_bruteforce(ray_session):
    """Overlapping windows: every event lands in window/hop hop-aligned
    windows; counts and sums must match a brute-force reference."""
    import numpy as np
    import ray.data

    from crawlray.ops.relational import hopping_window_agg

    rng = np.random.default_rng(9)
    es = np.sort(rng.integers(10_000, 20_000, size=500)).astype(np.float64)
    vals = rng.normal(size=500)
    tbl = pa.table({"ts": es, "value": vals})
    w, h = 400, 100
    out = {
        r["window_start"]: (r["n"], r["total_value"])
        for r in hopping_window_agg(
            ray.data.from_arrow(tbl).repartition(7), "ts", "value", w, h
        ).take_all()
    }
    # brute force
    want: dict = {}
    for t, v in zip(es.astype(np.int64), vals):
        k1 = t // h
        k0 = (t - w) // h + 1
        for k in range(k0, k1 + 1):
            n, s = want.get(k * h, (0, 0.0))
            want[k * h] = (n + 1, s + v)
    assert set(out) == set(want)
    for ws, (n, s) in want.items():
        assert out[ws][0] == n
        assert abs(out[ws][1] - s) < 1e-9
    # every event appears in exactly w/h windows
    assert sum(n for n, _ in out.values()) == 500 * (w // h)


def test_hopping_window_agg_rejects_bad_params(ray_session):
    import ray.data

    from crawlray.ops.relational import hopping_window_agg

    ds = ray.data.from_arrow(pa.table({"ts": [1.0], "value": [1.0]}))
    import pytest

    with pytest.raises(ValueError):
        hopping_window_agg(ds, "ts", "value", 350, 100)  # w % h != 0


def test_bpe_token_count_adversarial_vs_duckdb(ray_session):
    """Exercise every branch of the BPE-ish pattern (contractions, digit
    runs, punctuation runs, multi-space) and require exact agreement
    between Arrow's RE2 count and DuckDB's regexp_extract_all."""
    import duckdb
    import ray.data

    from crawlray.ops.textqa import BPE_TOKEN_PATTERN, bpe_token_count

    cases = [
        "it's we'll they've you're don't",
        "abc 123 42x7",
        "hello, world!!! (parens) [brackets]",
        "  leading  and   multiple    spaces ",
        "MiXeD CaSe And CamelCase",
        "",
        "...",
        "a'b'c",
    ]
    tbl = pa.table({"doc_id": list(range(len(cases))), "text": cases})
    got = {
        r["doc_id"]: r["n_bpe_tokens"]
        for r in bpe_token_count(ray.data.from_arrow(tbl).repartition(3)).take_all()
    }
    con = duckdb.connect()
    sql_pat = BPE_TOKEN_PATTERN.replace("'", "''")
    for i, t in enumerate(cases):
        (want,) = con.execute(
            f"SELECT len(regexp_extract_all(?, '{sql_pat}'))", [t]
        ).fetchone()
        assert got[i] == want, (i, t, got[i], want)
    # sanity: contractions count as separate tokens
    assert got[0] > 5


def test_bloom_semi_anti_exact(ray_session):
    """Bloom pre-filtered semi/anti joins are EXACT (candidates verified,
    rejections have no false negatives) even with a tiny filter that
    forces many false positives."""
    import numpy as np
    import ray.data

    from crawlray.ops.relational import bloom_semi_join

    rng = np.random.RandomState(2)
    lkeys = rng.randint(0, 5000, 4000).astype("int64")
    rkeys = rng.choice(np.arange(0, 5000, 3), 400, replace=False).astype(
        "int64"
    )
    left = ray.data.from_arrow(
        pa.table({"k": lkeys, "payload": np.arange(4000, dtype="int64")})
    ).repartition(5)
    right = ray.data.from_arrow(pa.table({"k": rkeys})).repartition(3)
    rset = set(rkeys.tolist())
    want_semi = sorted(p for k, p in zip(lkeys, range(4000)) if k in rset)
    want_anti = sorted(p for k, p in zip(lkeys, range(4000)) if k not in rset)

    # num_bits=64 → filter saturates → max false positives; still exact
    for bits in (64, 1 << 16):
        semi = bloom_semi_join(left, right, "k", num_bits=bits)
        got = sorted(r["payload"] for r in semi.take_all())
        assert got == want_semi, f"semi mismatch at num_bits={bits}"
        anti = bloom_semi_join(left, right, "k", anti=True, num_bits=bits)
        got = sorted(r["payload"] for r in anti.take_all())
        assert got == want_anti, f"anti mismatch at num_bits={bits}"

    # right_is_distinct skips the internal dedup exchange; with an
    # already-distinct right side the results are identical
    semi = bloom_semi_join(left, right, "k", right_is_distinct=True)
    assert sorted(r["payload"] for r in semi.take_all()) == want_semi
    anti = bloom_semi_join(
        left, right, "k", anti=True, right_is_distinct=True
    )
    assert sorted(r["payload"] for r in anti.take_all()) == want_anti


def test_weighted_sample_bias_and_determinism(ray_session):
    """Heavier rows must be sampled far more often, and the kept set is a
    pure function of the data (parallelism-invariant)."""
    import ray.data

    from crawlray.ops.relational import weighted_sample

    n = 2000
    w = [1000.0 if i < 100 else 1.0 for i in range(n)]
    tbl = pa.table({"id": list(range(n)), "w": w})
    ds = ray.data.from_arrow(tbl)
    got = sorted(r["id"] for r in weighted_sample(ds, "id", "w", 100).take_all())
    heavy = sum(1 for i in got if i < 100)
    assert heavy > 60  # 100 heavy rows hold >90% of total weight
    got2 = sorted(
        r["id"]
        for r in weighted_sample(ds.repartition(11), "id", "w", 100).take_all()
    )
    assert got2 == got


def test_quality_score_actor_pool(ray_session):
    """Actor-pool model inference: scores in (0,1), deterministic across
    parallelism, monotone in the period-density feature."""
    import math

    import ray.data

    from crawlray.ops.textqa import quality_score

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "plain words with no periods at all",
                    "short. sentences. every. word. ends.",
                    "x",
                ]
            ),
        }
    )
    ds = ray.data.from_arrow(docs)
    got = {r["doc_id"]: r["quality"] for r in quality_score(ds).take_all()}
    assert all(0.0 < v < 1.0 for v in got.values())
    assert got[2] > got[1]  # period density pushes quality up
    got2 = {
        r["doc_id"]: r["quality"]
        for r in quality_score(ds.repartition(3)).take_all()
    }
    assert got2 == got
    # spot-check one score against the closed form
    t = "plain words with no periods at all"
    nc, nt, npd = len(t), len(t.split(" ")), len(t) - len(t.replace(".", ""))
    z = -1.0 + 0.002 * nc - 0.01 * nt + 0.3 * (nc / nt) + 5.0 * (npd / nc)
    assert abs(got[1] - round(1 / (1 + math.exp(-z)), 6)) < 1e-9


def test_grouped_count_hash_equals_ray_groupby(ray_session):
    """The hash-exchange grouped count (`exchange.aggregate`) ≡ Ray's
    groupby().count() on mixed-type keys (int + string), at any
    parallelism, including the single-key form."""
    import numpy as np
    import ray.data
    from ray.data.aggregate import Count

    from crawlray.ops.exchange import aggregate

    rng = np.random.RandomState(7)
    n = 5000
    tbl = pa.table(
        {
            "uid": pa.array(rng.randint(0, 40, n), pa.int64()),
            "tok": pa.array([f"t{v}" for v in rng.randint(0, 25, n)]),
        }
    )
    for parts in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        got = {
            (r["uid"], r["tok"]): r["n"]
            for r in aggregate(ds, ["uid", "tok"], {"n": (None, "count")}).take_all()
        }
        want = {
            (r["uid"], r["tok"]): r["count()"]
            for r in ds.groupby(["uid", "tok"]).count().take_all()
        }
        assert got == want
        got1 = {
            r["tok"]: r["n"]
            for r in aggregate(ds, ["tok"], {"n": (None, "count")}).take_all()
        }
        want1 = {
            r["tok"]: r["cnt"]
            for r in ds.groupby("tok").aggregate(Count(alias_name="cnt")).take_all()
        }
        assert got1 == want1


def test_hash_split_is_exhaustive_disjoint_and_matches_hash_sample(ray_session):
    import pyarrow as pa
    import ray.data

    from crawlray.ops.relational import hash_sample, hash_split

    tbl = pa.table({"k": pa.array(range(2000), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(7)
    out = hash_split(ds, key="k", splits=[("train", 205), ("val", 25), ("test", 26)])
    t = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")]
    )
    assert t.num_rows == 2000  # exhaustive: every row labeled exactly once
    lab = dict(zip(t.column("k").to_pylist(), t.column("split").to_pylist()))
    assert len(lab) == 2000
    # split[0] must equal hash_sample's kept set at the same bucket count
    kept = {
        r["k"]
        for b in hash_sample(ds, key="k", buckets_kept=205).iter_batches(
            batch_format="pyarrow"
        )
        for r in pa.table(b).to_pylist()
    }
    assert {k for k, v in lab.items() if v == "train"} == kept
    # all three labels occur at realistic proportions
    from collections import Counter

    c = Counter(lab.values())
    assert set(c) == {"train", "val", "test"}
    assert c["train"] > c["val"] and c["train"] > c["test"]


def test_hash_split_murmur3_variant_and_validation(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data

    from crawlray.ops.relational import hash_split

    tbl = pa.table({"k": pa.array(range(500), pa.int64())})
    ds = ray.data.from_arrow(tbl)
    a = hash_split(ds, "k", [("a", 128), ("b", 128)], hash_fn="murmur3")
    b = hash_split(
        ray.data.from_arrow(tbl).repartition(11),
        "k",
        [("a", 128), ("b", 128)],
        hash_fn="murmur3",
    )
    la = sorted(
        (r["k"], r["split"])
        for batch in a.iter_batches(batch_format="pyarrow")
        for r in pa.table(batch).to_pylist()
    )
    lb = sorted(
        (r["k"], r["split"])
        for batch in b.iter_batches(batch_format="pyarrow")
        for r in pa.table(batch).to_pylist()
    )
    assert la == lb and len(la) == 500  # parallelism-invariant
    assert {s for _, s in la} == {"a", "b"}
    with pytest.raises(ValueError):
        hash_split(ds, "k", [("a", 100)])  # doesn't sum to 256
    with pytest.raises(ValueError):
        hash_split(ds, "k", [("a", 256)], hash_fn="sha1")


def test_grouping_sets_cube_rollup_match_duckdb(ray_session):
    """cube_agg / rollup_agg / an arbitrary GROUPING SETS selection vs
    DuckDB on the driver's lineitem parquet (integer-valued sums, so the
    distributive re-aggregation is exact)."""
    import duckdb

    from crawlray.ops.relational import (
        cube_agg,
        grouping_sets_agg,
        rollup_agg,
    )

    P = "/root/testdata/sf0.001/lineitem.parquet"
    ds = ray.data.read_parquet(
        P, columns=["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def norm(rows):
        return sorted(
            (
                r["l_returnflag"],
                r["l_linestatus"],
                r["n"],
                round(r["sum_v"], 2),
            )
            for r in rows
        )

    def oracle(clause):
        return norm(
            duckdb.sql(
                f"""
                SELECT COALESCE(l_returnflag, '(all)') AS l_returnflag,
                       COALESCE(l_linestatus, '(all)') AS l_linestatus,
                       COUNT(*) AS n, ROUND(SUM(l_quantity), 2) AS sum_v
                FROM '{P}' GROUP BY {clause}
                """
            ).df().to_dict("records")
        )

    keys = ["l_returnflag", "l_linestatus"]
    assert norm(cube_agg(ds, keys, "l_quantity").take_all()) == oracle(
        "CUBE(l_returnflag, l_linestatus)"
    )
    assert norm(rollup_agg(ds, keys, "l_quantity").take_all()) == oracle(
        "ROLLUP(l_returnflag, l_linestatus)"
    )
    # arbitrary sets: neither includes l_returnflag, so the oracle pads
    # it directly (DuckDB forbids selecting an ungrouped column)
    want_sets = norm(
        duckdb.sql(
            f"""
            SELECT '(all)' AS l_returnflag,
                   COALESCE(l_linestatus, '(all)') AS l_linestatus,
                   COUNT(*) AS n, ROUND(SUM(l_quantity), 2) AS sum_v
            FROM '{P}' GROUP BY GROUPING SETS ((l_linestatus), ())
            """
        ).df().to_dict("records")
    )
    assert norm(
        grouping_sets_agg(
            ds, keys, "l_quantity", [("l_linestatus",), ()]
        ).take_all()
    ) == want_sets


@pytest.mark.parametrize("rows", [0, 6])
def test_grouping_sets_and_rollup_match_duckdb_on_empty_and_null_keys(ray_session, rows):
    """A typed 0-row input still gives the grand-total row, with n = 0 as
    SQL's COUNT(*) and a null sum; a null key value is a group of its
    own, apart from the '(all)' of a key its set leaves out."""
    import duckdb

    from crawlray.ops.relational import grouping_sets_agg, rollup_agg

    t = pa.table({"a": pa.array(["x", None, "x", "y", None, "y"]),
                  "b": pa.array(["p", "q", None, "p", "q", "q"]),
                  "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64())}).slice(0, rows)
    ds = ray.data.from_arrow(t)

    def got(out):
        return sorted(((r["a"], r["b"], r["n"], r["sum_v"]) for r in out.take_all()), key=repr)

    def want(clause):
        return sorted(duckdb.sql(f"""
            SELECT CASE WHEN GROUPING(a) = 1 THEN '(all)' ELSE a END,
                   CASE WHEN GROUPING(b) = 1 THEN '(all)' ELSE b END,
                   COUNT(*), SUM(v)
            FROM t GROUP BY {clause}""").fetchall(), key=repr)

    sets = [("a",), ("a", "b"), ()]
    assert got(grouping_sets_agg(ds, ["a", "b"], "v", sets)) == want(
        "GROUPING SETS ((a), (a, b), ())")
    assert got(rollup_agg(ds, ["a", "b"], "v")) == want("ROLLUP (a, b)")


def test_epoch_mixture_deterministic_copies(ray_session):
    """Fractional-epoch repeat: e=2.0 -> exactly 2 copies of every row
    (epochs 0,1); e=0.0 drops; e=2.5 -> a deterministic ~half get a 3rd
    copy; copy sets are parallelism-invariant and key-consistent."""
    import hashlib

    from crawlray.ops.relational import epoch_mixture

    rows = [
        {"k": i, "src": s}
        for i in range(400)
        for s in ("whole", "none", "frac")
    ]
    eps = {"whole": 2.0, "none": 0.0, "frac": 2.5}
    ds = ray.data.from_items(rows)

    def collect(d):
        out = {}
        for r in epoch_mixture(
            d, source_col="src", key_col="k", epochs=eps
        ).take_all():
            out.setdefault((r["src"], r["k"]), []).append(r["epoch"])
        return {k: sorted(v) for k, v in out.items()}

    got = collect(ds)
    assert all(v == [0, 1] for (s, _), v in got.items() if s == "whole")
    assert len([1 for (s, _) in got if s == "whole"]) == 400
    assert not any(s == "none" for (s, _) in got)
    fr = [v for (s, _), v in got.items() if s == "frac"]
    assert len(fr) == 400
    n3 = sum(1 for v in fr if v == [0, 1, 2])
    assert all(v in ([0, 1], [0, 1, 2]) for v in fr)
    assert 120 < n3 < 280  # ~50% of 400, md5-bucket spread
    # exact per-key rule: 3rd copy iff md5(k) prefix < '80'
    for (s, k), v in got.items():
        if s == "frac":
            want = hashlib.md5(str(k).encode()).hexdigest()[:2] < "80"
            assert (len(v) == 3) == want
    assert collect(ds.repartition(7)) == got


def test_moments_matches_numpy_and_is_block_invariant(ray_session):
    """Distributed Chan-combine moments == numpy's exact single-pass
    answer (rtol 1e-12) regardless of block layout; NULL rows skipped
    pairwise like SQL aggregates; repeated runs bit-identical (sorted
    partial fold)."""
    import numpy as np

    from crawlray.ops.relational import moments

    rng = np.random.default_rng(7)
    n = 5000
    x = rng.normal(50_000.0, 30_000.0, n)
    y = 0.3 * x + rng.normal(0.0, 10_000.0, n)
    xl = [None if i % 97 == 0 else float(v) for i, v in enumerate(x)]
    yl = [float(v) for v in y]
    mask = np.array([v is not None for v in xl])
    xv, yv = x[mask], y[mask]

    want_std_x = float(np.std(xv, ddof=1))
    want_std_y = float(np.std(yv, ddof=1))
    want_corr = float(np.corrcoef(xv, yv)[0, 1])

    outs = []
    for blocks in (1, 7, 64):
        ds = ray.data.from_arrow(
            pa.table({"x": pa.array(xl, pa.float64()), "y": yl})
        ).repartition(blocks)
        mo = moments(ds, "x", "y")
        assert mo["n"] == mask.sum()
        np.testing.assert_allclose(mo["std_x"], want_std_x, rtol=1e-12)
        np.testing.assert_allclose(mo["std_y"], want_std_y, rtol=1e-12)
        np.testing.assert_allclose(mo["corr_xy"], want_corr, rtol=1e-12)
        outs.append(moments(ds, "x", "y"))
        assert outs[-1] == mo, "same layout must be bit-identical"

    # single-column form
    mo1 = moments(
        ray.data.from_arrow(pa.table({"x": pa.array(xl, pa.float64())})),
        "x",
    )
    np.testing.assert_allclose(mo1["std_x"], want_std_x, rtol=1e-12)
    assert "mean_y" not in mo1


def test_grouped_sum_hash_equals_pandas(ray_session):
    """SUM+COUNT per key via the hash exchange (`exchange.aggregate`) ==
    pandas groupby, at two block layouts (partial/merge split must be
    layout-invariant)."""
    import numpy as np
    import pandas as pd

    from crawlray.ops.exchange import aggregate

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "k": [f"key{i}" for i in rng.randint(0, 40, 5000)],
            "v": rng.randint(-1000, 1000, 5000).astype("int64"),
        }
    )
    want = (
        df.groupby("k")
        .agg(s=("v", "sum"), n=("v", "size"))
        .reset_index()
        .sort_values("k")
        .reset_index(drop=True)
    )
    for nblocks in (1, 13):
        got = (
            aggregate(
                ray.data.from_pandas(df).repartition(nblocks),
                ["k"],
                {"s": ("v", "sum"), "n": (None, "count")},
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # the output holds the keys and the requested aggregates only
    got2 = aggregate(ray.data.from_pandas(df), ["k"], {"s": ("v", "sum")}).to_pandas()
    assert list(got2.columns) == ["k", "s"]


def test_bloom_semi_anti_degenerate_inputs(ray_session):
    """Round 5: empty-right / zero-overlap / empty-left must not crash
    Ray's hash-shuffle join (its aggregator finalizes schema-less empty
    partitions when one side routes zero rows everywhere) — the
    no-candidate short-circuit answers them exactly. This is the
    clean-corpus decontaminate regime."""
    import ray.data

    from crawlray.ops.relational import bloom_semi_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    )
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    disjoint = ray.data.from_arrow(
        pa.table({"k": pa.array([99, 100], pa.int64())})
    )

    # empty right: semi -> nothing, anti -> everything
    assert bloom_semi_join(left, empty, key="k").take_all() == []
    assert sorted(
        r["k"] for r in bloom_semi_join(left, empty, key="k", anti=True).take_all()
    ) == [1, 2, 3]

    # zero overlap: same answers, bloom rejects every left row
    assert bloom_semi_join(left, disjoint, key="k").take_all() == []
    assert sorted(
        r["k"]
        for r in bloom_semi_join(left, disjoint, key="k", anti=True).take_all()
    ) == [1, 2, 3]

    # empty left: both modes empty
    assert bloom_semi_join(empty, left, key="k").take_all() == []
    assert bloom_semi_join(empty, left, key="k", anti=True).take_all() == []

    # sanity: the non-degenerate path still verifies exactly
    some = ray.data.from_arrow(pa.table({"k": pa.array([2, 99], pa.int64())}))
    assert sorted(
        r["k"] for r in bloom_semi_join(left, some, key="k").take_all()
    ) == [2]
    assert sorted(
        r["k"] for r in bloom_semi_join(left, some, key="k", anti=True).take_all()
    ) == [1, 3]
