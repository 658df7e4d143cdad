"""pack_sequences and decontaminate vs DuckDB on the driver's parquet."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _sort_into(monkeypatch, partitions):
    """Make corpusprep's `exchange.sort` cut `partitions` partitions (its
    own sizing when None). Returns the list it appends each sort's
    block count to."""
    from crawlray.ops import corpusprep, exchange

    if partitions:
        monkeypatch.setattr(exchange, "partition_count", lambda *ds: partitions)
    blocks = []

    def _sort(ds, keys):
        out = exchange.sort(ds, keys)
        blocks.append(out.num_blocks())
        return out

    monkeypatch.setattr(corpusprep, "sort", _sort)
    return blocks


@pytest.mark.parametrize("partitions", [None, 1, 7, 33])
def test_pack_sequences_matches_window_oracle(ray_session, monkeypatch, partitions):
    """Running totals carried across sort partitions: at 33 partitions
    every source spans two or three of them."""
    from crawlray.ops.corpusprep import pack_sequences

    blocks = _sort_into(monkeypatch, partitions)
    kwargs = {}
    if partitions:
        kwargs["override_num_blocks"] = partitions
    ds = ray.data.read_parquet(
        DOCS, columns=["source", "doc_id", "text"], **kwargs
    )
    got = pack_sequences(ds, budget=256).to_pandas()
    if partitions:
        assert blocks == [partitions]
    want = duckdb.sql(
        f"""
        SELECT source, doc_id, n_tokens,
               CAST(SUM(n_tokens) OVER w AS BIGINT) AS cum_tokens,
               CAST((SUM(n_tokens) OVER w - n_tokens) // 256 AS BIGINT)
                   AS pack_id
        FROM (SELECT source, doc_id, LEN(str_split(text, ' ')) AS n_tokens
              FROM '{DOCS}')
        WINDOW w AS (PARTITION BY source ORDER BY doc_id)
        """
    ).df()
    assert len(got) == len(want) > 0
    assert want["pack_id"].max() >= 2  # multiple packs actually exercised
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def test_word_ngrams_matches_unnest_oracle(ray_session):
    from crawlray.ops.corpusprep import word_ngrams

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    got = word_ngrams(ds, n=8).to_pandas()
    want = duckdb.sql(
        f"""
        WITH toks AS (SELECT doc_id, str_split(text, ' ') AS t FROM '{DOCS}')
        SELECT doc_id, array_to_string(t[i:i+7], ' ') AS gram
        FROM toks, UNNEST(range(1, GREATEST(LEN(t)-7, 0)+1)) AS u(i)
        """
    ).df()
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def test_decontaminate_matches_join_oracle(ray_session):
    from crawlray.ops.corpusprep import decontaminate
    from crawlray.ops.relational import hash_sample

    docs = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    bench = hash_sample(docs, key="doc_id", buckets_kept=16)
    cand = hash_sample(docs, key="doc_id", buckets_kept=16, invert=True)
    got = decontaminate(cand, bench, n=8).to_pandas()
    want = duckdb.sql(
        f"""
        WITH toks AS (SELECT doc_id, str_split(text, ' ') AS t FROM '{DOCS}'),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+7], ' ') AS g
          FROM toks, UNNEST(range(1, GREATEST(LEN(t)-7, 0)+1)) AS u(i)
        ),
        bench AS (SELECT DISTINCT g FROM grams
                  WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '10'),
        cand AS (SELECT DISTINCT doc_id, g FROM grams
                 WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) >= '10')
        SELECT cand.doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
        FROM cand JOIN bench USING (g)
        GROUP BY cand.doc_id
        """
    ).df()
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def _next_fit_ref(sizes, budget):
    """Sequential-greedy reference for pack_bins."""
    out, f, b = [], None, -1
    for t in sizes:
        if f is not None and f + t <= budget:
            f += t
        else:
            b += 1
            f = t
        out.append(b)
    return out


def test_pack_bins_crafted_cases(ray_session):
    from crawlray.ops.corpusprep import pack_bins

    rows = [
        # source a: sizes 3,3,3 with budget 7 -> bins 0,0,1
        {"doc_id": 0, "source": "a", "text": "x x x"},
        {"doc_id": 1, "source": "a", "text": "x x x"},
        {"doc_id": 2, "source": "a", "text": "x x x"},
        # source b: oversize doc (9 > 7) alone, then 2+2 share
        {"doc_id": 3, "source": "b", "text": "x x x x x x x x x"},
        {"doc_id": 4, "source": "b", "text": "x x"},
        {"doc_id": 5, "source": "b", "text": "x x"},
        # source c: single doc
        {"doc_id": 6, "source": "c", "text": "x"},
    ]
    got = (
        pack_bins(ray.data.from_items(rows), budget=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.bin_id.tolist() == [0, 0, 1, 0, 1, 1, 0]
    assert got.n_tokens.tolist() == [3, 3, 3, 9, 2, 2, 1]


@pytest.mark.parametrize("partitions,one_source", [
    pytest.param(None, False, id="None"),
    pytest.param(1, False, id="1"),
    pytest.param(7, False, id="7"),
    pytest.param(33, False, id="33"),
    pytest.param(5, True, id="one_source"),
])
def test_pack_bins_matches_sequential_reference(ray_session, monkeypatch, partitions, one_source):
    """Bin state carried across sort partitions is the hard part: bins
    spanning a partition boundary must land exactly where the sequential
    greedy puts them, at every partition count, and when one source's
    bins cross every partition."""
    from crawlray.ops.corpusprep import pack_bins

    blocks = _sort_into(monkeypatch, partitions)
    t = pq.read_table(DOCS, columns=["source", "doc_id", "text"])
    if one_source:
        t = t.set_column(0, "source", pa.array(["one"] * t.num_rows))
    ds = ray.data.from_arrow(t).repartition(partitions or 7)
    got = (
        pack_bins(ds, budget=256)
        .to_pandas()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    if partitions:
        assert blocks == [partitions]
    base = t.to_pandas().sort_values(["source", "doc_id"])
    base["n"] = base.text.str.split(" ").str.len()
    want = []
    for _, grp in base.groupby("source", sort=True):
        want.extend(_next_fit_ref(grp.n.tolist(), 256))
    assert got.bin_id.tolist() == want
    assert got.n_tokens.tolist() == base.n.tolist()
    assert max(want) >= 2  # multiple bins actually exercised


def test_pack_bins_matches_recursive_cte_oracle(ray_session):
    """The driver oracle in miniature: DuckDB recursive CTE walking the
    same per-source greedy, one step per document."""
    from crawlray.ops.corpusprep import pack_bins

    ds = ray.data.read_parquet(DOCS, columns=["source", "doc_id", "text"])
    got = pack_bins(ds, budget=256).to_pandas()
    want = duckdb.sql(
        f"""
        WITH RECURSIVE toks AS (
            SELECT source, doc_id, LEN(str_split(text, ' ')) AS n
            FROM '{DOCS}'
        ),
        d AS (
            SELECT source, list(n ORDER BY doc_id) AS sz,
                   list(doc_id ORDER BY doc_id) AS ids
            FROM toks GROUP BY source
        ),
        w AS (
            SELECT source, sz, ids, 1 AS i, CAST(0 AS BIGINT) AS bin,
                   CAST(sz[1] AS BIGINT) AS fill
            FROM d WHERE len(sz) >= 1
            UNION ALL
            SELECT source, sz, ids, i + 1,
                   CASE WHEN fill + sz[i+1] <= 256 THEN bin
                        ELSE bin + 1 END,
                   CAST(CASE WHEN fill + sz[i+1] <= 256
                             THEN fill + sz[i+1]
                             ELSE sz[i+1] END AS BIGINT)
            FROM w WHERE i < len(sz)
        )
        SELECT source, ids[i] AS doc_id, CAST(sz[i] AS BIGINT) AS n_tokens,
               bin AS bin_id
        FROM w
        """
    ).df()
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def test_paragraph_dedup_keeps_first_occurrence(ray_session):
    from crawlray.ops.corpusprep import paragraph_dedup

    rows = [
        {"doc_id": 0, "text": "HEADER | body zero | FOOTER"},
        {"doc_id": 1, "text": "HEADER | body one | FOOTER"},
        {"doc_id": 2, "text": "HEADER | body two | FOOTER | body two"},
        {"doc_id": 3, "text": "solo paragraph no separator"},
    ]
    got = sorted(
        (r["doc_id"], r["pos"], r["paragraph"])
        for r in paragraph_dedup(ray.data.from_items(rows)).take_all()
    )
    # HEADER survives once at its global-min (doc_id, pos); FOOTER too;
    # the within-doc repeat of 'body two' (doc 2, pos 3) is dropped
    assert got == [
        (0, 0, "HEADER"),
        (0, 1, "body zero"),
        (0, 2, "FOOTER"),
        (1, 1, "body one"),
        (2, 1, "body two"),
        (3, 0, "solo paragraph no separator"),
    ]
    # parallelism-invariant kept set
    got2 = sorted(
        (r["doc_id"], r["pos"], r["paragraph"])
        for r in paragraph_dedup(
            ray.data.from_items(rows).repartition(5)
        ).take_all()
    )
    assert got2 == got


def test_paragraph_dedup_matches_duckdb(ray_session):
    """Planted boilerplate over the real corpus vs the keep-first window
    oracle (the driver query in miniature)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from crawlray.ops.corpusprep import paragraph_dedup

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "source", "text"])

    def _plant(b):
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": pc.binary_join_element_wise(
                    "BOILER", b.column("text"), b.column("source"), " | "
                ),
            }
        )

    got = (
        paragraph_dedup(ds.map_batches(_plant, batch_format="pyarrow"))
        .to_pandas()
    )
    want = duckdb.sql(
        f"""
        WITH aug AS (SELECT doc_id,
                            'BOILER | ' || text || ' | ' || source AS text
                     FROM '{DOCS}'),
        ps AS (SELECT doc_id, str_split(text, ' | ') AS p FROM aug),
        pars AS (SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos, p[i] AS paragraph
                 FROM ps, UNNEST(range(1, LEN(p)+1)) AS u(i))
        SELECT doc_id, pos, paragraph FROM pars
        QUALIFY ROW_NUMBER() OVER (PARTITION BY paragraph
                                   ORDER BY doc_id, pos) = 1
        """
    ).df()
    n_docs = pq.read_metadata(DOCS).num_rows
    assert len(got) == len(want) > 0
    assert len(want) < 3 * n_docs  # dedup actually dropped repeats
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def test_redact_pii_counts_and_replaces(ray_session):
    from crawlray.ops.corpusprep import redact_pii

    rows = [
        {"doc_id": 0, "text": "mail a@b.com and c.d+e@f-g.org end"},
        {"doc_id": 1, "text": "ip 10.0.3.254 then 192.168.1.1 ssn 123-45-6789"},
        {"doc_id": 2, "text": "clean text with no pii at all"},
        {"doc_id": 3, "text": "x@y.z is not an email; 1.2.3.4 is an ip"},
        {"doc_id": 4, "text": ""},
    ]
    got = (
        redact_pii(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.n_emails.tolist() == [2, 0, 0, 0, 0]
    assert got.n_ips.tolist() == [0, 2, 0, 1, 0]
    assert got.n_ids.tolist() == [0, 1, 0, 0, 0]
    assert got.text[0] == "mail <EMAIL> and <EMAIL> end"
    assert got.text[1] == "ip <IP> then <IP> ssn <ID>"
    assert got.text[2] == rows[2]["text"]  # untouched
    assert got.text[3] == "x@y.z is not an email; <IP> is an ip"
    assert got.text[4] == ""
    # original column set preserved + one count column per pattern
    assert list(got.columns) == ["doc_id", "text", "n_emails", "n_ips",
                                 "n_ids"]


def test_redact_pii_matches_duckdb_regex_chain(ray_session):
    """Same sequential count-then-replace chain in DuckDB (both engines
    are RE2) over real corpus text with planted PII — the driver query's
    oracle in miniature."""
    from crawlray.ops.corpusprep import DEFAULT_PII_PATTERNS, redact_pii

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])

    def _plant(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        s = pc.cast(b.column("doc_id"), pa.string())
        extra = pc.binary_join_element_wise(
            "u", s, "@ex.org 10.1.2.3 111-22-3333", ""
        )
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": pc.binary_join_element_wise(
                    b.column("text"), extra, " "
                ),
            }
        )

    got = redact_pii(ds.map_batches(_plant, batch_format="pyarrow")).to_pandas()
    (_, p_em, _), (_, p_ip, _), (_, p_id, _) = DEFAULT_PII_PATTERNS
    want = duckdb.sql(
        f"""
        WITH aug AS (SELECT doc_id,
                            text || ' u' || CAST(doc_id AS VARCHAR)
                                 || '@ex.org 10.1.2.3 111-22-3333' AS text
                     FROM '{DOCS}'),
        s1 AS (SELECT doc_id,
                      CAST(len(regexp_extract_all(text, '{p_em}')) AS BIGINT)
                          AS n_emails,
                      regexp_replace(text, '{p_em}', '<EMAIL>', 'g') AS text
               FROM aug),
        s2 AS (SELECT doc_id, n_emails,
                      CAST(len(regexp_extract_all(text, '{p_ip}')) AS BIGINT)
                          AS n_ips,
                      regexp_replace(text, '{p_ip}', '<IP>', 'g') AS text
               FROM s1)
        SELECT doc_id,
               regexp_replace(text, '{p_id}', '<ID>', 'g') AS text,
               n_emails, n_ips,
               CAST(len(regexp_extract_all(text, '{p_id}')) AS BIGINT)
                   AS n_ids
        FROM s2
        """
    ).df()
    assert len(got) == len(want) > 0
    assert (want.n_emails > 0).all() and (want.n_ips > 0).all()
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def test_corpus_prep_chain_end_to_end(ray_session):
    """The full corpus-prep chain composes as one lazy Dataset pipeline:
    mixture-downsample → PII-redact → paragraph-dedup → re-pack the
    surviving paragraphs per doc. Asserts each stage's effect is visible
    in the final output and the whole chain is parallelism-invariant."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from crawlray.ops.corpusprep import paragraph_dedup, redact_pii
    from crawlray.ops.relational import mixture_sample

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "source", "text"])

    def run(ds):
        mixed = mixture_sample(
            ds, source_col="source", key_col="doc_id",
            rates={}, default_rate=0.5,
        )

        def _plant(b):
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "text": pc.binary_join_element_wise(
                        "BOILER mail me at x@y.org",
                        b.column("text"),
                        " | ",
                    ),
                }
            )

        red = redact_pii(
            mixed.map_batches(_plant, batch_format="pyarrow")
        ).drop_columns(["n_ips", "n_ids"])
        return paragraph_dedup(red, id_col="doc_id", text_col="text")

    got = sorted(
        (r["doc_id"], r["pos"], r["paragraph"]) for r in run(ds).take_all()
    )
    boiler_rows = [g for g in got if g[2].startswith("BOILER")]
    assert len(boiler_rows) == 1  # dedup kept the planted boilerplate once
    assert boiler_rows[0][2] == "BOILER mail me at <EMAIL>"  # redacted
    assert {g[0] for g in got}  # mixture kept a nonempty subset
    got2 = sorted(
        (r["doc_id"], r["pos"], r["paragraph"])
        for r in run(ds.repartition(7)).take_all()
    )
    assert got2 == got


def test_hash_sample_invert_partitions_exactly(ray_session):
    from crawlray.ops.relational import hash_sample

    docs = ray.data.read_parquet(DOCS, columns=["doc_id"])
    total = pq.read_metadata(DOCS).num_rows
    kept = hash_sample(docs, key="doc_id", buckets_kept=16).count()
    dropped = hash_sample(
        docs, key="doc_id", buckets_kept=16, invert=True
    ).count()
    assert kept + dropped == total
    assert kept > 0 and dropped > 0


def test_dup_spans_hand_cases(ray_session):
    """Within-doc repeats, cross-doc repeats, overlapping-island merge and
    clean docs, each hand-checked. n=3, min_count=2."""
    from crawlray.ops.corpusprep import dup_spans

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                # within-doc repeat of "a b c": grams at pos 0 and 4 (gap 4
                # > n=3 would split; here gap is 4-0=4 > 3 → two islands?
                # tokens: a b c x a b c  → gram "a b c" at pos 0 and 4,
                # gap 4 > 3 → two separate spans [0,3) and [4,7)
                "a b c x a b c",
                # cross-doc: shares "p q r" with doc 3 at pos 1
                "z p q r z2",
                # overlapping islands: "p q r" (pos 0) dup'd with doc 2;
                # "q r s" unique; "m m m" grams: tokens m m m m m →
                # grams at 0,1,2 all "m m m" (count 3) → merged [0,5)
                "p q r s t",
                "m m m m m",
            ],
        }
    )
    ds = ray.data.from_pandas(docs).repartition(3)
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_dup_grams"])
        for r in dup_spans(ds, n=3).take_all()
    )
    assert got == [
        (1, 0, 3, 1),
        (1, 4, 7, 1),
        (2, 1, 4, 1),
        (3, 0, 3, 1),
        (4, 0, 5, 3),
    ]


def test_span_ops_on_corpus_without_repeats_are_typed(ray_session):
    """No gram repeats inside the corpus or reaches the benchmark: both
    span ops return a typed 0-row result (the island merge runs on empty
    partitions instead of indexing past their end)."""
    import pyarrow as pa

    from crawlray.ops.corpusprep import decontaminate_spans, dup_spans

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": [1, 2], "text": ["a b c d e f g", "h i j k l m n"]}
        )
    )
    bench = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [9], "text": ["o p q r s t u"]})
    )
    for out, count_col in (
        (dup_spans(docs, "doc_id", "text", n=5), "n_dup_grams"),
        (decontaminate_spans(docs, bench, n=5), "n_grams"),
    ):
        assert out.count() == 0
        assert out.schema().names == ["doc_id", "span_start", "span_end", count_col]
        assert list(out.schema().types)[1:] == [pa.int64()] * 3


def test_dup_spans_matches_brute_force_on_corpus(ray_session):
    """dup_spans over the driver's documents table == a single-process
    brute-force reference (global gram counts + interval merge), and is
    invariant under repartitioning."""
    import collections

    from crawlray.ops.corpusprep import dup_spans

    n = 5
    t = pq.read_table(DOCS, columns=["doc_id", "text"]).to_pydict()
    cnt: collections.Counter = collections.Counter()
    grams = {}
    for d, txt in zip(t["doc_id"], t["text"]):
        tk = (txt or "").split(" ")
        g = (
            [" ".join(tk[i : i + n]) for i in range(len(tk) - n + 1)]
            if len(tk) >= n
            else []
        )
        grams[d] = g
        cnt.update(g)
    exp = []
    for d, g in grams.items():
        pos = [i for i, x in enumerate(g) if cnt[x] >= 2]
        if not pos:
            continue
        start = prev = pos[0]
        k = 1
        for p in pos[1:]:
            if p - prev <= n:
                prev = p
                k += 1
            else:
                exp.append((d, start, prev + n, k))
                start = prev = p
                k = 1
        exp.append((d, start, prev + n, k))
    assert len(exp) > 0  # fixture actually contains duplicated 5-grams

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_dup_grams"])
        for r in dup_spans(ds, n=n).take_all()
    )
    assert got == sorted(exp)
    got7 = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_dup_grams"])
        for r in dup_spans(ds.repartition(7), n=n).take_all()
    )
    assert got7 == got


def test_remove_dup_spans_hand_case(ray_session):
    """Planted boilerplate shared by two docs is cut from both; clean doc
    passes through with n_removed=0; all-duplicate doc empties out."""
    from crawlray.ops.corpusprep import remove_dup_spans

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "intro one SIGN UP FOR OUR NEWSLETTER tail1",
                "other words SIGN UP FOR OUR NEWSLETTER tail2 x",
                "totally unique document body here",
                # 6 tokens -> grams at pos 0 and 1, both "m m m m m"
                # (count 2) -> coverage [0,6) cuts the whole doc
                "m m m m m m",
            ],
        }
    )
    ds = ray.data.from_pandas(docs).repartition(3)
    got = {
        r["doc_id"]: (r["text_clean"], r["n_removed"])
        for r in remove_dup_spans(ds, n=5).take_all()
    }
    assert got[1] == ("intro one tail1", 5)
    assert got[2] == ("other words tail2 x", 5)
    assert got[3] == ("totally unique document body here", 0)
    assert got[4] == ("", 6)


def test_remove_dup_spans_matches_brute_force(ray_session):
    """Cut over the driver's documents table == single-process reference;
    invariant under repartitioning; token conservation holds."""
    import collections

    from crawlray.ops.corpusprep import remove_dup_spans

    n = 5
    t = pq.read_table(DOCS, columns=["doc_id", "text"]).to_pydict()
    cnt: collections.Counter = collections.Counter()
    toks = {}
    for d, txt in zip(t["doc_id"], t["text"]):
        tk = (txt or "").split(" ")
        toks[d] = tk
        cnt.update(
            " ".join(tk[i : i + n]) for i in range(len(tk) - n + 1)
        )
    exp = {}
    for d, tk in toks.items():
        keep = [True] * len(tk)
        for i in range(len(tk) - n + 1):
            if cnt[" ".join(tk[i : i + n])] >= 2:
                for j in range(i, i + n):
                    keep[j] = False
        exp[d] = (
            " ".join(w for w, k in zip(tk, keep) if k),
            sum(not k for k in keep),
        )
    assert any(v[1] > 0 for v in exp.values())  # fixture has dup spans

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    got = {
        r["doc_id"]: (r["text_clean"], r["n_removed"])
        for r in remove_dup_spans(ds, n=n).take_all()
    }
    assert got == exp
    got7 = {
        r["doc_id"]: (r["text_clean"], r["n_removed"])
        for r in remove_dup_spans(ds.repartition(7), n=n).take_all()
    }
    assert got7 == got


def test_decontaminate_spans_hand_case(ray_session):
    """Planted benchmark sentence inside a long doc -> exactly the
    covered token span comes back; overlapping shared grams merge; a
    clean doc emits nothing; shared bench_grams path == internal path."""
    from crawlray.ops.corpusprep import (
        benchmark_grams,
        decontaminate_spans,
    )

    bench = pd.DataFrame(
        {"doc_id": [100], "text": ["the quick brown fox jumps over it"]}
    )
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": [
                # tokens 2..8 = "the quick brown fox jumps over it":
                # 8-grams? n=3 grams shared at pos 2..6 -> span [2, 9)
                "aa bb the quick brown fox jumps over it zz",
                "completely different words in this one here",
            ],
        }
    )
    bds = ray.data.from_pandas(bench)
    dds = ray.data.from_pandas(docs).repartition(2)
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_grams"])
        for r in decontaminate_spans(dds, bds, n=3).take_all()
    )
    assert got == [(1, 2, 9, 5)]
    bg = benchmark_grams(bds, n=3)
    got2 = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_grams"])
        for r in decontaminate_spans(
            dds, None, n=3, bench_grams=bg
        ).take_all()
    )
    assert got2 == got


def _cut_spans(ds, spans, id_col="doc_id", text_col="text"):
    """Apply an arbitrary cut list (id, span_start, span_end) to a corpus
    through remove_dup_spans' cut engine: starts clip at 0 here, because
    pos == -1 marks a document row in the engine's shared schema."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from crawlray.ops.corpusprep import _cut_cover
    from crawlray.ops.exchange import map_blocks

    def _norm_spans(batch):
        return pa.table({
            id_col: batch.column(id_col),
            "pos": pc.max_element_wise(pc.cast(batch.column("span_start"), pa.int64()), 0),
            "end": pc.cast(batch.column("span_end"), pa.int64()),
        })

    return _cut_cover(ds, map_blocks(spans, _norm_spans), id_col, text_col, None)


def test_cut_spans_equals_remove_dup_spans(ray_session):
    """The composable cut list applied to dup_spans' output == the fused
    remove_dup_spans path over the full fixture corpus (overlap union,
    clipping, empty-span docs all exercised by real data)."""
    from crawlray.ops.corpusprep import dup_spans, remove_dup_spans

    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    via_spans = {
        r["doc_id"]: (r["text_clean"], r["n_removed"])
        for r in _cut_spans(ds, dup_spans(ds, n=5)).take_all()
    }
    fused = {
        r["doc_id"]: (r["text_clean"], r["n_removed"])
        for r in remove_dup_spans(ds, n=5).take_all()
    }
    assert via_spans == fused
    assert any(v[1] > 0 for v in fused.values())


def test_cut_spans_clipping_and_overlap(ray_session):
    """Arbitrary caller spans: negative start clips to 0, end beyond the
    doc clips to its token count, overlapping spans union, a doc with no
    spans passes through."""
    docs = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": [1, 2], "text": ["a b c d e f", "x y z"]}
        )
    )
    spans = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 1],
                "span_start": [-3, 1],   # clip to 0; overlaps [0,2)
                "span_end": [2, 100],    # clip to 6
            }
        )
    )
    got = {
        r["doc_id"]: (r["text_clean"], r["n_removed"])
        for r in _cut_spans(docs, spans).take_all()
    }
    assert got == {1: ("", 6), 2: ("x y z", 0)}
