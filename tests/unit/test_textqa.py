"""Gopher-style repetition signals: crafted-value checks + DuckDB parity
on the driver's parquet (exact IEEE divisions, so equality is bitwise)."""

import duckdb
import pandas as pd
import pytest
import ray.data

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def test_repetition_stats_crafted_values(ray_session):
    from crawlray.ops.textqa import repetition_stats

    rows = [
        # 4 tokens, "a" appears 2x -> top 0.5; 3 grams all distinct -> 0.0
        {"doc_id": 0, "text": "a b a c"},
        # all same token: top 1.0; grams "x x" x3, 1 distinct -> 2/3
        {"doc_id": 1, "text": "x x x x"},
        # single token: top 1.0, no grams -> 0.0
        {"doc_id": 2, "text": "solo"},
        # empty text = one empty token (split convention): 1.0, 0.0
        {"doc_id": 3, "text": ""},
        # "p q p q p": top 3/5; grams pq,qp,pq,qp -> 2 distinct of 4 -> 0.5
        {"doc_id": 4, "text": "p q p q p"},
    ]
    got = (
        repetition_stats(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.top_token_frac.tolist() == [0.5, 1.0, 1.0, 1.0, 3 / 5]
    assert got.dup_2gram_frac.tolist() == [0.0, 2 / 3, 0.0, 0.0, 0.5]


@pytest.mark.parametrize("override_blocks", [None, 3])
def test_repetition_stats_matches_duckdb(ray_session, override_blocks):
    from crawlray.ops.textqa import repetition_stats

    kwargs = {}
    if override_blocks:
        kwargs["override_num_blocks"] = override_blocks
    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"], **kwargs)
    got = repetition_stats(ds).to_pandas()
    want = duckdb.sql(
        f"""
        WITH toks AS (SELECT doc_id, str_split(text, ' ') AS t
                      FROM '{DOCS}'),
        tok AS (SELECT doc_id, unnest(t) AS w FROM toks),
        tc AS (SELECT doc_id, w, COUNT(*) AS c FROM tok GROUP BY doc_id, w),
        rep1 AS (SELECT doc_id,
                        MAX(c) / CAST(SUM(c) AS BIGINT) AS top_token_frac
                 FROM tc GROUP BY doc_id),
        grams AS (SELECT doc_id, t[i] || ' ' || t[i+1] AS g
                  FROM toks, UNNEST(range(1, GREATEST(LEN(t)-1,0)+1)) u(i)),
        rep2 AS (SELECT doc_id,
                        (COUNT(*) - COUNT(DISTINCT g))
                            / CAST(COUNT(*) AS BIGINT) AS dup_2gram_frac
                 FROM grams GROUP BY doc_id)
        SELECT rep1.doc_id, rep1.top_token_frac,
               COALESCE(rep2.dup_2gram_frac, 0.0) AS dup_2gram_frac
        FROM rep1 LEFT JOIN rep2 USING (doc_id)
        """
    ).df()
    assert len(got) == len(want) > 0
    # the corpus word-salad actually repeats tokens — signal is non-trivial
    assert (want.top_token_frac > 0).all()
    assert want.dup_2gram_frac.max() > 0
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def _gopher_filter(ds):
    """Keep only the documents passing the Gopher rules, with all their
    columns: the signals computed and applied per block."""
    from crawlray.ops.exchange import map_blocks
    from crawlray.ops.textqa import GOPHER_DEFAULTS, _gopher_signal_batch

    return map_blocks(ds, lambda b: b.filter(
        _gopher_signal_batch(b, "doc_id", "text", GOPHER_DEFAULTS).column("keep")))


def test_gopher_signals_and_filter(ray_session):
    """Each Gopher rule fires on a doc constructed to fail exactly it;
    the filter keeps precisely the signal pass-set and preserves all
    original columns."""
    import ray.data

    from crawlray.ops.textqa import gopher_signals

    # 40 distinct 3-5 char words (top token 1/40, zero dup 2-grams),
    # one stopword, mean word length ~4
    good = "the " + " ".join(f"w{i:03d}" for i in range(39))
    docs = [
        {"doc_id": 0, "text": good, "extra": "a"},                # passes
        {"doc_id": 1, "text": "too short", "extra": "b"},          # n_tokens
        {"doc_id": 2, "text": "spam " * 40 + "spam", "extra": "c"},  # repetition
        {"doc_id": 3, "text": ("zz " * 45 + "the of and").strip(),
         "extra": "d"},                                            # mean_wlen low
        {"doc_id": 4, "text": ("wonderful astonishing remarkable "
                               * 15).strip(), "extra": "e"},       # no stopwords
    ]
    ds = ray.data.from_items(docs)
    sig = {r["doc_id"]: r for r in gopher_signals(ds).take_all()}
    assert sig[0]["keep"]
    assert not sig[1]["keep"] and sig[1]["n_tokens"] == 2
    assert not sig[2]["keep"] and sig[2]["top_token_frac"] > 0.9
    assert not sig[3]["keep"] and sig[3]["mean_wlen"] < 3.0
    assert not sig[4]["keep"] and sig[4]["stop_hits"] == 0
    # distinct stopword count, not occurrences
    assert sig[0]["stop_hits"] == 1  # just 'the'
    assert sig[0]["n_tokens"] == 40 and sig[0]["dup_2gram_frac"] == 0.0
    kept = _gopher_filter(ds).take_all()
    assert [r["doc_id"] for r in kept] == [0]
    assert kept[0]["extra"] == "a"


def test_inverted_index_postings_sorted_and_block_invariant(ray_session):
    """Posting lists: distinct doc ids, ascending, df exact; identical
    across block layouts (the pair dedup is map-side but globally exact
    because a doc never spans batches)."""
    import ray.data

    from crawlray.ops.textqa import inverted_index

    docs = [
        {"doc_id": 10, "text": "b a b c"},
        {"doc_id": 2, "text": "a d"},
        {"doc_id": 7, "text": "a"},
    ]
    want = {
        "a": (3, "2,7,10"),
        "b": (1, "10"),
        "c": (1, "10"),
        "d": (1, "2"),
    }
    for blocks in (1, 3):
        ds = ray.data.from_items(docs).repartition(blocks)
        got = {
            r["token"]: (r["df"], r["postings"])
            for r in inverted_index(ds, num_partitions=4).take_all()
        }
        assert got == want, f"blocks={blocks}: {got}"


def test_ngram_lm_score_crafted_values(ray_session):
    """Hand-computed add-½ bigram LM: train = doc 0 only ('a b a b'),
    V = 2 (tokens a, b). C(a,b)=2, C(b,a)=1, C(a)=2, C(b)=1 (contexts:
    final token is never a context). Scoring:
      doc 0: terms ab, ba, ab -> ln(2.5/3), ln(1.5/2), ln(2.5/3)
      doc 1 ('a c'): unseen bigram with SEEN context a -> ln(0.5/3)
      doc 2 ('z'): single token, no bigrams -> absent from result
    """
    import math

    from crawlray.ops.textqa import ngram_lm_score

    rows = [
        {"doc_id": 0, "text": "a b a b", "source": "train"},
        {"doc_id": 1, "text": "a c", "source": "other"},
        {"doc_id": 2, "text": "z", "source": "other"},
    ]
    got = (
        ngram_lm_score(ray.data.from_items(rows), ["train"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.doc_id.tolist() == [0, 1]
    assert got.n_grams.tolist() == [3, 1]

    def micro(x: float) -> int:
        import numpy as np

        return int(np.round(math.log(x) * 1e6))

    exp0 = -(2 * micro(2.5 / 3.0) + micro(1.5 / 2.0)) / (3 * 1e6)
    exp1 = -micro(0.5 / 3.0) / 1e6
    assert got.nll.tolist() == [exp0, exp1]


@pytest.mark.parametrize("nblocks", [1, 7])
def test_ngram_lm_score_matches_duckdb_and_block_invariant(
    ray_session, nblocks
):
    from crawlray.ops.textqa import ngram_lm_score

    ds = ray.data.read_parquet(
        DOCS, columns=["doc_id", "text", "source"]
    ).repartition(nblocks)
    train = ["src0", "src1", "src2", "src3", "src4"]
    got = _norm(ngram_lm_score(ds, train).to_pandas())
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    want = _norm(
        con.sql(
            """
        WITH toks AS (SELECT doc_id, source, str_split(text,' ') AS t
                      FROM documents),
        grams AS (SELECT doc_id, source, t[i] AS w1, t[i+1] AS w2
                  FROM toks, UNNEST(range(1, len(t))) u(i)),
        train AS (SELECT w1, w2 FROM grams
                  WHERE source IN ('src0','src1','src2','src3','src4')),
        cb AS (SELECT w1, w2, COUNT(*) AS c FROM train GROUP BY w1, w2),
        cu AS (SELECT w1, COUNT(*) AS c FROM train GROUP BY w1),
        vv AS (SELECT COUNT(DISTINCT w) AS v FROM
               (SELECT w1 AS w FROM train UNION ALL SELECT w2 FROM train))
        SELECT doc_id, COUNT(*) AS n_grams,
               -SUM(lpm) / (COUNT(*) * 1000000.0) AS nll
        FROM (SELECT g.doc_id,
                     CAST(ROUND(LN((COALESCE(cb.c,0) + 0.5)
                                   / (COALESCE(cu.c,0) + 0.5 * vv.v))
                                * 1000000) AS BIGINT) AS lpm
              FROM grams g
              LEFT JOIN cb ON g.w1 = cb.w1 AND g.w2 = cb.w2
              LEFT JOIN cu ON g.w1 = cu.w1
              CROSS JOIN vv)
        GROUP BY doc_id
        """
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_ngram_lm_score_in_domain_scores_lower(ray_session):
    """The filter must discriminate: random-noise docs (tokens the train
    slice never produced in that order) score strictly higher NLL than
    the train docs themselves."""
    from crawlray.ops.textqa import ngram_lm_score

    rows = [
        {"doc_id": i, "text": "the cat sat on the mat " * 5, "source": "t"}
        for i in range(4)
    ] + [
        {"doc_id": 10 + i, "text": f"zq{i} vx{i} wk{i} jj{i} qq{i}",
         "source": "noise"}
        for i in range(4)
    ]
    got = (
        ngram_lm_score(ray.data.from_items(rows), ["t"])
        .to_pandas()
        .set_index("doc_id")
    )
    worst_train = got.loc[[0, 1, 2, 3]].nll.max()
    best_noise = got.loc[[10, 11, 12, 13]].nll.min()
    assert best_noise > worst_train


@pytest.mark.parametrize("hash_mode", ["md5", "murmur3"])
def test_dsir_weights_discriminates_and_modes(ray_session, hash_mode):
    """Docs made of target-slice bigrams outrank background-only docs —
    in both hash modes (md5 = oracle parity, murmur3 = vectorized
    production path). Note: the invariant at toy scale is ORDERING, not
    sign — with ~100 grams total the add-α·B smoothing mass (0.5·4096)
    dominates both histograms and shifts every weight down."""
    from crawlray.ops.textqa import dsir_weights

    rows = [
        {"doc_id": i, "text": "alpha beta gamma delta " * 8, "source": "t"}
        for i in range(3)
    ] + [
        {"doc_id": 10 + i, "text": "noise junk spam filler " * 8,
         "source": "bg"}
        for i in range(9)
    ] + [
        # mirror docs: same target text but OUTSIDE the target slice —
        # must still score positive (weights depend on content, not tag)
        {"doc_id": 20, "text": "alpha beta gamma delta " * 8,
         "source": "bg"},
    ]
    got = (
        dsir_weights(ray.data.from_items(rows), ["t"], hash_mode=hash_mode)
        .to_pandas()
        .set_index("doc_id")
    )
    best_noise = got.loc[[10 + i for i in range(9)]].dsir.max()
    assert (got.loc[[0, 1, 2]].dsir > best_noise).all()
    # the mirror doc (target TEXT, background TAG) scores exactly like
    # the target docs: weights depend on content, not the source label
    assert got.loc[20].dsir == got.loc[0].dsir
    assert got.loc[20].dsir > best_noise


def test_dsir_weights_matches_duckdb(ray_session):
    from crawlray.ops.textqa import dsir_weights

    ds = ray.data.read_parquet(
        DOCS, columns=["doc_id", "text", "source"]
    ).repartition(5)
    got = _norm(
        dsir_weights(
            ds, ["src0", "src1", "src2", "src3", "src4"]
        ).to_pandas()
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    want = _norm(
        con.sql(
            """
        WITH toks AS (SELECT doc_id, source, str_split(text,' ') AS t
                      FROM documents),
        grams AS (SELECT doc_id, source, t[i] AS w1, t[i+1] AS w2
                  FROM toks, UNNEST(range(1, len(t))) u(i)),
        feats AS (SELECT doc_id, source,
                         CAST(('0x' || SUBSTR(MD5(w1 || ' ' || w2), 1, 8))
                              ::BIGINT % 4096 AS BIGINT) AS b
                  FROM grams),
        tgt AS (SELECT b, COUNT(*) AS c FROM feats
                WHERE source IN ('src0','src1','src2','src3','src4')
                GROUP BY b),
        tn AS (SELECT COUNT(*) AS n FROM feats
               WHERE source IN ('src0','src1','src2','src3','src4')),
        sh AS (SELECT b, COUNT(*) AS c FROM feats GROUP BY b),
        sn AS (SELECT COUNT(*) AS n FROM feats)
        SELECT doc_id, COUNT(*) AS n_grams,
               SUM(lrm) / (COUNT(*) * 1000000.0) AS dsir
        FROM (SELECT f.doc_id,
                     CAST(ROUND(LN(((COALESCE(t.c,0) + 0.5)
                                    / (tn.n + 0.5 * 4096))
                                   / ((s.c + 0.5) / (sn.n + 0.5 * 4096)))
                                * 1000000) AS BIGINT) AS lrm
              FROM feats f
              LEFT JOIN tgt t ON f.b = t.b
              JOIN sh s ON f.b = s.b
              CROSS JOIN tn CROSS JOIN sn)
        GROUP BY doc_id
        """
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pmi_collocations_crafted_and_block_invariant(ray_session, monkeypatch):
    """PMI = ln(TU*c12/(c1*c2)) vs a brute-force reference on a crafted
    corpus, exact; min_count filter honored; result invariant to the
    input block layout."""
    import math
    from collections import Counter

    from crawlray.ops import exchange
    from crawlray.ops.textqa import pmi_collocations

    rows = [
        {"doc_id": 0, "text": "new york new york city"},
        {"doc_id": 1, "text": "new york is a city"},
        {"doc_id": 2, "text": "a city in new york"},
        {"doc_id": 3, "text": "york new minster"},
        {"doc_id": 4, "text": ""},
        {"doc_id": 5, "text": "solo"},
    ]
    uni: Counter = Counter()
    big: Counter = Counter()
    for r in rows:
        t = r["text"].split(" ")
        uni.update(t)
        big.update(zip(t, t[1:]))
    tu = float(sum(uni.values()))
    want = {
        (w1, w2): (
            c12,
            uni[w1],
            uni[w2],
            round(math.log((tu * float(c12)) / (float(uni[w1]) * float(uni[w2]))), 6),
        )
        for (w1, w2), c12 in big.items()
        if c12 >= 2
    }
    for nblocks in (1, 4):
        ds = ray.data.from_items(rows).repartition(nblocks)
        got = pmi_collocations(ds).to_pandas()
        got_map = {
            (r.w1, r.w2): (r.c12, r.c1, r.c2, r.pmi)
            for r in got.itertuples()
        }
        assert got_map == want, f"nblocks={nblocks}: {got_map} != {want}"
        # the adaptive unigram chooser — exchange.BROADCAST_BYTES = 0
        # forces the shuffle-join path; both paths must be identical
        with monkeypatch.context() as m:
            m.setattr(exchange, "BROADCAST_BYTES", 0)
            got_sh = pmi_collocations(ds).to_pandas()
        got_sh_map = {
            (r.w1, r.w2): (r.c12, r.c1, r.c2, r.pmi)
            for r in got_sh.itertuples()
        }
        assert got_sh_map == want, f"shuffle path nblocks={nblocks}"
    # the most frequent pair must survive the min_count cut
    assert want[("new", "york")][0] == 4
    # rarer-word pairs score higher PMI than common-word pairs at equal c12
    assert want[("a", "city")][3] > want[("new", "york")][3]


def test_nb_quality_score_crafted_values(ray_session):
    """Hand-computed Naive-Bayes log-odds, k=0.5. pos = source 'good'
    (doc 0: 'a a b'), neg = doc 1 ('b c'). Tpos=3, Tneg=2, V=3,
    Dpos=Dneg=1 -> prior ln(1)=0. Per-token micro log-odds:
      a: ln(2.5/4.5) - ln(0.5/3.5)
      b: ln(1.5/4.5) - ln(1.5/3.5)
      c: ln(0.5/4.5) - ln(1.5/3.5)
    """
    import math

    import numpy as np

    from crawlray.ops.textqa import nb_quality_score

    rows = [
        {"doc_id": 0, "text": "a a b", "source": "good"},
        {"doc_id": 1, "text": "b c", "source": "junk"},
    ]
    got = (
        nb_quality_score(ray.data.from_items(rows), ["good"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    def micro(cp: float, cn: float) -> int:
        lo = math.log((cp + 0.5) / (3 + 0.5 * 3)) - math.log(
            (cn + 0.5) / (2 + 0.5 * 3)
        )
        return int(np.round(lo * 1e6))

    m_a, m_b, m_c = micro(2, 0), micro(1, 1), micro(0, 1)
    assert got.doc_id.tolist() == [0, 1]
    assert got.n_tokens.tolist() == [3, 2]
    assert got.nb.tolist() == [
        (2 * m_a + m_b) / 1e6,
        (m_b + m_c) / 1e6,
    ]
    # the pos-class doc must outscore the neg-class doc
    assert got.nb[0] > got.nb[1]


@pytest.mark.parametrize("nblocks", [1, 7])
def test_nb_quality_score_matches_duckdb_and_block_invariant(
    ray_session, nblocks
):
    from crawlray.ops.textqa import nb_quality_score

    ds = ray.data.read_parquet(
        DOCS, columns=["doc_id", "text", "source"]
    ).repartition(nblocks)
    pos = ["src0", "src1", "src2", "src3", "src4"]
    got = _norm(nb_quality_score(ds, pos).to_pandas())
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    want = _norm(
        con.sql(
            """
        WITH tok AS (
            SELECT doc_id,
                   UNNEST(str_split(text, ' ')) AS w,
                   CASE WHEN source IN
                        ('src0','src1','src2','src3','src4')
                        THEN 1 ELSE 0 END AS lab
            FROM documents),
        cnt AS (SELECT w, SUM(lab) AS cpos, COUNT(*) - SUM(lab) AS cneg
                FROM tok GROUP BY w),
        sca AS (SELECT SUM(lab) AS tpos, COUNT(*) - SUM(lab) AS tneg,
                       COUNT(DISTINCT w) AS v
                FROM tok),
        pri AS (SELECT CAST(ROUND(LN(
                    CAST(SUM(CASE WHEN source IN
                        ('src0','src1','src2','src3','src4')
                        THEN 1 ELSE 0 END) AS DOUBLE)
                    / (COUNT(*) - SUM(CASE WHEN source IN
                        ('src0','src1','src2','src3','src4')
                        THEN 1 ELSE 0 END))) * 1000000) AS BIGINT) AS pm
                FROM documents)
        SELECT t.doc_id, COUNT(*) AS n_tokens,
               CAST(ANY_VALUE(pri.pm) + SUM(
                 CAST(ROUND((LN((c.cpos + 0.5) / (s.tpos + 0.5 * s.v))
                           - LN((c.cneg + 0.5) / (s.tneg + 0.5 * s.v)))
                      * 1000000) AS BIGINT)) AS DOUBLE) / 1000000
               AS nb
        FROM tok t
        JOIN cnt c ON c.w = t.w
        CROSS JOIN sca s CROSS JOIN pri
        GROUP BY t.doc_id
        """
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_corpus_diagnostics_crafted_values(ray_session):
    """source a: tokens {x:3, y:1, z:1} -> T=5, types=3, ttr=0.6,
    H = ln5 - (3·ln3)/5 (micro-rounded); source b: 4x one token ->
    ttr=0.25, H = micro-rounding residual of 0."""
    import math

    import numpy as np

    from crawlray.ops.textqa import corpus_diagnostics

    rows = [
        {"source": "a", "text": "x y x"},
        {"source": "a", "text": "x z"},
        {"source": "b", "text": "q q q q"},
    ]
    got = (
        corpus_diagnostics(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    assert got.source.tolist() == ["a", "b"]
    assert got.n_docs.tolist() == [2, 1]
    assert got.n_tokens.tolist() == [5, 4]
    assert got.n_types.tolist() == [3, 1]
    assert got.ttr.tolist() == [3 / 5, 1 / 4]
    sm_a = int(np.round(3 * math.log(3) * 1e6))
    sm_b = int(np.round(4 * math.log(4) * 1e6))
    assert got.entropy.tolist() == [
        math.log(5) - sm_a / (5 * 1e6),
        math.log(4) - sm_b / (4 * 1e6),
    ]


@pytest.mark.parametrize("nblocks", [1, 7])
def test_corpus_diagnostics_matches_duckdb(ray_session, nblocks):
    from crawlray.ops.textqa import corpus_diagnostics

    ds = ray.data.read_parquet(
        DOCS, columns=["source", "text"]
    ).repartition(nblocks)
    got = _norm(corpus_diagnostics(ds).to_pandas())
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    want = _norm(
        con.sql(
            """
        WITH stok AS (SELECT source, UNNEST(str_split(text, ' ')) AS w
                      FROM documents),
        sc AS (SELECT source, w, COUNT(*) AS c FROM stok
               GROUP BY source, w),
        agg AS (SELECT source,
                       CAST(SUM(c) AS BIGINT) AS n_tokens,
                       COUNT(*) AS n_types,
                       CAST(SUM(CAST(ROUND(c * LN(c) * 1000000)
                                     AS BIGINT)) AS BIGINT) AS sm
                FROM sc GROUP BY source),
        dn AS (SELECT source, COUNT(*) AS n_docs FROM documents
               GROUP BY source)
        SELECT a.source, dn.n_docs, a.n_tokens, a.n_types,
               CAST(a.n_types AS DOUBLE) / a.n_tokens AS ttr,
               LN(a.n_tokens) - a.sm / (a.n_tokens * 1000000.0) AS entropy
        FROM agg a JOIN dn USING (source)
        """
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_tfidf_and_pmi_empty_corpus(ray_session):
    """Round 5: an empty corpus must yield typed empty results, not a
    schema-less-partition join crash (tfidf) or float(None) (pmi)."""
    import pyarrow as pa
    import ray.data

    from crawlray.ops.textqa import pmi_collocations, tfidf

    ed = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
            }
        )
    )
    t = tfidf(ed)
    assert t.count() == 0
    assert set(t.schema().names) == {"doc_id", "token", "tf", "df", "tfidf"}
    tb = tfidf(ed, bm25=True)
    assert tb.count() == 0 and "bm25" in tb.schema().names
    p = pmi_collocations(ed)
    assert p.count() == 0
    assert set(p.schema().names) == {"w1", "w2", "c12", "c1", "c2", "pmi"}
