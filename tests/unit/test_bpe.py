"""BPE training/segmentation vs a pure-Python Sennrich-style reference
(greedy left-to-right merge application, pair counts weighted by word
frequency, tie-break = max count then lexicographically smallest
WRAPPED pair — the same total order the engine and the SQL oracle use)."""

import collections

import pyarrow as pa
import pytest
import ray.data


def _ref_train(word_freqs: dict[str, int], k: int):
    vocab = {w: list(w) for w in word_freqs}
    merges = []
    for _ in range(k):
        stats: collections.Counter = collections.Counter()
        for w, f in word_freqs.items():
            s = vocab[w]
            for i in range(len(s) - 1):
                stats[(s[i], s[i + 1])] += f
        if not stats:
            break
        (a, b), cnt = min(
            stats.items(),
            key=lambda kv: (-kv[1], "|" + kv[0][0] + "|", "|" + kv[0][1] + "|"),
        )
        merges.append((a, b, cnt))
        for w, s in vocab.items():
            out, i = [], 0
            while i < len(s):
                if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            vocab[w] = out
    return merges, vocab


def _ref_segment(text: str, merges) -> list[str]:
    out = []
    for w in text.lower().split(" "):
        w = "".join(c for c in w if "a" <= c <= "z")
        if not w:
            continue
        s = list(w)
        for a, b, _ in merges:
            n, i = [], 0
            while i < len(s):
                if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
                    n.append(a + b)
                    i += 2
                else:
                    n.append(s[i])
                    i += 1
            s = n
        out.extend(s)
    return out


CORPUS = [
    "the cat sat on the mat",
    "the battered cattle rattled",
    "matter scatters the chatter",
    "a aa aaa aaaa",  # same-symbol runs: greedy left-to-right semantics
    "banana bandana anagrams",
    "Mixed CASE and punct-uation! stays out",  # non-[a-z]+ filtered
]


@pytest.mark.parametrize("nblocks", [1, 5])
@pytest.mark.parametrize("local_threshold", [65536, 0])
def test_bpe_train_matches_reference_and_block_invariant(
    ray_session, nblocks, local_threshold
):
    """local_threshold=0 forces the distributed merge rounds — both the
    local-refinement and the distributed path must equal the reference
    (and hence each other)."""
    from crawlray.ops.bpe import bpe_train

    rows = [{"doc_id": i, "text": t} for i, t in enumerate(CORPUS)]
    ds = ray.data.from_items(rows).repartition(nblocks)
    got = bpe_train(
        ds, num_merges=8, local_threshold=local_threshold
    ).to_pylist()

    wf = collections.Counter(
        t for line in CORPUS for t in line.split(" ")
        if t and all("a" <= c <= "z" for c in t)
    )
    want, _ = _ref_train(dict(wf), 8)
    assert [(g["left"], g["right"], g["cnt"]) for g in got] == want
    assert [g["rank"] for g in got] == list(range(len(want)))
    assert [g["merged"] for g in got] == [a + b for a, b, _ in want]


def test_bpe_segment_matches_reference(ray_session):
    from crawlray.ops.bpe import bpe_segment_tokens, bpe_train

    rows = [{"doc_id": i, "text": t} for i, t in enumerate(CORPUS)]
    ds = ray.data.from_items(rows)
    merges = bpe_train(ds, num_merges=8)
    ref = [
        (a, b, None)
        for a, b in zip(
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist(),
        )
    ]
    got = bpe_segment_tokens(ds, merges).to_pandas()
    for i, text in enumerate(CORPUS):
        eng = got[got.doc_id == i]["token"].tolist()
        assert eng == _ref_segment(text, ref), (i, text)


def test_bpe_vocab_counts_consistent(ray_session):
    """Vocab counts = exact multiset of the reference segmentation; and
    the merged symbols actually appear (the rules bite)."""
    from crawlray.ops.bpe import bpe_train, bpe_vocab_counts

    rows = [{"doc_id": i, "text": t} for i, t in enumerate(CORPUS)]
    ds = ray.data.from_items(rows)
    merges = bpe_train(ds, num_merges=8)
    ref_rules = [
        (a, b, None)
        for a, b in zip(
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist(),
        )
    ]
    want: collections.Counter = collections.Counter()
    for t in CORPUS:
        want.update(_ref_segment(t, ref_rules))
    got = bpe_vocab_counts(ds, merges).to_pandas()
    got_c = dict(zip(got["token"], got["n"]))
    assert got_c == dict(want)
    assert any(len(tok) > 1 for tok in got_c), "no multi-char BPE token"


def test_bpe_train_matches_duckdb_oracle_chain(ray_session):
    """The engine merge table equals a DuckDB CTE chain replaying the
    same procedure (pair counts over the wrapped word-freq table, argmax
    with the wrapped tie-break, single replace per round) on the driver
    test corpus — the same construction the flatten_tokens oracle arm
    uses."""
    import duckdb

    from crawlray.ops.bpe import bpe_train

    DOCS = "/root/testdata/sf0.001/documents.parquet"
    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    K = 6
    got = bpe_train(ds, num_merges=K).to_pylist()

    parts = [
        """
        WITH wf AS (
            SELECT token, COUNT(*) AS freq
            FROM (SELECT UNNEST(str_split(text, ' ')) AS token
                  FROM documents)
            WHERE regexp_matches(token, '^[a-z]+$')
            GROUP BY token),
        w0 AS (SELECT rtrim(regexp_replace(token, '(.)', '|\\1| ', 'g'))
                      AS sym, freq FROM wf)
        """
    ]
    for r in range(K):
        parts.append(
            f"""
        , p{r} AS (
            SELECT t[i] AS w1, t[i+1] AS w2, SUM(freq) AS cnt
            FROM (SELECT str_split(sym, ' ') AS t, freq FROM w{r}),
                 UNNEST(range(1, len(t))) u(i)
            GROUP BY w1, w2)
        , b{r} AS (
            SELECT w1, w2, cnt, w1 || ' ' || w2 AS pat,
                   '|' || trim(w1, '|') || trim(w2, '|') || '|' AS rep
            FROM p{r} ORDER BY cnt DESC, w1, w2 LIMIT 1)
        , w{r + 1} AS (
            SELECT replace(w{r}.sym, b{r}.pat, b{r}.rep) AS sym, freq
            FROM w{r}, b{r})
        """
        )
    sel = " UNION ALL ".join(
        f"SELECT {r} AS rank, trim(w1,'|') AS l, trim(w2,'|') AS rt, cnt "
        f"FROM b{r}"
        for r in range(K)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    want = con.sql("".join(parts) + sel + " ORDER BY rank").fetchall()
    assert [(g["left"], g["right"], g["cnt"]) for g in got] == [
        (w[1], w[2], w[3]) for w in want
    ]


# --- round 5: distinct-word segmentation + byte-level symbol space ---


def _ref_segment_words(words: list[str], merges) -> list[str]:
    """Greedy left-to-right merge application over pre-split symbol-space
    words (shared by the byte-level tests, where cleaning differs)."""
    out = []
    for w in words:
        s = list(w)
        for a, b, _ in merges:
            n, i = [], 0
            while i < len(s):
                if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
                    n.append(a + b)
                    i += 2
                else:
                    n.append(s[i])
                    i += 1
            s = n
        out.extend(s)
    return out


@pytest.mark.parametrize("nblocks", [1, 5])
def test_bpe_segment_distinct_equals_fused(ray_session, nblocks):
    """VERDICT r4 item 1: the distinct-word scale path (segment each
    distinct word once, map back) must be RESULT-IDENTICAL to the K
    corpus-wide replace passes the oracle replays — including per-doc
    token order on the broadcast map-back."""
    import ray.data

    from crawlray.ops.bpe import bpe_segment_tokens, bpe_train

    rows = [{"doc_id": i, "text": t} for i, t in enumerate(CORPUS)]
    ds = ray.data.from_items(rows).repartition(nblocks)
    merges = bpe_train(ds, num_merges=8)

    fused = (
        bpe_segment_tokens(ds, merges, mode="fused")
        .to_pandas()
        .reset_index(drop=True)
    )
    dist = (
        bpe_segment_tokens(ds, merges, mode="distinct")
        .to_pandas()
        .reset_index(drop=True)
    )
    # broadcast map-back preserves document order exactly
    for i in range(len(CORPUS)):
        assert (
            dist[dist.doc_id == i]["token"].tolist()
            == fused[fused.doc_id == i]["token"].tolist()
        ), i

    # forced giant-vocab join path: multiset per doc identical
    joined = bpe_segment_tokens(
        ds, merges, mode="distinct", broadcast_threshold=0
    ).to_pandas()
    key = lambda df: sorted(zip(df["doc_id"], df["token"]))  # noqa: E731
    assert key(joined) == key(fused)


def test_bpe_segment_join_path_string_ids(ray_session):
    """ADVICE bpe.py:620: the giant-vocab join path must not assume int64
    ids. String ids through broadcast_threshold=0 give the broadcast
    path's tokens, on a corpus and on an empty corpus."""
    import ray.data

    from crawlray.ops.bpe import bpe_segment_tokens, bpe_train

    merges = bpe_train(
        ray.data.from_items([{"text": t} for t in CORPUS]), num_merges=8
    )
    corpus = pa.table(
        {"url": [f"u{i}" for i in range(len(CORPUS))], "text": CORPUS}
    )
    for tbl in (corpus, corpus.slice(0, 0)):
        ds = ray.data.from_arrow(tbl).repartition(3)
        got = {}
        for threshold in (1_000_000, 0):
            rows = bpe_segment_tokens(
                ds, merges, id_col="url", broadcast_threshold=threshold
            ).take_all()
            got[threshold] = sorted((r["url"], r["token"]) for r in rows)
        assert got[0] == got[1_000_000]
        assert bool(got[0]) == bool(tbl.num_rows)
        assert all(isinstance(u, str) for u, _ in got[0])


def test_bytes_to_chars_matches_python_encoder(ray_session):
    """The vectorized buffer-level byte translation equals the per-char
    Python reference on ASCII, '|', unicode, and empty strings."""
    from crawlray.ops.bpe import byte_decode, byte_encode, bytes_to_chars

    samples = [
        "plain",
        "",
        "Mixed CASE!",
        "pipes ||| here",
        "café naïve — dash",
        "\U0001f680 rocket",
        "tabs\tand\nnewlines",
        "|",
    ]
    got = bytes_to_chars(pa.array(samples, pa.string())).to_pylist()
    want = [byte_encode(s) for s in samples]
    assert got == want
    # bijection round-trips (errors='replace' never fires on whole strings)
    assert [byte_decode(g) for g in got] == samples
    # the alphabet never contains the wrapper or separator (space is
    # kept identity only as the word separator itself)
    for g, s in zip(got, samples):
        assert "|" not in g.replace(" ", "") or "|" not in s is False
    assert "|" not in byte_encode("|")


def test_bpe_byte_level_train_matches_reference(ray_session):
    """byte_level=True trains on arbitrary text (punctuation, case,
    unicode) — parity vs the sequential Sennrich reference run in the
    mapped-symbol space."""
    import re

    import ray.data

    from crawlray.ops.bpe import byte_encode, bpe_train

    corpus = [
        "The cat, the CAT, the c-a-t!",
        "café café cafes",
        "pipe|pipe and pipe|pipe again",
        "  spaced   out\ttabs  ",
        "über über übermut",
    ]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(corpus)]
    ds = ray.data.from_items(rows).repartition(3)
    got = bpe_train(ds, num_merges=10, byte_level=True).to_pylist()

    wf: collections.Counter = collections.Counter()
    for t in corpus:
        for w in re.sub(r"\s+", " ", t).split(" "):
            if w:
                wf[byte_encode(w)] += 1
    want, _ = _ref_train(dict(wf), 10)
    assert [(g["left"], g["right"], g["cnt"]) for g in got] == want

    # forced distributed rounds agree too
    got_d = bpe_train(
        ds, num_merges=10, byte_level=True, local_threshold=0
    ).to_pylist()
    assert got_d == got


def test_bpe_byte_level_segment_modes_and_roundtrip(ray_session):
    """byte-level segmentation: fused == distinct (order-exact), every
    rule bites somewhere, and per-doc decoded tokens concatenate back to
    the normalized text with separators removed (lossless alphabet)."""
    import re

    import ray.data

    from crawlray.ops.bpe import (
        byte_decode,
        byte_encode,
        bpe_segment_tokens,
        bpe_train,
    )

    corpus = [
        "Hello, World! Hello, World!",
        "naïve café | pipe-dream",
        "multi  space\tand\nnewline text",
    ]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(corpus)]
    ds = ray.data.from_items(rows).repartition(2)
    merges = bpe_train(ds, num_merges=12, byte_level=True)

    fused = bpe_segment_tokens(
        ds, merges, mode="fused", byte_level=True
    ).to_pandas()
    dist = bpe_segment_tokens(
        ds, merges, mode="distinct", byte_level=True
    ).to_pandas()
    for i in range(len(corpus)):
        assert (
            dist[dist.doc_id == i]["token"].tolist()
            == fused[fused.doc_id == i]["token"].tolist()
        ), i

    # sequential reference over per-word symbol strings
    ref_rules = [
        (a, b, None)
        for a, b in zip(
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist(),
        )
    ]
    for i, t in enumerate(corpus):
        words = [
            byte_encode(w)
            for w in re.sub(r"\s+", " ", t).split(" ")
            if w
        ]
        assert (
            dist[dist.doc_id == i]["token"].tolist()
            == _ref_segment_words(words, ref_rules)
        ), i
        # round-trip: the CONCATENATED token byte stream rebuilds the
        # normalized text (a single token may end mid-UTF-8-sequence —
        # byte-level BPE tokens aren't individually decodable, the
        # stream is)
        rebuilt = byte_decode(
            "".join(dist[dist.doc_id == i]["token"].tolist())
        )
        assert rebuilt == re.sub(r"\s+", " ", t).replace(" ", "")
    assert any(len(tok) > 1 for tok in dist["token"]), "no rule bit"
