"""Near-dup operators on a planted-duplicate corpus: LSH must find exactly
the planted near-dup pairs (verified against brute-force Jaccard)."""

import itertools

import pyarrow as pa
import pytest

from crawlray.ops.neardup import (
    _shingle_hashes_batch,
    minhash_lsh_pairs,
    minhash_signatures,
    simhash_dup_pairs,
    simhash_table,
)


def _corpus():
    base = (
        "the quick brown fox jumps over the lazy dog while seven wizards "
        "brew strong potions under a pale winter moon near the old stone "
        "bridge by the river where children play every single afternoon"
    )
    docs = []
    for i in range(20):
        words = [f"w{i}_{j}" for j in range(40)]
        docs.append((i, " ".join(words)))
    # planted near-dups: 100/101 share ~90% of shingles; 102 is identical to 100
    words = base.split()
    docs.append((100, " ".join(words)))
    docs.append((101, " ".join(words[:30] + ["altered", "tail", "words"])))
    docs.append((102, " ".join(words)))
    return pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs]),
        }
    )


def _brute_force_pairs(tbl, threshold):
    rows = list(zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()))
    out = set()
    for (ia, ta), (ib, tb) in itertools.combinations(rows, 2):
        sa = set(_shingle_hashes_batch([ta])[0].tolist())
        sb = set(_shingle_hashes_batch([tb])[0].tolist())
        u = len(sa | sb)
        if u and len(sa & sb) / u >= threshold:
            out.add((min(ia, ib), max(ia, ib)))
    return out


def test_minhash_lsh_finds_planted_dups(ray_session):
    import ray.data

    tbl = _corpus()
    ds = ray.data.from_arrow(tbl)
    got = minhash_lsh_pairs(ds, jaccard_threshold=0.5)
    got_pairs = set(zip(got.column("id_a").to_pylist(), got.column("id_b").to_pylist()))
    want = _brute_force_pairs(tbl, 0.5)
    assert want == got_pairs
    assert (100, 102) in got_pairs  # identical pair
    assert (100, 101) in got_pairs  # near-dup pair


def test_minhash_verify_join_path_equals_broadcast(ray_session, monkeypatch):
    """The verify chooser: forcing the join path (broadcast budget
    `exchange.BROADCAST_BYTES` = 0) must yield the same verified pairs as
    the broadcast path. A dup-heavy corpus keeps the candidate id set
    dense enough to fill every join partition."""
    import ray.data

    from crawlray.ops import exchange

    base = _corpus()
    # replicate the planted-dup block across many ids so the candidate
    # pair set is large enough to exercise the join meaningfully
    texts = base.column("text").to_pylist()
    ids, out_texts = [], []
    for rep in range(8):
        for i, t in zip(base.column("doc_id").to_pylist(), texts):
            ids.append(rep * 1000 + i)
            out_texts.append(t)
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(out_texts)}
    )
    ds = ray.data.from_arrow(tbl)
    bcast = minhash_lsh_pairs(ds, jaccard_threshold=0.5).to_pylist()
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    joined = minhash_lsh_pairs(ds, jaccard_threshold=0.5).to_pylist()
    assert bcast == joined
    assert len(bcast) > 50  # non-vacuous: replicated dups make many pairs


def test_minhash_signature_determinism(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_corpus())
    a = {r["doc_id"]: r["sig"] for r in minhash_signatures(ds).take_all()}
    b = {r["doc_id"]: r["sig"] for r in minhash_signatures(ds).take_all()}
    assert a == b
    assert a[100] == a[102]  # identical docs → identical signatures
    assert len(a[0]) == 64


def test_minhash_md5_mode_matches_pure_python(ray_session):
    """hash_mode='md5' reproduces a from-scratch reference: shingle hash =
    int(md5(gram).hexdigest()[:8], 16), sig[j] = min (a_j·x + b_j) mod
    2^61−1 — the exact arithmetic the SQL oracle inlines as HUGEINT."""
    import hashlib

    import ray.data

    from crawlray.ops.neardup import _perm_params

    tbl = _corpus()
    ds = ray.data.from_arrow(tbl)
    got = {
        r["doc_id"]: r["sig"]
        for r in minhash_signatures(ds, num_perm=16, hash_mode="md5").take_all()
    }
    a, b = _perm_params(16)
    p = (1 << 61) - 1
    for doc_id, text in zip(
        tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()
    ):
        toks = [t for t in (text or "").split() if t]
        if not toks:
            continue
        w = min(3, len(toks))
        xs = {
            int(hashlib.md5(" ".join(toks[j : j + w]).encode()).hexdigest()[:8], 16)
            for j in range(len(toks) - w + 1)
        }
        want = [
            min((int(a[j]) * x + int(b[j])) % p for x in xs) for j in range(16)
        ]
        assert got[doc_id] == want, f"doc {doc_id}"

    import pytest

    with pytest.raises(ValueError):
        minhash_signatures(ds, hash_mode="sha1")


def test_simhash_dups(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_corpus())
    sims = {r["doc_id"]: r["simhash"] for r in simhash_table(ds).take_all()}
    assert sims[100] == sims[102]
    pairs = simhash_dup_pairs(ds, max_hamming=3)
    got = set(zip(pairs.column("id_a").to_pylist(), pairs.column("id_b").to_pylist()))
    assert (100, 102) in got
    # unrelated random docs must not collide at hamming<=3
    assert all(a >= 100 for a, b in got), got


def test_ngram_jaccard_pairs_exact_multiblock(ray_session):
    """Block-pair exact Jaccard must equal the all-in-memory answer even
    when docs scatter across many blocks (cross-block min/max path)."""
    import itertools

    import ray.data

    from crawlray.ops.neardup import _shingle_strings, ngram_jaccard_pairs

    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = {}
    for i in range(40):
        words = base.split()
        if i % 4 == 0:
            words[i % len(words)] = f"alt{i}"  # near-dup of base
        else:
            words = [f"w{i}_{k}" for k in range(12)]  # unrelated
        texts[i] = " ".join(words)
    tbl = pa.table({"doc_id": list(texts), "text": list(texts.values())})

    # brute force reference
    want = []
    sh = {i: set(_shingle_strings(t)) for i, t in texts.items()}
    for a, b in itertools.combinations(sorted(texts), 2):
        u = sh[a] | sh[b]
        j = len(sh[a] & sh[b]) / len(u) if u else 0.0
        if j >= 0.3:
            want.append((a, b, round(j, 6)))

    got_tbl = ngram_jaccard_pairs(
        ray.data.from_arrow(tbl).repartition(7), threshold=0.3, rows_per_block=8
    )
    got = list(
        zip(
            got_tbl.column("id_a").to_pylist(),
            got_tbl.column("id_b").to_pylist(),
            got_tbl.column("jaccard").to_pylist(),
        )
    )
    assert got == sorted(want)


def test_simhash_md5_mode(ray_session):
    """md5 hash mode: matches a slow per-doc reference (same shingle
    convention as the minhash md5 oracle), empty docs -> 0, identical
    texts -> identical signatures, and the pairs path accepts reused
    signatures."""
    import hashlib

    import numpy as np
    import ray.data

    from crawlray.ops.neardup import _simhash_md5_batch, simhash_table

    def ref(text: str) -> int:
        tk = [x for x in text.split(" ") if x]
        if not tk:
            return 0
        w = min(3, len(tk))
        sums = [0] * 64
        for i in range(len(tk) - w + 1):
            g = " ".join(tk[i : i + w])
            h = int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "big")
            for b in range(64):
                sums[b] += 1 if (h >> b) & 1 else -1
        return sum(1 << b for b in range(64) if sums[b] > 0)

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "solo",
        "two words",
        "the quick brown fox jumps over the lazy dog",
        "a b c d e f g h i j k l m",
    ]
    got = _simhash_md5_batch(texts)
    want = np.array([ref(t) for t in texts], np.uint64)
    assert (got == want).all(), (got, want)
    assert got[0] == got[4] and got[1] == 0

    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    tbl = simhash_table(
        ray.data.from_items(rows).repartition(3), hash_mode="md5"
    ).to_pandas().sort_values("doc_id")
    assert tbl.simhash.astype("uint64").tolist() == want.tolist()
