"""The shared candidate-pair pipeline (crawlray.ops.pairs) under every
near-duplicate pair operator: a 0-row input gives the typed empty result
on every path, and an oversize LSH bucket keeps its `max_bucket` smallest
ids with the dropped ids counted in one message."""

import re

import numpy as np
import pyarrow as pa
import pytest

I64, F64 = pa.int64(), pa.float64()
DOCS = pa.schema([("doc_id", I64), ("text", pa.string())])
EMB = pa.schema([("vec_id", I64), ("embedding", pa.list_(F64))])
# documented result columns of each operator
JACCARD = [("id_a", I64), ("id_b", I64), ("jaccard", F64)]
COSINE = [("id_a", I64), ("id_b", I64)]
CROSS = [("left_id", I64), ("right_id", I64)]


def _docs(texts: dict):
    import ray.data

    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(texts), I64), "text": list(texts.values())})
    )


def _emb(vecs: dict):
    import ray.data

    return ray.data.from_arrow(pa.table(
        {"vec_id": pa.array(list(vecs), I64),
         "embedding": pa.array([list(map(float, v)) for v in vecs.values()], pa.list_(F64))}
    ))


def _empty(schema):
    import ray.data

    return ray.data.from_arrow(schema.empty_table())


def _some_vectors():
    return _emb({i: np.random.RandomState(i).randn(8) for i in range(6)})


def _run(case: str):
    from crawlray.ops import knn, neardup

    docs, emb = _empty(DOCS), _empty(EMB)
    if case == "minhash_lsh_pairs":
        return neardup.minhash_lsh_pairs(docs), JACCARD
    if case == "simhash_dup_pairs":
        return neardup.simhash_dup_pairs(docs), [*COSINE, ("hamming", pa.int32())]
    if case == "cdc_dup_pairs":
        return neardup.cdc_dup_pairs(docs), [*COSINE, ("shared_chunks", I64)]
    if case == "ngram_jaccard_pairs":
        return neardup.ngram_jaccard_pairs(docs), JACCARD
    if case == "srp_pairs_cosine":
        return knn.srp_pairs_cosine(emb, 0.9), [*COSINE, ("sim", F64)]
    if case == "srp_cross_join/left":
        return knn.srp_cross_join(emb, _some_vectors(), 0.9), [*CROSS, ("sim", F64)]
    if case == "srp_cross_join/right":
        return knn.srp_cross_join(_some_vectors(), emb, 0.9), [*CROSS, ("sim", F64)]
    if case == "similar_pairs_cosine":
        return knn.similar_pairs_cosine(emb, 0.9), COSINE
    if case == "ivf_pairs_cosine":
        return knn.ivf_pairs_cosine(emb, np.eye(2, 8), 0.9), COSINE
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "minhash_lsh_pairs", "simhash_dup_pairs", "cdc_dup_pairs", "ngram_jaccard_pairs",
    "srp_pairs_cosine", "srp_cross_join/left", "srp_cross_join/right",
    "similar_pairs_cosine", "ivf_pairs_cosine",
])
def test_empty_input_gives_typed_empty_pairs(ray_session, case):
    got, want = _run(case)
    assert got.num_rows == 0
    assert list(zip(got.schema.names, got.schema.types)) == want


@pytest.mark.parametrize("budget", [1 << 40, 0], ids=["broadcast", "block_pairs"])
@pytest.mark.parametrize("empty_side", ["left", "right"])
def test_cross_similar_join_empty_side(ray_session, monkeypatch, empty_side, budget):
    from crawlray.ops import exchange
    from crawlray.ops.knn import cross_similar_join

    monkeypatch.setattr(exchange, "BROADCAST_BYTES", budget)
    sides = [_some_vectors(), _some_vectors()]
    sides[empty_side == "right"] = _empty(EMB)
    got = cross_similar_join(*sides, threshold=0.5, rows_per_block=2)
    assert got.count() == 0
    assert list(zip(got.schema().names, got.schema().types)) == CROSS


@pytest.mark.parametrize("op", ["ivf_pairs_cosine", "semantic_dedup"])
def test_trained_centroids_on_empty_input_raise(ray_session, op):
    from crawlray.ops import knn

    with pytest.raises(ValueError, match="empty"):
        getattr(knn, op)(_empty(EMB), "train", threshold=0.9)


def _words(seed: int, n: int = 300) -> str:
    rs = np.random.RandomState(seed)
    return " ".join(bytes(rs.randint(97, 123, 6, dtype=np.uint8)).decode() for _ in range(n))


@pytest.mark.parametrize("op", ["minhash", "simhash", "srp", "cdc"])
def test_oversize_bucket_keeps_smallest_ids(ray_session, capsys, op):
    """Two groups of identical inputs: each group shares every one of its
    buckets and no bucket with the other group. The oversize group keeps
    its `max_bucket` smallest ids in each of its `n_keys` buckets."""
    from crawlray.ops import knn, neardup
    from crawlray.ops.textqa import cdc_chunks

    max_bucket = 4
    big, small = [31, 7, 12, 3, 25, 18, 40], [50, 51, 52]
    if op == "srp":
        v = np.random.RandomState(3).randn(16)  # -v flips every sign bit
        ds = _emb({**{i: v for i in big}, **{i: -2 * v for i in small}})
        got, n_keys = knn.srp_pairs_cosine(ds, 0.9, max_bucket=max_bucket), 8
    else:
        ds = _docs({**{i: _words(1) for i in big}, **{i: _words(2) for i in small}})
        if op == "minhash":
            got = neardup.minhash_lsh_pairs(ds, num_perm=16, bands=4, max_bucket=max_bucket)
            n_keys = 4
        elif op == "simhash":
            got, n_keys = neardup.simhash_dup_pairs(ds, max_bucket=max_bucket), 4
        else:
            got = neardup.cdc_dup_pairs(ds, min_shared=1, max_bucket=max_bucket)
            n_keys = cdc_chunks(_docs({0: _words(1)})).to_pandas().chunk_fp.nunique()
            assert n_keys > 1
    want = set()
    for ids in (np.sort(big)[:max_bucket], np.sort(small)):
        ia, ib = np.triu_indices(len(ids), k=1)
        want |= set(zip(ids[ia].tolist(), ids[ib].tolist()))
    assert set(zip(got.column("id_a").to_pylist(), got.column("id_b").to_pylist())) == want
    assert got.num_rows == len(want)
    dropped = [int(n) for n in re.findall(r"(\d+) ids dropped", capsys.readouterr().out)]
    assert dropped == [n_keys * (len(big) - max_bucket)]
