"""kNN / ANN operators: brute-force parity of the block-pair exact search,
tie-break determinism, and IVF probe recall vs the brute-force baseline."""

import numpy as np
import pyarrow as pa
import pytest

from crawlray.ops.knn import (
    ivf_search_knn,
    knn_cosine,
    similar_pairs_cosine,
)


def _vecs(n=200, dim=16, seed=3, n_clusters=8):
    """Deterministic clustered vectors (so IVF has real structure)."""
    rng = np.random.RandomState(seed)
    centers = rng.randn(n_clusters, dim)
    assign = rng.randint(0, n_clusters, size=n)
    m = centers[assign] + 0.15 * rng.randn(n, dim)
    return m, centers


def _ds(m):
    import ray.data

    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(m), dtype=np.int64)),
            "embedding": pa.array([row.tolist() for row in m], pa.list_(pa.float64())),
        }
    )
    return ray.data.from_arrow(tbl), tbl


def _brute_pairs(m, threshold):
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = norm @ norm.T
    out = set()
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            if sims[i, j] >= threshold:
                out.add((i, j))
    return out


def test_similar_pairs_exact_vs_brute_force(ray_session):
    m, _ = _vecs()
    ds, _ = _ds(m)
    # tiny blocks force the multi-block (cross-block-task) path
    got = similar_pairs_cosine(ds, threshold=0.9, rows_per_block=32)
    got_pairs = set(zip(got.column("id_a").to_pylist(), got.column("id_b").to_pylist()))
    assert got_pairs == _brute_pairs(m, 0.9)
    # sorted output
    ids = list(zip(got.column("id_a").to_pylist(), got.column("id_b").to_pylist()))
    assert ids == sorted(ids)


def test_knn_tie_break_is_block_layout_independent(ray_session):
    import ray.data

    # duplicate embeddings → exact sim ties; the winner must be the smaller
    # neighbor_id regardless of how rows are split into blocks
    base = np.eye(4)
    m = np.concatenate([base, base, base])  # ids 0..11, three copies of each
    _, tbl = _ds(m)
    q = m[:2]
    qids = np.array([100, 101])
    results = []
    for nblocks in (1, 3, 6):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        out = knn_cosine(ds, q, qids, k=3, exclude_self=False)
        results.append(
            list(zip(out.column("query_id").to_pylist(), out.column("neighbor_id").to_pylist()))
        )
    assert results[0] == results[1] == results[2]
    # query 0 == vectors 0, 4, 8 exactly → ties broken by ascending id
    assert [n for qq, n in results[0] if qq == 100] == [0, 4, 8]


def test_ivf_search_recall(ray_session):
    m, centers = _vecs(n=400)
    ds, _ = _ds(m)
    q = m[:20]
    qids = np.arange(20, dtype=np.int64)
    exact = knn_cosine(ds, q, qids, k=5)
    approx = ivf_search_knn(ds, centers, q, qids, k=5, nprobe=3)
    exact_set = set(zip(exact.column("query_id").to_pylist(), exact.column("neighbor_id").to_pylist()))
    approx_set = set(zip(approx.column("query_id").to_pylist(), approx.column("neighbor_id").to_pylist()))
    recall = len(exact_set & approx_set) / len(exact_set)
    # clustered data + nprobe=3 of 8 buckets: recall must be high (deterministic)
    assert recall >= 0.8, f"IVF recall {recall:.2f} too low"
    # determinism
    approx2 = ivf_search_knn(ds, centers, q, qids, k=5, nprobe=3)
    assert approx.equals(approx2)


def test_ivf_pairs_recall_vs_exact(ray_session):
    """IVF-bucketed near-dup pairs: precision must be 1.0 (every emitted
    pair verified in f64) and recall ≥ 0.8 of the exact block-pair answer
    on a clustered corpus (pairs inside a cluster share a bucket)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawlray.ops.knn import ivf_pairs_cosine, similar_pairs_cosine

    rng = np.random.RandomState(11)
    centers = rng.randn(6, 32)
    vecs, ids = [], []
    for i in range(300):
        c = centers[i % 6]
        vecs.append(c + 0.05 * rng.randn(32))
        ids.append(i)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(5)
    exact = similar_pairs_cosine(ds, threshold=0.9, rows_per_block=64)
    approx = ivf_pairs_cosine(ds, centers, threshold=0.9)
    ep = set(zip(exact.column("id_a").to_pylist(), exact.column("id_b").to_pylist()))
    ap = set(zip(approx.column("id_a").to_pylist(), approx.column("id_b").to_pylist()))
    assert ap <= ep  # precision 1.0: same-bucket pairs are exactly verified
    assert len(ep) > 100
    assert len(ap) / len(ep) >= 0.8


def test_trained_centroids_beat_naive_seed(ray_session):
    """k-means training (centroids='train') must improve ivf_search_knn
    recall over the naive first-k-vectors centroid choice on clustered data
    (VERDICT r2 item 4), and must be deterministic."""
    import ray.data

    from crawlray.ops.knn import train_ivf_centroids

    m, _ = _vecs(n=500, n_clusters=8, seed=9)
    ds, tbl = _ds(m)
    q = m[:25]
    qids = np.arange(25, dtype=np.int64)
    exact = knn_cosine(ds, q, qids, k=5)
    exact_set = set(
        zip(exact.column("query_id").to_pylist(), exact.column("neighbor_id").to_pylist())
    )

    def recall(approx):
        s = set(
            zip(
                approx.column("query_id").to_pylist(),
                approx.column("neighbor_id").to_pylist(),
            )
        )
        return len(exact_set & s) / len(exact_set)

    naive = m[:8]  # the round-2 default: first 8 vectors as centroids
    r_naive = recall(ivf_search_knn(ds, naive, q, qids, k=5, nprobe=2))
    r_train = recall(
        ivf_search_knn(ds, "train", q, qids, k=5, nprobe=2, n_centroids=8)
    )
    assert r_train >= r_naive, (r_train, r_naive)
    assert r_train >= 0.8, r_train

    # determinism: same data → identical centroids at any block layout
    c1 = train_ivf_centroids(ds, k=8)
    c2 = train_ivf_centroids(ray.data.from_arrow(tbl).repartition(7), k=8)
    assert np.allclose(c1, c2, atol=1e-9)


def test_srp_pairs_precision_exact_and_recall_high(ray_session):
    """SRP-LSH near-dup: every emitted pair must be a TRUE pair with its
    exact f64 cosine (precision exact by construction); recall over
    planted near-dups (cos ≥ 0.95) must be high."""
    from crawlray.ops.knn import srp_pairs_cosine

    rng = np.random.RandomState(11)
    base = rng.randn(150, 32)
    # plant 30 near-dups: tiny perturbations of the first 30 rows
    dups = base[:30] + 0.01 * rng.randn(30, 32)
    m = np.vstack([base, dups])
    ds, _ = _ds(m)
    thr = 0.9
    got = srp_pairs_cosine(ds, thr, n_bits=64, bands=8, seed=7)
    got_pairs = {
        (a, b): s
        for a, b, s in zip(
            got.column("id_a").to_pylist(),
            got.column("id_b").to_pylist(),
            got.column("sim").to_pylist(),
        )
    }
    want = _brute_pairs(m, thr)
    # precision: every emitted pair is a true pair (exact verification)
    assert set(got_pairs) <= want
    # exact sims: recompute and compare
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    for (a, b), s in got_pairs.items():
        assert abs(s - float(norm[a] @ norm[b])) < 1e-5
    # recall over the planted very-close dups (cos ≈ 0.999)
    planted = {(i, 150 + i) for i in range(30) if (i, 150 + i) in want}
    found_planted = planted & set(got_pairs)
    assert len(found_planted) >= 0.95 * len(planted)
    # overall recall at this threshold should be high too
    assert len(set(got_pairs)) >= 0.8 * len(want)


def test_srp_pairs_broadcast_equals_join_path(ray_session, monkeypatch):
    """The exact-verify chooser: the broadcast path (candidate vectors
    ray.put once, looked up by id) and the join path (vectors ride two
    hash joins as binary) must emit IDENTICAL pairs and sims —
    `exchange.BROADCAST_BYTES` = 0 forces the join path."""
    from crawlray.ops import exchange
    from crawlray.ops.knn import srp_pairs_cosine

    rng = np.random.RandomState(3)
    m = rng.randn(100, 16)
    m = np.vstack([m, m[:15] + 0.01 * rng.randn(15, 16)])
    ds, _ = _ds(m)
    bcast = srp_pairs_cosine(ds, 0.9, n_bits=64, bands=8, seed=7)
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    joined = srp_pairs_cosine(ds, 0.9, n_bits=64, bands=8, seed=7)
    assert bcast.to_pylist() == joined.to_pylist()
    assert bcast.num_rows > 0  # non-vacuous


def test_srp_pairs_deterministic_across_layouts(ray_session):
    """Same seed + input ⇒ identical pair set at any parallelism."""
    from crawlray.ops.knn import srp_pairs_cosine

    rng = np.random.RandomState(5)
    m = rng.randn(120, 16)
    m = np.vstack([m, m[:20] + 0.005 * rng.randn(20, 16)])
    ds1, tbl = _ds(m)
    import ray.data

    ds2 = ray.data.from_arrow(tbl).repartition(9)
    a = srp_pairs_cosine(ds1, 0.9).to_pylist()
    b = srp_pairs_cosine(ds2, 0.9).to_pylist()
    assert a == b


def test_sq8_quantized_knn_recall_and_compression(ray_session):
    """SQ8 search: ≥0.9 recall@5 vs the exact operator, 8x smaller
    payload (dim int8 bytes vs dim f64 list)."""
    import ray.data

    from crawlray.ops.knn import knn_cosine, sq8_knn, sq8_quantize

    m, _ = _vecs(n=300, dim=32, seed=13)
    ds, _tbl = _ds(m)
    queries = m[:10]
    qids = np.arange(10, dtype=np.int64)
    exact = knn_cosine(ds, queries, qids, k=5)
    qds = sq8_quantize(ds)
    approx = sq8_knn(qds.repartition(6), queries, qids, k=5)
    e = set(zip(exact.column("query_id").to_pylist(),
                exact.column("neighbor_id").to_pylist()))
    a = set(zip(approx.column("query_id").to_pylist(),
                approx.column("neighbor_id").to_pylist()))
    assert len(a & e) / len(e) >= 0.9
    # compression: q column is exactly dim bytes per row
    one = qds.take(1)[0]
    assert len(one["q"]) == 32  # int8 per dim; f64 list would be 256 bytes
    # quantized sims are within the analytic error of true cosines
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    for r in approx.to_pylist():
        true = float(norm[r["query_id"]] @ norm[r["neighbor_id"]])
        assert abs(r["sim"] - true) < 32 * (1 / 127.0)  # loose bound


def test_cross_similar_join_both_paths_match_brute(ray_session, monkeypatch):
    from crawlray.ops import exchange
    from crawlray.ops.knn import cross_similar_join

    m, _ = _vecs(n=150, seed=6)
    mr, _ = _vecs(n=60, dim=16, seed=7)
    ds_l, _ = _ds(m)
    import ray.data
    tbl_r = pa.table(
        {
            "vec_id": pa.array(np.arange(len(mr), dtype=np.int64) + 1000),
            "embedding": pa.array([r.tolist() for r in mr], pa.list_(pa.float64())),
        }
    )
    ds_r = ray.data.from_arrow(tbl_r)

    def _brute_cross(t):
        nl = m / np.linalg.norm(m, axis=1, keepdims=True)
        nr = mr / np.linalg.norm(mr, axis=1, keepdims=True)
        s = nl @ nr.T
        return {
            (i, 1000 + j)
            for i, j in zip(*np.nonzero(s >= t))
        }

    want = _brute_cross(0.8)
    for budget, kwargs in (
        (1 << 40, {}),                   # broadcast path
        (0, {"rows_per_block": 32}),     # block-pair path
    ):
        monkeypatch.setattr(exchange, "BROADCAST_BYTES", budget)
        out = cross_similar_join(ds_l, ds_r, threshold=0.8, **kwargs)
        got = {
            (a, b)
            for batch in out.iter_batches(batch_format="pyarrow")
            for a, b in zip(
                batch["left_id"].to_pylist(), batch["right_id"].to_pylist()
            )
        }
        assert got == want, budget


def test_cross_similar_join_exclude_equal_ids(ray_session):
    from crawlray.ops.knn import cross_similar_join

    m, _ = _vecs(n=40, seed=8)
    ds_l, tbl = _ds(m)
    import ray.data
    ds_r = ray.data.from_arrow(tbl)  # identical table both sides
    out = cross_similar_join(
        ds_l, ds_r, threshold=0.999, exclude_equal_ids=True
    )
    for batch in out.iter_batches(batch_format="pyarrow"):
        a = np.asarray(batch["left_id"].to_pylist())
        b = np.asarray(batch["right_id"].to_pylist())
        assert (a != b).all()


def test_srp_cross_join_precision_exact_and_planted_recall(ray_session):
    import ray.data

    from crawlray.ops.knn import cross_similar_join, srp_cross_join

    m, _ = _vecs(n=120, seed=13)
    mr, _ = _vecs(n=50, dim=16, seed=14)
    # plant cross dups: right rows 40..49 are positive scalings of left rows
    mr[40:50] = m[10:20] * 1.7
    ds_l, _ = _ds(m)
    tbl_r = pa.table(
        {
            "vec_id": pa.array(np.arange(len(mr), dtype=np.int64)),
            "embedding": pa.array([r.tolist() for r in mr], pa.list_(pa.float64())),
        }
    )
    ds_r = ray.data.from_arrow(tbl_r)

    got = srp_cross_join(
        ds_l, ds_r, threshold=0.8, n_bits=128, bands=32
    )
    got_pairs = set(
        zip(got.column("left_id").to_pylist(), got.column("right_id").to_pylist())
    )
    want = cross_similar_join(ds_l, ds_r, threshold=0.8)
    want_pairs = {
        (a, b)
        for batch in want.iter_batches(batch_format="pyarrow")
        for a, b in zip(batch["left_id"].to_pylist(), batch["right_id"].to_pylist())
    }
    assert got_pairs <= want_pairs          # precision 1.0 (exact verify)
    for k in range(10):                     # identical-direction dups: every
        assert (10 + k, 40 + k) in got_pairs  # band collides -> recall 1.0
    # no same-side pair leaks through the cross filter
    assert all(0 <= a < 120 and 0 <= b < 50 for a, b in got_pairs)
