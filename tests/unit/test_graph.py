"""PageRank parity vs a dense numpy reference (crawl-priority analytics)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def _numpy_pagerank(n, edge_list, n_iters, d):
    outdeg = np.zeros(n, dtype=np.int64)
    for s, _ in edge_list:
        outdeg[s] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        dang = r[outdeg == 0].sum()
        in_sum = np.zeros(n)
        for s, t in edge_list:
            in_sum[t] += r[s] / outdeg[s]
        r = (1 - d) / n + d * (in_sum + dang / n)
    return r


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    pairs = sorted(set(zip(src[keep].tolist(), dst[keep].tolist())))
    return pairs


def test_pagerank_matches_dense_reference(ray_session):
    from crawlray.ops.graph import pagerank

    n, d, iters = 120, 0.85, 8
    edge_list = _random_graph(n, 600, seed=5)
    # ensure some dangling nodes exist (strip all out-edges of nodes 0-4)
    edge_list = [(s, t) for (s, t) in edge_list if s >= 5]
    want = _numpy_pagerank(n, edge_list, iters, d)

    edges = pa.table(
        {
            "src": pa.array([s for s, _ in edge_list], pa.int64()),
            "dst": pa.array([t for _, t in edge_list], pa.int64()),
        }
    )
    # the distributed node set only contains nodes that appear in SOME
    # edge — mirror that in the reference comparison
    present = sorted({x for e in edge_list for x in e})
    out = pagerank(
        ray.data.from_arrow(edges).repartition(5), n_iters=iters, damping=d
    ).take_all()
    got = {r["node"]: r["rank"] for r in out}
    assert set(got) == set(present)

    # re-run the dense reference restricted to the present node set
    idx = {node: i for i, node in enumerate(present)}
    el = [(idx[s], idx[t]) for s, t in edge_list]
    want = _numpy_pagerank(len(present), el, iters, d)
    for node in present:
        assert abs(got[node] - want[idx[node]]) < 1e-9, node
    # ranks are a probability distribution over the present nodes
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_pagerank_parallelism_invariant(ray_session):
    from crawlray.ops.graph import pagerank

    edge_list = _random_graph(60, 240, seed=9)
    edges = pa.table(
        {
            "src": pa.array([s for s, _ in edge_list], pa.int64()),
            "dst": pa.array([t for _, t in edge_list], pa.int64()),
        }
    )
    a = sorted(
        (r["node"], round(r["rank"], 12))
        for r in pagerank(ray.data.from_arrow(edges), n_iters=5).take_all()
    )
    b = sorted(
        (r["node"], round(r["rank"], 12))
        for r in pagerank(
            ray.data.from_arrow(edges).repartition(11), n_iters=5
        ).take_all()
    )
    assert a == b


def test_connected_components_vs_union_find(ray_session):
    from crawlray.ops.graph import connected_components

    rng = np.random.default_rng(17)
    # several chains + a star + isolated pairs: mixed diameters
    pairs = (
        [(i, i + 1) for i in range(0, 10)]          # chain 0..10
        + [(100, x) for x in range(101, 108)]        # star at 100
        + [(200, 201), (300, 301)]                   # pairs
        + [(400 + i, 400 + rng.integers(0, 20)) for i in range(20)]
    )
    pairs = [(int(a), int(b)) for a, b in pairs if a != b]

    # reference union-find
    parent = {}
    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    for a, b in pairs:
        union(a, b)
    want = {x: find(x) for x in parent}

    tbl = pa.table(
        {
            "id_a": pa.array([a for a, _ in pairs], pa.int64()),
            "id_b": pa.array([b for _, b in pairs], pa.int64()),
        }
    )
    out = connected_components(
        ray.data.from_arrow(tbl).repartition(4)
    ).take_all()
    got = {r["node"]: r["component"] for r in out}
    assert set(got) == set(want)
    for node in want:
        assert got[node] == want[node], (node, got[node], want[node])


def test_pagerank_shuffle_and_broadcast_paths_agree(ray_session, monkeypatch):
    """The small-node broadcast path and the shuffle path are the same
    operator — force each via exchange.BROADCAST_BYTES and compare to
    1e-9."""
    from crawlray.ops import exchange
    from crawlray.ops.graph import pagerank

    edge_list = _random_graph(60, 300, seed=9)
    edges = pa.table(
        {
            "src": pa.array([s for s, _ in edge_list], pa.int64()),
            "dst": pa.array([t for _, t in edge_list], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(edges).repartition(4)
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 1 << 40)
    via_bcast = {r["node"]: r["rank"] for r in pagerank(ds, n_iters=4).take_all()}
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    via_shuffle = {r["node"]: r["rank"] for r in pagerank(ds, n_iters=4).take_all()}
    assert set(via_bcast) == set(via_shuffle)
    for k in via_bcast:
        assert abs(via_bcast[k] - via_shuffle[k]) < 1e-9


def test_connected_components_paths_agree(ray_session, monkeypatch):
    from crawlray.ops import exchange
    from crawlray.ops.graph import connected_components

    rng = np.random.default_rng(17)
    a = rng.integers(0, 200, size=150)
    b = rng.integers(0, 200, size=150)
    keep = a != b
    pairs = pa.table(
        {
            "id_a": pa.array(a[keep], pa.int64()),
            "id_b": pa.array(b[keep], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(pairs).repartition(3)
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 1 << 40)
    via_bcast = {r["node"]: r["component"] for r in connected_components(ds).take_all()}
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    via_shuffle = {r["node"]: r["component"] for r in connected_components(ds).take_all()}
    assert via_bcast == via_shuffle


def test_connected_components_string_nodes_broadcast(ray_session):
    """Broadcast path propagates POSITIONS, so min-label semantics must
    hold for non-numeric node ids too."""
    from crawlray.ops.graph import connected_components

    pairs = pa.table(
        {
            "id_a": pa.array(["d", "b", "x"]),
            "id_b": pa.array(["b", "a", "y"]),
        }
    )
    got = {
        r["node"]: r["component"]
        for r in connected_components(ray.data.from_arrow(pairs)).take_all()
    }
    assert got == {"a": "a", "b": "a", "d": "a", "x": "x", "y": "x"}


def _brute_triangles(pairs):
    """Per-node triangle membership counts via adjacency-set brute force."""
    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    counts = defaultdict(int)
    nodes = sorted(adj)
    for a, b in pairs:
        a, b = min(a, b), max(a, b)
        for c in adj[a] & adj[b]:
            if c > b:
                counts[a] += 1
                counts[b] += 1
                counts[c] += 1
    return dict(counts)


def test_triangle_counts_vs_brute_force(ray_session):
    from crawlray.ops.graph import triangle_counts

    pairs = _random_graph(60, 400, seed=11)
    und = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    ds = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([a for a, _ in und], pa.int64()),
                "id_b": pa.array([b for _, b in und], pa.int64()),
            }
        )
    )
    got = {r["node"]: r["n_tri"] for r in triangle_counts(ds).take_all()}
    want = _brute_triangles(und)
    assert want, "fixture should contain triangles"
    assert got == want


def test_triangle_counts_triangle_free_and_empty(ray_session):
    """A path graph (wedges, no closures) and an empty edge list both
    come back as a proper 0-row (node, n_tri) dataset — the sparse-graph
    regression where all-empty join blocks poisoned the second join."""
    from crawlray.ops.graph import triangle_counts

    path = pa.table(
        {
            "id_a": pa.array([0, 1, 2], pa.int64()),
            "id_b": pa.array([1, 2, 3], pa.int64()),
        }
    )
    out = triangle_counts(ray.data.from_arrow(path))
    assert out.take_all() == []
    assert set(out.schema().names) == {"node", "n_tri"}

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
        }
    )
    out2 = triangle_counts(ray.data.from_arrow(empty))
    assert out2.take_all() == []
    assert set(out2.schema().names) == {"node", "n_tri"}


@pytest.mark.parametrize("nblocks", [1, 5])
def test_kcore_crafted_and_block_invariant(ray_session, nblocks):
    """Chain peels away entirely, pendant peels off, triangle and
    4-clique survive the 2-core with in-core degrees — checked against
    a pure-Python peel reference."""
    import collections

    from crawlray.ops.graph import kcore

    edges = (
        # chain 1-2-3-4-5: interior is degree 2 but the ends unravel it
        [(1, 2), (2, 3), (3, 4), (4, 5)]
        # triangle 10-11-12 with pendant 13
        + [(10, 11), (11, 12), (10, 12), (10, 13)]
        # 4-clique 20..23
        + [(a, b) for i, a in enumerate([20, 21, 22, 23])
           for b in [20, 21, 22, 23][i + 1:]]
    )

    def ref_kcore(es, k):
        adj = collections.defaultdict(set)
        for a, b in es:
            adj[a].add(b)
            adj[b].add(a)
        changed = True
        while changed:
            changed = False
            for n in list(adj):
                if len(adj[n]) < k:
                    for m in adj.pop(n):
                        adj[m].discard(n)
                    changed = True
        return {n: len(v) for n, v in adj.items() if v}

    want = ref_kcore(edges, 2)
    assert set(want) == {10, 11, 12, 20, 21, 22, 23}

    tbl = pa.table(
        {
            "id_a": pa.array([a for a, _ in edges], pa.int64()),
            "id_b": pa.array([b for _, b in edges], pa.int64()),
        }
    )
    got = (
        kcore(ray.data.from_arrow(tbl).repartition(nblocks), k=2)
        .to_pandas()
        .sort_values("node")
    )
    assert dict(zip(got["node"], got["deg"])) == want


def test_kcore_empty_and_full(ray_session):
    from crawlray.ops.graph import kcore

    empty = pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
    )
    assert kcore(ray.data.from_arrow(empty), k=2).count() == 0

    # a graph already at fixpoint returns in one round
    tri = pa.table(
        {"id_a": pa.array([1, 2, 1], pa.int64()),
         "id_b": pa.array([2, 3, 3], pa.int64())}
    )
    got = kcore(ray.data.from_arrow(tri), k=2).to_pandas()
    assert sorted(got["node"]) == [1, 2, 3]
    assert (got["deg"] == 2).all()


def test_kcore_shuffle_path_matches_broadcast(ray_session, monkeypatch):
    """exchange.BROADCAST_BYTES = 0 forces the shuffle semi-join rounds —
    the two restriction paths must be result-identical."""
    from crawlray.ops import exchange
    from crawlray.ops.graph import kcore

    rng = np.random.RandomState(3)
    a = rng.randint(0, 120, 600).astype("int64")
    b = rng.randint(0, 120, 600).astype("int64")
    keep = a != b
    tbl = pa.table({"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep])})
    ds = ray.data.from_arrow(tbl).repartition(4)
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 1 << 40)
    got_b = kcore(ds, k=3).to_pandas().sort_values("node").reset_index(drop=True)
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    got_s = kcore(ds, k=3).to_pandas().sort_values("node").reset_index(drop=True)
    assert got_b.equals(got_s)
    assert len(got_b) > 0


@pytest.mark.parametrize("nblocks", [1, 4])
@pytest.mark.parametrize("local_threshold", [2_000_000, 0])
def test_hits_scores_matches_dense_reference(
    ray_session, nblocks, local_threshold
):
    """Unnormalized integer HITS vs a dense numpy reference; exact int
    equality at any block count."""
    from crawlray.ops.graph import hits_scores

    rng = np.random.RandomState(5)
    n = 40
    a = rng.randint(0, n, 150).astype("int64")
    b = rng.randint(0, n, 150).astype("int64")
    keep = a != b
    edges = sorted(set(zip(a[keep].tolist(), b[keep].tolist())))
    A = np.zeros((n, n), dtype=np.int64)
    for s, d in edges:
        A[s, d] = 1
    h = np.ones(n, dtype=object)  # python ints: no overflow anywhere
    for _ in range(3):
        auth = A.T.dot(h)
        h = A.dot(auth)
    tbl = pa.table(
        {
            "src": pa.array([s for s, _ in edges], pa.int64()),
            "dst": pa.array([d for _, d in edges], pa.int64()),
        }
    )
    got = (
        hits_scores(
            ray.data.from_arrow(tbl).repartition(nblocks),
            local_threshold=local_threshold,
        )
        .to_pandas()
        .sort_values("node")
        .set_index("node")
    )
    present = sorted(set([s for s, _ in edges] + [d for _, d in edges]))
    assert got.index.tolist() == present
    for node in present:
        assert got.loc[node, "auth"] == int(auth[node]), node
        assert got.loc[node, "hub"] == int(h[node]), node


def test_graph_ops_empty_edge_sets(ray_session):
    """Round 5: an EMPTY pair/edge set is a legitimate input (a corpus
    with zero near-dup pairs feeds connected_components no edges; an
    empty webgraph slice feeds pagerank/HITS none). Each op must return
    a typed empty result, not crash on schema-less empty lineages."""
    import ray.data

    from crawlray.ops.graph import (
        connected_components,
        hits_scores,
        kcore,
        pagerank,
        triangle_counts,
    )

    ep = ray.data.from_arrow(
        pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
    )
    cc = connected_components(ep)
    assert cc.count() == 0 and set(cc.schema().names) == {"node", "component"}
    assert triangle_counts(ep).count() == 0
    assert kcore(ep, k=2).count() == 0

    ee = ray.data.from_arrow(
        pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
    )
    pr = pagerank(ee)
    assert pr.count() == 0 and set(pr.schema().names) == {"node", "rank"}
    h = hits_scores(ee)
    assert h.count() == 0 and set(h.schema().names) == {"node", "auth", "hub"}
