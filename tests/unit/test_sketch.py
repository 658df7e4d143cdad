"""O-32 HyperLogLog: accuracy vs exact distinct at 1e5 scale, register-merge
associativity, and the Dataset-level approx_distinct over string + int cols."""

import numpy as np
import pyarrow as pa
import pytest

from crawlray.ops.sketch import HLL, approx_distinct, splitmix64


def test_hll_accuracy_vs_exact():
    for n in (1_000, 100_000):
        h = HLL(12)
        h.add_hashes(splitmix64(np.arange(n, dtype=np.int64)))
        assert abs(h.estimate() - n) / n < 0.05, (n, h.estimate())


def test_hll_merge_equals_union():
    a, b, full = HLL(12), HLL(12), HLL(12)
    a.add_hashes(splitmix64(np.arange(0, 60_000, dtype=np.int64)))
    b.add_hashes(splitmix64(np.arange(30_000, 90_000, dtype=np.int64)))
    full.add_hashes(splitmix64(np.arange(90_000, dtype=np.int64)))
    a.merge(b)
    assert np.array_equal(a.registers, full.registers)


def test_hll_duplicates_do_not_inflate():
    h = HLL(12)
    for _ in range(5):
        h.add_hashes(splitmix64(np.arange(10_000, dtype=np.int64)))
    assert abs(h.estimate() - 10_000) / 10_000 < 0.05


def test_approx_distinct_dataset(ray_session):
    import ray.data

    n, dups = 50_000, 3
    ids = np.tile(np.arange(n, dtype=np.int64), dups)
    ds = ray.data.from_arrow(
        pa.table({"k_int": pa.array(ids), "k_str": pa.array([f"u{v}" for v in ids])})
    ).repartition(8)
    for col in ("k_int", "k_str"):
        est = approx_distinct(ds, col)
        assert abs(est - n) / n < 0.05, (col, est)


# ---------------------------------------------------------------- MG sketch


def test_frequent_items_exact_when_k_large(ray_session):
    import collections

    import numpy as np
    import ray.data

    from crawlray.ops.sketch import frequent_items

    rng = np.random.RandomState(3)
    vals = [f"u{int(v)}" for v in rng.zipf(1.7, 5000) % 40]
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(7)
    tbl, under = frequent_items(ds, "v", k=1000)
    got = dict(zip(tbl["item"].to_pylist(), tbl["est_count"].to_pylist()))
    assert under == 0
    assert got == dict(collections.Counter(vals))


def test_frequent_items_guarantee(ray_session):
    import collections

    import numpy as np
    import ray.data

    from crawlray.ops.sketch import frequent_items

    rng = np.random.RandomState(11)
    vals = [f"u{int(v)}" for v in rng.zipf(1.3, 20000) % 500]
    true = collections.Counter(vals)
    n = len(vals)
    k = 16
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(13)
    tbl, under = frequent_items(ds, "v", k=k)
    assert tbl.num_rows <= k
    assert under <= n // (k + 1)
    got = dict(zip(tbl["item"].to_pylist(), tbl["est_count"].to_pylist()))
    for it, est in got.items():
        assert est <= true[it]            # never overcounts
        assert true[it] - est <= under    # bounded undercount
    # every item above the n/(k+1) threshold must be present
    for it, c in true.items():
        if c > n // (k + 1) + under:
            assert it in got, f"heavy hitter {it} ({c}) missing"


# ------------------------------------------------------- KMV bottom-k sample


def test_bottomk_sample_deterministic_and_mergeable(ray_session):
    import hashlib

    import ray.data

    from crawlray.ops.sketch import bottomk_sample

    ids = [f"k{i:05d}" for i in range(3000)]
    tbl = pa.table({"id": ids, "v": list(range(3000))})
    ds = ray.data.from_arrow(tbl)
    got = bottomk_sample(ds, "id", k=100, columns=["v"])
    want = sorted(ids, key=lambda s: (hashlib.md5(s.encode()).hexdigest(), s))[
        :100
    ]
    assert sorted(got.column("id").to_pylist()) == sorted(want)
    got2 = bottomk_sample(ds.repartition(17), "id", k=100, columns=["v"])
    assert got.column("id").to_pylist() == got2.column("id").to_pylist()


def test_approx_quantiles_error_bound(ray_session):
    import numpy as np
    import ray.data

    from crawlray.ops.sketch import approx_quantiles

    rng = np.random.RandomState(7)
    vals = rng.lognormal(0.0, 1.0, 50000)
    tbl = pa.table({"id": np.arange(50000, dtype="int64"), "v": vals})
    ds = ray.data.from_arrow(tbl).repartition(11)
    out = approx_quantiles(
        ds, "v", "id", qs=[0.5, 0.9], k=4096, hash_fn="murmur3"
    )
    got50 = out.column("q0_5")[0].as_py()
    got90 = out.column("q0_9")[0].as_py()
    # rank error of a k-uniform sample ~1.5/sqrt(k) ≈ 0.025 at k=4096;
    # accept the true value of a quantile within ±0.04 rank of the target
    lo50, hi50 = np.quantile(vals, [0.46, 0.54])
    lo90, hi90 = np.quantile(vals, [0.86, 0.94])
    assert lo50 <= got50 <= hi50
    assert lo90 <= got90 <= hi90


def test_approx_distinct_by_accuracy_and_invariance(ray_session):
    import numpy as np
    import ray.data

    from crawlray.ops.sketch import approx_distinct_by

    rng = np.random.RandomState(5)
    groups = rng.choice(["a", "b", "c"], 30000)
    # distinct cardinalities per group differ by an order of magnitude
    vals = np.where(
        groups == "a", rng.randint(0, 200, 30000),
        np.where(groups == "b", rng.randint(0, 2000, 30000),
                 rng.randint(0, 12000, 30000)),
    )
    tbl = pa.table({"g": groups, "v": vals.astype("int64")})
    ds = ray.data.from_arrow(tbl).repartition(9)
    out = approx_distinct_by(ds, "g", "v")
    got = dict(zip(out.column("g").to_pylist(),
                   out.column("estimate").to_pylist()))
    import collections
    true = {g: len({int(v) for gg, v in zip(groups, vals) if gg == g})
            for g in ("a", "b", "c")}
    for g in true:
        assert abs(got[g] - true[g]) <= 0.05 * true[g] + 2, (g, got[g], true[g])
    out2 = approx_distinct_by(ds.repartition(23), "g", "v")
    got2 = dict(zip(out2.column("g").to_pylist(),
                    out2.column("estimate").to_pylist()))
    assert got2 == got  # register-max merge: block-layout invariant


def test_approx_distinct_by_on_empty_input_is_typed(ray_session):
    import ray.data

    from crawlray.ops.sketch import approx_distinct_by

    empty = pa.table({"g": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    out = approx_distinct_by(ray.data.from_arrow(empty), "g", "v")
    assert out.num_rows == 0
    assert out.schema == pa.schema([("g", pa.string()), ("estimate", pa.float64())])


def test_count_min_overcount_bound_and_invariance(ray_session):
    """CM never undercounts (est >= true, deterministically), sums to N
    per row, and — being a LINEAR sketch — the counter matrix is
    bit-identical at any block count."""
    import collections

    import ray.data

    from crawlray.ops.sketch import cm_probe, count_min

    rng = np.random.RandomState(11)
    keys = rng.zipf(1.5, 20000).astype("int64") % 500
    tbl = pa.table({"k": keys})
    true = collections.Counter(keys.tolist())

    cm = count_min(ray.data.from_arrow(tbl).repartition(7), "k")
    assert cm.shape == (4, 4096)
    # linear merge: every row of the matrix sums to N
    assert (cm.sum(axis=1) == len(keys)).all()
    # block-layout invariance (elementwise-add merge is exact)
    cm1 = count_min(ray.data.from_arrow(tbl).repartition(1), "k")
    assert (cm == cm1).all()

    distinct = pa.table({"k": pa.array(sorted(true), pa.int64())})
    probed = cm_probe(ray.data.from_arrow(distinct), cm, "k").to_pandas()
    est = dict(zip(probed["k"], probed["cm_est"]))
    n = len(keys)
    for key, t in true.items():
        assert est[key] >= t, (key, est[key], t)
        # expected overcount e/width*N per row; assert a loose 20x slack
        assert est[key] - t <= max(20 * 2.718 * n / 4096, 8), (
            key, est[key], t
        )


def test_count_min_string_keys_exact_at_low_load(ray_session):
    """Few distinct string keys vs a 4096-wide matrix: min over 4 rows
    recovers the exact counts (no collision survives all rows)."""
    import ray.data

    from crawlray.ops.sketch import cm_probe, count_min

    rows = [{"u": f"user{i % 37}"} for i in range(7400)]
    ds = ray.data.from_items(rows).repartition(5)
    cm = count_min(ds, "u")
    distinct = pa.table({"u": pa.array([f"user{i}" for i in range(37)])})
    probed = cm_probe(ray.data.from_arrow(distinct), cm, "u").to_pandas()
    assert (probed["cm_est"] == 200).all()


def test_count_min_null_keys_ignored(ray_session):
    """ADVICE r4: null keys must be dropped at build (they would
    otherwise break bincount via NaN dictionary indices) and probed as
    null — SQL COUNT(col) semantics."""
    import ray.data

    from crawlray.ops.sketch import cm_probe, count_min

    with_nulls = pa.table(
        {"u": pa.array(["a"] * 50 + [None] * 30 + ["b"] * 20, pa.string())}
    )
    cm = count_min(ray.data.from_arrow(with_nulls).repartition(4), "u")
    # nulls never counted: matrix totals exclude the 30 null rows
    assert (cm.sum(axis=1) == 70).all()
    probe_in = pa.table({"u": pa.array(["a", None, "b"], pa.string())})
    probed = cm_probe(ray.data.from_arrow(probe_in), cm, "u").to_pandas()
    by_key = dict(zip(probe_in.column("u").to_pylist(), probed["cm_est"]))
    assert by_key["a"] == 50 and by_key["b"] == 20
    assert probed["cm_est"].isna().sum() == 1  # the null key probes null

    # int keys with nulls: same contract on the splitmix path
    ints = pa.table({"k": pa.array([1] * 10 + [None] * 5 + [2] * 3, pa.int64())})
    cmi = count_min(ray.data.from_arrow(ints).repartition(3), "k")
    assert (cmi.sum(axis=1) == 13).all()
    pr = cm_probe(
        ray.data.from_arrow(pa.table({"k": pa.array([1, 2, None], pa.int64())})),
        cmi,
        "k",
    ).to_pandas()
    assert pr["cm_est"].tolist()[:2] == [10, 3]
    assert pr["cm_est"].isna().tolist() == [False, False, True]

    # float and bool keys with nulls: no type-specific null filler exists
    # for them (ADVICE sketch.py:493), so only the valid keys are hashed
    for arr, keys, want in (
        (pa.array([1.5] * 4 + [None] * 2 + [2.5] * 7, pa.float64()),
         pa.array([2.5, None, 1.5], pa.float64()), [7, None, 4]),
        (pa.array([True] * 6 + [None] * 3 + [False] * 2, pa.bool_()),
         pa.array([None, False, True], pa.bool_()), [None, 2, 6]),
    ):
        cmx = count_min(ray.data.from_arrow(pa.table({"x": arr})).repartition(2), "x")
        got = cm_probe(ray.data.from_arrow(pa.table({"x": keys})), cmx, "x")
        est = got.take_all()
        assert [r["cm_est"] for r in est] == want
