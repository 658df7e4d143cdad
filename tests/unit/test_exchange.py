"""crawlray.ops.exchange: the hash and range exchanges, the one join
and the prefix scan.

The join cases are the Ray 2.49 shapes on which `Dataset.join` raises
`ArrowInvalid: No match ... for key field`: a side with zero rows (even
with a schema), and a side whose real rows miss some join partitions
while zero-column blocks from empty exchange partitions sit next to them.
Every result is checked, rows and schema, against a local
`pyarrow.Table.join` of the same inputs. The later cases pin the
map/reduce contract: `merge` runs on every partition, one partition
works, and pandas blocks are read as Arrow; `aggregate` is checked
against pandas, and with no keys gives one row. `sort` is checked
against `Table.sort_by`, and `scan` against `np.cumsum`. `map_blocks`
runs its function once per block that holds rows, or once on the typed
empty table."""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

OPS = pathlib.Path(__file__).resolve().parents[2] / "crawlray" / "ops"

# the join types every caller uses: plain, outer, and bloom_semi_join's
JOIN_TYPES = ["inner", "left_outer", "left_semi", "left_anti"]

BIG = pa.table(
    {"k": pa.array(np.arange(100), pa.int64()),
     "x": pa.array([f"x{i}" for i in range(100)])}
)


# a right side with a duplicate key and a key the left side lacks
SMALL = pa.table({"k": pa.array([3, 7, 7, 500], pa.int64()),
                  "y": pa.array([1, 2, 3, 4], pa.int64())})


def _one_row_exchange(ds):
    """A 1-row exchange output; with 8 partitions, 7 are empty."""
    from crawlray.ops.exchange import hash_exchange

    def _keep_k7(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("k"), 7))
        return pa.table({"k": t.column("k"), "y": pc.multiply(t.column("k"), 2)})

    return hash_exchange(ds, ["k"], _keep_k7, num_partitions=8)


def _check(got_ds, lt: pa.Table, rt: pa.Table, join_type: str):
    want = lt.join(rt, keys="k", join_type=join_type.replace("_", " "))
    got = pa.Table.from_pylist(got_ds.take_all(), schema=want.schema)
    assert got_ds.schema().names == want.schema.names
    assert [f.type for f in want.schema] == list(got_ds.schema().types)
    key = [(c, "ascending") for c in want.schema.names]
    assert got.sort_by(key).equals(want.sort_by(key))


def _blocks(ds):
    import ray

    return [ray.get(r) for b in ds.iter_internal_ref_bundles() for r, _ in b.blocks]


@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_join_zero_row_side_with_schema(ray_session, join_type):
    import ray.data

    from crawlray.ops.exchange import join

    big = ray.data.from_arrow(BIG)
    # a filter that matched nothing: zero rows, schema (k, y)
    nothing = big.map_batches(
        lambda b: pa.table({"k": b.column("k"), "y": b.column("k")}).filter(
            pc.less(b.column("k"), 0)
        ),
        batch_format="pyarrow",
    )
    rt = pa.table({"k": pa.array([], pa.int64()), "y": pa.array([], pa.int64())})
    _check(join(big, nothing, on=["k"], join_type=join_type), BIG, rt, join_type)
    _check(
        join(ray.data.from_arrow(rt), big, on=["k"], join_type=join_type),
        rt, BIG, join_type,
    )


@pytest.mark.parametrize("num_partitions", [2, 4])
@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_join_one_row_exchange_output(ray_session, join_type, num_partitions):
    import ray.data

    from crawlray.ops.exchange import join

    one = _one_row_exchange(ray.data.from_arrow(BIG))
    assert all(t.num_rows for t in _blocks(one))
    rt = pa.table({"k": pa.array([7], pa.int64()), "y": pa.array([14], pa.int64())})
    big = ray.data.from_arrow(BIG).repartition(3)
    got = join(big, one, on=["k"], join_type=join_type, num_partitions=num_partitions)
    _check(got, BIG, rt, join_type)
    assert all(t.num_rows and t.num_columns for t in _blocks(got))


@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_join_all_empty_exchange_output(ray_session, join_type):
    import ray.data

    from crawlray.ops.exchange import join

    none = _one_row_exchange(ray.data.from_arrow(BIG.filter(pc.less(BIG["k"], 5))))
    assert none.count() == 0 and none.schema().names == ["k", "y"]
    rt = pa.table({"k": pa.array([], pa.int64()), "y": pa.array([], pa.int64())})
    _check(join(ray.data.from_arrow(BIG), none, on=["k"], join_type=join_type),
           BIG, rt, join_type)


def test_hash_exchange_routes_equal_keys_together(ray_session):
    """Int and string keys from two separately built datasets, unioned:
    a per-partition count must see every key exactly once."""
    import ray.data

    from crawlray.ops.exchange import hash_exchange

    def _count(t: pa.Table) -> pa.Table:
        return t.group_by(["i", "s"]).aggregate([([], "count_all")])

    ks = np.arange(200) % 37
    a = pa.table({"i": pa.array(ks, pa.int64()), "s": [f"s{v}" for v in ks]})
    b = pa.table({"i": pa.array(ks[::-1], pa.int64()),
                  "s": [f"s{v}" for v in ks[::-1]]})
    ds = ray.data.from_arrow(a).repartition(5).union(
        ray.data.from_arrow(b).repartition(3)
    )
    want = 2 * np.bincount(ks)
    for keys in (["i"], ["s"], ["i", "s"]):
        got = hash_exchange(ds, keys, _count, num_partitions=7).to_pandas()
        assert sorted(got["i"]) == list(range(37)), keys
        assert (got.sort_values("i")["count_all"].to_numpy() == want).all(), keys


def test_hash_exchange_empty_input_is_typed(ray_session):
    import ray.data

    from crawlray.ops.exchange import aggregate

    e = ray.data.from_arrow(BIG.slice(0, 0))
    out = aggregate(e, ["x"], {"n": (None, "count")})
    assert out.count() == 0
    assert out.schema().names == ["x", "n"]
    assert list(out.schema().types) == [pa.string(), pa.int64()]


@pytest.mark.parametrize("num_partitions", [1, 16])
def test_hash_exchange_runs_merge_on_every_partition(ray_session, num_partitions):
    """`merge` runs once per partition, on a typed table even where no
    key routes (3 distinct keys into 16 partitions), and one partition
    takes every row."""
    import ray.data

    from crawlray.ops.exchange import hash_exchange

    def _rows_per_partition(t: pa.Table) -> pa.Table:
        return pa.table({"rows": [t.num_rows], "names": [",".join(t.schema.names)]})

    t = BIG.append_column("g", pa.array(np.arange(100) % 3, pa.int64()))
    ds = ray.data.from_arrow(t).repartition(4)
    got = hash_exchange(
        ds, ["g"], _rows_per_partition, num_partitions=num_partitions
    ).to_pandas()
    assert len(got) == num_partitions
    assert set(got["names"]) == {"k,x,g"}
    assert got["rows"].sum() == 100
    assert (got["rows"] > 0).sum() == min(3, num_partitions)


@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_join_single_partition(ray_session, join_type):
    import ray.data

    from crawlray.ops.exchange import join

    got = join(ray.data.from_arrow(BIG).repartition(3), ray.data.from_arrow(SMALL),
               on=["k"], join_type=join_type, num_partitions=1)
    _check(got, BIG, SMALL, join_type)


@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_pandas_blocks_exchange_and_join(ray_session, join_type):
    """`from_pandas` inputs arrive as pandas blocks; the exchange, the
    join and `map_blocks` read them as Arrow."""
    import ray.data

    from crawlray.ops.exchange import hash_exchange, join, map_blocks

    def _count(t: pa.Table) -> pa.Table:
        return t.group_by(["k"]).aggregate([([], "count_all")])

    left = ray.data.from_pandas([BIG.slice(0, 60).to_pandas(), BIG.slice(60).to_pandas()])
    right = ray.data.from_pandas(SMALL.to_pandas())
    _check(join(left, right, on=["k"], join_type=join_type, num_partitions=4),
           BIG, SMALL, join_type)
    counts = hash_exchange(right, ["k"], _count, num_partitions=4).to_pandas()
    assert dict(zip(counts["k"], counts["count_all"])) == {3: 1, 7: 2, 500: 1}
    assert sorted(map_blocks(left, _map_fns()["seen"]).to_pandas()["rows"]) == [40, 60]


@pytest.mark.parametrize("num_partitions", [1, 4])
def test_grouped_sum_hash_with_count_matches_pandas(ray_session, num_partitions):
    import ray.data

    from crawlray.ops.exchange import aggregate

    rng = np.random.default_rng(5)
    t = pa.table({"a": pa.array(rng.integers(0, 9, 500), pa.int64()),
                  "b": [f"b{v}" for v in rng.integers(0, 4, 500)],
                  "v": pa.array(rng.integers(-50, 50, 500), pa.int64())})
    got = aggregate(
        ray.data.from_arrow(t).repartition(5), ["a", "b"],
        {"s": ("v", "sum"), "c": (None, "count")}, num_partitions=num_partitions,
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    want = (t.to_pandas().groupby(["a", "b"])["v"].agg(s="sum", c="count")
            .reset_index())
    assert list(got.columns) == ["a", "b", "s", "c"]
    assert got.to_dict("list") == want.to_dict("list")


def _rows(df, cols):
    """DataFrame rows as tuples, NaN/None → None (a null key or value)."""
    return sorted(
        (tuple(None if v is None or v != v else v for v in row)
         for row in df[cols].itertuples(index=False)),
        key=repr,
    )


@pytest.mark.parametrize("fn", ["count", "sum", "min", "max", "mean"])
def test_aggregate_matches_pandas(ray_session, fn):
    """`aggregate` of each function equals a pandas groupby that keeps
    null keys as one group (dropna=False): an int key, a string key and
    both, over blocks that include a 0-row one, with null values that
    the function skips. A 0-row input gives the typed empty result."""
    import ray.data

    from crawlray.ops.exchange import aggregate

    rng = np.random.default_rng(8)
    n = 400
    a = rng.integers(0, 6, n)
    s = rng.integers(0, 4, n)
    x = rng.normal(size=n)
    t = pa.table({
        "a": pa.array(a, pa.int64(), mask=a == 5),
        "s": pa.array([f"s{v}" for v in s], mask=s == 3),
        "x": pa.array(x, mask=rng.random(n) < 0.2),
    })
    ds = ray.data.from_arrow([t.slice(0, 150), t.slice(0, 0), t.slice(150)])
    col = None if fn == "count" else "x"
    df = t.to_pandas()
    for keys in (["a"], ["s"], ["a", "s"]):
        got = aggregate(ds, keys, {"out": (col, fn)}, num_partitions=3).to_pandas()
        assert list(got.columns) == [*keys, "out"]
        g = df.groupby(keys, dropna=False)["x"]
        want = (g.size() if fn == "count" else
                g.sum(min_count=1) if fn == "sum" else getattr(g, fn)())
        want = want.reset_index(name="out")
        got_rows, want_rows = _rows(got, [*keys, "out"]), _rows(want, [*keys, "out"])
        assert [r[:-1] for r in got_rows] == [r[:-1] for r in want_rows], keys
        assert [r[-1] for r in got_rows] == pytest.approx(
            [r[-1] for r in want_rows], rel=1e-12, nan_ok=True), keys

    empty = aggregate(ray.data.from_arrow(t.slice(0, 0)), ["a", "s"], {"out": (col, fn)})
    assert empty.count() == 0
    assert empty.schema().names == ["a", "s", "out"]
    out_type = pa.int64() if fn == "count" else pa.float64()
    assert list(empty.schema().types) == [pa.int64(), pa.string(), out_type]


def test_group_map_calls_fn_once_per_key_group(ray_session):
    """Every call sees exactly one key tuple (two nulls are equal), every
    group is seen by one call, and a 0-row input is typed by `fn`."""
    import ray.data

    from crawlray.ops.exchange import group_map

    t = pa.table({"a": pa.array([1, None, 1, 2, None, 2, 1], pa.int64()),
                  "b": ["x", "y", "x", None, "y", None, "z"],
                  "v": pa.array(range(7), pa.int64())})

    def _summary(g: pa.Table) -> pa.Table:
        assert len(set(zip(g["a"].to_pylist(), g["b"].to_pylist()))) <= 1
        return g.group_by(["a", "b"]).aggregate([("v", "sum"), ([], "count_all")])

    got = group_map(ray.data.from_arrow(t).repartition(3), ["a", "b"], _summary)
    rows = [(r["a"], r["b"], r["v_sum"], r["count_all"]) for r in got.take_all()]
    assert sorted(rows, key=repr) == sorted(
        [(1, "x", 2, 2), (None, "y", 5, 2), (2, None, 8, 2), (1, "z", 6, 1)], key=repr
    )
    empty = group_map(ray.data.from_arrow(t.slice(0, 0)), ["a", "b"], _summary)
    assert empty.count() == 0
    assert empty.schema().names == _summary(t.slice(0, 0)).column_names


def _sorted_blocks(ds) -> list[pa.Table]:
    import ray

    return [ray.get(r) for b in ds.iter_internal_ref_bundles() for r, m in b.blocks if m.num_rows]


# duplicate keys in long runs (so sampled splitters land inside them),
# nulls in both keys, a string key
SORT_INPUT = pa.table({
    "a": pa.array([(i * 7) % 5 if i % 11 else None for i in range(600)], pa.int64()),
    "s": pa.array([None if i % 13 == 0 else f"s{(i * 3) % 4}" for i in range(600)]),
    "x": pa.array(range(600), pa.int64()),
})


def _partitions(monkeypatch, n: int) -> None:
    """Size every exchange at `n` partitions."""
    from crawlray.ops import exchange

    monkeypatch.setattr(exchange, "partition_count", lambda *ds: n)


@pytest.mark.parametrize("num_partitions", [1, 3, 5])
def test_sort_matches_arrow_sort_by(ray_session, monkeypatch, num_partitions):
    """`sort` equals `Table.sort_by` on the keys, block after block, and
    rows with equal keys never span two partitions."""
    import ray.data

    from crawlray.ops.exchange import sort

    _partitions(monkeypatch, num_partitions)
    ds = ray.data.from_arrow(SORT_INPUT).repartition(6)
    blocks = _sorted_blocks(sort(ds, ["a", "s"]))
    got = pa.concat_tables(blocks)
    want = SORT_INPUT.sort_by([("a", "ascending"), ("s", "ascending")])
    assert got.select(["a", "s"]).equals(want.select(["a", "s"]))
    assert sorted(got.column("x").to_pylist()) == list(range(600))
    assert len(blocks) == num_partitions
    keys = [set(zip(b["a"].to_pylist(), b["s"].to_pylist())) for b in blocks]
    for i, ki in enumerate(keys):
        for kj in keys[i + 1:]:
            assert not ki & kj


def test_sort_empty_input_is_typed(ray_session, monkeypatch):
    import ray.data

    from crawlray.ops.exchange import sort

    _partitions(monkeypatch, 3)
    out = sort(ray.data.from_arrow(SORT_INPUT.slice(0, 0)), ["s"])
    assert out.count() == 0
    assert out.schema().names == SORT_INPUT.column_names
    assert list(out.schema().types) == list(SORT_INPUT.schema.types)


def test_scan_running_count_equals_cumsum(ray_session, monkeypatch):
    """A running-count state across partitions: every row learns its
    global position, as `np.cumsum` of the partition sizes gives it."""
    import ray.data

    from crawlray.ops.exchange import scan, sort

    _partitions(monkeypatch, 4)
    ds = ray.data.from_arrow(SORT_INPUT).repartition(5)
    parts = sort(ds, ["x"])
    sizes = [b.num_rows for b in _sorted_blocks(parts)]
    assert len(sizes) >= 3

    def _number(p: pa.Table, before: int) -> pa.Table:
        return p.append_column("pos", pa.array(before + np.arange(p.num_rows)))

    out = _sorted_blocks(scan(parts, lambda p: p.num_rows, lambda s, c: s + c, _number, 0))
    assert [b["pos"][0].as_py() for b in out] == [0, *np.cumsum(sizes)[:-1]]
    got = pa.concat_tables(out)
    assert got["pos"].to_pylist() == list(range(600))
    assert got["x"].to_pylist() == list(range(600))


@pytest.mark.parametrize("rows", [0, 600])
def test_keyless_aggregate_is_one_row(ray_session, rows):
    """With no keys every partition but one would add a row of its own
    (a keyless Arrow aggregate of a 0-row table has one row)."""
    import ray.data

    from crawlray.ops.exchange import aggregate

    ds = ray.data.from_arrow(SORT_INPUT.slice(0, rows))
    if rows:
        ds = ds.repartition(4)
    got = aggregate(ds, [], {"n": (None, "count"), "t": ("x", "sum"), "m": ("a", "max")},
                    num_partitions=8).take_all()
    want = {"n": rows, "t": sum(range(rows)) or None, "m": 4 if rows else None}
    assert got == [want]


def _map_fns() -> dict:
    """Functions for `map_blocks`, nested so that Ray ships them by value."""

    def seen(t: pa.Table) -> pa.Table:
        """One row per call: the rows and the columns (with types) it got."""
        return pa.table({"rows": [t.num_rows], "cols": [str(t.schema).replace("\n", ",")]})

    def double_k(t: pa.Table) -> pa.Table:
        return pa.table({"k2": pc.multiply(t.column("k"), 2)})

    return {"seen": seen, "double_k": double_k}


# 0-row blocks between blocks with rows; a map sees only the latter
PARTS = [BIG.slice(0, 30), BIG.slice(0, 0), BIG.slice(30, 50), BIG.slice(0, 0), BIG.slice(80)]


@pytest.mark.parametrize("fn", ["seen", "double_k"])
@pytest.mark.parametrize("parts", [PARTS, PARTS[1:2]], ids=["rows", "empty"])
def test_map_blocks_runs_fn_once_per_block_with_rows(ray_session, fn, parts):
    """`fn` runs once per block that holds rows (`seen` gives one row
    per call), or once on the typed empty table of a 0-row input; the
    result takes its columns and types from `fn`."""
    import ray.data

    from crawlray.ops.exchange import map_blocks

    fn = _map_fns()[fn]
    got = map_blocks(ray.data.from_arrow(parts), fn)
    want = pa.concat_tables([fn(t) for t in parts if t.num_rows] or [fn(BIG.slice(0, 0))])
    assert sorted(got.take_all(), key=repr) == sorted(want.to_pylist(), key=repr)
    assert got.schema().names == want.schema.names
    assert list(got.schema().types) == want.schema.types


@pytest.mark.parametrize("keep_from, blocks", [(70, 2), (100, 0)])
def test_map_blocks_drops_blocks_without_rows(ray_session, keep_from, blocks):
    """A map that empties some blocks leaves no 0-row block; one that
    empties all of them leaves one typed 0-row block."""
    import ray.data

    from crawlray.ops.exchange import map_blocks

    got = map_blocks(
        ray.data.from_arrow(PARTS),
        lambda t: t.filter(pc.greater_equal(t.column("k"), keep_from)),
    )
    sizes = [t.num_rows for t in _blocks(got)]
    if blocks:  # PARTS' blocks with rows hold k 0-29, 30-79 and 80-99
        assert len(sizes) == blocks and 0 not in sizes
    else:
        assert sizes == [0]
    assert sum(sizes) == 100 - keep_from
    assert got.schema().names == ["k", "x"]
    assert list(got.schema().types) == [pa.int64(), pa.string()]


def _timeline_count(name: str, t0: float, t1: float) -> int:
    """Task events of `name` that Ray's timeline shows starting in
    [t0, t1] (seconds since the epoch)."""
    import ray

    return sum(
        1 for e in ray.timeline()
        if e.get("cat", "").startswith("task::") and e.get("name", "").endswith("." + name)
        and t0 <= e["ts"] / 1e6 <= t1
    )


def _chain():
    """aggregate -> map_blocks -> join -> sort + scan -> block_pairs ->
    concat, every step on the exchange-built result of the one before.
    Returns the steps' results in order."""
    from crawlray.ops import exchange, pairs

    t = pa.table({"k": np.arange(200) % 13, "v": np.arange(200)})
    base = exchange.concat([exchange.from_table(t.slice(i, 50)) for i in range(0, 200, 50)])
    agg = exchange.aggregate(base, ["k"], {"n": (None, "count"), "s": ("v", "sum")})
    mapped = exchange.map_blocks(agg, lambda b: b.append_column("d", pc.multiply(b.column("s"), 2)))
    joined = exchange.join(mapped, base, on=["k"])
    ordered = exchange.sort(joined, ["k", "v"])
    scanned = exchange.scan(
        ordered, lambda p: p.num_rows, lambda s, x: s + x,
        lambda p, s: p.append_column("pos", pa.array(np.arange(p.num_rows) + s)), 0,
    )
    sides = exchange.map_blocks(scanned, lambda b: pa.table({"id": b.column("pos"), "k": b.column("k")}))

    def _same_k(a: pa.Table, b: pa.Table) -> pa.Table:
        j = a.rename_columns(["id_a", "k"]).join(b.rename_columns(["id_b", "k"]), keys="k")
        return j.select(["id_a", "id_b"])

    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    found = pairs.as_dataset(pairs.block_pairs(_same_k, sides, rows_per_block=64), schema)
    out = exchange.concat([found, exchange.from_table(schema.empty_table())])
    return [base, agg, mapped, joined, ordered, scanned, sides, found, out]


def _agrees_with_its_blocks(ds, rows: int):
    """`ds`'s count, schema, size, pandas frame, union and map_batches
    agree with the blocks its plan holds."""
    import ray

    from crawlray.ops import exchange

    held = exchange._blocks(ds)
    table = pa.concat_tables([ray.get(r) for r, _ in held])
    assert ds.count() == table.num_rows == sum(m.num_rows for _, m in held) == rows
    assert ds.schema().names == table.schema.names
    assert list(ds.schema().types) == list(table.schema.types)
    # the bytes each task measured before its block was stored
    assert ds.size_bytes() == sum(m.size_bytes for _, m in held)
    assert len(ds.to_pandas()) == rows
    if rows:
        key = [(c, "ascending") for c in table.schema.names]
        assert pa.Table.from_pandas(ds.to_pandas(), preserve_index=False).sort_by(key).equals(
            table.sort_by(key))
    assert ds.union(ds).materialize().count() == 2 * rows
    assert ds.map_batches(lambda b: b, batch_format="pyarrow").materialize().count() == rows


def test_exchange_results_hold_their_blocks_and_metadata(ray_session, monkeypatch):
    """The Ray 2.49 internals `exchange.from_blocks` builds on: a chain
    of exchange steps starts no `get_table_block_metadata_schema` task
    and no `ExecutionPlan.execute` (each step reads its input's snapshot),
    and Ray Data's own calls on the result agree with its blocks, also
    for a typed 0-row result. A Ray upgrade that moves these internals
    fails here."""
    import time

    import ray
    from ray.data._internal.plan import ExecutionPlan

    from crawlray.ops import exchange

    executed = []
    execute = ExecutionPlan.execute

    def _counted(self, *args, **kwargs):
        executed.append(self)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "execute", _counted)
    t0 = time.time()
    steps = _chain()
    t1 = time.time()
    assert not executed
    monkeypatch.setattr(ExecutionPlan, "execute", execute)
    # a control: one metadata task, which the timeline must show
    ray.data.from_arrow_refs([ray.put(pa.table({"x": [1]}))])
    t2 = time.time()
    deadline = time.time() + 30
    while not _timeline_count("get_table_block_metadata_schema", t1, t2 + 1):
        assert time.time() < deadline, "the timeline shows no task events"
        time.sleep(0.5)
    time.sleep(2)  # workers report task events about once a second
    assert _timeline_count("_reduce", t0, t1) and _timeline_count("_pair_task", t0, t1)
    assert _timeline_count("get_table_block_metadata_schema", t0, t1) == 0

    out = steps[-1]
    assert out.count() > 0
    _agrees_with_its_blocks(out, out.count())
    empty = exchange.map_blocks(out, lambda b: b.slice(0, 0))
    _agrees_with_its_blocks(empty, 0)
    assert empty.schema().names == ["id_a", "id_b"]


# names of removed code that nothing may use again, and options of the
# removed hand salting that no call may pass
REMOVED_NAMES = {"typed_map", "sample_hot_keys", "_salt_batch_fn", "salted_grouped_topk",
                 "salted_shuffle_join", "salted_session_windows"}
REMOVED_OPTIONS = {"hot_keys", "num_salts", "bucket_seconds"}


def _calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node


def test_only_exchange_module_joins_or_routes():
    """No operator module other than exchange.py calls `.join(` on a
    Dataset (pyarrow `Table.join` and `str.join` pass: they take `keys=`
    or a single iterable) or imports the removed block scrub.
    exchange.py itself runs its own map and reduce tasks: it calls no
    `Dataset.join`. No operator module (exchange.py included),
    storage.py or the driver entry calls `groupby` or `map_groups`:
    grouped aggregates go through `exchange.aggregate` and per-group
    work through `exchange.group_map`. No module of the package and not
    the driver entry calls `Dataset.sort` (a `.sort(` with a positional
    argument; `np.sort`, `exchange.sort` and keyword-only `list.sort`
    pass) or `Dataset.unique` (`.unique("col")`), or imports from
    `ray.data.aggregate`: ordered work goes through `exchange.sort` and
    `exchange.scan`, global aggregates and distinct values through
    `exchange.aggregate`. Nothing names the removed `typed_map` (typed
    maps go through `exchange.map_blocks`), nor the removed hand salting
    (`sample_hot_keys`, `_salt_batch_fn`, `salted_grouped_topk`,
    `salted_shuffle_join`, `salted_session_windows`), and no call passes
    its options (`hot_keys=`, `num_salts=`, `bucket_seconds=`): the
    exchange splits skewed partitions itself. Nothing calls
    `from_arrow_refs`, whose metadata tasks `exchange.from_blocks`
    replaces, and no module but exchange.py imports from
    `ray.data._internal`, so the Ray internals stay in one place. The
    driver entry calls `.union(` only in `_union_all`, the union
    operator under test: tagged unions join block lists with
    `exchange.concat`."""
    entry = OPS.parents[1] / "__ray_entry__.py"
    offenders = []
    for path in [*sorted(OPS.parent.rglob("*.py")), entry]:
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name in REMOVED_NAMES:
                offenders.append(f"{path.name}:{node.lineno} names {name}")
            for kw in node.keywords if isinstance(node, ast.Call) else []:
                if kw.arg in REMOVED_OPTIONS:
                    offenders.append(f"{path.name}:{node.lineno} passes {kw.arg}=")
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) == "from_arrow_refs":
                offenders.append(f"{path.name}:{node.lineno} calls from_arrow_refs")
            mods = ([node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
                    if isinstance(node, ast.ImportFrom)
                    else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
            if path != OPS / "exchange.py" and any(
                m == "ray.data._internal" or m.startswith("ray.data._internal.") for m in mods
            ):
                offenders.append(f"{path.name}:{node.lineno} imports ray.data._internal")
    for fn in ast.parse(entry.read_text()).body:
        for call in _calls(fn):
            if call.func.attr == "union" and getattr(fn, "name", None) != "_union_all":
                offenders.append(f"{entry.name}:{call.lineno} calls .union(")
    for path in [*sorted(OPS.glob("*.py")), OPS.parent / "storage.py",
                 OPS.parents[1] / "__ray_entry__.py"]:
        for call in _calls(ast.parse(path.read_text())):
            if call.func.attr in ("groupby", "map_groups"):
                offenders.append(f"{path.name}:{call.lineno} calls {call.func.attr}")
    for path in [*sorted(OPS.parent.rglob("*.py")), OPS.parents[1] / "__ray_entry__.py"]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate" or (
                isinstance(node, ast.Import) and any(a.name == "ray.data.aggregate" for a in node.names)
            ):
                offenders.append(f"{path.name}:{node.lineno} imports ray.data.aggregate")
        for call in _calls(tree):
            owner = getattr(call.func.value, "id", None)
            if call.func.attr == "sort" and call.args and owner not in ("np", "numpy", "exchange"):
                offenders.append(f"{path.name}:{call.lineno} calls Dataset.sort")
            if call.func.attr == "unique" and any(
                isinstance(a, ast.Constant) and isinstance(a.value, str) for a in call.args
            ):
                offenders.append(f"{path.name}:{call.lineno} calls Dataset.unique")
    for path in sorted(OPS.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                mod = getattr(node, "module", "") or ""
                if "drop_empty_blocks" in names or mod.endswith("ops.blocks"):
                    offenders.append(f"{path.name}:{node.lineno} imports the block scrub")
        for call in _calls(tree):
            kw = {k.arg for k in call.keywords}
            if call.func.attr == "join" and (
                kw & {"join_type", "on", "num_partitions"} and "keys" not in kw
            ):
                offenders.append(f"{path.name}:{call.lineno} calls Dataset.join")
    assert not offenders, offenders
