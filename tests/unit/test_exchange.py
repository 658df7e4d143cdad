"""crawlray.ops.exchange: the one hash exchange and the one join.

The join cases are the Ray 2.49 shapes on which `Dataset.join` raises
`ArrowInvalid: No match ... for key field`: a side with zero rows (even
with a schema), and a side whose real rows miss some join partitions
while zero-column blocks from empty exchange partitions sit next to them.
Every result is checked, rows and schema, against a local
`pyarrow.Table.join` of the same inputs."""

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

    from crawlray.ops.relational import grouped_count_hash

    e = ray.data.from_arrow(BIG.slice(0, 0))
    out = grouped_count_hash(e, ["x"], alias="n")
    assert out.count() == 0
    assert out.schema().names == ["x", "n"]
    assert list(out.schema().types) == [pa.string(), pa.int64()]


def _calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node


def test_only_exchange_module_joins_or_routes():
    """No operator module other than exchange.py calls `.join(` on a
    Dataset (pyarrow `Table.join` and `str.join` pass: they take `keys=`
    or a single iterable), groups on the routing column, or imports the
    removed block scrub."""
    offenders = []
    for path in sorted(OPS.glob("*.py")):
        if path.name == "exchange.py":
            continue
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
            if call.func.attr == "groupby" and any(
                isinstance(a, ast.Constant) and a.value == "_pk" for a in call.args
            ):
                offenders.append(f"{path.name}:{call.lineno} groups on _pk")
    assert not offenders, offenders
