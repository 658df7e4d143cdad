"""Mimics the driver's correctness gate: every queries() entry vs its
oracle_sql() DuckDB equivalent on the same parquet tables — row count,
column names, and order-insensitive value equality (columns sorted by name,
rows sorted by all columns)."""

import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'"
        )
    return c


QUERY_NAMES = sorted(entrymod.queries().keys())


def test_all_oracled_queries_inside_driver_window():
    """The driver's correctness harness runs only the FIRST 50 queries()
    entries (VERDICT r3 item 1): every oracle_sql key must sit inside
    that window, every oracle must have a query, and rows-only entries
    must all come after."""
    qs = list(entrymod.queries().keys())
    oracled = set(entrymod.oracle_sql().keys())
    assert oracled <= set(qs), f"orphan oracles: {oracled - set(qs)}"
    outside = [q for q in qs[50:] if q in oracled]
    assert not outside, f"oracled queries outside the 50-window: {outside}"
    inside_rows_only = [q for q in qs[:50] if q not in oracled]
    assert not inside_rows_only, (
        f"rows-only entries wasting window slots: {inside_rows_only}"
    )


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_query_matches_oracle(name, con, ray_session):
    q = entrymod.queries()[name]
    res = _to_pandas(q(SF_DIR))
    assert len(res) >= 0
    sql = entrymod.oracle_sql().get(name)
    if sql is None:
        # rows-only check (non-SQL-expressible op)
        assert res.shape[1] >= 1
        return
    want = con.execute(sql).fetchdf()
    assert len(res) == len(want), f"{name}: rows {len(res)} != {len(want)}"
    assert sorted(res.columns) == sorted(want.columns), (
        f"{name}: cols {sorted(res.columns)} != {sorted(want.columns)}"
    )
    # dtype-kind parity (int vs float vs bool vs object) — the driver's
    # schema check is dtype-sensitive; clean_corpus int64-vs-float64
    # slipped through before this guard (VERDICT r3 item 2)
    for c in res.columns:
        ka, kb = res[c].dtype.kind, want[c].dtype.kind
        ka = "i" if ka == "u" else ka
        kb = "i" if kb == "u" else kb
        assert ka == kb, (
            f"{name}: column {c} dtype kind {res[c].dtype} != {want[c].dtype}"
        )
    a, b = _normalize(res), _normalize(want)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9)


def test_decontaminate_without_shared_grams_is_typed(tmp_path, ray_session):
    """A corpus in which no 8-gram occurs in two documents: nothing is
    contaminated, and the empty result still has the query's columns:
    each arm's tagging map runs on a typed 0-row table, and an empty
    result comes back as an Arrow table, whose columns survive
    `to_pandas()`."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pa.table({
        "doc_id": pa.array(range(64), pa.int64()),
        "text": [" ".join(f"w{d}x{i}" for i in range(20)) for d in range(64)],
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    out = _to_pandas(entrymod.queries()["decontaminate"](str(tmp_path)))
    assert len(out) == 0
    assert sorted(out.columns) == ["a", "b", "kind", "v"]


def test_tagged_union_projects_every_arm_onto_its_schema(ray_session):
    """Arms from a Dataset and from an Arrow table, mapped by source
    column, constant and function of the batch, cast to the schema. An
    arm with no rows adds nothing; with no rows in any arm the union is
    typed, and `_keep_columns` returns it with its columns. A mapped
    column that does not cast to the schema raises."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    schema = pa.schema([("kind", pa.string()), ("a", pa.int64()), ("v", pa.string())])
    rows = pa.table({"id": pa.array([1, 2], pa.int32()), "v": ["x", "y"]})
    none = ray.data.from_arrow(rows.slice(0, 0))
    ds_arm = (ray.data.from_arrow(rows), {"kind": pa.scalar("ds"), "a": "id"})
    none_arm = (none, {"kind": pa.scalar("none"), "a": "id"})
    table_arm = (rows, {"kind": pa.scalar("table"), "a": -1,
                        "v": lambda b: pc.utf8_upper(b["v"])})
    for arms, want in [
        ([ds_arm, none_arm], [("ds", 1, "x"), ("ds", 2, "y")]),
        ([ds_arm, none_arm, table_arm],
         [("ds", 1, "x"), ("ds", 2, "y"), ("table", -1, "X"), ("table", -1, "Y")]),
    ]:
        out = entrymod._tagged_union(schema, arms)
        assert out.schema().names == schema.names
        assert list(out.schema().types) == schema.types
        assert sorted(map(tuple, out.to_pandas().values.tolist())) == want

    empty = entrymod._tagged_union(schema, [none_arm])
    assert empty.count() == 0
    assert list(empty.schema().types) == schema.types
    kept = entrymod._keep_columns(lambda _: empty)("")
    assert list(_to_pandas(kept).columns) == schema.names

    with pytest.raises(pa.ArrowInvalid):
        entrymod._tagged_union(schema, [(rows, {"kind": pa.scalar("bad"), "a": "v"})])
