"""session_windows against a plain per-key NumPy reference on random
data: string and int keys with nulls (nulls are one key), tied
timestamps, gaps of exactly `gap_seconds` (no split), timestamp and
numeric-seconds `ts`, and a single-key input, for which every exchange
partition but one is empty and the exchange splits that one into
sub-reduces. The "salted" arm runs the same operator with
`exchange.SKEW` at 0, so every partition above its fair share is split
and its sub-reduces' sessions merge. A last case lays out blocks whose
sub-reduces' sessions interleave in time."""

import numpy as np
import pyarrow as pa
import pytest

GAP = 5  # seconds; ts are whole seconds, so many gaps equal GAP exactly


def _reference(keys: list, secs: np.ndarray, gap: float) -> list[tuple]:
    """(key, session_id, n_events, t_start, t_end) per session, one key
    at a time: sort its seconds, cut where a gap exceeds `gap`."""
    out = []
    for k in set(keys):
        t = np.sort(secs[[i for i, v in enumerate(keys) if v == k]])
        cut = np.flatnonzero(np.diff(t) > gap) + 1
        for sid, run in enumerate(np.split(t, cut)):
            out.append((k, sid, len(run), float(run[0]), float(run[-1])))
    return sorted(out, key=repr)


def _secs(col: pa.ChunkedArray) -> np.ndarray:
    if pa.types.is_timestamp(col.type):
        return col.cast(pa.int64()).to_numpy() / 1e6
    return col.to_numpy().astype(np.float64)


def _rows(ds) -> list[tuple]:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    cols = [t.column(c).to_pylist() for c in ("k", "session_id", "n_events")]
    cols += [_secs(t.column("t_start")).tolist(), _secs(t.column("t_end")).tolist()]
    return sorted(zip(*cols), key=repr)


def _input(key_kind: str, ts_kind: str):
    n, n_keys = 400, 6
    rng = np.random.default_rng(3)
    codes = rng.integers(0, n_keys + 1, n)  # code n_keys is the null key
    if key_kind == "str":
        keys = [None if c == n_keys else f"k{c}" for c in codes]
    else:
        keys = [None if c == n_keys else int(c) * 7 for c in codes]
    secs = rng.integers(0, 60 * n_keys, n)  # ties and exact gaps
    if ts_kind == "timestamp":
        ts = pa.array(secs * 1_000_000, pa.timestamp("us"))
    elif ts_kind == "int":
        ts = pa.array(secs, pa.int64())
    else:
        ts = pa.array(secs.astype(np.float64), pa.float64())
    key_type = pa.string() if key_kind == "str" else pa.int64()
    return pa.table({"k": pa.array(keys, key_type), "ts": ts}), keys, secs


def _dataset(tbl: pa.Table):
    import ray.data

    return ray.data.from_arrow(tbl).repartition(5)


def _run(op: str, ds, monkeypatch):
    from crawlray.ops import exchange
    from crawlray.ops.relational import session_windows

    if op == "salted":
        monkeypatch.setattr(exchange, "SKEW", 0)
    return session_windows(ds, "k", "ts", GAP)


@pytest.mark.parametrize("op", ["plain", "salted"])
@pytest.mark.parametrize("ts_kind", ["timestamp", "int", "float"])
@pytest.mark.parametrize("key_kind", ["str", "int"])
def test_sessions_match_numpy_reference(ray_session, monkeypatch, skew_plans, op, ts_kind,
                                       key_kind):
    tbl, keys, secs = _input(key_kind, ts_kind)
    assert tbl.column("k").null_count
    out = _run(op, _dataset(tbl), monkeypatch)
    if op == "salted":
        assert any(len(runs) > 1 for plan in skew_plans for runs in plan)
    assert out.schema().names == ["k", "session_id", "n_events", "t_start", "t_end"]
    assert out.schema().types[0] == tbl.column("k").type
    assert out.schema().types[3] == tbl.column("ts").type
    want = _reference(keys, secs, GAP)
    assert _rows(out) == want
    assert sum(r[2] for r in want) == tbl.num_rows


@pytest.mark.parametrize("op", ["plain", "salted"])
def test_single_key_input_leaves_partitions_empty(ray_session, monkeypatch, skew_plans, op):
    secs = np.random.default_rng(9).integers(0, 120, 200)
    tbl = pa.table({"k": ["k0"] * 200,
                    "ts": pa.array(secs * 1_000_000, pa.timestamp("us"))})
    out = _run(op, _dataset(tbl), monkeypatch)
    assert _rows(out) == _reference(["k0"] * 200, secs, GAP)
    assert any(len(runs) > 1 for plan in skew_plans for runs in plan)


@pytest.mark.parametrize("op", ["plain", "salted"])
def test_empty_input_is_typed(ray_session, monkeypatch, op):
    import ray.data

    tbl, _, _ = _input("int", "timestamp")
    out = _run(op, ray.data.from_arrow(tbl.slice(0, 0)), monkeypatch)
    assert out.count() == 0
    assert out.schema().names == ["k", "session_id", "n_events", "t_start", "t_end"]


def test_interleaved_sub_reduces_merge_by_running_max(ray_session, skew_plans):
    """One key in four blocks of 22 events, one sub-reduce per block
    (4 partitions, fair share 22 rows). Block 1's sessions lie inside
    block 0's: [50, 52] inside [0, 100], then 105, within the 10 s gap
    of 100 but not of 52, and [250, 250] inside [200, 300]. A merge that
    cuts against the previous session's end splits [0, 105]; one that
    takes t_end from the last session ends [200, 300] at 250."""
    import ray.data

    from crawlray.ops.relational import session_windows

    blocks = [
        [*range(0, 101, 10), *range(200, 301, 10)],
        [50, 52, 105, 250, *range(1000, 1171, 10)],
        [*range(2000, 2211, 10)],
        [*range(3000, 3211, 10)],
    ]
    assert all(len(b) == 22 for b in blocks)
    gap = 10
    ds = ray.data.from_arrow([
        pa.table({"k": ["k0"] * 22, "ts": pa.array(b, pa.int64())}) for b in blocks
    ])
    out = session_windows(ds, "k", "ts", gap)
    assert [len(runs) for plan in skew_plans for runs in plan if len(runs) > 1] == [4]
    secs = np.array([t for b in blocks for t in b], np.float64)
    want = _reference(["k0"] * len(secs), secs, gap)
    assert ("k0", 0, 14, 0.0, 105.0) in want and ("k0", 1, 12, 200.0, 300.0) in want
    assert _rows(out) == want
