"""Skew splitting inside the exchange (SURVEY §4.3 salted-key splitting).

A hot key must not push its whole group through one task: `exchange`
cuts a partition holding more than twice its fair share into
sub-reduces (`exchange.skew_plan`). `grouped_topk`, `shuffle_join` (all
six join types) and `session_windows` must still equal a local
reference, on corpora where one key holds ~50% of all rows, on a
16-block input over 8 partitions, and on an input whose keys are all
null (every row routes to one partition). Each case also checks, from
the plans the exchange made, that the hot partition was split (or, for
`full_outer` and a join whose splittable side is not the hot one, that
it was not).
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest
import ray.data

JOIN_TYPES = ["inner", "left_outer", "right_outer", "full_outer", "left_semi", "left_anti"]


def _skewed_events(n: int = 4000, hot_share: float = 0.5, seed: int = 7):
    """Events table where key 'hot' holds ~hot_share of rows, 20 cold keys
    share the rest. Timestamps are scattered so sessions are non-trivial."""
    rng = np.random.default_rng(seed)
    n_hot = int(n * hot_share)
    keys = ["hot"] * n_hot + [
        f"cold-{i % 20:02d}" for i in range(n - n_hot)
    ]
    t0 = dt.datetime(2024, 3, 1)
    # gaps of 1..120 s: with gap_seconds=30 this yields many sessions
    offs = np.cumsum(rng.integers(1, 121, size=n))
    ts = [t0 + dt.timedelta(seconds=int(o)) for o in offs]
    rng.shuffle(keys)
    score = rng.normal(size=n)
    return pa.table(
        {
            "k": keys,
            "ts": pa.array(ts, pa.timestamp("us")),
            "score": score,
            "rid": np.arange(n, dtype=np.int64),
        }
    )


def _half_hot(keys=None, blocks: int = 16, rows: int = 256, seed: int = 5) -> list[pa.Table]:
    """`blocks` blocks of `rows` rows in which key 'hot' holds exactly
    half of the rows and 200 cold keys the rest (or the given `keys`),
    with a score, a unique rid and numeric-second timestamps."""
    rng = np.random.default_rng(seed)
    n = blocks * rows
    if keys is None:
        keys = np.array(["hot"] * (n // 2) + [f"c{i:03d}" for i in rng.integers(0, 200, n - n // 2)])
        rng.shuffle(keys)
        keys = pa.array(keys)
    tbl = pa.table({
        "k": keys,
        "ts": np.cumsum(rng.integers(1, 40, n)).astype(np.float64),
        "score": rng.normal(size=n),
        "rid": np.arange(n, dtype=np.int64),
    })
    return [tbl.slice(i * rows, rows) for i in range(blocks)]


def _rows_sorted(ds, cols):
    rows = [tuple(r[c] for c in cols) for r in ds.take_all()]
    return sorted(rows, key=repr)


def _was_split(plans) -> bool:
    """Whether any exchange cut a partition into sub-reduces."""
    return any(len(runs) > 1 for plan in plans for runs in plan)


def _topk_reference(tbl: pa.Table, k: int) -> list[tuple]:
    """(k, rid, score) of the top-k rows by score (descending, rid
    ascending) of every key."""
    order = tbl.sort_by([("score", "descending"), ("rid", "ascending")])
    seen: dict = {}
    out = []
    for r in order.to_pylist():
        if seen.setdefault(r["k"], 0) < k:
            seen[r["k"]] += 1
            out.append((r["k"], r["rid"], r["score"]))
    return sorted(out, key=repr)


def _sessions_reference(tbl: pa.Table, gap: float) -> list[tuple]:
    """(k, session_id, n_events, t_start, t_end) per session, one key at
    a time: sort its timestamps and cut where a gap exceeds `gap`."""
    by: dict = {}
    for k, ts in zip(tbl.column("k").to_pylist(), tbl.column("ts").to_pylist()):
        by.setdefault(k, []).append(ts)
    out = []
    for k, ts in by.items():
        ts.sort()
        runs = [[ts[0]]]
        for a, b in zip(ts, ts[1:]):
            d = b - a
            if (d.total_seconds() if isinstance(d, dt.timedelta) else d) > gap:
                runs.append([])
            runs[-1].append(b)
        out += [(k, i, len(r), r[0], r[-1]) for i, r in enumerate(runs)]
    return sorted(out, key=repr)


def _check_join(got_ds, lt: pa.Table, rt: pa.Table, join_type: str):
    want = lt.join(rt, keys="k", join_type=join_type.replace("_", " "))
    assert got_ds.schema().names == want.schema.names
    got = pa.Table.from_pylist(got_ds.take_all(), schema=want.schema)
    key = [(c, "ascending") for c in want.schema.names]
    assert got.sort_by(key).equals(want.sort_by(key))


SESSION_COLS = ["k", "session_id", "n_events", "t_start", "t_end"]


def test_skew_plan_bounds_every_reduce_input():
    """One key holds half the rows of 16 blocks routed into 8 partitions:
    the plan cuts its partition into block runs that cover every block
    once, in order, and no planned reduce input is larger than twice the
    fair share (nor than the larger of the fair share and its one
    slice). No Ray runs."""
    from crawlray.ops.exchange import SKEW, route, skew_plan

    blocks = _half_hot()
    counts = np.stack([np.bincount(route(b, ["k"], 8).to_numpy(), minlength=8) for b in blocks])
    fair = counts.sum() / 8
    plan = skew_plan(counts)
    assert len(plan) == 8
    hot = int(route(pa.table({"k": ["hot"]}), ["k"], 8)[0].as_py())
    assert counts[:, hot].sum() > SKEW * fair and len(plan[hot]) > 1
    for p, runs in enumerate(plan):
        assert runs[0][0] == 0 and runs[-1][1] == len(blocks)
        assert all(a < b for a, b in runs)
        assert all(b == a2 for (_, b), (a2, _) in zip(runs, runs[1:]))
        for a, b in runs:
            rows = counts[a:b, p].sum()
            assert rows <= 2 * fair
            assert rows <= max(fair, counts[a:b, p].max())
        if counts[:, p].sum() <= SKEW * fair:
            assert runs == [(0, len(blocks))]


def test_skew_plan_keeps_a_balanced_or_empty_exchange_whole():
    from crawlray.ops.exchange import skew_plan

    assert skew_plan(np.full((4, 8), 10)) == [[(0, 4)]] * 8
    assert skew_plan(np.zeros((3, 2), np.int64)) == [[(0, 3)]] * 2
    # one block holds the hot partition: it is not split below that block
    assert skew_plan(np.array([[100, 1, 1, 1], [0, 1, 1, 1]])) == [[(0, 2)]] + [[(0, 2)]] * 3
    # trailing 0-row slices join the last run
    counts = np.array([[40, 0, 0, 0], [40, 0, 0, 0], [0, 10, 5, 5], [0, 10, 5, 5]])
    assert skew_plan(counts)[0] == [(0, 1), (1, 4)]


def test_salted_grouped_topk_matches_unsalted(ray_session, skew_plans):
    from crawlray.ops.relational import grouped_topk

    tbl = _skewed_events()
    ds = ray.data.from_arrow(tbl).repartition(8)
    cols = ["k", "rid", "score"]
    got = _rows_sorted(grouped_topk(ds, ["k"], "score", 5, tiebreak_col="rid"), cols)
    assert got == _topk_reference(tbl, 5)
    assert _was_split(skew_plans)


def test_salted_shuffle_join_matches_unsalted(ray_session, skew_plans):
    from crawlray.ops.relational import shuffle_join

    left = _skewed_events(n=3000)
    right = pa.table(
        {
            "k": ["hot"] + [f"cold-{i:02d}" for i in range(20)],
            "weight": np.arange(21, dtype=np.float64),
        }
    )
    lds = ray.data.from_arrow(left).repartition(6)
    rds = ray.data.from_arrow(right).repartition(2)
    cols = ["k", "rid", "weight"]
    want = sorted(((r["k"], r["rid"], r["weight"]) for r in left.join(right, keys="k").to_pylist()),
                  key=repr)
    got = _rows_sorted(shuffle_join(lds, rds, on=["k"], num_partitions=8), cols)
    assert got == want
    assert len(got) == 3000  # every left row joined exactly once
    assert _was_split(skew_plans)


def test_salted_shuffle_join_right_multirow_hot_key(ray_session, skew_plans):
    """Hot key with SEVERAL right rows: each left row must meet each
    matching right row exactly once (replication correctness)."""
    from crawlray.ops.relational import shuffle_join

    left = pa.table(
        {
            "k": ["hot"] * 50 + ["c0"] * 10,
            "rid": np.arange(60, dtype=np.int64),
        }
    )
    right = pa.table(
        {"k": ["hot", "hot", "hot", "c0"], "tag": [1, 2, 3, 4]}
    )
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right)
    cols = ["k", "rid", "tag"]
    want = sorted(((r["k"], r["rid"], r["tag"]) for r in left.join(right, keys="k").to_pylist()),
                  key=repr)
    got = _rows_sorted(shuffle_join(lds, rds, on=["k"], num_partitions=4), cols)
    assert got == want
    assert len(got) == 50 * 3 + 10
    assert _was_split(skew_plans)


def test_salted_session_windows_matches_unsalted(ray_session, skew_plans):
    from crawlray.ops.relational import session_windows

    tbl = _skewed_events()
    ds = ray.data.from_arrow(tbl).repartition(8)
    got = _rows_sorted(session_windows(ds, "k", "ts", 30.0), SESSION_COLS)
    assert got == _sessions_reference(tbl, 30.0)
    assert _was_split(skew_plans)


def test_salted_session_windows_numeric_seconds(ray_session, skew_plans):
    from crawlray.ops.relational import session_windows

    rng = np.random.default_rng(3)
    n = 1500
    tbl = pa.table(
        {
            "k": ["hot"] * (n - 100) + [f"c{i % 5}" for i in range(100)],
            "ts": np.cumsum(rng.integers(1, 40, size=n)).astype(np.float64),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = _rows_sorted(session_windows(ds, "k", "ts", 10.0), SESSION_COLS)
    assert got == _sessions_reference(tbl, 10.0)
    assert _was_split(skew_plans)


@pytest.mark.parametrize("seed,bucket", [(11, 37.0), (23, 61.0), (47, 500.0)])
def test_salted_session_windows_randomized(ray_session, skew_plans, seed, bucket):
    """Randomized corpora whose blocks hold the time buckets of width
    `bucket` out of time order (bucket index mod 3 first), so the hot
    key's sub-reduces see events that interleave in time: the merged
    sessions still equal the reference."""
    from crawlray.ops.relational import session_windows

    rng = np.random.default_rng(seed)
    n = 800
    keys = rng.choice(["hot", "hot", "hot", "a", "b"], size=n).tolist()
    ts = np.cumsum(rng.exponential(20.0, size=n))
    tbl = pa.table({"k": keys, "ts": ts})
    laid = tbl.take(np.lexsort((ts, (ts // bucket) % 3)))
    ds = ray.data.from_arrow([laid.slice(i * 100, 100) for i in range(8)])
    got = _rows_sorted(session_windows(ds, "k", "ts", 25.0), SESSION_COLS)
    assert got == _sessions_reference(tbl, 25.0)
    assert _was_split(skew_plans)


@pytest.mark.parametrize("hot_side", ["left", "right"])
@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_join_matrix_on_a_hot_key(ray_session, skew_plans, join_type, hot_side):
    """A hot key on one side (half of 16 blocks, three matching rows on
    the other), unmatched keys on both sides, 8 partitions: every join
    type equals the local join. The hot partition splits exactly when
    the join type may split the hot side."""
    from crawlray.ops.exchange import join

    hot = pa.concat_tables(_half_hot())
    other = pa.table({"k": ["hot"] * 3 + [f"c{i:03d}" for i in range(100, 300)],
                      "w": np.arange(203, dtype=np.int64)})
    sides = [_half_hot(), [other.slice(0, 100), other.slice(100)]]
    tables = [hot, other]
    if hot_side == "right":
        sides.reverse()
        tables.reverse()
    out = join(ray.data.from_arrow(sides[0]), ray.data.from_arrow(sides[1]), on=["k"],
               join_type=join_type, num_partitions=8)
    _check_join(out, *tables, join_type)
    may_split = {"inner": hot_side, "full_outer": None}.get(join_type, join_type.split("_")[0])
    assert _was_split(skew_plans) == (may_split == hot_side)


@pytest.mark.parametrize("join_type", JOIN_TYPES)
def test_join_all_null_keys(ray_session, skew_plans, join_type):
    """Every left key is null, so every left row routes to one of the 8
    partitions; the right side holds null and non-null keys. Arrow
    matches no null key, and the split join must agree."""
    from crawlray.ops.exchange import join

    left = _half_hot(keys=pa.array([None] * 4096, pa.string()))
    right = pa.table({"k": pa.array([None, None, "c001", "hot"], pa.string()),
                      "w": np.arange(4, dtype=np.int64)})
    out = join(ray.data.from_arrow(left), ray.data.from_arrow(right), on=["k"],
               join_type=join_type, num_partitions=8)
    _check_join(out, pa.concat_tables(left), right, join_type)
    assert _was_split(skew_plans) == (join_type not in ("right_outer", "full_outer"))


@pytest.mark.parametrize("nulls", [False, True], ids=["half_hot", "all_null"])
def test_grouped_topk_and_sessions_on_one_partition(ray_session, skew_plans, nulls):
    """The 16-block input, half hot or with every key null: grouped_topk
    and session_windows split the partition and equal their references."""
    from crawlray.ops.relational import grouped_topk, session_windows

    blocks = _half_hot(keys=pa.array([None] * 4096, pa.string()) if nulls else None)
    tbl = pa.concat_tables(blocks)
    ds = ray.data.from_arrow(blocks)
    got = _rows_sorted(grouped_topk(ds, ["k"], "score", 5, tiebreak_col="rid"),
                       ["k", "rid", "score"])
    assert got == _topk_reference(tbl, 5)
    assert _was_split(skew_plans)
    skew_plans.clear()
    got = _rows_sorted(session_windows(ds, "k", "ts", 20.0), SESSION_COLS)
    assert got == _sessions_reference(tbl, 20.0)
    assert _was_split(skew_plans)
