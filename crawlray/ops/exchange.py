"""The one exchange of the operator library: hash and range partitioning,
the one join, and the one prefix scan.

Everything is plain Ray tasks over block refs, with no Ray Data shuffle
and no actor: one map task per non-empty input block cuts its rows into
one slice per partition by a routing rule, and one reduce task per
partition concatenates its slices and runs the caller's `merge` (for a
join, `pyarrow.Table.join`). Every reduce runs on a typed table, even a
0-row one: a side with no rows enters as the empty table of its schema.

The hash side routes by `route`. `aggregate` is the grouped aggregate
on it: Arrow `group_by` partials on the map side, one merge per
partition; with no keys it runs one partition and returns one row.
`group_map` is the per-group form: each partition is sorted and cut into
its key groups (`sorted_runs`), and a kernel runs once per group, or
once on the empty table of a partition with no rows.

The ordered side is `sort` and `scan`. `sort` samples splitters from the
blocks, range-routes every row (rows with equal keys meet in one
partition) and sorts each partition, so the result's blocks are in key
order. `scan` folds a per-partition summary on the driver in that block
order and hands each partition the state before it: a running total or
any other state one large key group carries across partitions.

`map_blocks` is the typed per-block map: one task per block that holds
rows runs the caller's function, or one task on the empty table of the
schema when no block does, so the function always sees a typed table.
`partials` is its fold form (the per-block results come back to the
driver), `rechunk` re-cuts a dataset into blocks of a bounded row count,
and `concat` joins the block lists of datasets.

Every task here returns its block with the block's metadata (rows,
bytes, schema: Ray Data's `BlockMetadataWithSchema`), and `from_blocks`
builds the result from those, so no metadata task runs. A result is a
`MaterializedDataset` whose plan already holds its blocks as its
executed snapshot: its `count()`, `schema()` and `size_bytes()`, and
every step here that reads it (`pin`), run no Ray Data execution. A
query pays for Ray Data only at its read (a lazy input is materialized
once) and at its return.

One hot key cannot push its whole group through one task. A `join`,
and a `hash_exchange` or `group_map` given a `combine` (how the
outputs of one partition's sub-reduces merge: the reducer's algebra,
not a tuning knob), read their split tasks' per-partition row counts
on the driver before they reduce. `skew_plan` cuts every partition
holding more than `SKEW` times the fair share (total rows / partitions)
into sub-reduces of about one fair share each: a sub-reduce gets a run
of that partition's slices in block order (FP-Hadoop's intermediate
reduce), and `combine` merges their outputs. No sub-reduce's input is
larger than the fair share plus one slice; a slice is one input
block's share of the partition, so a hot key inside a single block is
not split below that block. A join splits one side and sends the other
side's rows of the partition to every sub-reduce (PRoST's mixed
partitioning), and needs no `combine`: the side it splits is the
larger one for `inner`, the left for `left_*`, the right for
`right_*`, and none for `full_outer`, where an unmatched replicated row
would be emitted once per sub-reduce. `aggregate` passes no `combine`:
its map-side partials already cap a hot key at one row per block.
Those exchanges wait once on the driver for the counts, and only when
they have more than `SKEW` partitions (with fewer, no partition can
exceed `SKEW` shares). That costs no parallelism: every reduce reads a
slice of every split task, so no reduce can start before the last split
ends anyway. Every other step submits its reduces at once.

Everything here returns datasets that are materialized, hold no 0-row
blocks, and carry a schema even when they are empty; no Ray Data quirk
is left for callers to work around. `route` is the only rule that maps
key values to hash partitions, `partition_count` the only rule that
sizes an exchange, and `fits_broadcast` the one rule that broadcasts a
side instead of exchanging it.

This module is the one place that uses Ray Data internals, those of
Ray 2.49: `ExecutionPlan` and its snapshot fields (`_snapshot_bundle`,
`_snapshot_operator`, `_snapshot_stats`, `has_computed_output`),
`RefBundle`, `LogicalPlan`, the `InputData` operator, `DatasetStats`,
`unify_block_metadata_schema` and the `MaterializedDataset`
constructor, used as `from_arrow_refs` and `Dataset.materialize` use
them. tests/unit/test_exchange.py pins them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data._internal.execution.interfaces import RefBundle
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.input_data_operator import InputData
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.stats import DatasetStats
from ray.data._internal.util import unify_block_metadata_schema
from ray.data.block import BlockAccessor, BlockMetadataWithSchema
from ray.data.context import DataContext
from ray.data.dataset import MaterializedDataset

from crawlray.murmur3 import _fmix64_vec, murmur3_x64_128_batch

Fn = Callable[[pa.Table], pa.Table]
# a block of an exchange result: its ref and the metadata its task returned
Block = tuple[ray.ObjectRef, BlockMetadataWithSchema]

BROADCAST_BYTES = 32 << 20
"""The size below which `fits_broadcast` broadcasts a side. It is safe:
one broadcast is a single object-store copy per node that tasks read
without copying, and 32 MiB is an eighth of the smallest object store in
use (256 MiB, perfbench), so the copy fits next to the exchange blocks
in flight without spilling."""

SKEW = 2
"""A partition holding more than `SKEW` times the fair share of rows runs
as sub-reduces of about one fair share each (`skew_plan`)."""

_SAMPLES = 32  # splitter samples per partition of a `sort`, over all blocks
_MIX = np.uint64(0x9E3779B97F4A7C15)
# join types whose result keeps the unmatched rows of the left / right side
_KEEPS = ({"left_outer", "full_outer", "left_anti"},
          {"right_outer", "full_outer", "right_anti"})


def fits_broadcast(nbytes: float) -> bool:
    """The one broadcast-or-shuffle rule: a side of `nbytes` (a
    materialized `size_bytes()`, or an estimate of rows x row bytes) is
    `ray.put` once and read by every task when it is below
    `BROADCAST_BYTES`; a larger one goes through `join`, `aggregate` or
    block pairs, so no task holds all of it."""
    return nbytes < BROADCAST_BYTES


def partition_count(*datasets: ray.data.Dataset) -> int:
    """Partitions for an exchange over `datasets`: about 64 MiB of the
    largest input per partition, at least 2, never fewer than one per CPU
    once an input passes CPUs x 256 MiB. With no sized input, max(8, CPUs).

    `size_bytes` is metadata on a materialized dataset but executes a
    lazy one, so pass only materialized datasets.
    """
    cpus = int(ray.cluster_resources().get("CPU", 8))
    size = max((ds.size_bytes() or 0 for ds in datasets), default=0)
    if not size:
        return max(8, cpus)
    want = -(-size // (64 << 20))
    return int(min(max(2, want), max(cpus, -(-size // (256 << 20)))))


def _cpu_partitions(ds: ray.data.Dataset) -> int:
    """`partition_count(ds)`, but at least one partition per CPU."""
    return max(int(ray.cluster_resources().get("CPU", 8)), partition_count(ds))


def skew_plan(counts: np.ndarray) -> list[list[tuple[int, int]]]:
    """The sub-reduces of an exchange, from its (blocks x partitions)
    matrix of row counts: per partition, the (first, end) block runs
    whose slices one sub-reduce reads, in block order. A partition
    holding at most `SKEW` times the fair share (total / partitions) is
    one run of all blocks. A larger one is cut into runs that each end
    before a slice with rows would take them past the fair share, so no
    run is larger than the fair share unless its one slice with rows is:
    the fair share plus one slice at most."""
    counts = np.asarray(counts, np.int64)
    blocks, n = counts.shape
    fair = counts.sum() / n
    plan = []
    for col in counts.T:
        if col.sum() <= SKEW * fair:
            plan.append([(0, blocks)])
            continue
        runs, start, rows = [], 0, 0
        for i, c in enumerate(col):
            if c and rows and rows + c > fair:
                runs.append((start, i))
                start, rows = i, 0
            rows += c
        plan.append([*runs, (start, blocks)])
    return plan


def route(table: pa.Table, keys: list[str], n: int) -> pa.Array:
    """Partition id in [0, n) of every row, from the values of `keys`.

    Integers of any width hash by value through murmur3's 64-bit
    finalizer; every other type hashes its string form with murmur3. The
    id depends only on the key values, so rows built by separate
    datasets and later unioned still meet. Nulls route like 0 / ""."""
    acc = np.zeros(table.num_rows, np.uint64)
    for k in keys:
        col = table.column(k)
        if pa.types.is_integer(col.type):
            v = pc.fill_null(col, 0).to_numpy().astype(np.int64)
            h = _fmix64_vec(v.view(np.uint64))
        else:
            if not (
                pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
            ):
                col = pc.cast(col, pa.string())
            h, _ = murmur3_x64_128_batch(pc.fill_null(col, "").combine_chunks())
        acc = acc * _MIX + h
    return pa.array((acc % np.uint64(n)).astype(np.int32))


def hash_exchange(
    ds: ray.data.Dataset,
    keys: list[str],
    merge: Fn,
    partial: Fn | None = None,
    num_partitions: int | None = None,
    combine: Fn | None = None,
) -> ray.data.Dataset:
    """Run `partial` on every input block (map side), send each of its
    rows to the partition `route` picks for `keys`, and run `merge` once
    per partition on all rows routed there: every key tuple is complete
    inside exactly one `merge` call. `merge` runs on every partition, so
    it must accept an empty table. The input is materialized; without
    `num_partitions` it is sized by `partition_count`.

    With `combine`, a skewed partition runs `merge` once per sub-reduce
    on a part of its rows, and `combine(the concatenated outputs)` is
    its output (module notes): `combine` must turn the outputs of
    `merge` on any split of a partition's rows into `merge` of all of
    them. Without `num_partitions` such an exchange has at least one
    partition per CPU, so a partition's fair share is a CPU's.

    The output is materialized, has no 0-row blocks, and when it has no
    rows it still carries the schema of `merge(partial(empty input))`.
    """
    ds = pin(ds)
    refs = _typed_blocks(ds)
    if refs is None:  # no rows and no schema: nothing to type a result with
        return ds
    n = num_partitions or (_cpu_partitions(ds) if combine else partition_count(ds))
    pick = (lambda rows: 0) if combine else None
    return _shuffle([(refs, _by_hash(keys, n))], partial, merge, n, pick, combine)


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    right_on: list[str] | None = None,
    join_type: str = "inner",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Hash-partitioned join: both sides (materialized first) are routed
    on their keys into `num_partitions` partitions that join
    independently, so no task holds a whole side. Columns and types are
    those of `pyarrow.Table.join` with the same arguments. The result is
    materialized, has no 0-row blocks, and is typed when empty. A 0-row
    side with no schema is the result, or raises if the result must keep
    the other side's rows. A skewed partition is split on the side that
    `join_type` allows (module notes).
    """
    left, right = pin(left), pin(right)
    right_on = list(right_on or on)
    sides = [_typed_blocks(left), _typed_blocks(right)]
    if None in sides:  # a 0-row side with no schema: nothing types a result
        i = sides.index(None)
        if join_type in _KEEPS[1 - i] and (right, left)[i].count():
            side = ("left", "right")[i]
            raise ValueError(f"join: empty {side} side has no schema ({join_type})")
        return (left, right)[i]
    how = join_type.replace("_", " ")

    def _local(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.join(rt, keys=list(on), right_keys=right_on, join_type=how)

    n = num_partitions or partition_count(left, right)
    rules = [_by_hash(list(on), n), _by_hash(right_on, n)]
    return _shuffle(list(zip(sides, rules)), None, _local, n, _split_side(join_type))


def _split_side(join_type: str) -> Callable[[list[int]], int] | None:
    """Which side of a join partition may split, from the partition's
    row count per side: each row of the split side meets every row of
    the other side of its partition in exactly one sub-reduce, so only
    the split side's unmatched rows may be kept."""
    if join_type == "full_outer":
        return None
    side = {"left": 0, "right": 1}.get(join_type.split("_")[0])
    return (lambda rows: side) if side is not None else (lambda rows: int(rows[1] > rows[0]))


def aggregate_fns(
    keys: list[str], aggs: dict[str, tuple[str | None, str]], explode: Fn | None = None
) -> tuple[Fn, Fn]:
    """(partial, merge) of `aggregate`, for callers that compose their own
    `hash_exchange` merge (a filter or a transform after the merge)."""
    specs = []  # (partial column, its Arrow aggregation, how partials merge)
    for alias, (col, fn) in aggs.items():
        if fn == "count":
            specs.append((alias, ([], "count_all"), "sum"))
        elif fn == "mean":
            specs += [(alias, (col, "sum"), "sum"), (alias + "#n", (col, "count"), "sum")]
        else:  # sum, min and max merge by themselves
            specs.append((alias, (col, fn), fn))

    def _group(t: pa.Table, how: list) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(how)
        return pa.table(dict(zip([*keys, *(s[0] for s in specs)], g.columns)))

    def _partial(batch: pa.Table) -> pa.Table:
        return _group(explode(batch) if explode else batch, [s[1] for s in specs])

    def _merge(t: pa.Table) -> pa.Table:
        g = _group(t, [(s[0], s[2]) for s in specs])
        for alias, (_, fn) in aggs.items():
            if fn == "mean":
                n = g.column(alias + "#n")
                n = pc.if_else(pc.equal(n, 0), pa.scalar(None, n.type), n)
                mean = pc.divide(pc.cast(g.column(alias), pa.float64()), n)
                g = g.set_column(g.schema.get_field_index(alias), alias, mean)
                g = g.drop_columns([alias + "#n"])
        return g

    return _partial, _merge


def aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str | None, str]],
    explode: Fn | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """GROUP BY `keys` as one `hash_exchange`: output column `alias` per
    `aggs` entry `alias: (column, fn)`, fn one of count (rows; column
    None), sum, min, max and mean (float64; it travels as sum and count
    partials). No `aggs` gives the distinct key tuples. `explode(batch)`,
    when given, makes the rows to group from each input block on the map
    side. Null keys form one group, and a 0-row input gives the typed
    empty result. Rows come in no particular order.

    With no `keys` the result is one row, also for a 0-row input (count
    0, the other aggregates null): every row routes to one partition,
    and a keyless Arrow aggregate of any other partition's empty table
    would add a row of its own, so exactly one partition runs."""
    partial, merge = aggregate_fns(keys, aggs, explode)
    return hash_exchange(ds, keys, merge, partial, num_partitions if keys else 1)


def group_map(
    ds: ray.data.Dataset, keys: list[str], fn: Fn, combine: Fn | None = None
) -> ray.data.Dataset:
    """`fn` once per distinct tuple of `keys` on all of its rows (nulls
    form one group), as one `hash_exchange`. A partition with no rows
    calls `fn` on its empty table instead, so `fn` must accept 0 rows;
    the result is typed by it when `ds` has no rows. With `combine`, a
    per-group kernel that turns the outputs of `fn` on parts of a group
    into `fn` of the whole group, a skewed partition runs as sub-reduces
    (module notes)."""

    def _per_group(f: Fn) -> Fn:
        def _merge(t: pa.Table) -> pa.Table:
            if not t.num_rows:
                return f(t)
            t, new = sorted_runs(t, keys)
            cuts = [*np.flatnonzero(new), t.num_rows]
            # one chunk: a table of one chunk per group is slow to ship and scan
            return pa.concat_tables(
                [f(t.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])],
                promote_options="default",
            ).combine_chunks()

        return _merge

    # the reduce makes one Python call per group, so it is CPU-bound
    # however few bytes it holds: give every CPU a partition
    ds = pin(ds)
    return hash_exchange(ds, keys, _per_group(fn), num_partitions=_cpu_partitions(ds),
                         combine=combine and _per_group(combine))


def sorted_runs(
    t: pa.Table, keys: list[str], then: list[str] = ()
) -> tuple[pa.Table, np.ndarray]:
    """`t` sorted by `keys` and then by `then` (ascending, nulls last),
    and its `run_starts` on `keys`."""
    t = t.take(pc.sort_indices(t, [(c, "ascending") for c in [*keys, *then]]))
    return t, run_starts(t, keys)


def run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Per row of `t` whether its `keys` tuple differs from the previous
    row's (two nulls are equal). Row 0 always starts a run."""
    n = t.num_rows
    new = np.zeros(n, bool)
    new[:1] = True
    for k in keys:
        col = t.column(k).combine_chunks()
        a, b = col.slice(1), col.slice(0, max(n - 1, 0))
        ne = pc.fill_null(pc.not_equal(a, b), True)
        both_null = pc.and_(pc.is_null(a), pc.is_null(b))
        new[1:] |= pc.and_not(ne, both_null).to_numpy(zero_copy_only=False)
    return new


def sort_order(keys: list[str], descending: bool | list[bool] = False) -> list[tuple[str, str]]:
    """Arrow sort keys for `keys`, each descending where `descending` (one
    flag for all keys, or one per key) says so."""
    if isinstance(descending, bool):
        descending = [descending] * len(keys)
    return [(k, "descending" if d else "ascending") for k, d in zip(keys, descending)]


def sort(ds: ray.data.Dataset, keys: list[str]) -> ray.data.Dataset:
    """`ds` sorted ascending by `keys` (nulls last, as in `sorted_runs`)
    as one range exchange into `partition_count(ds)` partitions: one task
    per block samples it, the driver picks one splitter fewer than the
    partitions from the samples (weighted by block size), every row goes
    to the partition of the splitters ordered before it, and each
    partition sorts its rows. Rows with equal `keys` meet in one
    partition. The result's blocks are the non-empty partitions in key
    order; it is typed when it has no rows."""
    ds = pin(ds)
    refs = _typed_blocks(ds)
    if refs is None:  # no rows and no schema: nothing to sort
        return ds
    order = sort_order(keys)
    n = partition_count(ds)
    k = -(-_SAMPLES * n // len(refs))
    samples = pa.concat_tables(
        ray.get([_sample.remote(r, keys, k) for r in refs]), promote_options="permissive"
    )
    samples = samples.take(pc.sort_indices(samples, sort_keys=order))
    n = max(1, min(n, samples.num_rows))
    w = np.cumsum(samples.column("_w").to_numpy())
    cuts = np.searchsorted(w, w[-1] * np.arange(1, n) / n) if n > 1 else []
    rule = _by_range(samples.select(keys).take(pa.array(cuts, pa.int64())), order)

    def _sorted(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=order))

    return _shuffle([(refs, rule)], None, _sorted, n)


def scan(
    ds: ray.data.Dataset,
    summarize: Callable[[pa.Table], object],
    step: Callable[[object, object], object],
    apply: Callable[[pa.Table, object], pa.Table],
    init: object,
) -> ray.data.Dataset:
    """Prefix scan over the partitions of a `sort` result, in block
    order: one task per partition computes `summarize(part)`, the driver
    folds `state = step(state, summary)` from `init`, and one task per
    partition returns `apply(part, state before it)`. A partition is
    known by its position, so a key may span any number of partitions.
    A 0-row `ds` applies once to its empty table; the result is
    materialized, has no 0-row blocks and is typed when empty."""
    refs = _typed_blocks(ds)
    if refs is None:
        return ds
    states, state = [], init
    for summary in ray.get([_summarize.remote(summarize, r) for r in refs]):
        states.append(state)
        state = step(state, summary)
    return _collect([_apply.remote(apply, r, s) for r, s in zip(refs, states)])


def map_blocks(ds: ray.data.Dataset, fn: Fn) -> ray.data.Dataset:
    """`fn` once per block of `ds` that holds rows, each in its own task,
    or once on the empty table of its schema when `ds` has no rows, so
    `fn` always gets a typed table and types the empty result. The
    result is materialized and has no 0-row blocks but the one of an
    empty result."""
    refs = _typed_blocks(ds)
    if refs is None:  # no rows and no schema: nothing to type `fn`'s input
        return ds
    return _collect([_apply.remote(_call, r, fn) for r in refs])


def partials(ds: ray.data.Dataset, fn: Callable[[pa.Table], object]) -> list:
    """`fn` of every block of `ds` that holds rows, each in its own task,
    as a list on the driver, or of its typed empty table when no block
    holds rows: the map side of a fold the driver finishes. Empty when
    `ds` has no rows and no schema."""
    return ray.get([_summarize.remote(fn, r) for r in _typed_blocks(ds) or []])


def to_table(ds: ray.data.Dataset) -> pa.Table:
    """Every block of `ds` as one table on the driver (the side a caller
    broadcasts), typed when the blocks are."""
    return pa.concat_tables(ray.get([r for r, _ in _blocks(ds)]), promote_options="default")


def rechunk(ds: ray.data.Dataset, rows: int) -> ray.data.Dataset:
    """The rows of `ds` in order, in the fewest blocks of at most `rows`
    rows, all of near-equal size: one task per output block concatenates
    the slices of the input blocks it spans. `ds` itself when its blocks
    that hold rows are already that many and none is larger."""
    blocks = [b for b in _blocks(ds) if b[1].num_rows]
    counts = np.array([m.num_rows for _, m in blocks], np.int64)
    n = -(-int(counts.sum()) // rows)
    if len(blocks) == n and counts.max(initial=0) <= rows:
        return pin(ds)
    starts = np.concatenate([[0], np.cumsum(counts)])
    cuts = starts[-1] * np.arange(n + 1) // n
    outs = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        first, end = np.searchsorted(starts, a, "right") - 1, np.searchsorted(starts, b)
        spans = [(max(a, starts[i]) - starts[i], min(b, starts[i + 1]) - max(a, starts[i]))
                 for i in range(first, end)]
        outs.append(_slices.remote(spans, *(blocks[i][0] for i in range(first, end))))
    return _collect(outs)


def pin(ds: ray.data.Dataset) -> ray.data.Dataset:
    """`ds` with its blocks computed: `ds` itself when its plan already
    holds them (an exchange result or a `materialize()` output), else
    `ds.materialize()`, the one Ray Data execution of a lazy input. Pin
    a lazy input that is read twice, or it runs twice."""
    return ds if ds._plan.has_computed_output() else ds.materialize()


def from_blocks(blocks: list[Block]) -> MaterializedDataset:
    """The dataset of `blocks` in order, built as Ray 2.49's
    `from_arrow_refs` builds its result, but from the metadata the
    blocks' own tasks returned: no metadata task runs. Its plan holds
    the blocks as its executed snapshot, so `count()`, `schema()`,
    `size_bytes()` and reading its blocks run no execution. With no
    rows it is typed by its first block."""
    metas = [m for _, m in blocks]
    plan = ExecutionPlan(
        DatasetStats(metadata={"Exchange": metas}, parent=None), DataContext.get_current().copy()
    )
    source = InputData([RefBundle([b], owns_blocks=False, schema=b[1].schema) for b in blocks])
    ds = MaterializedDataset(plan, LogicalPlan(source, plan._context))
    plan._snapshot_bundle = RefBundle(
        blocks, owns_blocks=False, schema=unify_block_metadata_schema(metas) or metas[0].schema
    )
    plan._snapshot_operator = source
    plan._snapshot_stats = plan._in_stats
    return ds


def from_table(t: pa.Table) -> MaterializedDataset:
    """`t` as a one-block dataset, with no task."""
    return from_blocks([(ray.put(t), _metadata(t))])


def concat(datasets: list[ray.data.Dataset]) -> MaterializedDataset:
    """The blocks of `datasets` that hold rows, in order, as one dataset
    (no execution when every input holds its blocks); when none holds
    rows, the first typed input's empty table. The blocks' schemas unify
    as in `Dataset.union`."""
    blocks = [b for ds in datasets for b in _blocks(ds) if b[1].num_rows]
    if blocks:
        return from_blocks(blocks)
    typed = [t for t in map(_empty_table, datasets) if t is not None]
    return from_table(typed[0]) if typed else datasets[0]


def _blocks(ds: ray.data.Dataset) -> list[Block]:
    """(ref, metadata with schema) of every block of `ds`, read from its
    plan's snapshot."""
    bundle = pin(ds)._plan._snapshot_bundle
    return [
        (r, m if isinstance(m, BlockMetadataWithSchema) else BlockMetadataWithSchema(m, bundle.schema))
        for r, m in bundle.blocks
    ]


def _row_blocks(ds: ray.data.Dataset) -> list[ray.ObjectRef]:
    """Refs of the blocks of `ds` that hold rows."""
    return [r for r, m in _blocks(ds) if m.num_rows]


def _typed_blocks(ds: ray.data.Dataset) -> list[ray.ObjectRef] | None:
    """The blocks of `ds` that hold rows; if none do, its empty table as
    the one block, or None when `ds` has no schema."""
    ds = pin(ds)
    if refs := _row_blocks(ds):
        return refs
    t = _empty_table(ds)
    return None if t is None else [ray.put(t)]


def _empty_table(ds: ray.data.Dataset) -> pa.Table | None:
    sch = pin(ds).schema()
    if sch is None or not sch.names:
        return None
    return pa.schema(list(zip(sch.names, sch.types))).empty_table()


def _shuffle(sides: list[tuple[list[ray.ObjectRef], Callable]], partial: Fn | None,
             reduce: Callable[..., pa.Table], n: int,
             pick: Callable[[list[int]], int | None] | None = None,
             combine: Fn | None = None) -> MaterializedDataset:
    """Route every block of every side (block refs, routing rule) into
    `n` partitions and run `reduce(side 0 rows, side 1 rows, ...)` once
    per partition. With `pick` (a partition's row count per side → the
    side that may split), a partition that `skew_plan` cuts runs one
    sub-reduce per run of that side's slices, each with all of the
    other sides' rows; `combine`, when given, merges the sub-reduces'
    outputs into one. Returns the non-empty outputs in partition order,
    or one empty output when all are empty."""
    fns = ray.put((partial, reduce))
    split = _split.options(num_returns=n + 1)
    parts = [[split.remote(r, fns, rule, n) for r in refs] for refs, rule in sides]
    picks = [None] * n  # per partition, the side it may split
    if pick and n > SKEW:  # with n <= SKEW no partition exceeds SKEW shares
        counts = [np.stack(ray.get([b[n] for b in side])) for side in parts]
        picks = [pick([int(c[:, i].sum()) for c in counts]) for i in range(n)]
        plans = {s: skew_plan(counts[s]) for s in set(picks) - {None}}
    outs = []
    for i, s in enumerate(picks):
        subs = []
        for a, b in plans[s][i] if s is not None else [(0, None)]:
            use = [side[a:b] if j == s else side for j, side in enumerate(parts)]
            subs.append(_reduce.remote(fns, [len(u) for u in use], *(x[i] for u in use for x in u)))
        if combine and len(subs) > 1:
            subs = [_reduce.remote((None, combine), [len(subs)], *(t for t, _ in subs))]
        outs += subs
    return _collect(outs)


def _collect(outs: list[tuple[ray.ObjectRef, ray.ObjectRef]]) -> MaterializedDataset:
    """The (table, metadata) outputs of one task each as a dataset of the
    non-empty tables in order, or of the first table when all are empty."""
    metas = ray.get([m for _, m in outs])
    blocks = [(t, m) for (t, _), m in zip(outs, metas)]
    return from_blocks([b for b in blocks if b[1].num_rows] or blocks[:1])


def _metadata(t: pa.Table) -> BlockMetadataWithSchema:
    """The metadata Ray Data keeps of block `t`: rows, bytes, schema."""
    return BlockMetadataWithSchema.from_block(t)


def _by_hash(keys: list[str], n: int) -> Callable[[pa.Table], np.ndarray]:
    """The routing rule of a hash exchange: `route` on `keys`."""
    return lambda t: route(t, keys, n).to_numpy()


def _by_range(splitters: pa.Table, order: list[tuple[str, str]]) -> Callable[[pa.Table], np.ndarray]:
    """The routing rule of a range exchange: a row's partition is the
    number of `splitters` rows ordered strictly before it. The rows and
    the splitters sort together, stably and rows first, so a row equal
    to a splitter counts it after itself, and equal rows always meet."""

    def rule(t: pa.Table) -> np.ndarray:
        keys = t.select(splitters.column_names)
        both = pa.concat_tables([keys, splitters.cast(keys.schema)])
        idx = pc.sort_indices(both, sort_keys=order).to_numpy()
        row = idx < t.num_rows
        pid = np.empty(t.num_rows, np.int64)
        pid[idx[row]] = np.cumsum(~row)[row]
        return pid

    return rule


@ray.remote
def _sample(block, keys: list[str], k: int) -> pa.Table:
    """Up to `k` evenly spaced rows of `keys` from one block, each with
    the weight `_w` of the rows it stands for."""
    t = BlockAccessor.for_block(block).to_arrow().select(keys)
    s = min(k, t.num_rows)
    pos = pa.array(np.arange(s) * t.num_rows // max(s, 1), pa.int64())
    return t.take(pos).append_column("_w", pa.array(np.full(s, t.num_rows / max(s, 1))))


@ray.remote
def _split(block, fns, rule, n: int):
    """One input block → `partial(block)`'s rows cut into `n` slices in
    partition order by `rule`, and then the slices' row counts."""
    t = BlockAccessor.for_block(block).to_arrow()
    if fns[0] is not None:
        t = fns[0](t)
    pid = rule(t)
    order = np.argsort(pid, kind="stable")
    cuts = np.searchsorted(pid[order], np.arange(n + 1))
    t = t.take(order)
    return *(t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])), np.diff(cuts)


@ray.remote(num_returns=2)
def _reduce(fns, sizes: list[int], *parts: pa.Table):
    """One partition: concatenate each side's slices (`sizes` of them per
    side) and run the exchange's reduce on the side tables."""
    cuts = np.cumsum([0, *sizes])
    out = fns[1](*(
        pa.concat_tables(parts[a:b], promote_options="permissive")
        for a, b in zip(cuts[:-1], cuts[1:])
    ))
    return out, _metadata(out)


@ray.remote(num_returns=2)
def _slices(spans: list[tuple[int, int]], *blocks):
    """The (offset, length) slice of each block, concatenated."""
    out = pa.concat_tables([
        BlockAccessor.for_block(b).to_arrow().slice(int(o), int(k)) for b, (o, k) in zip(blocks, spans)
    ], promote_options="permissive").combine_chunks()
    return out, _metadata(out)


@ray.remote
def _summarize(fn, block):
    return fn(BlockAccessor.for_block(block).to_arrow())


def _call(t: pa.Table, fn: Fn) -> pa.Table:
    return fn(t)


@ray.remote(num_returns=2)
def _apply(fn, block, state):
    out = fn(BlockAccessor.for_block(block).to_arrow(), state)
    return out, _metadata(out)
