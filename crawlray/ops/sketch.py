"""Approximate-distinct sketches (SURVEY.md O-32): HyperLogLog.

Flajolet et al.'s HLL with the standard small-range (linear counting)
correction. Partial registers are computed per batch inside `map_batches`
(numpy-vectorized) and merged by register-wise max — the classic
commutative/idempotent sketch merge, so task retries and arbitrary block
orders cannot skew the estimate. Driver-side state is one `m = 2^p`-byte
register array per merge site, never rows.

Used for frontier/seen-set cardinality metrics at 10^10-URL scale, where an
exact count per wave would mean counting across every seen shard; the HLL
rides along for ~4 KB per shard (p=12 → ±1.6% typical error). The exact
seen set remains authoritative for crawl semantics — the sketch is
metrics-only (non-authoritative by design, SURVEY.md §2.5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — turns arbitrary int64/uint64 values
    into well-mixed uint64 hashes (public-domain algorithm, Steele et al.)."""
    z = x.astype(np.uint64) + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class HLL:
    """HyperLogLog over 64-bit hashes. p register-index bits, m = 2^p
    registers of rank (leading-zero count of the remaining 64-p bits + 1)."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        if not 4 <= p <= 16:
            raise ValueError("p must be in [4, 16]")
        self.p = p
        self.m = 1 << p
        self.registers = (
            np.zeros(self.m, dtype=np.uint8) if registers is None else registers
        )

    def add_hashes(self, h: np.ndarray) -> None:
        """Vectorized update from pre-hashed uint64 values."""
        if len(h) == 0:
            return
        h = h.astype(np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of `rest` + 1, exact via a shift-and-compare
        # ladder (no float log hazards; 6 vectorized passes)
        lz = np.zeros(len(rest), dtype=np.uint8)
        v = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = v < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += np.uint8(shift)
            v[mask] <<= np.uint64(shift)
        rank = lz.astype(np.uint8) + np.uint8(1)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HLL") -> "HLL":
        if other.p != self.p:
            raise ValueError("cannot merge HLLs of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1.0 + 1.079 / m)
        s = np.sum(np.exp2(-self.registers.astype(np.float64)))
        e = alpha * m * m / s
        if e <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * np.log(m / zeros)  # linear counting
        return float(e)


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Column → uint64 hashes: splitmix64 for integer columns, murmur3_128
    low word for strings (same kernel the seen set keys on) and for the
    string form of any other type."""
    typ = col.type
    if pa.types.is_integer(typ):
        vals = col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        return splitmix64(vals)
    if not (pa.types.is_string(typ) or pa.types.is_large_string(typ)):
        col = pc.cast(col, pa.string())
    from crawlray.murmur3 import hash_urls_128

    lo, _hi = hash_urls_128(col.to_pylist())
    return lo


def approx_distinct(
    ds: ray.data.Dataset, col: str, p: int = 12
) -> float:
    """HLL cardinality estimate of a Dataset column. One map pass emitting
    a 2^p-byte partial per block; driver merges registers (never rows)."""

    def _partial(batch: pa.Table) -> pa.Table:
        h = HLL(p)
        h.add_hashes(_hash_column(batch.column(col).combine_chunks()))
        return pa.table({"registers": pa.array([h.registers.tobytes()], pa.binary())})

    merged = HLL(p)
    for row in ds.map_batches(_partial, batch_format="pyarrow").take_all():
        merged.merge(HLL(p, np.frombuffer(row["registers"], dtype=np.uint8).copy()))
    return merged.estimate()


# --------------------------------------------------------------------------
# Misra-Gries frequent items (heavy hitters)


class MGSummary:
    """A Misra-Gries k-counter summary: at most k (item, count) pairs plus
    the total decrement applied so far. Mergeable (Agarwal et al.,
    "Mergeable Summaries", PODS'12): merge = add counts, then decrement all
    by the (k+1)-largest and drop non-positive. Guarantee after any merge
    tree: true_count - decremented <= est <= true_count, with
    decremented <= n_total / (k + 1)."""

    __slots__ = ("k", "counts", "decremented", "n_total")

    def __init__(self, k: int):
        self.k = k
        self.counts: dict = {}
        self.decremented = 0
        self.n_total = 0

    def _shrink(self) -> None:
        if len(self.counts) <= self.k:
            return
        vals = np.fromiter(self.counts.values(), dtype=np.int64)
        # (k+1)-th largest value = smallest survivor's floor
        cut = int(np.partition(vals, len(vals) - self.k - 1)[
            len(vals) - self.k - 1
        ])
        self.decremented += cut
        self.counts = {
            it: c - cut for it, c in self.counts.items() if c > cut
        }

    def add_counts(self, items: list, counts: np.ndarray) -> None:
        self.n_total += int(counts.sum())
        for it, c in zip(items, counts.tolist()):
            self.counts[it] = self.counts.get(it, 0) + c
        self._shrink()

    def merge(self, other: "MGSummary") -> "MGSummary":
        out = MGSummary(min(self.k, other.k))
        out.counts = dict(self.counts)
        for it, c in other.counts.items():
            out.counts[it] = out.counts.get(it, 0) + c
        out.decremented = self.decremented + other.decremented
        out.n_total = self.n_total + other.n_total
        out._shrink()
        return out


def frequent_items(
    ds: ray.data.Dataset, col: str, k: int = 64
) -> tuple[pa.Table, int]:
    """Approximate heavy hitters over a column (Misra-Gries): every item
    with frequency > n/(k+1) is guaranteed present, and every estimated
    count undershoots the true count by at most the returned
    `max_undercount` (= the summed decrements, itself <= n/(k+1)).

    Distributed shape: each block computes an EXACT vectorized
    value_counts (Arrow C kernel) and folds it into ONE summary row of at
    most k (item, count) pairs (list columns) — only summaries travel, so
    the driver merge is O(#blocks * k), never rows. Same
    map-side-combine + tiny-merge pattern as the HLL above; MG summaries
    are mergeable (Agarwal et al., "Mergeable Summaries", PODS'12), so
    block order and task retries cannot break the guarantee.

    Returns (table with columns [item, est_count] sorted by est_count
    desc then item asc, max_undercount).
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def _partial(batch: pa.Table) -> pa.Table:
        vc = batch.column(col).combine_chunks().value_counts()
        items = vc.field("values")
        counts = vc.field("counts").to_numpy().astype(np.int64)
        s = MGSummary(k)
        s.add_counts(items.to_pylist(), counts)
        its = list(s.counts.keys())
        return pa.table(
            {
                "items": pa.array([its], type=pa.list_(items.type)),
                "cnts": pa.array(
                    [[s.counts[i] for i in its]], type=pa.list_(pa.int64())
                ),
                "dec": pa.array([s.decremented], pa.int64()),
                "n": pa.array([s.n_total], pa.int64()),
            }
        )

    total = MGSummary(k)
    for row in ds.map_batches(
        _partial, batch_format="pyarrow", batch_size=None
    ).take_all():
        part = MGSummary(k)
        part.counts = dict(zip(row["items"], row["cnts"]))
        part.decremented = row["dec"]
        part.n_total = row["n"]
        total = total.merge(part)
    its = sorted(total.counts, key=lambda i: (-total.counts[i], i))
    tbl = pa.table(
        {
            "item": pa.array(its),
            "est_count": pa.array(
                [total.counts[i] for i in its], pa.int64()
            ),
        }
    )
    return tbl, total.decremented


# --------------------------------------------------------------------------
# KMV bottom-k sample → approximate quantiles


def bottomk_sample(
    ds: ray.data.Dataset,
    key_col: str,
    k: int = 4096,
    columns: list[str] | None = None,
    hash_fn: str = "md5",
) -> pa.Table:
    """Deterministic uniform sample of k rows: the k smallest hash(key)
    values (KMV / bottom-k min-wise sketch). Mergeable — bottom-k of a
    union is the bottom-k of the per-block bottom-k's — so each block
    contributes at most k rows and the driver merge is O(#blocks · k),
    never rows. Being a pure function of the data, the sample (and
    anything computed from it) is identical across runs, parallelism
    levels and engines: SQL can reproduce it as ORDER BY MD5(key), key
    LIMIT k. `hash_fn="murmur3"` switches to the vectorized engine kernel
    for production-volume use (same guarantees, different sample).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cols = columns or []

    def _digests(batch: pa.Table) -> pa.Array:
        if hash_fn == "md5":
            import hashlib

            return pa.array(
                hashlib.md5(str(v).encode("utf-8")).hexdigest()
                for v in batch.column(key_col).to_pylist()
            )
        from crawlray.murmur3 import murmur3_x64_128_batch

        col = batch.column(key_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(
            col.type
        ):
            import pyarrow.compute as pc

            col = pc.cast(col, pa.string())
        lo, _ = murmur3_x64_128_batch(col)
        return pa.array([format(v, "016x") for v in lo.tolist()])

    def _partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pa.table(
            {
                "_dig": _digests(batch),
                key_col: batch.column(key_col),
                **{c: batch.column(c) for c in cols if c != key_col},
            }
        )
        order = pc.sort_indices(
            t, sort_keys=[("_dig", "ascending"), (key_col, "ascending")]
        )
        return t.take(order.slice(0, k))

    import pyarrow.compute as pc

    tbls = [
        t
        for t in ray.get(
            ds.map_batches(_partial, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_columns > 0
    ]
    if not tbls:
        raise ValueError("bottomk_sample: input dataset is empty")
    parts = pa.concat_tables(tbls)
    order = pc.sort_indices(
        parts, sort_keys=[("_dig", "ascending"), (key_col, "ascending")]
    )
    return parts.take(order.slice(0, k)).drop_columns(["_dig"])


def approx_quantiles(
    ds: ray.data.Dataset,
    value_col: str,
    key_col: str,
    qs: list[float],
    k: int = 4096,
    hash_fn: str = "md5",
) -> pa.Table:
    """Approximate quantiles from a KMV bottom-k sample: error ~O(1/√k)
    (rank error of a k-uniform sample), deterministic given the data —
    the SQL oracle reproduces the SAME approximate answer via
    quantile_cont over ORDER BY MD5(key), key LIMIT k. Interpolation is
    linear (percentile_cont semantics), matching both DuckDB's
    quantile_cont and the repo's exact distributed `exact_quantiles`.
    One streaming pass + O(#blocks · k) merge; use `exact_quantiles`
    when the exact answer is worth its full sort."""
    sample = bottomk_sample(
        ds, key_col, k=k, columns=[value_col], hash_fn=hash_fn
    )
    v = np.sort(sample.column(value_col).to_numpy(zero_copy_only=False))
    out = {
        f"q{str(q).replace('.', '_')}": pa.array(
            [float(np.quantile(v, q, method="linear"))]
        )
        for q in qs
    }
    return pa.table(out)


def approx_distinct_by(
    ds: ray.data.Dataset, group_col: str, col: str, p: int = 12
) -> pa.Table:
    """Per-group HLL cardinality estimates → (group, estimate).

    Map-side: each block emits ONE register row per group present in the
    block (2^p bytes each — the per-block summary is bounded by
    groups-per-block, never rows). One groupby shuffle then merges
    registers per group with the commutative register-max, so task
    retries and block order cannot skew estimates. Use when the group
    count is large enough that per-group exact distincts (a full
    (group, value) shuffle) would dominate — the register rows are the
    only thing that moves.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        gcol = batch.column(group_col).combine_chunks()
        enc = gcol.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        hashes = _hash_column(batch.column(col).combine_chunks())
        groups, regs = [], []
        for code in range(len(enc.dictionary)):
            h = HLL(p)
            h.add_hashes(hashes[idx == code])
            groups.append(enc.dictionary[code].as_py())
            regs.append(h.registers.tobytes())
        return pa.table(
            {
                group_col: pa.array(groups, gcol.type),
                "registers": pa.array(regs, pa.binary()),
            }
        )

    def _merge(group: pa.Table) -> pa.Table:
        h = HLL(p)
        for r in group.column("registers").to_pylist():
            h.merge(HLL(p, np.frombuffer(r, dtype=np.uint8).copy()))
        return pa.table(
            {
                group_col: group.column(group_col).slice(0, 1),
                "estimate": pa.array([h.estimate()], pa.float64()),
            }
        )

    parts = ds.map_batches(_partial, batch_format="pyarrow")
    out = parts.groupby(group_col).map_groups(_merge, batch_format="pyarrow")
    return pa.Table.from_pylist(out.take_all())


# --------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms 2005)

# fixed odd row seeds — results are a pure function of the data
_CM_SEEDS = np.array(
    [
        0x9E3779B97F4A7C15,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
        0xD6E8FEB86659FD93,
        0xA5A5A5A5A5A5A5A5 | 1,
    ],
    dtype=np.uint64,
)


def _cm_slots(h: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(n,) uint64 key hashes → (depth, n) int64 column indices: one
    splitmix64 re-mix per row with a fixed odd seed (pairwise-independent
    enough for the CM overcount bound in practice; deterministic)."""
    out = np.empty((depth, len(h)), np.int64)
    for r in range(depth):
        out[r] = (splitmix64(h ^ _CM_SEEDS[r]) % np.uint64(width)).astype(
            np.int64
        )
    return out


def count_min(
    ds: ray.data.Dataset, col: str, width: int = 4096, depth: int = 4
) -> np.ndarray:
    """Distributed Count-Min frequency sketch of a column → the (depth,
    width) int64 counter matrix. CM is a LINEAR sketch (merge =
    elementwise add), so each block contributes a SPARSE partial —
    (slot, cnt) rows for its occupied counters only — and one
    `grouped_sum_hash` exchange folds them; the driver receives at most
    depth x width summary rows (O(1) in the data size), exactly the
    mergeable-summary shape of the HLL/MG/KMV sketches in this module.
    Guarantees (deterministic, not probabilistic, given the fixed seeds):
    est(key) = min_r CM[r, h_r(key)] >= true_count(key), and the
    expected overcount is <= e/width x N per row.
    """
    if depth > len(_CM_SEEDS):
        raise ValueError(f"depth <= {len(_CM_SEEDS)} supported")

    from crawlray.ops.relational import grouped_sum_hash

    def _partial(batch: pa.Table) -> pa.Table:
        # null keys are ignored (they would otherwise surface as NaN
        # dictionary indices and break bincount, or hash as a spurious
        # key) — same null semantics as SQL COUNT(col)
        c = batch.column(col).combine_chunks().drop_null()
        # count per distinct key first (dict-encode), then scatter —
        # O(distinct) slot rows per block, not O(rows)
        enc = c.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(idx, minlength=len(enc.dictionary)).astype(
            np.int64
        )
        h = _hash_column(enc.dictionary)
        slots = _cm_slots(h, depth, width)  # (depth, n_distinct)
        flat = (
            np.arange(depth, dtype=np.int64)[:, None] * width + slots
        ).ravel()
        cnts = np.broadcast_to(cnt, (depth, len(cnt))).ravel()
        # collapse same-slot collisions inside the block
        uniq, inv = np.unique(flat, return_inverse=True)
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, inv, cnts)
        return pa.table(
            {
                "slot": pa.array(uniq, pa.int64()),
                "cnt": pa.array(acc, pa.int64()),
            }
        )

    rows = grouped_sum_hash(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["slot"],
        "cnt",
        alias="cnt",
    ).take_all()
    cm = np.zeros(depth * width, np.int64)
    for r in rows:
        cm[r["slot"]] = r["cnt"]
    return cm.reshape(depth, width)


def cm_probe(
    ds: ray.data.Dataset,
    cm: np.ndarray,
    col: str,
    out_col: str = "cm_est",
) -> ray.data.Dataset:
    """Point-query a Count-Min matrix for every row's key: adds
    `out_col` = min over rows of the key's counters. The matrix (a few
    hundred KiB) is captured by value in the map closure — broadcast
    once per worker, never per batch."""
    depth, width = cm.shape

    def _probe(batch: pa.Table) -> pa.Table:
        c = batch.column(col).combine_chunks()
        # null keys were ignored at build time (count_min._partial): hash
        # only the valid keys, whatever their type, and probe nulls as null
        valid = pc.is_valid(c).to_numpy(zero_copy_only=False)
        slots = _cm_slots(_hash_column(c.filter(pa.array(valid))), depth, width)
        est = np.zeros(len(c), np.int64)
        est[valid] = cm[np.arange(depth)[:, None], slots].min(axis=0)
        return batch.append_column(out_col, pa.array(est, mask=~valid))

    return ds.map_batches(_probe, batch_format="pyarrow")
