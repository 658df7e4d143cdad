"""Corpus-prep scale stress: parallelism-invariance checksums at ~1M docs.

Replicates the sf documents table `--reps` times (remapped doc_ids,
per-replica source suffixes) and runs each corpus-prep operator at two
block counts, asserting the result checksum is IDENTICAL — correctness
must not depend on partitioning (the property that makes the ops safe
to re-block at 100 TB). Timings per op are printed for the BENCH log.

Usage:
  python tools/stress_corpus.py                  # sf0.1 x200 = 1M docs
  python tools/stress_corpus.py --sf-dir /root/testdata/sf0.01 --reps 10
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# self-sufficient launch: `python tools/stress_corpus.py` from anywhere —
# the repo root must be importable on the driver AND on Ray workers
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = (
    _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")
)

import numpy as np  # noqa: F401 (kept for parity with op modules)
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def build_corpus(sf_dir: str, reps: int) -> pa.Table:
    base = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )
    n = base.num_rows
    parts = []
    for r in range(reps):
        parts.append(
            pa.table(
                {
                    "doc_id": pc.add(base["doc_id"], r * n),
                    "source": pc.binary_join_element_wise(
                        base["source"], pa.array([f"r{r}"] * n), "_"
                    ),
                    "text": base["text"],
                }
            )
        )
    return pa.concat_tables(parts)


def _checksum(ds, exprs):
    """Sum int64 expressions per block, fold on the driver (O(#blocks))."""

    def _c(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return pa.table({f"v{i}": [0] for i in range(len(exprs))})
        return pa.table(
            {
                f"v{i}": [int(pc.sum(e(b)).as_py() or 0)]
                for i, e in enumerate(exprs)
            }
        )

    rows = ds.map_batches(_c, batch_format="pyarrow").take_all()
    return tuple(sum(r[f"v{i}"] for r in rows) for i in range(len(exprs)))


def run(big: pa.Table, blocks_a: int, blocks_b: int) -> None:
    import ray.data

    from crawlray.ops.corpusprep import (
        pack_bins,
        pack_sequences,
        paragraph_dedup,
        redact_pii,
    )
    from crawlray.ops.relational import mixture_sample
    import hashlib

    n = big.num_rows

    def stress(name, make, exprs):
        results = []
        for nb in (blocks_a, blocks_b):
            ds = ray.data.from_arrow(big).repartition(nb)
            t0 = time.time()
            chk = _checksum(make(ds), exprs)
            dt = time.time() - t0
            print(
                f"{name} blocks={nb}: {dt:.1f}s, {n / dt:,.0f} docs/s, "
                f"chk={chk}"
            )
            results.append(chk)
        assert results[0] == results[1], f"{name} NOT parallelism-invariant"

    stress(
        "pack_sequences",
        lambda ds: pack_sequences(ds, budget=256),
        [
            lambda b: pc.multiply(b["pack_id"], pc.add(b["doc_id"], 1)),
            lambda b: b["cum_tokens"],
        ],
    )
    stress(
        "pack_bins",
        lambda ds: pack_bins(ds, budget=256),
        [
            lambda b: pc.multiply(b["bin_id"], pc.add(b["doc_id"], 1)),
            lambda b: b["bin_id"],
        ],
    )
    stress(
        "redact_pii",
        redact_pii,
        [
            lambda b: pc.add(pc.add(b["n_emails"], b["n_ips"]), b["n_ids"]),
            lambda b: pc.cast(pc.utf8_length(b["text"]), pa.int64()),
        ],
    )

    # embed_documents: stateless feature-hash embedder — per-row output is
    # a pure function of the text, so a doc_id-weighted quantized sum of
    # the flattened vectors must be block-layout-invariant bit-for-bit
    from crawlray.ops.textqa import embed_documents

    def _emb_chk(b: pa.Table):
        flat = pc.list_flatten(b["embedding"])
        parents = pc.list_parent_indices(b["embedding"].combine_chunks())
        ids = pc.add(b["doc_id"].combine_chunks().take(parents), 1)
        q = pc.cast(pc.round(pc.multiply(flat, 1e6)), pa.int64())
        return pc.multiply(q, ids)

    stress(
        "embed_documents",
        lambda ds: embed_documents(ds, dim=64),
        [_emb_chk],
    )

    def _plant(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text": pc.binary_join_element_wise(
                    "HDR", b["text"], b["source"], " | "
                ),
            }
        )

    stress(
        "paragraph_dedup",
        lambda ds: paragraph_dedup(
            ds.map_batches(_plant, batch_format="pyarrow")
        ),
        [
            lambda b: pc.multiply(
                pc.add(b["doc_id"], 1), pc.add(b["pos"], 7)
            ),
        ],
    )

    # decontaminate: a deterministic 1-in-97 slice of the corpus plays the
    # benchmark (guaranteed overlap), at two block counts on BOTH sides —
    # covers the bloom probe, the right_is_distinct fast path, and the
    # hash-bucket exchanges end-to-end
    from crawlray.ops.corpusprep import decontaminate

    def _bench_side(ds):
        # expr strings don't support BinOp left operands; vectorized batch
        # filter keeps the slice deterministic and block-layout-independent
        def _slice(b: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.subtract(
                    b.column("doc_id"),
                    pc.multiply(pc.divide(b.column("doc_id"), 97), 97),
                ),
                0,
            )
            return b.filter(keep)

        return ds.map_batches(_slice, batch_format="pyarrow")

    stress(
        "decontaminate",
        lambda ds: decontaminate(ds, _bench_side(ds), n=8),
        [lambda b: pc.multiply(pc.add(b["doc_id"], 1), b["n_hits"])],
    )

    # substring dedup at adversarial saturation: every replica repeats
    # every text, so EVERY positional gram is corpus-duplicated — the
    # bloom probe passes everything and the full hit stream (≈ one row
    # per token) takes the id exchange; worst-case volume for both the
    # island merge and the co-grouped cut
    from crawlray.ops.corpusprep import dup_spans, remove_dup_spans

    stress(
        "dup_spans",
        lambda ds: dup_spans(ds, n=5),
        [
            lambda b: pc.multiply(
                pc.add(b["doc_id"], 1), pc.add(b["span_start"], 3)
            ),
            lambda b: pc.multiply(b["span_end"], b["n_dup_grams"]),
        ],
    )
    stress(
        "remove_dup_spans",
        lambda ds: remove_dup_spans(ds, n=5),
        [
            lambda b: pc.multiply(pc.add(b["doc_id"], 1), b["n_removed"]),
            lambda b: pc.cast(pc.utf8_length(b["text_clean"]), pa.int64()),
        ],
    )

    srcs = set(big.column("source").unique().to_pylist())
    rates = {
        s: int(hashlib.md5(s.encode()).hexdigest()[0], 16) * 17 / 256
        for s in srcs
    }
    stress(
        "mixture_sample",
        lambda ds: mixture_sample(
            ds, source_col="source", key_col="doc_id", rates=rates
        ),
        [lambda b: b["doc_id"]],
    )

    # BPE training: the corpus fold sees all ~1M docs (vocab unchanged
    # by replication, freqs x reps); local_threshold=0 forces the
    # DISTRIBUTED merge rounds — the merge table must be identical at
    # both block counts (driver artifact, compared directly)
    from crawlray.ops.bpe import bpe_train, bpe_vocab_counts

    mts = []
    for nb_ in (blocks_a, blocks_b):
        ds = ray.data.from_arrow(big).repartition(nb_)
        t0 = time.time()
        mt = bpe_train(ds, num_merges=12, local_threshold=0)
        dt = time.time() - t0
        print(
            f"bpe_train blocks={nb_}: {dt:.1f}s, {n / dt:,.0f} docs/s, "
            f"rules={mt.num_rows}"
        )
        mts.append(mt)
    assert mts[0].equals(mts[1]), "bpe_train NOT parallelism-invariant"
    bpe_rules = mts[0]
    stress(
        "bpe_vocab_counts",
        lambda ds: bpe_vocab_counts(ds, bpe_rules),
        [
            lambda b: pc.multiply(
                pc.cast(pc.utf8_length(b["token"]), pa.int64()), b["n"]
            )
        ],
    )

    # BPE segmentation at a production-grade vocab (VERDICT r4 item 1
    # done-bar): the sf corpus has only 31 distinct words (107-merge
    # ceiling), so each doc plants one deterministic pseudo-word
    # ('w' + doc_id%4096 — digits need the byte-level alphabet, which
    # this entry exercises at scale). Train 512 merges (vocab-sized
    # rounds), then segment all ~1M docs on the DISTINCT-word scale
    # path at two block counts. Work is O(K*vocab) for the rules + one
    # map-back per occurrence — this entry is what K corpus-wide
    # replace passes could never survive (512 passes x 1M docs).
    from crawlray.ops.bpe import bpe_segment_tokens

    def _enrich(b: pa.Table) -> pa.Table:
        tag = pc.binary_join_element_wise(
            "w",
            pc.cast(
                pc.subtract(
                    b["doc_id"],
                    pc.multiply(pc.divide(b["doc_id"], 4096), 4096),
                ),
                pa.string(),
            ),
            "",
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text": pc.binary_join_element_wise(b["text"], tag, " "),
            }
        )

    def _rich(ds):
        return ds.map_batches(_enrich, batch_format="pyarrow")

    t0 = time.time()
    rules512 = bpe_train(
        _rich(ray.data.from_arrow(big).repartition(blocks_a)),
        num_merges=512,
        byte_level=True,
    )
    print(
        f"bpe_train_512: {time.time() - t0:.1f}s, "
        f"rules={rules512.num_rows}"
    )
    assert rules512.num_rows == 512, "corpus exhausted below 512 merges"
    stress(
        "bpe_segment_512",
        lambda ds: bpe_segment_tokens(
            _rich(ds), rules512, byte_level=True
        ),
        [
            lambda b: pc.multiply(
                pc.cast(pc.utf8_length(b["token"]), pa.int64()),
                pc.add(b["doc_id"], 1),
            )
        ],
    )

    # NB quality classifier: ~200M token rows through the weight join +
    # two hash exchanges; nb is micro-units/1e6 so quantizing by 1e6 is
    # exact and the checksum bit-stable
    from crawlray.ops.textqa import nb_quality_score

    nb_pos = sorted(srcs)[: max(1, len(srcs) // 2)]
    stress(
        "nb_quality_score",
        lambda ds: nb_quality_score(ds, nb_pos),
        [
            lambda b: pc.multiply(
                pc.cast(pc.round(pc.multiply(b["nb"], 1e6)), pa.int64()),
                pc.add(b["doc_id"], 1),
            )
        ],
    )

    # Count-Min: linear merge must make the counter matrix bit-identical
    # at any block layout
    from crawlray.ops.sketch import count_min

    cms = []
    for nb_ in (blocks_a, blocks_b):
        ds = ray.data.from_arrow(big).repartition(nb_)
        t0 = time.time()
        cm = count_min(ds, "source")
        dt = time.time() - t0
        print(
            f"count_min blocks={nb_}: {dt:.1f}s, {n / dt:,.0f} rows/s, "
            f"row_sum={int(cm[0].sum())}"
        )
        cms.append(cm)
    assert (cms[0] == cms[1]).all(), "count_min NOT parallelism-invariant"

    # per-source corpus diagnostics: entropy micro-units + ttr exact
    from crawlray.ops.textqa import corpus_diagnostics

    stress(
        "corpus_diagnostics",
        corpus_diagnostics,
        [
            lambda b: pc.add(b["n_tokens"], b["n_types"]),
            lambda b: pc.cast(
                pc.round(pc.multiply(b["entropy"], 1e9)), pa.int64()
            ),
        ],
    )

    # graph ops over a ~2M-edge synthetic web graph derived from doc ids:
    # k-core peel (shuffle path forced via exchange.BROADCAST_BYTES = 0 on
    # the second layout — both paths must agree) and integer HITS
    from crawlray.ops import exchange
    from crawlray.ops.graph import hits_scores, kcore

    # modulus scaled to the corpus so node degree stays ~20 at any
    # --reps (a fixed modulus degenerates to degree ~1 on small runs,
    # making the k-core vacuously empty)
    gr_mod = max(1009, n // 20)

    def _gr_edges(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        src = pa.array(ids % gr_mod, pa.int64())
        dst = pa.array((ids * 2654435761) % gr_mod, pa.int64())
        t = pa.table({"id_a": src, "id_b": dst})
        return t.filter(pc.not_equal(t.column("id_a"), t.column("id_b")))

    gres = []
    budget = exchange.BROADCAST_BYTES
    for nb_, thr in ((blocks_a, 1 << 40), (blocks_b, 0)):
        ds = ray.data.from_arrow(big).repartition(nb_)
        ed = ds.map_batches(_gr_edges, batch_format="pyarrow")
        t0 = time.time()
        exchange.BROADCAST_BYTES = thr
        kc = kcore(ed, k=3)
        chk = _checksum(
            kc, [lambda b: pc.multiply(pc.add(b["node"], 1), b["deg"])]
        )
        dt = time.time() - t0
        print(f"kcore blocks={nb_} thr={thr}: {dt:.1f}s, chk={chk}")
        gres.append(chk)
    exchange.BROADCAST_BYTES = budget
    assert gres[0] == gres[1], "kcore NOT path/layout-invariant"

    hres = []
    for nb_ in (blocks_a, blocks_b):
        ds = ray.data.from_arrow(big).repartition(nb_)
        ed = ds.map_batches(_gr_edges, batch_format="pyarrow")
        t0 = time.time()
        chk = _checksum(
            hits_scores(ed, n_iters=3, src_col="id_a", dst_col="id_b"),
            [lambda b: pc.add(b["auth"], b["hub"])],
        )
        dt = time.time() - t0
        print(f"hits blocks={nb_}: {dt:.1f}s, chk={chk}")
        hres.append(chk)
    assert hres[0] == hres[1], "hits NOT parallelism-invariant"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1")
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--blocks", default="64:257")
    ap.add_argument("--num-cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
        )
    big = build_corpus(args.sf_dir, args.reps)
    print("corpus rows:", big.num_rows)
    a, b = (int(x) for x in args.blocks.split(":"))
    run(big, a, b)
    ray.shutdown()


if __name__ == "__main__":
    main()
