"""Declared Arrow schemas for every engine table (SURVEY.md §1.2).

One `ray.data.Dataset` per logical table; blocks are Arrow tables with these
schemas. The reference (lixiaochun/PyCrawler-class single-process crawler)
holds the same abstractions in dynamic Python objects; here they are fixed
columnar schemas so every stage is a zero-copy Arrow batch transform.
"""

from __future__ import annotations

import pyarrow as pa

# Packing constants (SURVEY.md RBC-7 / §1.3).
# disc_key = parent_seq * LINK_STRIDE + link_idx  (seeds: parent_seq = -1)
LINK_STRIDE = 1 << 20  # max outlinks per page
DEPTH_STRIDE = 1 << 10  # max crawl depth when packing (disc_key, depth)
# pack = (disc_key + LINK_STRIDE) * DEPTH_STRIDE + depth; +LINK_STRIDE keeps
# seed keys (negative parent_seq) non-negative so integer min() picks the
# same winner as lexicographic (disc_key, depth).
PACK_OFFSET = LINK_STRIDE

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),  # "text" | "media"
        ("text", pa.string()),  # stripped text run ("" for media)
        ("media_ref", pa.string()),  # canonical <img src> URL ("" for text)
        ("offset", pa.int32()),  # char offset of span start in page source
    ]
)

DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),  # canonical URL of the page
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

FRONTIER = pa.schema(
    [
        ("url", pa.string()),  # canonical form (RBC-2)
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("wave", pa.int32()),  # BFS wave the URL becomes fetchable in
        ("parent_seq", pa.int64()),  # crawl seq of discovering page (-1 = seed)
        ("link_idx", pa.int32()),  # index among parent's deduped outlinks
        ("disc_key", pa.int64()),  # parent_seq * LINK_STRIDE + link_idx
        ("priority", pa.float64()),  # frontier priority (BFS: disc_key order)
        ("url_hash_lo", pa.uint64()),  # murmur3_x64_128 low word
        ("url_hash_hi", pa.uint64()),
        ("shard", pa.uint32()),  # host_shard_of(host, num_seen_shards)
    ]
)

CRAWL_LOG = pa.schema(
    [
        ("seq", pa.int64()),  # global crawl order, 0-based
        ("url", pa.string()),
        ("host", pa.string()),
        ("wave", pa.int32()),
        ("depth", pa.int32()),
        ("status", pa.string()),  # "fetched" | "robots_denied" | "error"
        ("n_out", pa.int32()),  # outlinks discovered (post within-page dedup)
    ]
)

def pack_disc_depth(disc_key, depth):
    """Pack (disc_key, depth) into one int64 whose min() is the dedup winner.

    Vectorized (numpy arrays in, array out) or scalar ints. See §1.3: the
    within-wave dedup (O-30) reduces to a per-URL min(pack), then the
    winning row is re-derived by unpacking.
    """
    return (disc_key + PACK_OFFSET) * DEPTH_STRIDE + depth


def unpack_disc_depth(pack):
    disc_key = pack // DEPTH_STRIDE - PACK_OFFSET
    depth = pack % DEPTH_STRIDE
    return disc_key, depth
