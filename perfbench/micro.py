"""Kernel microbenches at the public functions, on pages drawn by seed from
the workload's own web, plus one ``SeenShardActor`` fed synthetic URLs.

Each timing is the median of ``REPEATS`` passes over the same inputs.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import time

import numpy as np
import pyarrow as pa

REPEATS = 5
N_PAGES = 2000
# one SeenShardActor fed this many distinct URLs over SEEN_WAVES waves
SEEN_URLS = 200_000
SEEN_WAVES = 4
_HREF = re.compile(r'href="([^"]*)"')


def _median_time(fn, repeats: int = REPEATS) -> float:
    from crawlray.kernels.url import canonicalize

    times = []
    for _ in range(repeats):
        canonicalize.cache_clear()  # every pass pays the uncached cost
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(webgraph: pa.Table, seed: int) -> dict[str, float]:
    """Per-call costs of parse_page, canonicalize, hash_urls_128,
    enrich_batch and CuckooFilter.maybe_contains_many."""
    from crawlray.cuckoo import CuckooFilter
    from crawlray.kernels.html import parse_page
    from crawlray.kernels.url import canonicalize
    from crawlray.murmur3 import hash_urls_128
    from crawlray.stages import enrich_batch

    rows = sorted(random.Random(seed).sample(range(webgraph.num_rows), min(N_PAGES, webgraph.num_rows)))
    sample = webgraph.take(rows)
    urls = sample.column("url").to_pylist()
    htmls = sample.column("html").to_pylist()
    pages = list(zip(htmls, urls))
    hrefs = [(h, u) for html, u in pages for h in _HREF.findall(html)]
    parsed = [parse_page(html, u) for html, u in pages]
    texts = [" ".join(s.text for s in spans if s.kind == "text") for spans, _ in parsed]
    links = sorted({link for _, out in parsed for link in out})

    parse_s = _median_time(lambda: [parse_page(h, u) for h, u in pages])
    canon_s = _median_time(lambda: [canonicalize(h, base=u) for h, u in hrefs])
    hash_s = _median_time(lambda: hash_urls_128(links))
    enrich_s = _median_time(lambda: enrich_batch(texts))

    lo, hi = hash_urls_128(links)
    cf = CuckooFilter(max(1 << 14, 2 * len(lo)))
    for a, b in zip(lo[::2].tolist(), hi[::2].tolist()):
        cf.add(a, b)
    probe_s = _median_time(lambda: cf.maybe_contains_many(lo, hi))
    return {
        "kernels.parse_page_us": parse_s / len(pages) * 1e6,
        "kernels.canonicalize_us": canon_s / len(hrefs) * 1e6,
        "kernels.hash_urls_ns": hash_s / len(links) * 1e9,
        "stages.enrich_batch_us": enrich_s / len(texts) * 1e6,
        "cuckoo.probe_ns": probe_s / len(lo) * 1e9,
    }


def _rss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmRSS for pid {pid}")


def seen_metrics(seed: int) -> dict[str, float]:
    """One SeenShardActor fed SEEN_URLS new URLs over SEEN_WAVES waves:
    driver time in finish_wave, and resident bytes gained per URL (read
    from /proc of the actor's process). Needs a live Ray session."""
    import ray

    from crawlray.actors.seen import SeenShardActor
    from crawlray.murmur3 import hash_urls_128

    actor = SeenShardActor.remote(0, cuckoo_capacity=max(1 << 14, SEEN_URLS * 2))
    try:
        pid = ray.get(actor.__ray_call__.remote(lambda self: os.getpid()))
        rss0 = _rss_bytes(pid)
        per_wave = SEEN_URLS // SEEN_WAVES
        finish_s = 0.0
        for w in range(SEEN_WAVES):
            ids = np.arange(w * per_wave, (w + 1) * per_wave) + seed * SEEN_URLS
            urls = pa.array([f"http://h{i % 997}.example/p/{i}" for i in ids.tolist()], pa.string())
            lo, hi = hash_urls_128(urls)
            ray.get(actor.begin_wave.remote(w))
            ray.get([
                actor.offer.remote(urls[off:off + 50_000], ids[off:off + 50_000], lo[off:off + 50_000], hi[off:off + 50_000])
                for off in range(0, per_wave, 50_000)
            ])
            t0 = time.perf_counter()
            ray.get(actor.finish_wave.remote())
            finish_s += time.perf_counter() - t0
        return {
            "seen.finish_wave_s": finish_s,
            "seen.rss_bytes_per_url": (_rss_bytes(pid) - rss0) / (per_wave * SEEN_WAVES),
        }
    finally:
        ray.kill(actor)
