"""crawlray — a from-scratch Ray-Data-native distributed crawl/data engine.

Reproduces the query + data-processing capabilities of the reference
`lixiaochun/PyCrawler` (a single-process BFS fetch-parse-extract loop; the
snapshot at /root/reference was empty at survey time — see SURVEY.md §0, so
behavior follows the normative Reference Behavior Contract in SURVEY.md §1.4
implemented as a pure-Python oracle in `oracle/bfs_crawler.py`).

Architecture: every stage is a `ray.data.Dataset` transform over zero-copy
Arrow batches; the crawl's state (URL-seen sets, robots cache, politeness
token buckets) and fetching live in host-partitioned crawl-shard actors. Crawl ordering is a pure function of the crawl graph (disc_key
sort), so any parallelism level reproduces the oracle bit-for-bit.
"""

__version__ = "0.1.0"

_registered = False


def ensure_worker_importability() -> None:
    """Force by-value cloudpickle serialization of crawlray/oracle modules so
    Ray workers never need this repo on their own sys.path (the driver may
    run from any cwd). Idempotent; call before shipping stage functions or
    actor classes to workers."""
    global _registered
    if _registered:
        return
    import importlib
    import pkgutil

    import ray.cloudpickle as _cp

    for pkg_name in ("crawlray", "oracle"):
        try:
            pkg = importlib.import_module(pkg_name)
        except ImportError:
            continue
        mods = [pkg]
        for info in pkgutil.walk_packages(pkg.__path__, prefix=pkg_name + "."):
            try:
                mods.append(importlib.import_module(info.name))
            except ImportError:
                pass
        for m in mods:
            try:
                _cp.register_pickle_by_value(m)
            except Exception:
                pass
    _registered = True
