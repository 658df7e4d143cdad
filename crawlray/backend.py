"""Fetch backends (SURVEY.md O-46).

The sandbox has no network and the reference's live-web inputs are not
reproducible, so all exact-match verification runs against the deterministic
`SyntheticBackend`. `HttpBackend` is the real-crawl path (requests-based),
gated behind an import-try; it shares the exact same interface so the engine
is backend-agnostic.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq


class FetchBackend:
    """Interface: fetch one page + fetch one host's robots.txt."""

    def fetch(self, url: str) -> str | None:
        """Return page HTML, or None on fetch error."""
        raise NotImplementedError

    def fetch_many(self, urls: list[str]) -> list[str | None]:
        """Batch fetch; backends override when they have a faster bulk path
        (SyntheticBackend: vectorized index lookup). Default: per-URL loop —
        for network backends the engine's parallelism already comes from
        the crawl shards, each fetching its own hosts' pages."""
        return [self.fetch(u) for u in urls]

    def robots(self, host: str) -> str | None:
        """Return robots.txt body for host, or None if unavailable."""
        raise NotImplementedError


class SyntheticBackend(FetchBackend):
    """Serves a deterministic synthetic web from arrow tables (or parquet).

    Index build happens once per holder (oracle process or crawl shard) —
    the webgraph table itself travels zero-copy through the object store.

    Scale path: `from_rows` skips the per-holder Python dict build — each
    crawl shard sorts the URLs of its own hosts' pages once, and lookups
    become vectorized np.searchsorted + Arrow take on the webgraph's html
    column, which stays zero-copy in the object store.
    """

    def __init__(
        self,
        webgraph: pa.Table | None,
        robots: pa.Table | None = None,
        _sorted: tuple | None = None,
    ):
        if _sorted is not None:
            self._urls_sorted = _sorted  # (urls_sorted, perm, html_col)
            self._html = _sorted[2]
            self._idx = None
        else:
            urls = webgraph.column("url").to_pylist()
            self._idx = {u: i for i, u in enumerate(urls)}
            self._html = webgraph.column("html")
            self._urls_sorted = None
        if robots is not None:
            self._robots = dict(
                zip(robots.column("host").to_pylist(), robots.column("body").to_pylist())
            )
        else:
            self._robots = {}

    @classmethod
    def from_rows(cls, webgraph: pa.Table, rows) -> "SyntheticBackend":
        """A backend serving only the webgraph rows `rows` (a crawl shard's
        hosts' pages): their URLs sorted once into a numpy index, looked up
        by np.searchsorted; the html column stays zero-copy in the
        object store and is never copied or re-sorted."""
        import numpy as np

        rows = np.asarray(rows, np.int64)
        urls = np.asarray(webgraph.column("url").take(rows).to_pylist(), dtype=np.str_)
        order = np.argsort(urls, kind="stable")
        return cls(None, None, _sorted=(urls[order], rows[order], webgraph.column("html")))

    def fetch_many(self, urls: list[str]) -> list[str | None]:
        """Vectorized batch lookup (falls back to per-URL dict probes)."""
        if self._urls_sorted is None:
            return [self.fetch(u) for u in urls]
        import numpy as np

        urls_sorted, perm, html = self._urls_sorted
        q = np.asarray(urls, dtype=np.str_)
        n = len(urls_sorted)
        pos = np.searchsorted(urls_sorted, q)
        pos_c = np.minimum(pos, max(0, n - 1))
        hit = (pos < n) & (urls_sorted[pos_c] == q) if n else np.zeros(len(q), bool)
        out: list[str | None] = [None] * len(q)
        for i in np.nonzero(hit)[0]:
            out[i] = html[int(perm[pos_c[i]])].as_py()
        return out

    @classmethod
    def from_parquet(cls, webgraph_path: str, robots_path: str | None = None):
        wg = pq.read_table(webgraph_path)
        rb = pq.read_table(robots_path) if robots_path else None
        return cls(wg, rb)

    @classmethod
    def from_web(cls, web) -> "SyntheticBackend":
        return cls(web.webgraph_table(), web.robots_table())

    def fetch(self, url: str) -> str | None:
        if self._idx is None:
            return self.fetch_many([url])[0]
        i = self._idx.get(url)
        if i is None:
            return None
        return self._html[i].as_py()

    def robots(self, host: str) -> str | None:
        return self._robots.get(host)


class HttpBackend(FetchBackend):
    """Real-web backend (unused in the sandbox: no network)."""

    def __init__(self, timeout: float = 10.0, user_agent: str = "crawlray/0.1"):
        import requests  # gated: available but useless without network

        self._session = requests.Session()
        self._session.headers["User-Agent"] = user_agent
        self._timeout = timeout

    def fetch(self, url: str) -> str | None:
        try:
            r = self._session.get(url, timeout=self._timeout)
            if r.status_code != 200:
                return None
            return r.text
        except Exception:
            return None

    def robots(self, host: str) -> str | None:
        for scheme in ("http", "https"):
            body = self.fetch(f"{scheme}://{host}/robots.txt")
            if body is not None:
                return body
        return None
