"""Deterministic synthetic web generator (SURVEY.md §5.3, FIXTURES.md §2).

page(url) = render(seed, url): every choice (degree, link targets, link
"messiness", image count, text runs, robots rules) is a pure function of
sha256(seed ‖ url ‖ tag) — no RNG state — so any process regenerates
identical bytes. This is both the conformance fixture engine (oracle vs Ray
engine exact-match corpus, SURVEY.md §5.2 shapes) and the bench substrate
(BASELINE.md protocol; no network exists in this sandbox and the reference's
live-web inputs are not reproducible, so all fetch verification runs against
this web).

Link hrefs are deliberately rendered in messy variants (uppercase host,
default ports, dot segments, fragments, percent-escapes, relative refs) plus
out-of-scope noise (mailto:, .css/.png, oversized) so RBC-2/RBC-3
canonicalization and scope filtering are exercised on every page.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pyarrow as pa

SHAPES = (
    "chain",
    "star",
    "clique",
    "two_islands",
    "zipf_hosts",
    "robots_blocked",
    "budget_tight",
    "deep",
    "dup_heavy",
)


def _h(*parts) -> int:
    """Deterministic 64-bit hash of the joined parts."""
    key = "\x00".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class SynthWeb:
    """A deterministic synthetic web: uid ↔ canonical URL ↔ rendered HTML."""

    def __init__(
        self,
        seed: int = 42,
        shape: str = "zipf_hosts",
        n_urls: int = 1000,
        n_hosts: int = 10,
        skew: float = 1.2,
        max_deg: int = 8,
        text_repeat: int = 1,
    ):
        assert shape in SHAPES, shape
        self.seed = seed
        self.shape = shape
        self.n_urls = n_urls
        self.n_hosts = min(n_hosts, n_urls)
        self.skew = skew
        self.max_deg = max_deg
        self.text_repeat = text_repeat

        # Zipf page allocation across hosts (host 0 largest).
        weights = [1.0 / (i + 1) ** skew for i in range(self.n_hosts)]
        total_w = sum(weights)
        counts = [max(1, int(round(n_urls * w / total_w))) for w in weights]
        # fix rounding drift onto host 0
        counts[0] += n_urls - sum(counts)
        if counts[0] < 1:  # degenerate tiny webs
            counts = [1] * self.n_hosts
            counts[0] += n_urls - self.n_hosts
        self.host_page_counts = counts
        # uid -> (host_idx, page_idx) dense enumeration
        self._host_of_uid: list[int] = []
        self._page_of_uid: list[int] = []
        self._base_uid: list[int] = []
        uid = 0
        for hi, c in enumerate(counts):
            self._base_uid.append(uid)
            for pj in range(c):
                self._host_of_uid.append(hi)
                self._page_of_uid.append(pj)
            uid += c

    # ---------------- naming ----------------

    def host_name(self, host_idx: int) -> str:
        return f"h{host_idx}.example"

    def _is_private(self, uid: int) -> bool:
        return self.shape == "robots_blocked" and self._page_of_uid[uid] % 4 == 3

    def url_of(self, uid: int) -> str:
        hi = self._host_of_uid[uid]
        pj = self._page_of_uid[uid]
        part = "private" if self._is_private(uid) else "p"
        return f"http://{self.host_name(hi)}/{part}/{pj}"

    def all_urls(self) -> list[str]:
        return [self.url_of(u) for u in range(self.n_urls)]

    # ---------------- graph ----------------

    def out_uids(self, uid: int) -> list[int]:
        """Target uids of page uid's outlinks (may contain duplicates/self)."""
        n = self.n_urls
        shape = self.shape
        if shape == "chain":
            return [uid + 1] if uid + 1 < n else []
        if shape == "deep":
            out = [u for u in (uid + 1, uid + 2) if u < n]
            return out
        if shape == "star":
            if uid == 0:
                return list(range(1, n))
            return [0] + ([uid + 1] if uid + 1 < n else [])
        if shape == "clique":
            return [t for t in range(n) if t != uid]
        if shape == "dup_heavy":
            k = 1 + _h(self.seed, uid, "deg") % self.max_deg
            return [max(0, uid - j) for j in range(1, k + 1)]
        # zipf_hosts / robots_blocked / budget_tight / two_islands:
        # hash-driven targets, uniform over uids (host sizes already zipf)
        k = 1 + _h(self.seed, uid, "deg") % self.max_deg
        out = []
        half = max(1, n // 2)
        for j in range(k):
            t = _h(self.seed, uid, "t", j) % n
            if shape == "two_islands":
                # keep targets within the crawler's island (split at n//2)
                if uid < half:
                    t = t % half
                else:
                    t = half + t % (n - half)
            out.append(t)
        return out

    # ---------------- robots ----------------

    def robots_body(self, host_idx: int) -> str:
        if (
            self.shape == "robots_blocked"
            and _h(self.seed, self.host_name(host_idx), "rb") % 10 < 3
        ):
            return "User-agent: *\nDisallow: /private/\n"
        return "User-agent: *\nDisallow:\n"

    # ---------------- rendering ----------------

    def _href_variant(self, uid: int, j: int, target_url: str) -> str:
        """Render target_url in a messy-but-equivalent href form."""
        v = _h(self.seed, uid, "v", j) % 8
        scheme, rest = target_url.split("://", 1)
        host, path = rest.split("/", 1)
        path = "/" + path
        this_host = self.host_name(self._host_of_uid[uid])
        if v == 0:
            return target_url
        if v == 1:
            return f"{scheme}://{host.upper()}{path}"
        if v == 2:
            return f"{scheme}://{host}:80{path}"
        if v == 3:
            return f"{target_url}#frag{j}"
        if v == 4:
            # dot segments: /p/3 -> /p/../p/3
            seg = path.split("/")[1]
            return f"{scheme}://{host}/{seg}/..{path}"
        if v == 5 and host == this_host:
            return path  # relative to site root
        if v == 6:
            # percent-encode the last path char if unreserved
            if path and (path[-1].isalnum() or path[-1] in "-._~"):
                return f"{scheme}://{host}{path[:-1]}%{ord(path[-1]):02x}"
            return target_url
        if v == 7:
            return f"  {target_url}  "  # surrounding whitespace
        return target_url

    @lru_cache(maxsize=4096)
    def page_html(self, uid: int) -> str:
        url = self.url_of(uid)
        hi = self._host_of_uid[uid]
        pj = self._page_of_uid[uid]
        targets = self.out_uids(uid)
        parts = [f"<html><head><title>Page {pj} of h{hi}</title></head><body>"]
        parts.append(f"<h1>Page p/{pj} &amp; friends on h{hi}</h1>")
        filler = _h(self.seed, uid, "txt")
        body_words = " ".join(
            f"w{(filler >> (k % 48)) % 1000}" for k in range(16 * self.text_repeat)
        )
        parts.append(f"<p>{body_words}</p>")
        n_img = _h(self.seed, uid, "img") % 3
        for m in range(n_img):
            parts.append(f'<img src="/img/{pj}_{m}.png" alt="pic">')
            if m == 0:
                parts.append(f"<p>caption {pj}_{m}</p>")
        for j, t in enumerate(targets):
            href = self._href_variant(uid, j, self.url_of(t))
            parts.append(f'<a href="{href}">link {j}</a>')
        # out-of-scope noise links (filtered by RBC-3 / RBC-2)
        noise = _h(self.seed, uid, "noise") % 4
        if noise == 0:
            parts.append('<a href="mailto:x@example.com">mail</a>')
        elif noise == 1:
            parts.append('<a href="/static/style.css">css</a>')
        elif noise == 2:
            parts.append('<a href="/pic/big.png">png</a>')
        else:
            parts.append('<a href="javascript:void(0)">js</a>')
        parts.append("<!-- generated -->")
        parts.append("</body></html>")
        return "\n".join(parts)

    # ---------------- export ----------------

    def webgraph_table(self) -> pa.Table:
        urls, hosts, htmls = [], [], []
        for uid in range(self.n_urls):
            urls.append(self.url_of(uid))
            hosts.append(self.host_name(self._host_of_uid[uid]))
            htmls.append(self.page_html(uid))
        return pa.table({"url": urls, "host": hosts, "html": htmls})

    def robots_table(self) -> pa.Table:
        hosts = [self.host_name(i) for i in range(self.n_hosts)]
        bodies = [self.robots_body(i) for i in range(self.n_hosts)]
        return pa.table({"host": hosts, "body": bodies})

    def default_seeds(self, n_seeds: int = 3) -> list[str]:
        """Ordered, deliberately messy seed list (duplicates + variants)."""
        seeds = []
        for i in range(min(n_seeds, self.n_hosts)):
            base = self.url_of(self._base_uid[i])
            scheme, rest = base.split("://", 1)
            host, path = rest.split("/", 1)
            if i % 3 == 1:
                seeds.append(f"{scheme}://{host.upper()}:80/{path}")
            elif i % 3 == 2:
                seeds.append(f"  {base}#top  ")
            else:
                seeds.append(base)
        if seeds:
            seeds.append(seeds[0])  # duplicate seed (deduped at load, RBC-4)
        return seeds


class _RenderStage:
    """map_batches callable class: builds the SynthWeb index once per actor,
    renders pages per batch — distributed web generation for bench-scale
    corpora (driver-side rendering of 2×10⁵+ pages would serialize)."""

    def __init__(self, params: dict):
        self.web = SynthWeb(**params)

    def __call__(self, batch):
        import pyarrow as pa

        uids = batch.column("id").to_pylist()
        return pa.table(
            {
                "url": [self.web.url_of(u) for u in uids],
                "host": [self.web.host_name(self.web._host_of_uid[u]) for u in uids],
                "html": [self.web.page_html(u) for u in uids],
            }
        )


def generate_web_parquet(params: dict, out_dir: str, concurrency: int = 8) -> dict:
    """Distributed deterministic web generation → webgraph/robots parquet.

    Caller owns the Ray session. Same bytes as `SynthWeb(**params)
    .webgraph_table()` for any concurrency (page = pure function of
    (seed, url)).
    """
    import os

    import pyarrow.parquet as pq
    import ray.data

    import crawlray

    crawlray.ensure_worker_importability()
    os.makedirs(out_dir, exist_ok=True)
    web = SynthWeb(**params)
    wg_dir = os.path.join(out_dir, "webgraph")
    ray.data.range(params["n_urls"]).map_batches(
        _RenderStage,
        batch_format="pyarrow",
        batch_size=2048,
        concurrency=concurrency,
        fn_constructor_args=(params,),
    ).write_parquet(wg_dir)
    rb = os.path.join(out_dir, "robots.parquet")
    pq.write_table(web.robots_table(), rb)
    return {"webgraph": wg_dir, "robots": rb}
