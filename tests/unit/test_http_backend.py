"""HttpBackend end-to-end over a loopback HTTP server (the sandbox has no
external network, but 127.0.0.1 sockets work — so the real-web path gets a
real test: fetch, robots, error handling, and a full oracle crawl over
HTTP, including hostile hrefs that must not crash canonicalize)."""

from __future__ import annotations

import http.server
import socketserver
import threading

import pytest


PAGES = {
    "/": (
        '<html><p>root</p><a href="/a">a</a> <a href="/blocked/x">b</a>'
        # hostile hrefs: malformed port, bad scheme — must be skipped, not crash
        '<a href="http://h:8o8o/">bad-port</a><a href="mailto:x@y">mail</a>'
        "</html>"
    ),
    "/a": '<html><p>page a</p><a href="/b">b</a></html>',
    "/b": "<html><p>page b</p></html>",
    "/blocked/x": "<html><p>secret</p></html>",
}
ROBOTS = "User-agent: *\nDisallow: /blocked\n"


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/robots.txt":
            body = ROBOTS.encode()
        elif self.path in PAGES:
            body = PAGES[self.path].encode()
        else:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *a):  # quiet
        pass


@pytest.fixture(scope="module")
def http_host():
    srv = socketserver.TCPServer(("127.0.0.1", 0), _Handler)
    port = srv.server_address[1]
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"127.0.0.1:{port}"
    srv.shutdown()


def test_http_backend_fetch_and_robots(http_host):
    from crawlray.backend import HttpBackend

    b = HttpBackend(timeout=5)
    assert "page a" in b.fetch(f"http://{http_host}/a")
    assert b.fetch(f"http://{http_host}/missing") is None
    assert "Disallow: /blocked" in b.robots(http_host)


def test_oracle_crawl_over_http(http_host):
    """Full BFS crawl through the real HTTP path: link discovery, robots
    blocking, hostile-href resilience."""
    from crawlray.backend import HttpBackend
    from oracle.bfs_crawler import CrawlConfig, crawl

    res = crawl(
        [f"http://{http_host}/"],
        HttpBackend(timeout=5),
        CrawlConfig(budget_per_host=10),
    )
    log = {r["url"]: r["status"] for r in res.crawl_log.to_pylist()}
    assert log[f"http://{http_host}/"] == "fetched"
    assert log[f"http://{http_host}/a"] == "fetched"
    assert log[f"http://{http_host}/b"] == "fetched"
    assert log[f"http://{http_host}/blocked/x"] == "robots_denied"
    # hostile hrefs were skipped at canonicalize, not crawled and not fatal
    assert not any("8o8o" in u or u.startswith("mailto") for u in log)
    texts = {
        s["text"]
        for d in res.documents.to_pylist()
        for s in d["spans"]
        if s["kind"] == "text"
    }
    assert {"root", "page a", "page b"} <= texts
    assert "secret" not in texts


def test_engine_crawl_over_http_matches_oracle(http_host, ray_session):
    """The DISTRIBUTED engine crawling over real HTTP (backend_factory
    path: no webgraph tables anywhere — fetchers build HttpBackend in
    __init__, host shards live-fetch robots.txt on miss) must equal the
    single-process oracle over the same server bit-for-bit."""
    from crawlray.backend import HttpBackend
    from crawlray.job import run_crawl
    from oracle.bfs_crawler import CrawlConfig, crawl

    seeds = [f"http://{http_host}/"]
    o = crawl(seeds, HttpBackend(timeout=5), CrawlConfig(budget_per_host=10))

    def factory():
        return HttpBackend(timeout=5)

    r = run_crawl(
        seeds,
        backend_factory=factory,
        budget_per_host=10,
        num_seen_shards=2,
        seen_capacity=1 << 14,
    )
    rt = r.crawl_log_table()
    assert rt.select(o.crawl_log.column_names).equals(o.crawl_log)
    assert r.seen_urls() == o.seen
    docs = {d["doc_id"]: d["spans"] for d in r.documents.take_all()}
    odocs = {d["doc_id"]: d["spans"] for d in o.documents.to_pylist()}
    assert set(docs) == set(odocs)
    for k in docs:
        got = [(s["kind"], s["text"], s["media_ref"]) for s in docs[k]]
        want = [(s["kind"], s["text"], s["media_ref"]) for s in odocs[k]]
        assert got == want, k
    r.shutdown()


def test_cli_run_http_backend(http_host, ray_session, tmp_path):
    """`crawlray run --backend http --seeds-file ...` drives a real HTTP
    crawl end-to-end from the CLI (in-process: the CLI owns no ray.init
    when one is already active)."""
    from crawlray import cli

    seeds = tmp_path / "seeds.txt"
    seeds.write_text(f"http://{http_host}/\n")
    rc = cli.main(
        ["run", "--backend", "http", "--seeds-file", str(seeds), "--budget", "10"]
    )
    assert rc == 0


def test_engine_http_checkpoint_resume(http_host, ray_session, tmp_path):
    """Checkpoint/resume over the HTTP backend: run(0..end) equals
    run(0..wave0) + resume(wave1..end) bit-for-bit, with the backend
    factory re-supplied at resume (backends are not serialized into
    checkpoints)."""
    from crawlray.backend import HttpBackend
    from crawlray.job import resume_crawl, run_crawl

    seeds = [f"http://{http_host}/"]
    full = run_crawl(
        seeds, backend_factory=HttpBackend, budget_per_host=10,
        num_seen_shards=2, seen_capacity=1 << 14,
        out_dir=str(tmp_path / "full"),
    )
    full_log = full.crawl_log_table()
    full.shutdown()

    part = run_crawl(
        seeds, backend_factory=HttpBackend, budget_per_host=10,
        num_seen_shards=2, seen_capacity=1 << 14,
        out_dir=str(tmp_path / "part"), stop_after_wave=0,
    )
    part.shutdown()
    resumed = resume_crawl(
        str(tmp_path / "part"), backend_factory=HttpBackend, seen_capacity=1 << 14,
    )
    assert resumed.crawl_log_table().equals(full_log)
    resumed.shutdown()
