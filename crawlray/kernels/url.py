"""URL canonicalization + scope filtering (SURVEY.md RBC-2 / RBC-3).

Shared verbatim by the sequential oracle (`oracle/bfs_crawler.py`) and the
Ray engine stages, so URL-level agreement between them is structural; the
kernel itself is validated by table-driven unit vectors
(tests/unit/test_url.py) and hypothesis idempotence properties.

Reference behavior: the PyCrawler-class reference applies ad-hoc
canonicalization inside its BFS loop (reference snapshot absent — SURVEY.md
§0; this module implements the normative RBC-2/3 contract instead).
"""

from __future__ import annotations

from functools import lru_cache

import re
from urllib.parse import urljoin, urlsplit

import pyarrow as pa
import pyarrow.compute as pc

# RBC-3 deny list: URLs whose path ends in a non-HTML extension are dropped.
DENY_EXTENSIONS = (
    ".jpg", ".jpeg", ".png", ".gif", ".css", ".js", ".pdf", ".zip",
    ".gz", ".mp3", ".mp4", ".ico", ".svg", ".woff",
)
MAX_URL_LEN = 2048

_DEFAULT_PORTS = {"http": "80", "https": "443"}
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_PCT_RE = re.compile(r"%([0-9a-fA-F]{2})")


def _normalize_percent(s: str) -> str:
    """Percent-decode unreserved characters, uppercase remaining escapes."""

    def repl(m: re.Match) -> str:
        ch = chr(int(m.group(1), 16))
        if ch in _UNRESERVED:
            return ch
        return "%" + m.group(1).upper()

    return _PCT_RE.sub(repl, s)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 remove_dot_segments."""
    output: list[str] = []
    buf = path
    while buf:
        if buf.startswith("../"):
            buf = buf[3:]
        elif buf.startswith("./"):
            buf = buf[2:]
        elif buf.startswith("/./"):
            buf = "/" + buf[3:]
        elif buf == "/.":
            buf = "/"
        elif buf.startswith("/../"):
            buf = "/" + buf[4:]
            if output:
                output.pop()
        elif buf == "/..":
            buf = "/"
            if output:
                output.pop()
        elif buf in (".", ".."):
            buf = ""
        else:
            if buf.startswith("/"):
                i = buf.find("/", 1)
            else:
                i = buf.find("/")
            if i == -1:
                output.append(buf)
                buf = ""
            else:
                output.append(buf[:i])
                buf = buf[i:]
    return "".join(output)


@lru_cache(maxsize=1 << 17)
def canonicalize(url: str, base: str | None = None) -> str | None:
    """Canonicalize per RBC-2; returns None for structurally unusable URLs.

    Memoized (pure function of its string arguments): link targets repeat
    heavily under zipf host/page popularity, and profiling showed RFC 3986
    resolution (urljoin/urlsplit) is 64% of the page-parse kernel — the
    engine's single hottest code path. A 2^17-entry LRU per process turns
    repeat links into a dict hit with identical results by construction.

    Order of operations: strip whitespace → resolve against base (RFC 3986
    reference resolution) → lowercase scheme/host → strip default port →
    remove dot segments → percent-normalize the path → empty path becomes
    "/" → drop fragment. The query string is preserved byte-for-byte (no
    parameter reordering, no percent-normalization) per RBC-2.
    """
    if url is None:
        return None
    u = url.strip()
    if not u:
        return None
    if base:
        try:
            u = urljoin(base, u)
        except ValueError:
            return None
    try:
        parts = urlsplit(u)
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if not scheme:
        return None
    # urlsplit validates hostname/port lazily: a malformed port ("http://h:8o8o/",
    # ":99999") raises ValueError here, not at urlsplit() time.
    try:
        host = (parts.hostname or "").lower()
        raw_port = parts.port
    except ValueError:
        return None
    if not host:
        return None

    netloc = host
    if raw_port is not None:
        port = str(raw_port)
        if _DEFAULT_PORTS.get(scheme) != port:
            netloc = f"{host}:{port}"
    if parts.username:
        userinfo = parts.username
        if parts.password:
            userinfo += f":{parts.password}"
        netloc = f"{userinfo}@{netloc}"

    path = _remove_dot_segments(parts.path)
    path = _normalize_percent(path)
    if not path:
        path = "/"

    out = f"{scheme}://{netloc}{path}"
    if parts.query:
        out += f"?{parts.query}"
    return out


def in_scope(url: str) -> bool:
    """RBC-3 scope predicate on a canonical URL."""
    if len(url) > MAX_URL_LEN:
        return False
    if not (url.startswith("http://") or url.startswith("https://")):
        return False
    # extension check on the path only
    end = len(url)
    q = url.find("?")
    if q != -1:
        end = q
    slash = url.rfind("/", 0, end)
    last = url[slash:end].lower()
    return not last.endswith(DENY_EXTENSIONS)


def url_host(url: str) -> str:
    """Host (incl. non-default port) of a canonical URL."""
    rest = url.split("://", 1)[1] if "://" in url else url
    end = len(rest)
    for ch in "/?#":
        i = rest.find(ch)
        if i != -1 and i < end:
            end = i
    netloc = rest[:end]
    if "@" in netloc:
        netloc = netloc.rsplit("@", 1)[1]
    return netloc


# what url_host keeps: the netloc after any "scheme://" and "userinfo@"
_HOST_RE = r"^(?:[^:/?#]*://)?(?:[^/?#]*@)?(?P<host>[^/?#]*)"


def url_hosts(urls: pa.Array) -> pa.Array:
    """`url_host` of every URL in an Arrow string array, in one Arrow
    regex kernel (no per-URL Python)."""
    return pc.extract_regex(urls, _HOST_RE).field("host")


def url_path(url: str) -> str:
    """Path + query of a canonical URL (for robots matching)."""
    rest = url.split("://", 1)[1] if "://" in url else url
    i = rest.find("/")
    return rest[i:] if i != -1 else "/"
