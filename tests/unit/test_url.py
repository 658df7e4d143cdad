"""RBC-2 canonicalization / RBC-3 scope vectors (SURVEY.md §5.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pyarrow as pa

from crawlray.kernels.url import canonicalize, in_scope, url_host, url_hosts, url_path

CASES = [
    # (input, base, expected)
    ("http://Example.COM/path", None, "http://example.com/path"),
    ("HTTP://example.com", None, "http://example.com/"),
    ("http://example.com:80/a", None, "http://example.com/a"),
    ("https://example.com:443/a", None, "https://example.com/a"),
    ("http://example.com:8080/a", None, "http://example.com:8080/a"),
    ("http://example.com/a#frag", None, "http://example.com/a"),
    ("http://example.com/a/../b", None, "http://example.com/b"),
    ("http://example.com/a/./b", None, "http://example.com/a/b"),
    ("http://example.com/%61%2F%23", None, "http://example.com/a%2F%23"),
    ("http://example.com/%7Euser", None, "http://example.com/~user"),
    ("http://example.com/a?q=1&b=%20#f", None, "http://example.com/a?q=1&b=%20"),
    ("  http://example.com/a  ", None, "http://example.com/a"),
    ("http://example.com", None, "http://example.com/"),
    # relative resolution
    ("b", "http://example.com/a/x", "http://example.com/a/b"),
    ("/b", "http://example.com/a/x", "http://example.com/b"),
    ("../b", "http://example.com/a/c/x", "http://example.com/a/b"),
    ("?q=2", "http://example.com/a/x", "http://example.com/a/x?q=2"),
    ("//other.com/z", "http://example.com/a", "http://other.com/z"),
    ("#frag", "http://example.com/a", "http://example.com/a"),
    # unusable
    ("", None, None),
    ("   ", None, None),
    ("mailto:x@example.com", None, None),  # no host
    ("/path/only", None, None),  # no scheme without base
]


@pytest.mark.parametrize("url,base,want", CASES)
def test_canonicalize_vectors(url, base, want):
    assert canonicalize(url, base) == want


def test_scope():
    assert in_scope("http://example.com/a")
    assert in_scope("https://example.com/a.html")
    assert not in_scope("ftp://example.com/a")
    assert not in_scope("http://example.com/pic.PNG")
    assert not in_scope("http://example.com/a.css")
    assert in_scope("http://example.com/a.css?x=1") is False  # ext check pre-query
    assert in_scope("http://example.com/cssy")  # not an extension match
    assert not in_scope("http://example.com/" + "a" * 3000)


def test_host_path_helpers():
    assert url_host("http://example.com:8080/a/b?q") == "example.com:8080"
    assert url_host("http://u:p@example.com/a") == "example.com"
    assert url_path("http://example.com:8080/a/b?q=1") == "/a/b?q=1"
    assert url_path("http://example.com") == "/"


def test_url_hosts_kernel_equals_url_host():
    """The Arrow kernel that routes outlinks by host agrees with url_host
    on canonical URLs: ports, userinfo, queries and fragments."""
    raw = [
        "http://example.com/a/b",
        "http://Example.com:8080/a?q=1",
        "https://u:p@example.com:8443/x?y=http://other.org/z#f",
        "http://u@h.example.org?only=query",
        "http://h.example.org#frag",
        "http://a@b@c.example.com/p@q",
        "https://example.com:443/",
        "http://xn--bcher-kva.example/ü",
    ]
    urls = [c for c in (canonicalize(u) for u in raw) if c] + [c[2] for c in CASES if c[2]]
    assert url_hosts(pa.array(urls)).to_pylist() == [url_host(u) for u in urls]


@given(st.text(max_size=200))
def test_canonicalize_never_raises(s):
    canonicalize(s)
    canonicalize(s, base="http://example.com/a/b")


@given(
    st.sampled_from([c[2] for c in CASES if c[2]]),
)
def test_canonicalize_idempotent(canon):
    assert canonicalize(canon) == canon
