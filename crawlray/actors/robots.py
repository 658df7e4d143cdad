"""RobotsRules — robots.txt cache + batch evaluation (SURVEY.md O-21; RBC-6:
robots fetched before a host's first fetch, cached forever; a URL
disallowed for user-agent '*' is logged robots_denied).

A plain object, no Ray: each crawl shard's HostPoliteness owns one, holding the
bodies of the hosts that route to its shard (`host_shard_of`), so each
host's rules live in exactly one process and are parsed once. The synthetic
web's robots "fetch" is a lookup into the robots table; with a live backend
(e.g. HttpBackend) a body-cache miss fetches robots.txt through it once.
"""

from __future__ import annotations

import urllib.robotparser

import numpy as np
import pyarrow as pa


class RobotsRules:
    def __init__(self, bodies: dict[str, str], user_agent: str = "*", backend=None):
        self.user_agent = user_agent
        self._bodies = bodies
        self._parsed: dict[str, urllib.robotparser.RobotFileParser] = {}
        self._verdicts: dict[str, int] = {}  # 1=always-allow, -1=always-deny, 0=per-url
        # live-fetch path (RBC-6 "fetched before a host's first fetch"): on
        # a body-cache miss fetch robots.txt through the backend ONCE and
        # cache it forever — each host lives on exactly one crawl shard, so
        # there is exactly one fetch per host per crawl
        self._backend = backend

    def _rules(self, host: str) -> urllib.robotparser.RobotFileParser:
        rp = self._parsed.get(host)
        if rp is None:
            body = self._bodies.get(host)
            if body is None and self._backend is not None:
                body = self._backend.robots(host)  # None on miss = allow-all
                self._bodies[host] = body
            rp = urllib.robotparser.RobotFileParser()
            rp.parse([] if body is None else body.splitlines())
            self._parsed[host] = rp
        return rp

    def _verdict(self, host: str) -> int:
        """Host tri-state: most robots bodies decide every URL the same way
        (empty Disallow / no body / blanket deny), so one cached verdict per
        host replaces a per-URL robotparser.can_fetch walk. 0 means the rule
        set genuinely depends on the path — those rows take the exact
        can_fetch slow path, preserving bit-for-bit oracle parity."""
        v = self._verdicts.get(host)
        if v is None:
            rp = self._rules(host)
            if rp.allow_all:
                v = 1
            elif rp.disallow_all:
                v = -1
            else:
                entry = None
                for e in rp.entries:
                    if e.applies_to(self.user_agent):
                        entry = e
                        break
                if entry is None:
                    entry = rp.default_entry
                if entry is None:
                    v = 1  # no applicable rules: robotparser allows
                elif all(rl.allowance for rl in entry.rulelines):
                    v = 1
                else:
                    v = 0
            self._verdicts[host] = v
        return v

    def allowed(self, hosts: pa.Array, urls: pa.Array) -> np.ndarray:
        """Boolean mask over the rows of (hosts, urls) Arrow arrays.

        Vectorized: dictionary-encode hosts, evaluate one verdict per
        UNIQUE host, and broadcast. Only rows of path-dependent hosts pay
        the per-URL robotparser walk (and only those URL strings are ever
        converted to Python)."""
        enc = hosts.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        verd = np.array([self._verdict(h) for h in uniq], dtype=np.int8)
        idx = enc.indices.to_numpy()
        v = verd[idx]
        out = v > 0
        mixed = np.nonzero(v == 0)[0]
        if len(mixed):
            murls = urls.take(pa.array(mixed, pa.int64())).to_pylist()
            for j, i in enumerate(mixed):
                out[i] = self._rules(uniq[idx[i]]).can_fetch(
                    self.user_agent, murls[j]
                )
        return out
