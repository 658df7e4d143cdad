"""CLI entry points (SURVEY.md §3): run / resume / verify a crawl.

Owns the Ray session (library code never inits Ray). On a real cluster the
same commands run via `ray job submit -- python -m crawlray.cli run ...`
against an existing `ray.init(address="auto")` cluster; in this sandbox
everything is local mode.

    python -m crawlray.cli run    --shape zipf_hosts --n-urls 500 --budget 3 \
                                  --out /tmp/crawl1
    python -m crawlray.cli resume --out /tmp/crawl1
    python -m crawlray.cli verify --shape robots_blocked --n-urls 200 --budget 2
"""

from __future__ import annotations

import argparse
import json
import sys


class _RaySession:
    """Owns ray.init/shutdown ONLY if this process didn't already have a
    session (e.g. called in-process from tests or another driver)."""

    def __init__(self, num_cpus: int | None):
        import ray

        self._ray = ray
        self.owns = not ray.is_initialized()
        if self.owns:
            kwargs = dict(
                address="local", include_dashboard=False, ignore_reinit_error=True
            )
            if num_cpus:
                kwargs["num_cpus"] = num_cpus
            ray.init(**kwargs)

    def shutdown(self) -> None:
        if self.owns:
            self._ray.shutdown()


def _init_ray(num_cpus: int | None) -> _RaySession:
    return _RaySession(num_cpus)


def _web(args):
    from crawlray.synthgraph import SynthWeb

    return SynthWeb(
        seed=args.seed, shape=args.shape, n_urls=args.n_urls, n_hosts=args.n_hosts
    )


def cmd_run(args) -> int:
    ray = _init_ray(args.num_cpus)
    from crawlray.job import run_crawl

    if getattr(args, "backend", "synthetic") == "http":
        # real-web crawl: --seeds-file supplies start URLs, pages come from
        # HttpBackend built once per crawl shard, robots fetched live
        if not args.seeds_file:
            print("--backend http requires --seeds-file", file=sys.stderr)
            return 2
        with open(args.seeds_file) as f:
            seeds = [ln.strip() for ln in f if ln.strip()]
        from crawlray.backend import HttpBackend

        res = run_crawl(
            seeds,
            backend_factory=HttpBackend,
            budget_per_host=args.budget,
            max_depth=args.max_depth,
            max_pages=args.max_pages,
            out_dir=args.out,
        )
    else:
        web = _web(args)
        res = run_crawl(
            web.default_seeds(args.n_seeds),
            web=web,
            budget_per_host=args.budget,
            max_depth=args.max_depth,
            max_pages=args.max_pages,
            out_dir=args.out,
        )
    print(
        json.dumps(
            {"waves": res.waves, "fetched": res.fetched_total, "out": args.out}
        )
    )
    res.shutdown()
    ray.shutdown()
    return 0


def cmd_resume(args) -> int:
    ray = _init_ray(args.num_cpus)
    from crawlray.job import resume_crawl

    web = _web(args)
    res = resume_crawl(args.out, web=web)
    print(json.dumps({"waves": res.waves, "fetched": res.fetched_total}))
    res.shutdown()
    ray.shutdown()
    return 0


def cmd_verify(args) -> int:
    """Oracle conformance on one config (SURVEY.md §3.4)."""
    ray = _init_ray(args.num_cpus)
    from crawlray.backend import SyntheticBackend
    from crawlray.job import run_crawl
    from oracle.bfs_crawler import CrawlConfig, crawl

    web = _web(args)
    seeds = web.default_seeds(args.n_seeds)
    ora = crawl(
        seeds,
        SyntheticBackend.from_web(web),
        CrawlConfig(
            budget_per_host=args.budget,
            max_depth=args.max_depth,
            max_pages=args.max_pages,
        ),
    )
    eng = run_crawl(
        seeds,
        web=web,
        budget_per_host=args.budget,
        max_depth=args.max_depth,
        max_pages=args.max_pages,
    )
    got = eng.crawl_log_table().to_pylist()
    want = ora.crawl_log.to_pylist()
    ok = got == want and eng.seen_urls() == ora.seen
    print(
        json.dumps(
            {"match": ok, "rows": len(got), "oracle_rows": len(want), "waves": eng.waves}
        )
    )
    eng.shutdown()
    ray.shutdown()
    return 0 if ok else 1


def cmd_submit(args) -> int:
    """Package the crawl as a `ray job submit` job (north_rule: "run via ray
    job submit on a fixed-size multi-node Ray cluster").

    Builds the entrypoint (`python -m crawlray.cli run ...` with the crawl
    flags forwarded) and a runtime_env shipping this repo as the job's
    working_dir, then submits via the Ray Job Submission API. With
    `--dry-run` (or when no cluster/dashboard exists, as in this sandbox)
    it prints the exact submission instead: the entrypoint string is the
    contract — tests/unit/test_cli_submit.py executes it standalone to
    prove that what would be submitted actually runs."""
    import os

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    entry_flags = [
        "--shape", str(args.shape), "--seed", str(args.seed),
        "--n-urls", str(args.n_urls), "--n-hosts", str(args.n_hosts),
        "--n-seeds", str(args.n_seeds), "--budget", str(args.budget),
    ]
    if args.max_depth is not None:
        entry_flags += ["--max-depth", str(args.max_depth)]
    if args.max_pages is not None:
        entry_flags += ["--max-pages", str(args.max_pages)]
    if args.out:
        entry_flags += ["--out", args.out]
    entrypoint = "python -m crawlray.cli run " + " ".join(entry_flags)
    runtime_env = {
        "working_dir": repo,
        "excludes": ["tests/", "BENCH/", ".git/", "*.md"],
    }
    submission = {
        "entrypoint": entrypoint,
        "runtime_env": runtime_env,
        "address": args.address,
        "equivalent_cli": (
            f"ray job submit --address {args.address or '<cluster>'} "
            f"--working-dir {repo} -- {entrypoint}"
        ),
    }
    if args.dry_run or not args.address:
        print(json.dumps(submission))
        return 0
    from ray.job_submission import JobSubmissionClient

    client = JobSubmissionClient(args.address)
    job_id = client.submit_job(entrypoint=entrypoint, runtime_env=runtime_env)
    print(json.dumps({"job_id": job_id, **submission}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="crawlray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn in (
        ("run", cmd_run), ("resume", cmd_resume), ("verify", cmd_verify),
        ("submit", cmd_submit),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--shape", default="zipf_hosts")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--n-urls", type=int, default=500)
        p.add_argument("--n-hosts", type=int, default=10)
        p.add_argument("--n-seeds", type=int, default=3)
        p.add_argument("--budget", type=int, default=3)
        p.add_argument("--max-depth", type=int, default=None)
        p.add_argument("--max-pages", type=int, default=None)
        p.add_argument("--num-cpus", type=int, default=None)
        p.add_argument("--out", default=None)
        if name == "run":
            p.add_argument(
                "--backend", choices=("synthetic", "http"), default="synthetic"
            )
            p.add_argument(
                "--seeds-file", default=None,
                help="one start URL per line (http backend)",
            )
        if name == "submit":
            p.add_argument("--address", default=None, help="Ray dashboard URL")
            p.add_argument("--dry-run", action="store_true")
    args = ap.parse_args(argv)
    if args.cmd == "resume" and not args.out:
        ap.error("resume requires --out")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
