"""The benchmark's workloads: what each one runs, how its output is checked
against the oracle, and which per-layer numbers its traced run derives.

Every workload is a batch job driven from outside the program through the
public entry points (``crawlray.job.run_crawl``, ``crawlray.job.resume_crawl``
and ``__ray_entry__.queries()``), one job at a time from one client.
README.md says why each workload exists.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback

import pyarrow as pa

import fixtures
import tracing

# crawl_durable: a Zipf web whose head host holds ~24% of the pages, so a
# per-host budget of 20 pages per wave drains it over 25 thin politeness
# waves while most other hosts finish in the first few
CRAWL_WEB = dict(shape="zipf_hosts", n_urls=2000, n_hosts=100, skew=1.1, max_deg=10, text_repeat=5)
CRAWL_CFG = dict(budget_per_host=20)
SEED_HOSTS = 50
# the first leg stops after this wave; the resume uses another number of
# seen shards than run_crawl's default of 4
STOP_AFTER_WAVE = 11
RESUME_SEEN_SHARDS = 3
HOST_SHARDS = 2  # run_crawl's default num_host_shards

QUERIES = [
    "shuffle_join", "salted_shuffle_join", "bloom_semi_join", "session_windows",
    "range_join", "tfidf", "flatten_tokens", "dup_spans", "decontaminate",
    "dedup_clusters",
]

WORKLOADS = {"crawl_durable": "crawl", "query_exchange": "query"}

# layers a workload never calls; its traced run reports 0 for them
NOT_RUN = {
    "crawl_durable": ("ops.",),
    "query_exchange": (
        "job.", "stages.", "seen.", "polite.", "robots.", "checkpoint.",
        "kernels.", "cuckoo.",
    ),
}


class OpResult:
    """One operation: wall seconds, whether it matched its oracle, and
    what the traced run needs to derive layer metrics."""

    def __init__(self, wall_s: float, ok: bool, info: dict | None = None):
        self.wall_s = wall_s
        self.ok = ok
        self.info = info or {}


def load_fixture(workload: str, seed: int) -> dict:
    if WORKLOADS[workload] == "crawl":
        return fixtures.web_fixture(dict(CRAWL_WEB, seed=seed), CRAWL_CFG, SEED_HOSTS)
    return fixtures.query_fixture(seed, QUERIES)


def cycle_steps(workload: str) -> list:
    """One measurement cycle: a step per fresh Ray session. A step is
    ``fn(fx, work_dir, tracer, state) -> [OpResult]``."""
    if WORKLOADS[workload] == "crawl":
        return [durable_first_leg, durable_resume]
    half = len(QUERIES) // 2
    return [
        lambda fx, wd, tr, st: query_op(fx, QUERIES[:half], tr),
        lambda fx, wd, tr, st: query_op(fx, QUERIES[half:], tr),
    ]


# ------------------------------------------------------------------- crawls


def crawl_log_table(res) -> pa.Table:
    """The engine's full crawl log as one Arrow table."""
    import ray

    return pa.concat_tables(ray.get(res.crawl_log.to_arrow_refs()))


def check_crawl(log: pa.Table, n_docs: int, fetched: int, oracle: dict) -> bool:
    return (
        log.num_rows == oracle["log_rows"]
        and n_docs == oracle["documents"]
        and fetched == oracle["fetched"]
        and fixtures.log_digest(log) == oracle["log_digest"]
    )


def durable_first_leg(fx: dict, work_dir: str, tracer: tracing.Tracer, state: dict) -> list[OpResult]:
    """Session 1: crawl with a checkpoint commit every wave and stop after
    STOP_AFTER_WAVE. The operation completes in the resume session."""
    from crawlray.job import run_crawl

    os.makedirs(work_dir, exist_ok=True)
    first = None
    t0 = time.perf_counter()
    try:
        with tracer.span("op"), tracer.span("run_crawl"):
            first = run_crawl(fx["seeds"], webgraph=fx["webgraph"], robots=fx["robots"],
                              out_dir=os.path.join(work_dir, "checkpoint"),
                              stop_after_wave=STOP_AFTER_WAVE, **CRAWL_CFG)
        state["first_s"] = time.perf_counter() - t0
        state["first_waves"] = first.metrics["waves"]
    except Exception:  # noqa: BLE001 — counted as failed by the resume step
        traceback.print_exc(file=sys.stderr)
        state["first_s"] = time.perf_counter() - t0
    finally:
        if first is not None:
            first.shutdown()
    return []


def durable_resume(fx: dict, work_dir: str, tracer: tracing.Tracer, state: dict) -> list[OpResult]:
    """Session 2: resume the checkpoint into RESUME_SEEN_SHARDS seen shards
    and run to the end, until crawl_log and documents are counted. The
    operation's wall time is both legs; set-up between them is not counted.
    The oracle check and cleanup follow, outside the timing."""
    from crawlray.job import resume_crawl

    ckpt = os.path.join(work_dir, "checkpoint")
    res = None
    t0 = time.perf_counter()
    try:
        if "first_waves" not in state:
            return [OpResult(state["first_s"], False)]
        with tracer.span("op"):
            with tracer.span("resume_crawl"):
                res = resume_crawl(ckpt, webgraph=fx["webgraph"], robots=fx["robots"],
                                   num_seen_shards=RESUME_SEEN_SHARDS)
            with tracer.span("count"):
                n_log, n_docs = res.crawl_log.count(), res.documents.count()
        resume_s = time.perf_counter() - t0
        log = crawl_log_table(res)
        ok = n_log == log.num_rows and check_crawl(log, n_docs, res.fetched_total, fx["oracle"])
        return [OpResult(state["first_s"] + resume_s, ok, {
            "legs": [state["first_waves"], res.metrics["waves"]],
            "fetched": res.fetched_total,
            "seen": fx["oracle"]["seen"],
            "resume_s": resume_s,
            "checkpoint_bytes": sum(
                os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(ckpt) for f in files
            ),
        })]
    except Exception:  # noqa: BLE001 — a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return [OpResult(state["first_s"] + time.perf_counter() - t0, False)]
    finally:
        if res is not None:
            res.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)


# ------------------------------------------------------------------ queries


def query_frame(ds):
    """A query's materialized result as a pandas frame."""
    return ds.to_pandas() if hasattr(ds, "to_pandas") else ds


def query_op(fx: dict, names: list[str], tracer: tracing.Tracer) -> list[OpResult]:
    """Each query once: the time to ``materialize()`` it, then its result
    compared with the stored DuckDB oracle result."""
    import ray.data

    import __ray_entry__ as entry

    qs = entry.queries()
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            with tracer.span(f"query.{name}"):
                ds = qs[name](fx["dir"])
                if isinstance(ds, ray.data.Dataset):
                    ds = ds.materialize()
            wall = time.perf_counter() - t0
            ok = fixtures.frame_matches(query_frame(ds), fixtures.oracle_frame(fx, name))
            info = {"name": name}
            if tracer.enabled and isinstance(ds, ray.data.Dataset):
                info["stats"] = ds.stats()
            out.append(OpResult(wall, ok, info))
        except Exception:  # noqa: BLE001 — a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out.append(OpResult(time.perf_counter() - t0, False, {"name": name}))
    return out


# ------------------------------------------------------ traced-run metrics


def crawl_layer_metrics(op: OpResult, tracer: tracing.Tracer, events: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced crawl from the benchmark's spans and
    Ray's timeline (README.md defines each)."""
    roots = [(s["start"], s["end"]) for s in tracer.named("op")]
    tasks = [t for a, b in roots for t in tracing.task_events(events, a, b)]
    waves = sum(len(leg) for leg in op.info["legs"])
    deferred = sum(w["deferred"] for leg in op.info["legs"] for w in leg)
    fetched = op.info["fetched"]
    fetch = [t for t in tasks if t["fn"] == "FetchParseStage.fetch_parse_wave"]
    per_fetcher: dict = {}
    for t in fetch:
        per_fetcher[t["tid"]] = per_fetcher.get(t["tid"], 0.0) + t["t1"] - t["t0"]
    legs = [(s["start"], s["end"]) for s in tracer.spans if s["name"] in ("run_crawl", "resume_crawl")]
    intervals = tracing.wave_intervals(tasks, legs, HOST_SHARDS)
    p50, tail = tracing.tail_percentile(intervals)
    commits = [(s["start"], s["end"]) for s in tracer.named("checkpoint.commit_wave")]
    crawl_actors = ("SeenShardActor.", "HostPolitenessActor.", "RobotsCacheActor.",
                    "FetchParseStage.", "MetricsActor.")
    write_tasks = [
        t for t in tasks
        if any(a <= t["t0"] <= b for a, b in commits) and not t["fn"].startswith(crawl_actors)
    ]
    return {
        "job.waves": waves,
        "job.outside_fetch_s": op.wall_s - sum(
            tracing.union_length((max(t["t0"], a), min(t["t1"], b)) for t in fetch) for a, b in roots
        ),
        "job.calls_per_wave": len(tasks) / waves,
        "job.wave_s_p50": p50,
        "job.wave_s_tail": tail,
        "job.wave_samples": len(intervals),
        "job.urls_per_s": fetched / op.wall_s,
        "stages.fetch_parse_busy_s": sum(per_fetcher.values()),
        "stages.fetch_parse_calls": len(fetch),
        "stages.fetcher_spread_s": max(per_fetcher.values()) - min(per_fetcher.values()),
        "stages.mark_busy_s": tracing.busy(tasks, "mark_block_task"),
        "stages.gate_busy_s": tracing.busy(tasks, "fetch_block_task"),
        "stages.end_wave_busy_s": tracing.busy(tasks, "FetchParseStage.end_wave"),
        "stages.derive_busy_s": tracing.busy(tasks, "derive_block_task"),
        "stages.concat_busy_s": tracing.busy(tasks, "concat_blocks_task"),
        "stages.fetcher_init_s": tracing.longest(tasks, "FetchParseStage.__init__"),
        "seen.offer_calls": tracing.calls(tasks, "SeenShardActor.offer"),
        "seen.offer_busy_s": tracing.busy(tasks, "SeenShardActor.offer"),
        "seen.finish_wave_busy_s": tracing.busy(tasks, "SeenShardActor.finish_wave"),
        "seen.ingest_busy_s": tracing.busy(tasks, "SeenShardActor.ingest"),
        "seen.urls": op.info["seen"],
        "polite.decide_busy_s": tracing.busy(tasks, "HostPolitenessActor.decide_and_drain"),
        "polite.deferred_rows": deferred,
        "polite.admit_ratio": fetched / (fetched + deferred),
        "polite.admit_base": fetched + deferred,
        "robots.allowed_busy_s": tracing.busy(tasks, "RobotsCacheActor.allowed"),
        "robots.init_s": tracing.longest(tasks, "RobotsCacheActor.__init__"),
        "checkpoint.commit_s": sum(b - a for a, b in commits),
        "checkpoint.commits": len(commits),
        "checkpoint.write_task_s": sum(t["t1"] - t["t0"] for t in write_tasks),
        "checkpoint.bytes": op.info["checkpoint_bytes"],
        "checkpoint.resume_s": op.info["resume_s"],
        **tracing.ray_phases(events, roots),
    }


def query_layer_metrics(tracer: tracing.Tracer, events: list[dict]) -> dict[str, float]:
    out = {}
    spans = [s for s in tracer.spans if s["name"].startswith("query.")]
    for s in spans:
        name = s["name"][len("query."):]
        out[f"ops.{name}_s"] = s["end"] - s["start"]
        out[f"ops.{name}_tasks"] = len(tracing.task_events(events, s["start"], s["end"]))
    out.update(tracing.ray_phases(events, [(s["start"], s["end"]) for s in spans]))
    return out


def slowest_stats(ops: list[OpResult], k: int = 5) -> dict[str, str]:
    """``Dataset.stats()`` text of the k slowest queries."""
    ranked = sorted((o for o in ops if "stats" in o.info), key=lambda o: -o.wall_s)
    return {o.info["name"]: o.info["stats"] for o in ranked[:k]}
