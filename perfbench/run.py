#!/usr/bin/env python3
"""crawlray benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are generated from ``--seed`` and
cached with their oracle answers under ``perfbench/.cache`` (outside every
timed span). Each Ray session is fresh: ``ray.init`` with 4 CPUs, the
operations, the oracle check, cleanup and ``ray.shutdown()``.

``--trace 0`` measures for at least ``--seconds`` of operation time (at
least one cycle) and prints the end-to-end metrics of BENCHMARK.json. ``--trace 1`` runs one untraced and one traced cycle,
writes spans and Ray timeline events to ``perfbench/out/`` and prints the
per-layer metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

NUM_CPUS = 4
# far above what the workloads hold at once; kept small because the plasma
# store maps it at start and a large mapping slowed raylet start-up past
# Ray's fixed 30 s limit on a loaded host
OBJECT_STORE_BYTES = 256 << 20
# ray.init attempts before the run gives up (a raylet that misses Ray's
# start-up limit leaves a failed session that is reaped before the retry)
INIT_ATTEMPTS = 3
OP_TIMEOUT_S = 120
# stop starting cycles once this much of the run has gone (runs must end
# within 180 s)
RUN_BUDGET_S = 120
SHM = "/dev/shm"
SHM_SLACK_BYTES = 64 << 20


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    def _raise(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def mem_used_bytes() -> int:
    """MemTotal − MemAvailable: covers Ray's processes, plasma and /dev/shm."""
    vals = {}
    with open("/proc/meminfo") as f:
        for line in f:
            k, v = line.split(":", 1)
            vals[k] = int(v.split()[0]) * 1024
    return vals["MemTotal"] - vals["MemAvailable"]


class MemSampler:
    """Peak of mem_used_bytes() above the reading taken at start, every 50 ms."""

    def __init__(self):
        self.base = mem_used_bytes()
        self.peak = self.base
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(0.05):
            self.peak = max(self.peak, mem_used_bytes())

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, mem_used_bytes())
        return (self.peak - self.base) / (1 << 20)


def shm_used() -> int:
    return shutil.disk_usage(SHM).used


def wait_shm_baseline(baseline: int, timeout: float = 20.0) -> None:
    """Fail unless /dev/shm usage is back at its pre-run reading."""
    t_end = time.time() + timeout
    while shm_used() > baseline + SHM_SLACK_BYTES:
        if time.time() > t_end:
            raise RuntimeError(
                f"/dev/shm holds {(shm_used() - baseline) >> 20} MiB more than before the run"
            )
        time.sleep(0.2)


def processes_matching(marker: str) -> list[int]:
    pids = []
    for p in os.listdir("/proc"):
        if not p.isdigit() or int(p) == os.getpid():
            continue
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if marker.encode() in f.read():
                    pids.append(int(p))
        except OSError:
            pass
    return pids


def reap(marker: str, timeout: float = 20.0) -> None:
    """Wait until every process of the Ray session has ended."""
    t_end = time.time() + timeout
    while (pids := processes_matching(marker)) and time.time() < t_end:
        time.sleep(0.2)
    for pid in pids:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)


def ray_temp_dir() -> str:
    """Ray's temp dir, ``perfbench/.work/ray`` in the checkout, named through
    ``/proc/<pid>/cwd`` of this process (whose working directory is the
    checkout root). Ray puts AF_UNIX sockets under it, whose paths must stay
    below 108 bytes however deep the checkout lies; every Ray process
    resolves this name to the same directory."""
    return f"/proc/{os.getpid()}/cwd/{os.path.relpath(os.path.join(WORK, 'ray'), ROOT)}"


def stop_ray() -> None:
    """Shut down the driver's Ray session, if any, and wait until every
    process under the benchmark's Ray temp dir has ended."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    reap(ray_temp_dir())


def init_ray() -> float:
    """``ray.init`` with the benchmark's fixed resources; returns the
    seconds the successful attempt took."""
    import ray

    for attempt in range(1, INIT_ATTEMPTS + 1):
        t0 = time.perf_counter()
        try:
            ray.init(
                address="local",
                num_cpus=NUM_CPUS,
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                log_to_driver=False,
                _temp_dir=ray_temp_dir(),
            )
            return time.perf_counter() - t0
        except Exception as err:  # noqa: BLE001 — retried, then raised
            if attempt == INIT_ATTEMPTS:
                raise
            print(f"perfbench: ray.init attempt {attempt} failed ({err}); retrying", file=sys.stderr)
            stop_ray()


def _warm_task() -> int:
    import pyarrow  # noqa: F401
    import ray.data  # noqa: F401

    import crawlray.stages  # noqa: F401

    time.sleep(0.05)  # hold the worker so each call lands on its own
    return os.getpid()


class Session:
    """One fresh Ray session. Set-up (``ray.init``, a warmed worker pool and
    a first Ray Data execution) is timed, counting only the ``ray.init``
    attempt that succeeded; memory is sampled from before ``ray.init``
    until every Ray process has ended."""

    def __init__(self, shm_baseline: int):
        self.shm_baseline = shm_baseline

    def __enter__(self):
        import ray
        import ray.data

        wait_shm_baseline(self.shm_baseline)
        self.mem = MemSampler()
        init_s = init_ray()
        t0 = time.perf_counter()
        ray.data.DataContext.get_current().enable_progress_bars = False
        warm = ray.remote(_warm_task)
        ray.get([warm.remote() for _ in range(NUM_CPUS)])
        ray.data.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS).map_batches(lambda b: b).count()
        self.setup_s = init_s + time.perf_counter() - t0
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        return self

    def __exit__(self, *exc):
        import ray

        ray.shutdown()
        reap(self.session_dir)
        self.peak_mb = self.mem.stop()
        shutil.rmtree(self.session_dir, ignore_errors=True)
        return False


def run_cycle(workload: str, fx: dict, traced: bool, shm_baseline: int, seed: int) -> dict:
    """One measurement cycle, each step in a fresh Ray session. A traced
    cycle also records spans, Ray's timeline and the layer metrics."""
    import ray

    import tracing
    import workloads as wl
    from crawlray.checkpoint import Checkpointer

    tracer = tracing.Tracer(traced)
    steps = wl.cycle_steps(workload)
    work_dir = os.path.join(WORK, f"op-{os.getpid()}")
    cycle = {"ops": [], "sessions": [], "layers": {}, "events": [], "stats": {}}
    state: dict = {}
    commit = Checkpointer.commit_wave
    if traced:  # driver time in Checkpointer.commit_wave, traced runs only
        def timed_commit(self, *a, **k):
            with tracer.span("checkpoint.commit_wave"):
                return commit(self, *a, **k)

        Checkpointer.commit_wave = timed_commit
    try:
        for i, step in enumerate(steps):
            with Session(shm_baseline) as s, deadline(OP_TIMEOUT_S):
                cycle["ops"] += step(fx, work_dir, tracer, state)
                if traced:
                    cycle["events"] += ray.timeline()
                    if wl.WORKLOADS[workload] == "crawl" and i == len(steps) - 1:
                        from micro import seen_metrics

                        cycle["layers"].update(seen_metrics(seed))
            cycle["sessions"].append({"setup_s": s.setup_s, "peak_mb": s.peak_mb})
    finally:
        Checkpointer.commit_wave = commit
    if traced and all(o.ok for o in cycle["ops"]):
        if wl.WORKLOADS[workload] == "crawl":
            cycle["layers"].update(wl.crawl_layer_metrics(cycle["ops"][0], tracer, cycle["events"]))
        else:
            cycle["layers"].update(wl.query_layer_metrics(tracer, cycle["events"]))
            cycle["stats"] = wl.slowest_stats(cycle["ops"])
    cycle["spans"] = tracer.spans
    return cycle


def cycle_wall(cycle: dict) -> float:
    return sum(o.wall_s for o in cycle["ops"])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl

    t_start = time.perf_counter()
    fx = wl.load_fixture(workload, seed)
    shm_baseline = shm_used()
    cycles = []
    if trace:
        cycles.append(run_cycle(workload, fx, False, shm_baseline, seed))
        cycles.append(run_cycle(workload, fx, True, shm_baseline, seed))
    else:
        while not cycles or sum(map(cycle_wall, cycles)) < seconds:
            if cycles and time.perf_counter() - t_start + 1.5 * cycle_wall(cycles[-1]) > RUN_BUDGET_S:
                break
            cycles.append(run_cycle(workload, fx, False, shm_baseline, seed))
    ops = [o for c in cycles for o in c["ops"]]
    result = {"attempted": len(ops), "failed": sum(not o.ok for o in ops), "cycles": cycles,
              "oracle": fx["oracle"]}
    if trace:
        untraced, traced = cycles
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = cycle_wall(traced) - cycle_wall(untraced)
        if wl.WORKLOADS[workload] == "crawl" and traced["ops"][0].ok:
            from micro import kernel_metrics

            layers.update(kernel_metrics(fx["webgraph"], seed))
        result["values"] = layers
    else:
        sessions = [s for c in cycles for s in c["sessions"]]
        result["values"] = {
            "wall_s": statistics.median(map(cycle_wall, cycles)),
            "setup_s": statistics.median(s["setup_s"] for s in sessions),
            "peak_mem_mb": max(s["peak_mb"] for s in sessions),
        }
    return result


def write_trace(workload: str, seed: int, result: dict) -> str:
    import tracing

    traced = result["cycles"][-1]
    roots = [(s["start"], s["end"]) for s in traced["spans"] if s["parent"] is None]
    events = [e for e in traced["events"] if any(a <= e.get("ts", 0) / 1e6 <= b for a, b in roots)]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace.json")
    self_s = tracing.self_times(traced["spans"])
    with open(path, "w") as f:
        json.dump({
            "workload": workload,
            "seed": seed,
            "metrics": result["values"],
            "oracle": result["oracle"],
            "spans": [dict(s, self_s=self_s[s["id"]]) for s in traced["spans"]],
            "ray_timeline": events,
            "dataset_stats": traced["stats"],
        }, f)
    return path


def emit(spec: dict, section: str, result: dict, workload: str) -> dict:
    """The result line: every metric of the BENCHMARK.json section, with
    its unit. A traced run reports 0 for layers its workload never calls."""
    import workloads as wl

    metrics = {}
    missing = []
    for m in spec[section]:
        name = m["name"]
        if name in result["values"]:
            value = float(result["values"][name])
        elif name.startswith(wl.NOT_RUN[workload]) or result["failed"]:
            value = 0.0
        else:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    if missing:
        raise RuntimeError(f"metrics not derived: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Ray workers inherit the driver's environment: this is how they import
    # crawlray whatever directory the benchmark starts from
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # ray_temp_dir() names the checkout through this process's working
    # directory; temporary files of the driver and of Ray's workers go under
    # the checkout too
    os.chdir(ROOT)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = tmp
    try:
        import crawlray.job  # noqa: F401
        import oracle.bfs_crawler  # noqa: F401
    except ImportError as err:
        print(f"perfbench: the program is not importable from {ROOT}: {err}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_ray()
    if args.trace:
        print(f"perfbench: trace written to {write_trace(args.workload, args.seed, result)}", file=sys.stderr)
    line = emit(spec, "per_layer" if args.trace else "end_to_end", result, args.workload)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
