"""Self-tests of the benchmark: its arithmetic, its oracle checks and its
command-line contract. Run with ``python3 -m pytest perfbench/tests -q``;
the smoke and mutation tests start Ray sessions and take a few minutes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path[:0] = [ROOT, BENCH]

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _span(sid, start, end, parent=None):
    return {"id": sid, "name": f"s{sid}", "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, 0),  # overlaps child 2
        _span(2, 3.0, 6.0, 0),
        _span(3, 8.0, 12.0, 0),  # runs past its parent's end
        _span(4, 1.5, 2.0, 1),
    ]
    st = tracing.self_times(spans)
    assert st[0] == pytest.approx(10.0 - (5.0 + 2.0))  # [1,6] and [8,10]
    assert st[1] == pytest.approx(3.0 - 0.5)
    assert st[2] == pytest.approx(3.0)
    assert st[4] == pytest.approx(0.5)


def test_union_length_and_tail_percentile():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4), (7, 6)]) == pytest.approx(4.0)
    values = [float(i) for i in range(30)]
    p50, tail = tracing.tail_percentile(values)
    assert p50 == pytest.approx(14.5)
    assert tail == 19.0 and sum(v > tail for v in values) == 10


def _run(workload, trace, cwd, seed=1):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    return p


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_from_temp_dir_emits_every_metric(workload, trace):
    p = _run(workload, trace, cwd=tempfile.gettempdir())
    assert p.returncode == 0, p.stderr[-4000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, p.stderr[-4000:]
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", ".work", "out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_durable", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert "correct" not in p.stdout


def _measure_in_process(monkeypatch, workload, seed=1):
    import run
    import workloads

    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([ROOT, BENCH]))
    return run.measure(workload, seed, 0.0, False), workloads


def test_mutated_crawl_log_row_counts_as_failed(monkeypatch):
    import workloads

    real = workloads.crawl_log_table

    def one_row_changed(res):
        log = real(res)
        urls = log.column("url").to_pylist()
        urls[0] += "x"
        return log.set_column(log.schema.get_field_index("url"), "url", pa.array(urls))

    monkeypatch.setattr(workloads, "crawl_log_table", one_row_changed)
    result, _ = _measure_in_process(monkeypatch, "crawl_durable")
    assert result["attempted"] == 1 and result["failed"] == 1


def test_mutated_query_row_counts_as_failed(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "QUERIES", ["shuffle_join", "range_join"])
    real = workloads.query_frame

    def one_row_changed(ds):
        df = real(ds).copy()
        col = df.select_dtypes("number").columns[0]
        df.loc[df.index[0], col] += 1
        return df

    monkeypatch.setattr(workloads, "query_frame", one_row_changed)
    result, _ = _measure_in_process(monkeypatch, "query_exchange")
    assert result["attempted"] == 2 and result["failed"] == 2
