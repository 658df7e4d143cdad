"""Count the Ray Data executions, metadata tasks and exchange tasks of
each query in a traced perfbench run.

    python tools/trace_counts.py perfbench/out/query_exchange-seed1-trace.json

The file is the JSON that `perfbench/run.py --trace 1` writes: its
`spans` are the benchmark's spans and its `ray_timeline` Ray's task
events. A task event belongs to the `query.*` span its start falls in.
For each query the script prints one line with the counts of

- `register_dataset`: Ray Data executions (one per streaming executor);
- `metadata`: `get_table_block_metadata_schema` tasks;
- `map_task`: Ray Data `_map_task` tasks;
- each `crawlray.ops` task name (the exchange's and the pair operators'),

and its seconds:

- `wall`: the span's wall time;
- `idle`: the part of `wall` in which no `task::*` event executes (the
  span minus the union of all task execution intervals, of any query's
  tasks), which is time the driver spends waiting, submitting or
  computing on its own;

and then a line of the totals. It only reads the file.
"""

from __future__ import annotations

import collections
import json
import sys

_FIXED = {
    "register_dataset": lambda n: n == "register_dataset",
    "metadata": lambda n: n.endswith(".get_table_block_metadata_schema"),
    "map_task": lambda n: n.endswith("map_operator._map_task"),
}


_SECONDS = ("wall", "idle")


def counts(trace: dict) -> dict[str, collections.Counter]:
    """Query name -> Counter of the column names above."""
    spans = [s for s in trace["spans"] if s["name"].startswith("query.")]
    out = {s["name"][len("query."):]: collections.Counter() for s in spans}
    busy = sorted(
        (e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6)
        for e in trace["ray_timeline"]
        if e.get("cat", "").startswith("task::") and "dur" in e
    )
    for s in spans:
        c, run, upto = out[s["name"][len("query."):]], 0.0, s["start"]
        for a, b in busy:  # the union of the intervals, clipped to the span
            a, b = max(a, upto), min(b, s["end"])
            if b > a:
                run, upto = run + b - a, b
        c["wall"] = s["end"] - s["start"]
        c["idle"] = c["wall"] - run
    for e in trace["ray_timeline"]:
        if not e.get("cat", "").startswith("task::"):
            continue
        ts, name = e["ts"] / 1e6, e["name"]
        span = next((s for s in spans if s["start"] <= ts <= s["end"]), None)
        if span is None:
            continue
        c = out[span["name"][len("query."):]]
        for col, match in _FIXED.items():
            if match(name):
                c[col] += 1
        if name.startswith("crawlray.ops."):
            c[name[len("crawlray.ops."):]] += 1
    return out


def table(per_query: dict[str, collections.Counter]) -> str:
    total = sum(per_query.values(), collections.Counter())
    cols = [*_FIXED, *_SECONDS, *sorted(c for c in total if c not in (*_FIXED, *_SECONDS))]

    def cell(c: collections.Counter, k: str) -> str:
        return f"{c[k]:.2f}" if k in _SECONDS else str(c[k])

    rows = [["query", *cols]]
    rows += [[q, *(cell(c, k) for k in cols)] for q, c in per_query.items()]
    rows.append(["total", *(cell(total, k) for k in cols)])
    width = [max(len(r[i]) for r in rows) for i in range(len(cols) + 1)]
    return "\n".join(
        "  ".join(v.ljust(w) if i == 0 else v.rjust(w) for i, (v, w) in enumerate(zip(r, width)))
        for r in rows
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        print(table(counts(json.load(f))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
