"""Self-check of the benchmark at a tiny size.

    python3 bench/selfcheck.py

Checks that BENCHMARK.json lists exactly the metrics the code emits,
that every workload emits every metric with its unit and no failed
query, and that the count metrics of two traced runs repeat exactly.
Exits 1 and names each problem otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run
import spans as sp

TINY = 0.1
SEED = 1


def main() -> int:
    if not run.prepare():
        print(f"selfcheck: no multifrac sources under {run.SRC}", file=sys.stderr)
        return 2
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared_e2e != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared_layer != [row[:3] for row in sp.LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    def expect(tag, metrics, declared):
        for name, unit, *_ in declared:
            got = metrics.get(name)
            if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{tag}: {name} missing or without unit {unit}")

    for name in run.WORKLOADS:
        tally, metrics, _ = run.end_to_end(name, SEED, seconds=0.2, scale=TINY, min_queries=1)
        expect(f"{name} end-to-end", metrics, declared_e2e)
        if tally.failed:
            problems.append(f"{name}: failed_frac {tally.failed}/{tally.attempted}: {tally.messages}")
        traces = []
        for _ in range(2):
            tally, metrics, _ = run.traced(name, SEED, scale=TINY)
            expect(f"{name} traced", metrics, declared_layer)
            if tally.failed:
                problems.append(f"{name} traced: {tally.failed}/{tally.attempted} failed: {tally.messages}")
            traces.append(metrics)
        for metric, unit, *_ in sp.LAYER_METRICS:
            if unit in sp.COUNT_UNITS and metric in traces[0] and metric in traces[1]:
                a, b = traces[0][metric]["value"], traces[1][metric]["value"]
                if a != b:
                    problems.append(f"{name}: count {metric} differs between traced runs: {a} vs {b}")
        print(f"selfcheck: {name} done", flush=True)

    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
