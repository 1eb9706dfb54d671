"""Self-check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py        # from the repository root

1. Every workload, untraced and traced, emits every metric BENCHMARK.json
   names, with its unit and a finite value, and passes its gate. Every
   per-layer name must be produced by the tracer, so a misspelt name in
   BENCHMARK.json cannot read as a silent zero.
2. Corrupting one reference value makes the gate fail: a closed form moved
   by 1e-8 relative (ten times the tolerance), and a Monte Carlo reference
   moved far outside its standard errors.

Exits 0 when all of it holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT_DIR, result_line, run_benchmark  # noqa: E402
from workloads import MC_WIDE_INNER, MC_WIDE_T, WORKLOADS, mc_key, term_key  # noqa: E402

SEED = 1


def _metric_problems(line: dict, group: list[dict]) -> list[str]:
    problems = []
    for metric in group:
        got = line["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"missing {metric['name']}")
        elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            problems.append(f"bad {metric['name']}: {got}")
    if set(line["metrics"]) != {m["name"] for m in group}:
        problems.append("metric names differ from BENCHMARK.json")
    return problems


def check_metrics(root: str, spec: dict) -> list[str]:
    problems = []
    produced: set[str] = set()
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run_benchmark(root, workload, SEED, 1.0, trace, tiny=True)
            group = spec["per_layer" if trace else "end_to_end"]
            where = f"{workload} trace={int(trace)}"
            line = result_line(record, spec)
            problems += [f"{where}: {p}" for p in _metric_problems(line, group)]
            if record["failed"]:
                problems.append(f"{where}: gate failed: {record['failures'][:3]}")
            produced |= set(record["per_layer"])
            print(f"selfcheck: {where}: {record['attempted']} attempted, "
                  f"{record['failed']} failed", flush=True)
    for metric in spec["per_layer"]:
        if metric["name"] not in produced:
            problems.append(f"per-layer metric {metric['name']} is never produced")
    return problems


def _corrupt(refs: dict, workload: str) -> dict:
    """A copy of the references with one value moved outside its tolerance."""
    bad = json.loads(json.dumps(refs))
    if workload == "term-structure":
        bad[term_key(0.3, 0.0, "vix_atmi_limit")]["value"] *= 1.0 + 1e-8
    else:  # the first mc-wide job
        bad[mc_key("vix", 0.1, 0.0, "single", MC_WIDE_T[0], MC_WIDE_INNER)]["atmi"] += 0.5
    return bad


def check_corruption(root: str) -> list[str]:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as handle:
        refs = json.load(handle)
    problems = []
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "refs-corrupted.json")
    for workload in ("term-structure", "mc-wide"):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_corrupt(refs, workload), handle)
        record = run_benchmark(root, workload, SEED, 1.0, False, tiny=True, refs=path)
        print(f"selfcheck: {workload} with a corrupted reference: "
              f"{record['failed']} failed", flush=True)
        if record["failed"] == 0:
            problems.append(f"{workload}: corrupted reference passed the gate")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = check_metrics(root, spec) + check_corruption(root)
    for problem in problems:
        print(f"selfcheck: FAIL {problem}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
