"""vixsmile benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mc-wide --seed 1 --seconds 20 --trace 0

Run from the root of a vixsmile source tree. Each repeat of the workload is
a fresh ``worker.py`` process, so set-up (interpreter start, imports, input
generation) and cold caches are paid every time, as a ``vixsmile`` invocation
pays them. Repeats continue until the next one would end past ``--seconds``
(at least two), counting time scaled as in timing.py. With ``--trace 0``
the last stdout line carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics, from traced repeats
alternating with untraced ones. The full record of a run, machine block
included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
TAIL_BEYOND = 10


class RunError(RuntimeError):
    """The benchmark could not measure anything."""


def job_tail(latencies: list[float]) -> float:
    """Highest pooled job latency with at least TAIL_BEYOND jobs above it;
    the maximum when there are too few jobs for that."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1]
    return ordered[-TAIL_BEYOND - 1]


class Runner:
    """Starts worker processes for one run and collects what they report."""

    def __init__(self, root: str, workload: str, seed: int, tiny: bool, refs: str | None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.refs = refs
        self.nproc = len(os.sched_getaffinity(0))
        self.started = time.monotonic()

    def spawn(self, mode: str, workers: int, extra: list[str]) -> tuple[dict, float]:
        """Run one worker; returns its report and the monotonic spawn time."""
        blas_threads = str(max(1, self.nproc // workers))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(self.root, "src"),
                   OPENBLAS_NUM_THREADS=blas_threads,
                   OMP_NUM_THREADS=blas_threads,
                   MKL_NUM_THREADS=blas_threads)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed)] + extra
        if self.tiny:
            cmd.append("--tiny")
        if self.refs:
            cmd += ["--refs", self.refs]
        timeout = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise RunError("no time left before the run deadline")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{mode} worker exceeded the run deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(lines[-1]), spawned


def run_benchmark(root: str, workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, refs: str | None = None) -> dict:
    """Measure one run; returns its full record."""
    runner = Runner(root, workload, seed, tiny, refs)
    os.makedirs(OUT_DIR, exist_ok=True)
    repeats: list[dict] = []
    durations: list[float] = []
    while True:
        index = len(repeats)
        traced = trace and index % 2 == 1
        extra = []
        if traced:
            extra = ["--trace", "--run-id", f"{workload}:{seed}:{index}",
                     "--spans", os.path.join(OUT_DIR, f"spans-{workload}-r{index}.jsonl.gz")]
        report, spawned = runner.spawn("repeat", 1, extra)
        ended = time.monotonic()
        report["raw_setup_s"] = report["t_first_job"] - spawned
        report["setup_s"] = report["raw_setup_s"] * report["scale"]
        report["traced"] = traced
        report["workers"] = 1
        repeats.append(report)
        # The stopping rule counts scaled time, so machine drift does not
        # change how many repeats, and so how many pooled jobs, a run has.
        durations.append((ended - spawned) * report["scale"])
        if len(repeats) >= 2 and sum(durations) + median(durations) > seconds:
            break

    gate = None
    if repeats[0]["gate_jobs"]:
        gate, _ = runner.spawn("gate", 2, [])

    checks = _gate_checks(repeats, gate, runner.nproc)
    plain = [r for r in repeats if not r["traced"]]
    latencies = [j["s"] for r in plain for j in r["jobs"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "repeats": [{k: r[k] for k in ("traced", "wall_s", "raw_wall_s", "setup_s",
                                       "raw_setup_s", "rss_mib", "scale")}
                    for r in repeats],
        "pooled_jobs": len(latencies),
        "machine": dict(repeats[0]["machine"], workers=1,
                        gate_workers=gate["workers"] if gate else None),
        "notes": repeats[0]["notes"],
        "end_to_end": {
            "wall_s": median([r["wall_s"] for r in plain]),
            "job_p50_s": median(latencies),
            "job_tail_s": job_tail(latencies),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mib": median([r["rss_mib"] for r in plain]),
        },
        "per_layer": _per_layer(repeats) if trace else {},
        # Bindings the tracer expected but did not find: their metrics read 0.
        "unbound": sorted({b for r in repeats for b in r.get("unbound", [])}),
        "failures": [c for c in checks if not c["ok"]]
        + [dict(j, repeat=i) for i, r in enumerate(repeats) for j in r["jobs"] if not j["ok"]],
    }
    n_jobs = sum(len(r["jobs"]) for r in repeats)
    record["attempted"] = n_jobs + len(checks)
    record["failed"] = len(record["failures"])
    return record


def _gate_checks(repeats: list[dict], gate: dict | None, nproc: int) -> list[dict]:
    """Checks made by the repeats, plus cross-process determinism and threads."""
    checks = [c for r in repeats for c in r["checks"]]

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # Same seed, separate processes: sample bytes and criterion values agree.
    for name, digest in repeats[0]["digests"].items():
        seen = {r["digests"].get(name) for r in repeats}
        add(f"{name}:same-seed-bytes", len(seen) == 1, f"{len(seen)} distinct digests")
        if gate and name in gate["digests"]:
            by_workers = gate["digests"][name]
            seen |= set(by_workers.values())
            add(f"{name}:workers-bytes", len(seen) == 1,
                f"digests at workers {sorted(by_workers)} and in the repeats")
    for name, value in repeats[0]["values"].items():
        same = all(r["values"].get(name) == value for r in repeats)
        add(f"{name}:same-seed-value", same, f"achieved {value!r} in repeat 0")

    for report in repeats + ([gate] if gate else []):
        workers = report.get("workers", 1)
        pool = max(workers) if isinstance(workers, list) else workers
        threads = report["machine"]["blas_threads"] or 1
        add("threads", pool * threads <= nproc,
            f"{pool} pool threads x {threads} BLAS threads on {nproc} cpus")
    return checks


def _per_layer(repeats: list[dict]) -> dict[str, float]:
    traced = [r for r in repeats if r["traced"]]
    plain = [r for r in repeats if not r["traced"]]
    keys = sorted({k for r in traced for k in r["trace"]})
    out = {k: median([r["trace"].get(k, 0.0) for r in traced]) for k in keys}
    plain_wall = median([r["wall_s"] for r in plain])
    out["trace.overhead_frac"] = median([r["wall_s"] for r in traced]) / plain_wall - 1.0
    out["paths_per_s"] = median([r["paths"] / r["wall_s"] for r in plain])
    return out


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last line: every metric named in BENCHMARK.json."""
    group = "per_layer" if record["trace"] else "end_to_end"
    measured = record[group]
    metrics = {}
    for metric in spec[group]:
        value = measured.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = os.path.join(root, "src", "vixsmile")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(package, "__init__.py")) and os.path.isfile(spec_path)):
        print("perfbench: run from the root of a vixsmile source tree "
              "(src/vixsmile and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    # The build: byte-compile the package once, as an install would.
    compileall.compile_dir(package, quiet=1)

    try:
        record = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("# machine " + json.dumps(record["machine"]))
    for note in record["notes"]:
        print("# note: " + note)
    if record["unbound"]:
        print("# note: tracer bindings not found: " + ", ".join(record["unbound"]))
    for failure in record["failures"][:20]:
        print("# failed: " + json.dumps(failure), file=sys.stderr)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
