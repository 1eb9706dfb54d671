"""One benchmark process: a timed repeat of a workload, or the determinism gate.

Started by run.py in a fresh interpreter each time, so every repeat pays the
per-process costs a ``vixsmile`` invocation pays: imports and a cold
``rv_skew_constant`` cache. Prints one JSON object as its last stdout line.

    PYTHONPATH=src python3 perfbench/worker.py repeat --workload mc-wide --seed 1 [--trace]
    PYTHONPATH=src python3 perfbench/worker.py gate --workload mc-wide --seed 1
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import vixsmile.acceptance  # noqa: E402
import vixsmile.asymptotics  # noqa: E402
import vixsmile.bs  # noqa: E402
import vixsmile.cli  # noqa: E402
import vixsmile.mc  # noqa: E402
import vixsmile.model  # noqa: E402
import vixsmile.pricing  # noqa: E402
import vixsmile.specfun  # noqa: E402

import timing  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

GATE_WORKERS = [1, 2]


def _modules() -> SimpleNamespace:
    return SimpleNamespace(**{
        name: getattr(vixsmile, name) for name in tracing.LAYERS
    })


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    lib_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(lib_dir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None
        else int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _run_jobs(plan, timeline: timing.Timeline) -> tuple[dict, dict]:
    outputs, digests = {}, {}
    for job in plan.jobs:
        out = timeline.run(job.name, job.run)
        if out is not None and "samples" in out:
            digests[job.name] = workloads.sample_digest(out.pop("samples"))
        outputs[job.name] = out
    return outputs, digests


def repeat(args) -> dict:
    vs = _modules()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer, vs)
    plan = workloads.make_plan(vs, args.workload, args.seed, tiny=args.tiny)
    first_job = time.monotonic()

    timeline = timing.Timeline()
    if tracer is not None:
        # Calibration is the benchmark's work: keep it out of cli.self_s.
        timeline.calibrate = tracer.wrap("bench.calibrate", timeline.calibrate)
    checks: list[tuple[str, bool, str]] = []
    digests: dict[str, str] = {}
    if args.workload == "validate-quick":
        checks = workloads.check_validate(workloads.run_validate(vs, timeline))
        records, scale = timeline.finish()
        values = {r["name"]: r.pop("value") for r in records}
    else:
        outputs, digests = _run_jobs(plan, timeline)
        records, scale = timeline.finish()
        values = {}
        with open(args.refs, encoding="utf-8") as handle:
            refs = json.load(handle)
        for record in records:
            if record["ok"]:
                checks += workloads.check_job(record["name"], outputs[record["name"]], refs)

    result = {
        "t_first_job": first_job,
        "scale": scale,
        "wall_s": sum(r["s"] for r in records),
        "raw_wall_s": sum(r["raw_s"] for r in records),
        "calibrations": timeline.calibrations,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "digests": digests,
        "values": values,
        "paths": sum(job.paths for job in plan.jobs),
        "gate_jobs": plan.gate_jobs,
        "notes": plan.notes,
        "machine": machine(),
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracing.per_layer(tracer.summary())
        result["unbound"] = tracer.unbound
        if args.spans:
            tracer.write(args.spans)
    return result


def gate(args) -> dict:
    """Redraw the plan's gate jobs at workers 1 and 2 and digest the samples."""
    plan = workloads.make_plan(_modules(), args.workload, args.seed, tiny=args.tiny)
    by_name = {job.name: job for job in plan.jobs}
    digests = {}
    for name in plan.gate_jobs:
        samples = by_name[name].draws(GATE_WORKERS)
        digests[name] = {str(w): workloads.sample_digest(s)
                         for w, s in zip(GATE_WORKERS, samples)}
    return {"digests": digests, "workers": GATE_WORKERS, "machine": machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["repeat", "gate"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--refs", default=os.path.join(os.path.dirname(__file__), "refs.json"))
    parser.add_argument("--spans", default="")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)
    result = repeat(args) if args.mode == "repeat" else gate(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
