"""The four benchmark workloads: inputs drawn from the seed, the jobs, and
the reference checks that gate every run.

A job is one CSV row's worth of work: one (params, T) Monte Carlo price, one
closed form at one maturity, or one acceptance criterion. Jobs call vixsmile
through module attributes looked up at call time (``vixsmile.mc.sample_vix``,
not a name imported once), so the tracer's wrappers see every call.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("mc-wide", "cov-fine", "term-structure", "validate-quick")

DELTA = 30.0 / 365.0
V0 = 0.04
SINGLE = {"gamma": 1.0, "nu": 2.0, "eta": 0.0}
MIXED = {"gamma": 0.5, "nu": 3.0, "eta": 1.0}

# mc-wide: every (underlying, H, parameter set) is one job, its maturity
# alternating over MC_WIDE_T; the seed draws each job's Monte Carlo seed. The
# maturity is not drawn: the jackknife's cost depends on it, and a drawn
# maturity would move the job-latency percentiles from seed to seed.
MC_WIDE_H = (0.1, 0.3, 0.5)
MC_WIDE_T = (0.1, 0.5)
MC_WIDE_INNER = 16
MC_WIDE_PATHS = 400_000

# cov-fine: fine inner grid, few paths, so the O(n^2) covariance build and
# its factorisation dominate. beta = 0 and beta > 0 sit side by side.
COV_FINE_SETS = ((0.3, 0.0), (0.1, 1.0))
COV_FINE_T = 0.25
COV_FINE_INNER = 96
COV_FINE_PATHS = 20_000

# term-structure: maturities are drawn from fixed log-spaced grids on
# [0.01, 1] so that every drawn point has a committed reference value.
TERM_SETS = ((0.3, 0.0), (0.1, 1.0))
TERM_N_LEVELS = 48
LEVEL_GRID = 10.0 ** np.linspace(-2.0, 0.0, 193)
SKEW_GRID_LO = 10.0 ** (-2.0 + np.arange(8) / 8.0)        # [0.01, 0.1)
SKEW_GRID_HI = 10.0 ** (-1.0 + np.arange(1, 9) / 8.0)     # (0.1, 1]

# Gate tolerances. Closed forms: the ROADMAP item 4 guard. Monte Carlo: the
# distance to a reference run with 10-20x the paths, in combined standard
# errors; six allows for the jackknife's 19-degree-of-freedom error estimate.
CLOSED_FORM_RTOL = 1e-9
MC_SIGMAS = 6.0


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    paths: int = 0
    # For MC jobs: draws(worker_counts) -> one sample vector per count.
    draws: Callable[[list[int]], list[np.ndarray]] | None = None


@dataclass
class Plan:
    """What one repeat of a workload runs; built from the seed alone."""

    workload: str
    jobs: list[Job]
    # MC jobs the gate process redraws at workers 1 and 2.
    gate_jobs: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _params(vs, hurst: float, beta: float, mix: dict):
    return vs.model.ModelParams(v0=V0, H=hurst, beta=beta, **mix)


def mc_key(underlying: str, hurst: float, beta: float, mix_name: str,
           maturity: float, n_inner: int) -> str:
    return f"{underlying}/H{hurst:g}/b{beta:g}/{mix_name}/T{maturity:g}/n{n_inner}"


def mc_job(vs, key: str, underlying: str, params, grid, with_skew: bool) -> Job:
    """Sample at workers=1, then ATM implied vol (and skew) on the batch."""
    def run() -> dict:
        if underlying == "vix":
            batch = vs.mc.sample_vix(vs.mc.build_vix_sampler(params, grid), workers=1)
        else:
            batch = vs.mc.sample_rv(params, grid, workers=1)
        vol, vol_se = vs.pricing.atmi(batch, grid.T)
        out = {"atmi": vol, "atmi_se": vol_se, "samples": batch.samples}
        if with_skew:
            out["skew"], out["skew_se"] = vs.pricing.atmi_skew(batch, grid.T)
        return out

    def draws(worker_counts: list[int]) -> list[np.ndarray]:
        if underlying == "vix":
            sampler = vs.mc.build_vix_sampler(params, grid)
            return [vs.mc.sample_vix(sampler, workers=w).samples for w in worker_counts]
        return [vs.mc.sample_rv(params, grid, workers=w).samples for w in worker_counts]

    return Job(key, run, grid.n_paths, draws)


def sample_digest(samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest()


def _mc_wide(vs, rng: np.random.Generator, tiny: bool) -> Plan:
    jobs = []
    n_paths = 20_000 if tiny else MC_WIDE_PATHS
    for underlying in ("vix", "rv"):
        for h_index, hurst in enumerate(MC_WIDE_H):
            for m_index, (mix_name, mix) in enumerate((("single", SINGLE), ("mixed", MIXED))):
                maturity = MC_WIDE_T[(h_index + m_index) % len(MC_WIDE_T)]
                grid = vs.mc.SimGrid(T=maturity, delta=DELTA, n_inner=MC_WIDE_INNER,
                                     n_paths=n_paths, seed=int(rng.integers(2 ** 63)))
                key = mc_key(underlying, hurst, 0.0, mix_name, maturity, MC_WIDE_INNER)
                jobs.append(mc_job(vs, key, underlying, _params(vs, hurst, 0.0, mix),
                                   grid, True))
    gate_jobs = [jobs[0].name, jobs[6].name]
    if tiny:
        jobs = [jobs[0], jobs[6]]
    return Plan("mc-wide", jobs, gate_jobs=gate_jobs)


def _cov_fine(vs, rng: np.random.Generator, tiny: bool) -> Plan:
    jobs = []
    for hurst, beta in COV_FINE_SETS:
        params = _params(vs, hurst, beta, SINGLE)
        for underlying in ("vix", "rv"):
            grid = vs.mc.SimGrid(T=COV_FINE_T, delta=DELTA, n_inner=COV_FINE_INNER,
                                 n_paths=COV_FINE_PATHS, seed=int(rng.integers(2 ** 63)))
            key = mc_key(underlying, hurst, beta, "single", COV_FINE_T, COV_FINE_INNER)
            jobs.append(mc_job(vs, key, underlying, params, grid, False))
    if tiny:
        jobs = jobs[:1]
    # The RV state is rebuilt on every sample_rv call (seconds at this grid),
    # so the gate redraws only the VIX job, whose sampler is built once.
    return Plan("cov-fine", jobs, gate_jobs=[jobs[0].name])


def term_key(hurst: float, beta: float, formula: str, point: str = "") -> str:
    return f"H{hurst:g}/b{beta:g}/{formula}" + (f"/{point}" if point else "")


def term_draw(rng: np.random.Generator, tiny: bool):
    """Indices into LEVEL_GRID, SKEW_GRID_LO and SKEW_GRID_HI.

    The level maturities are a stratified log-uniform draw, one from each of
    n equal slices of the grid, so every seed covers [0.01, 1] alike and
    the job-time distribution does not depend on where the draws cluster.
    """
    n_levels = 4 if tiny else TERM_N_LEVELS
    edges = np.linspace(0, LEVEL_GRID.size, n_levels + 1).astype(int)
    levels = [int(rng.integers(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    lo = int(rng.integers(SKEW_GRID_LO.size))
    hi = int(rng.integers(SKEW_GRID_HI.size))
    return levels, lo, hi


def _term_structure(vs, rng: np.random.Generator, tiny: bool) -> Plan:
    asy = vs.asymptotics
    levels, lo, hi = term_draw(rng, tiny)
    sets = [(hurst, beta, _params(vs, hurst, beta, MIXED)) for hurst, beta in TERM_SETS]

    def job(hurst, beta, formula: str, point: str, call: Callable[[], float]) -> Job:
        return Job(term_key(hurst, beta, formula, point), lambda: {"value": call()})

    # The limits come first: the first rv_skew_limit call of each H pays the
    # cold rv_skew_constant cache.
    jobs = []
    for hurst, beta, p in sets:
        jobs += [
            job(hurst, beta, "vix_atmi_limit", "", lambda p=p: asy.vix_atmi_limit(p, DELTA)),
            job(hurst, beta, "vix_skew_limit", "", lambda p=p: asy.vix_skew_limit(p, DELTA)),
            job(hurst, beta, "rv_atmi_limit", "", lambda p=p: asy.rv_atmi_limit(p)),
            job(hurst, beta, "rv_skew_limit", "", lambda p=p: asy.rv_skew_limit(p)),
        ]
    level_jobs = []
    for i in levels:
        t = float(LEVEL_GRID[i])
        for hurst, beta, p in sets:
            level_jobs += [
                job(hurst, beta, "vix_atmi_approx", f"L{i}",
                    lambda p=p, t=t: asy.vix_atmi_approx(p, DELTA, t)),
                job(hurst, beta, "rv_atmi_approx", f"L{i}",
                    lambda p=p, t=t: asy.rv_atmi_approx(p, t)),
            ]
    skew_jobs = [] if tiny else [
        job(hurst, beta, "vix_skew_approx", point,
            lambda p=p, t=float(t): asy.vix_skew_approx(p, DELTA, t))
        for hurst, beta, p in sets
        for point, t in ((f"lo{lo}", SKEW_GRID_LO[lo]), (f"hi{hi}", SKEW_GRID_HI[hi]))
    ]
    # The level jobs take about a millisecond each, and the machine's speed
    # changes by up to 2x in phases lasting a fraction of a second. Spread
    # between the skews, each kind of level job meets several phases, so
    # job_p50_s does not hang on the one phase a 50 ms block lands in.
    n_blocks = len(skew_jobs) + 1
    for block in range(n_blocks):
        jobs += level_jobs[block::n_blocks]
        if block < len(skew_jobs):
            jobs.append(skew_jobs[block])
    return Plan("term-structure", jobs)


def _validate_quick(vs, rng: np.random.Generator, tiny: bool) -> Plan:
    """``vixsmile validate --quick`` in-process; the plan has no jobs of its
    own, since :func:`run_validate` times each criterion as one job."""
    if tiny:
        # Two cheap criteria stand in for the suite at self-check scale.
        vs.cli.CRITERIA = [c for c in vs.cli.CRITERIA if c.key in ("C3", "C9")]
    plan = Plan("validate-quick", [])
    plan.notes.append(
        "validate-quick runs the acceptance suite with its own fixed seeds and "
        "path counts: the workload seed does not reach it"
    )
    plan.notes.append(
        "criterion C10 draws at workers 2 and 4 by design; the threads check "
        "covers the benchmark's own pools only"
    )
    return plan


_BUILDERS = {
    "mc-wide": _mc_wide,
    "cov-fine": _cov_fine,
    "term-structure": _term_structure,
    "validate-quick": _validate_quick,
}


def make_plan(vs, workload: str, seed: int, tiny: bool = False) -> Plan:
    rng = np.random.default_rng(seed)
    return _BUILDERS[workload](vs, rng, tiny)


def run_validate(vs, timeline) -> dict:
    """Run ``vixsmile validate --quick`` once, timing each criterion as a job
    of ``timeline`` through the cli's ``run_criterion`` binding.

    Returns the cli outcome.
    """
    inner = vs.cli.run_criterion

    def timed(criterion, quick=False):
        timeline.calibrate()
        start = time.perf_counter()
        result = inner(criterion, quick=quick)
        timeline.record(criterion.key, time.perf_counter() - start,
                        ok=bool(result.passed),
                        error=None if result.passed else result.detail,
                        value=result.achieved)
        return result

    vs.cli.run_criterion = timed
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = vs.cli.main(["validate", "--quick"])
    finally:
        vs.cli.run_criterion = inner
    return {"exit_code": code, "stdout": out.getvalue(), "n_criteria": len(vs.cli.CRITERIA)}


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------

def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def check_job(job_name: str, out: dict, refs: dict) -> list[tuple[str, bool, str]]:
    """Compare one job's outputs with the committed references."""
    checks = []
    ref = refs.get(job_name)
    if ref is None:
        return [(f"{job_name}:ref", False, "no committed reference")]
    if "value" in out:
        got, want = out["value"], ref["value"]
        ok = _finite(got) and abs(got - want) <= CLOSED_FORM_RTOL * abs(want)
        checks.append((f"{job_name}:value", ok, f"got {got!r}, reference {want!r}"))
        return checks
    for name in ("atmi", "skew"):
        if name not in out:
            continue
        got, se = out[name], out[name + "_se"]
        want, want_se = ref[name], ref[name + "_se"]
        limit = MC_SIGMAS * math.hypot(se, want_se)
        ok = _finite(got) and _finite(se) and abs(got - want) <= limit
        checks.append((f"{job_name}:{name}", ok,
                       f"got {got!r} +- {se!r}, reference {want!r} +- {want_se!r}"))
    return checks


def check_validate(outcome: dict) -> list[tuple[str, bool, str]]:
    total = outcome["n_criteria"]
    summary = f"# {total}/{total} criteria passed"
    return [
        ("validate:exit_code", outcome["exit_code"] == 0, f"exit {outcome['exit_code']}"),
        ("validate:summary", summary in outcome["stdout"],
         outcome["stdout"].strip().splitlines()[-1] if outcome["stdout"].strip() else ""),
    ]
