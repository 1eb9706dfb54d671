"""Regenerate perfbench/refs.json, the reference values the gate checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Closed forms are evaluated at every grid point a term-structure seed can
draw. Monte Carlo references use the workload's inner grid with
REF_PATH_FACTOR times its path count and a seed of their own, so a
workload result sits within a few combined standard errors of them. Takes
several minutes; run it only when a reference is meant to change, and say
why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import vixsmile  # noqa: E402

import workloads as wl  # noqa: E402

REF_SEED = 1_808_036_100
REF_PATH_FACTOR = {"mc-wide": 10, "cov-fine": 20}
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def term_refs() -> dict:
    asy = vixsmile.asymptotics
    out = {}
    for hurst, beta in wl.TERM_SETS:
        p = vixsmile.ModelParams(v0=wl.V0, H=hurst, beta=beta, **wl.MIXED)
        out[wl.term_key(hurst, beta, "vix_atmi_limit")] = asy.vix_atmi_limit(p, wl.DELTA)
        out[wl.term_key(hurst, beta, "vix_skew_limit")] = asy.vix_skew_limit(p, wl.DELTA)
        out[wl.term_key(hurst, beta, "rv_atmi_limit")] = asy.rv_atmi_limit(p)
        out[wl.term_key(hurst, beta, "rv_skew_limit")] = asy.rv_skew_limit(p)
        for i, t in enumerate(wl.LEVEL_GRID):
            out[wl.term_key(hurst, beta, "vix_atmi_approx", f"L{i}")] = \
                asy.vix_atmi_approx(p, wl.DELTA, float(t))
            out[wl.term_key(hurst, beta, "rv_atmi_approx", f"L{i}")] = \
                asy.rv_atmi_approx(p, float(t))
        for tag, grid in (("lo", wl.SKEW_GRID_LO), ("hi", wl.SKEW_GRID_HI)):
            for i, t in enumerate(grid):
                start = time.perf_counter()
                out[wl.term_key(hurst, beta, "vix_skew_approx", f"{tag}{i}")] = \
                    asy.vix_skew_approx(p, wl.DELTA, float(t))
                _log(f"skew H={hurst} beta={beta} T={t:.4g}: "
                     f"{time.perf_counter() - start:.2f} s")
    return {key: {"value": value} for key, value in out.items()}


def _mc_ref(underlying, params, grid) -> dict:
    vs = SimpleNamespace(mc=vixsmile.mc, pricing=vixsmile.pricing)
    out = wl.mc_job(vs, "", underlying, params, grid, True).run()
    del out["samples"]
    return out


def mc_refs() -> dict:
    out = {}
    cases = []
    for underlying in ("vix", "rv"):
        for hurst in wl.MC_WIDE_H:
            for mix_name, mix in (("single", wl.SINGLE), ("mixed", wl.MIXED)):
                for maturity in wl.MC_WIDE_T:
                    cases.append((underlying, hurst, 0.0, mix_name, mix, maturity,
                                  wl.MC_WIDE_INNER,
                                  wl.MC_WIDE_PATHS * REF_PATH_FACTOR["mc-wide"]))
    for hurst, beta in wl.COV_FINE_SETS:
        for underlying in ("vix", "rv"):
            cases.append((underlying, hurst, beta, "single", wl.SINGLE, wl.COV_FINE_T,
                          wl.COV_FINE_INNER,
                          wl.COV_FINE_PATHS * REF_PATH_FACTOR["cov-fine"]))
    for underlying, hurst, beta, mix_name, mix, maturity, n_inner, n_paths in cases:
        start = time.perf_counter()
        params = vixsmile.ModelParams(v0=wl.V0, H=hurst, beta=beta, **mix)
        grid = vixsmile.SimGrid(T=maturity, delta=wl.DELTA, n_inner=n_inner,
                                n_paths=n_paths, seed=REF_SEED)
        key = wl.mc_key(underlying, hurst, beta, mix_name, maturity, n_inner)
        out[key] = _mc_ref(underlying, params, grid)
        out[key]["paths"] = n_paths
        _log(f"{key}: {time.perf_counter() - start:.1f} s")
    return out


def main() -> int:
    refs = {**term_refs(), **mc_refs()}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(refs.items())]
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
