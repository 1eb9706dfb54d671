"""Acceptance suite: every criterion at its pinned tolerance, full scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) carrying the achieved value against the tolerance. The same
criteria back ``vixsmile validate``.
"""

import math
import threading

import numpy as np
import pytest

import vixsmile.acceptance as acceptance
import vixsmile.mc as mc
import vixsmile.specfun as specfun
from vixsmile.acceptance import CRITERIA, run_criterion
from vixsmile.specfun import QuadratureError

C9 = next(c for c in CRITERIA if c.key == "C9")
# C9's incomplete-gamma grid.
SHAPES = np.linspace(0.1, 3.0, 10).tolist()
POINTS = np.linspace(0.05, 8.0, 10)


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.key for c in CRITERIA])
def test_acceptance_criterion(criterion):
    result = run_criterion(criterion, quick=False)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[acceptance] {result.key} {status}: achieved={result.achieved:.4e} "
        f"tolerance={result.tolerance:.4e} ({result.seconds:.1f}s) - {result.name}"
    )
    assert result.passed, (
        f"{result.key} {result.name}: achieved={result.achieved!r} "
        f"tolerance={result.tolerance!r} detail={result.detail}"
    )


def test_c10_fails_when_vix_stderr_does_not_halve(monkeypatch):
    # Equal VIX stderrs at 4000 and 16000 paths give a ratio of 1, outside
    # [0.4, 0.6]: the stderr-halving check must fail C10 on its own. The
    # martingale check's RV batch keeps its stderr.
    real_mean, real_rv = acceptance.estimate_mean, acceptance.sample_rv
    rv_batches = []

    def recorded_rv(*args, **kwargs):
        rv_batches.append(real_rv(*args, **kwargs))
        return rv_batches[-1]

    def flat_vix_stderr(batch):
        mean, stderr = real_mean(batch)
        return (mean, stderr) if batch in rv_batches else (mean, 1.0)

    monkeypatch.setattr(acceptance, "sample_rv", recorded_rv)
    monkeypatch.setattr(acceptance, "estimate_mean", flat_vix_stderr)
    c10 = next(c for c in CRITERIA if c.key == "C10")
    result = run_criterion(c10, quick=True)
    assert not result.passed
    assert "worst: stderr halving" in result.detail


def test_c10_fails_when_chunks_drawn_on_worker_threads_differ(monkeypatch):
    # Chunks drawn off the calling thread come out doubled. The determinism
    # draws span several chunks, so workers 2 and 4 start threads and C10
    # must fail on that check alone.
    real = mc._draw_chunk

    def perturbed(samplers, chunk_index, outs, seed, work):
        real(samplers, chunk_index, outs, seed, work)
        if threading.current_thread() is not threading.main_thread():
            for out in outs:
                out *= 2.0

    monkeypatch.setattr(mc, "_draw_chunk", perturbed)
    c10 = next(c for c in CRITERIA if c.key == "C10")
    result = run_criterion(c10, quick=True)
    assert not result.passed
    assert "worst: worker determinism" in result.detail


def test_c9_runs_no_adaptive_quadrature(monkeypatch):
    # Of the eleven criteria only C8 reaches the adaptive quadrature, through
    # vix_skew_approx's outer integral; C9's oracles are all fixed rules.
    real, reached, running = specfun._adaptive, set(), []

    def spy(*args, **kwargs):
        reached.add(running[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "_adaptive", spy)
    for criterion in CRITERIA:
        running.append(criterion.key)
        result = run_criterion(criterion, quick=True)
        assert result.passed, (criterion.key, result.detail)
    assert reached == {"C8"}


def test_incomplete_gamma_oracle_bound_is_honest():
    # Against mpmath on C9's grid, each error is within its bound (plus 4
    # ulps of rounding) and the bound overstates it by at most 100x.
    import mpmath

    for a in SHAPES:
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.gammainc(a, 0, x)) for x in POINTS.tolist()])
        for n_nodes in (4, 6, 8):
            values, bounds = acceptance._incomplete_gamma_oracle(
                a, POINTS, n_nodes, max_bound=math.inf)
            err = np.abs(values - exact)
            assert np.all(err <= bounds + 4.0 * np.spacing(exact)), (a, n_nodes)
            resolved = err > 1e-13
            assert np.all(bounds[resolved] <= 100.0 * err[resolved]), (a, n_nodes)
        assert acceptance._incomplete_gamma_oracle(a, POINTS)[1].max() <= 1e-20


def test_incomplete_gamma_oracle_raises_above_its_cap():
    with pytest.raises(QuadratureError, match="bound above its cap"):
        acceptance._incomplete_gamma_oracle(1.5, np.array([1.0, 60.0]))


@pytest.mark.parametrize("path", ["scalar", "array"])
def test_c9_fails_when_the_incomplete_gamma_is_off(monkeypatch, path):
    # A 1e-9 shift on one of lower_incomplete_gamma's paths is 10x C9's cap.
    real = acceptance.lower_incomplete_gamma

    def shifted(a, x):
        off = (np.ndim(x) == 0) == (path == "scalar")
        return real(a, x) + (1e-9 if off else 0.0)

    monkeypatch.setattr(acceptance, "lower_incomplete_gamma", shifted)
    result = run_criterion(C9, quick=True)
    assert not result.passed
    assert result.detail.startswith("gamma vs Gauss-Jacobi: 1.00e-09")


@pytest.mark.parametrize("quick", [False, True])
def test_run_criterion_pins_each_tolerance(quick):
    # Runners return only (achieved, detail): the tolerance comes from
    # TOLERANCES, doubled in quick mode for the QUICK_DOUBLED criteria only.
    assert set(acceptance.TOLERANCES) == {c.key for c in CRITERIA}
    for key, tolerance in acceptance.TOLERANCES.items():
        stub = acceptance.Criterion(key, "stub", lambda quick: (0.0, ""))
        doubled = quick and key in {"C1", "C2", "C4", "C5", "C6"}
        assert run_criterion(stub, quick).tolerance == (2 * tolerance if doubled else tolerance)
