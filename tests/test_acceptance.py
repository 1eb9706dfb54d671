"""Acceptance suite: every criterion at its pinned tolerance, full scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) carrying the achieved value against the tolerance. The same
criteria back ``vixsmile validate``.
"""

import pytest

import vixsmile.acceptance as acceptance
from vixsmile.acceptance import CRITERIA, run_criterion


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
    # [0.4, 0.6]: the stderr-halving check must fail C10 on its own.
    real = acceptance.estimate_mean

    def flat_vix_stderr(batch):
        mean, stderr = real(batch)
        return (mean, 1.0) if batch.kind == "vix" else (mean, stderr)

    monkeypatch.setattr(acceptance, "estimate_mean", flat_vix_stderr)
    c10 = next(c for c in CRITERIA if c.key == "C10")
    result = run_criterion(c10, quick=True)
    assert not result.passed
    assert "worst: stderr halving" in result.detail


@pytest.mark.parametrize("quick", [False, True])
def test_run_criterion_pins_each_tolerance(quick):
    # Runners return only (achieved, detail): the tolerance comes from
    # TOLERANCES, doubled in quick mode for the QUICK_DOUBLED criteria only.
    assert set(acceptance.TOLERANCES) == {c.key for c in CRITERIA}
    for key, tolerance in acceptance.TOLERANCES.items():
        stub = acceptance.Criterion(key, "stub", lambda quick: (0.0, ""))
        doubled = quick and key in {"C1", "C2", "C4", "C5", "C6"}
        assert run_criterion(stub, quick).tolerance == (2 * tolerance if doubled else tolerance)
