"""Acceptance suite: every criterion at its pinned tolerance, full scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) carrying the achieved value against the tolerance. The same
criteria back ``vixsmile validate``.
"""

import dataclasses
import math
import re
import threading

import numpy as np
import pytest

import vixsmile.acceptance as acceptance
import vixsmile.mc as mc
import vixsmile.specfun as specfun
from vixsmile.acceptance import CRITERIA, run_criterion
from vixsmile.specfun import QuadratureError

C6 = next(c for c in CRITERIA if c.key == "C6")
C9 = next(c for c in CRITERIA if c.key == "C9")
C10 = next(c for c in CRITERIA if c.key == "C10")
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


@pytest.fixture
def fresh_memo():
    """An empty batch memo before and after the test, so a batch drawn
    through a patched draw function cannot reach a later test."""
    acceptance._batches.cache_clear()
    yield
    acceptance._batches.cache_clear()


def _martingale(detail):
    return next(part for part in detail.split("; ") if part.startswith("martingale"))


def test_c6_fails_when_the_fixed_rule_leaves_the_beta_0_closed_form(monkeypatch):
    # A level integral off by 1e-9 relative moves the fixed-rule value by
    # 5e-10, far past the 1e-12 the beta = 0 closed form must match it to.
    real = acceptance.asy._rv_level_integral

    def perturbed(params, maturity):
        value, err = real(params, maturity)
        return value * (1.0 + 1e-9), err

    assert run_criterion(C6, quick=True).passed
    monkeypatch.setattr(acceptance.asy, "_rv_level_integral", perturbed)
    result = run_criterion(C6, quick=True)
    assert not result.passed
    assert result.detail.startswith("beta=0 reduction broken at T=0.05")


def test_c10_fails_when_vix_stderr_does_not_halve(monkeypatch, fresh_memo):
    # Equal stderrs of the VIX draw and of its first quarter give a ratio
    # of 1, outside [0.4, 0.6]: the stderr-halving check must fail C10 on
    # its own. The martingale check's RV batch, the one the memo hands C10,
    # keeps its stderr, so that check reads as in the unpatched run.
    plain = run_criterion(C10, quick=True)
    (martingale,) = [acceptance._batches(True)[draw] for draw in C10.draws(True)]
    real_mean = acceptance.estimate_mean

    def flat_vix_stderr(batch):
        mean, stderr = real_mean(batch)
        return (mean, stderr) if batch is martingale else (mean, 1.0)

    monkeypatch.setattr(acceptance, "estimate_mean", flat_vix_stderr)
    result = run_criterion(C10, quick=True)
    assert not result.passed
    assert "worst: stderr halving" in result.detail
    assert _martingale(result.detail) == _martingale(plain.detail)
    assert _martingale(plain.detail) != "martingale sigmas/4=0.000"


def test_c10_fails_when_chunks_drawn_on_worker_threads_differ(monkeypatch, fresh_memo):
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
    result = run_criterion(C10, quick=True)
    assert not result.passed
    assert "worst: worker determinism" in result.detail


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_memo_batches_are_each_samplers_lone_draw(quick):
    # Ten distinct draws, C1 and C11 sharing theirs; each criterion's batch
    # from the memo is its own sampler's lone draw, bit for bit, and
    # read-only, as every reader gets the same array.
    memo = acceptance._batches(quick)
    assert set(memo) == {draw for c in CRITERIA for draw in c.draws(quick)}
    assert len(memo) == 10
    by_key = {c.key: c for c in CRITERIA}
    assert by_key["C1"].draws(quick) == by_key["C11"].draws(quick)
    for criterion in CRITERIA:
        for draw in criterion.draws(quick):
            lone = mc.sample_common([draw.sampler()])[0]
            assert memo[draw].samples.tobytes() == lone.samples.tobytes(), criterion.key
            assert not memo[draw].samples.flags.writeable


@pytest.mark.parametrize("quick, groups", [(True, [(20_000, 10)]),
                                           (False, [(200_000, 9), (50_000, 1)])],
                         ids=["quick", "full"])
def test_each_seed_and_path_count_is_drawn_once(quick, groups, monkeypatch, fresh_memo):
    # The loop over CRITERIA draws each (seed, n_paths) group once, at the
    # first criterion, and then only C10's own draws: one VIX sampler at
    # workers 1, 2 and 4.
    real, calls = mc._run_chunks, []

    def counted(samplers, n_paths, seed, workers):
        calls.append((len(samplers), n_paths, seed))
        return real(samplers, n_paths, seed, workers)

    monkeypatch.setattr(mc, "_run_chunks", counted)
    drawn_at = {}
    for criterion in CRITERIA:
        before = len(calls)
        assert run_criterion(criterion, quick).passed, criterion.key
        drawn_at[criterion.key] = len(calls) - before
    shared = [(n_paths, count) for count, n_paths, seed in calls[:len(groups)]
              if seed == acceptance.SEED]
    assert shared == groups
    assert drawn_at == {key: 0 for key in drawn_at} | {"C1": len(groups), "C10": 3}
    assert all(count == 1 for count, _, _ in calls[len(groups):])


def test_c9_runs_no_adaptive_quadrature(monkeypatch):
    # None of the eleven criteria reaches the adaptive quadrature: C9's
    # oracles are all fixed rules, and so is vix_skew_approx's outer
    # integral, which C8 runs.
    real, reached, running = specfun._adaptive, set(), []

    def spy(*args, **kwargs):
        reached.add(running[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "_adaptive", spy)
    for criterion in CRITERIA:
        running.append(criterion.key)
        result = run_criterion(criterion, quick=True)
        assert result.passed, (criterion.key, result.detail)
    assert reached == set()


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


def _scaled(factor):
    return lambda real: lambda *args: factor * real(*args)


def _scaled_head(factor):
    """Scales the first of a returned tuple: atmi's vol, atmi_skew's value
    or a level integral, and keeps the rest."""
    def wrap(real):
        def scaled(*args):
            head, *rest = real(*args)
            return (factor * head, *rest)
        return scaled
    return wrap


def _stderr_times_root_size(real):
    # C10's stderr-halving check: the VIX draw and its first quarter then
    # read the same stderr up to noise, a ratio near 1.
    def scaled(batch):
        mean, stderr = real(batch)
        return mean, stderr * math.sqrt(batch.samples.size)

    return scaled


def _doubled_off_one_worker(real):
    # C10's worker-determinism check: the draws at workers 2 and 4 come out
    # doubled, the one at workers 1 does not.
    def drawn(sampler, *, workers=1):
        batch = real(sampler, workers=workers)
        return mc.PathBatch(2.0 * batch.samples) if workers > 1 else batch

    return drawn


def _ten_stderrs_off(real):
    # Of a (value, stderr) pair: C11 reads |skew| / stderr, 1.6 unpatched in
    # quick mode, and C10's martingale check |mean - v0| / (4 stderr).
    def biased(*args):
        value, stderr = real(*args)
        return value + 10.0 * stderr, stderr

    return biased


# The criteria whose detail lists "name: gap (cap c)" sub-checks.
_CAPPED = ("C8", "C9")

# The mutant table (ROADMAP item 5): (criterion, what its failure must show,
# the name under check, the patch that wraps it). For C8 and C9 the second
# field is the one sub-check that must go over its cap; otherwise it is the
# start of the failing detail, or None for any finite failure. Names are
# looked up where the runners read them, "asy.<name>" in asymptotics, the
# others in acceptance.
MUTANTS = [
    ("C1", None, "atmi", _scaled_head(1.1)),
    ("C2", None, "asy.rv_atmi_limit", _scaled(1.2)),
    ("C3", None, "asy.heston_vix_skew_sign", _scaled(-1.0)),
    ("C4", "closed form", "asy.sabr_mixed_vix_skew", _scaled(1.0 + 1e-9)),
    ("C4", None, "atmi_skew", _scaled_head(1.5)),
    ("C5", None, "asy.vix_atmi_approx", _scaled(1.15)),
    ("C6", "beta=0 reduction broken", "asy._rv_level_integral", _scaled_head(1.0 + 1e-9)),
    ("C6", None, "atmi", _scaled_head(1.2)),
    ("C7", None, "asy.rv_skew_constant", _scaled(1.01)),
    ("C7", "nonpositive value at H=0.1", "asy.rv_skew_constant", _scaled(-1.0)),
    ("C8", "vix_atmi@1e-6", "asy.vix_atmi_approx", _scaled(1.15)),
    ("C8", "vix_skew@1e-5", "asy.vix_skew_approx", _scaled(1.02)),
    ("C8", "rv_atmi@1e-6", "asy.rv_atmi_approx", _scaled(1.01)),
    ("C9", "gamma vs Gauss-Jacobi", "lower_incomplete_gamma", _scaled(1.0 + 1e-9)),
    ("C9", "2F1 identities", "gauss_2f1", _scaled(1.0 + 1e-8)),
    ("C9", "implied-vol round trip", "implied_vol", _scaled(1.0 + 1e-9)),
    ("C10", "worst: martingale sigmas/4;", "estimate_mean", _ten_stderrs_off),
    ("C10", "worst: stderr halving;", "estimate_mean", _stderr_times_root_size),
    ("C10", "worst: worker determinism;", "sample_vix", _doubled_off_one_worker),
    ("C11", None, "atmi_skew", _ten_stderrs_off),
]


def _sub_checks(detail):
    """Each sub-check of a "name: gap (cap c); ..." detail, mapped to
    whether its gap is over its cap."""
    over = {}
    for part in detail.split("; "):
        name, measured = part.split(": ")
        over[name] = float(measured.split()[0]) > float(measured.split("cap ")[1].rstrip(")"))
    return over


def _mutant_ids():
    """"key-target" per row; a row that repeats an earlier row's pair adds
    the words of what its failure shows."""
    ids = []
    for key, shows, target, _ in MUTANTS:
        row_id = f"{key}-{target}"
        if row_id in ids:
            row_id += "-" + "-".join(re.findall(r"[\w.]+", shows))
        ids.append(row_id)
    return ids


@pytest.mark.parametrize("key, shows, target, mutate", MUTANTS, ids=_mutant_ids())
def test_each_mutant_fails_its_criterion(key, shows, target, mutate, monkeypatch):
    criterion = next(c for c in CRITERIA if c.key == key)
    assert run_criterion(criterion, quick=True).passed
    owner, name = ((acceptance.asy, target[4:]) if target.startswith("asy.")
                   else (acceptance, target))
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    result = run_criterion(criterion, quick=True)
    # It fails on its measure, not through an error, whose detail starts
    # "error: ". A runner's own early return reads inf and names its check.
    assert not result.passed, result.detail
    if key in _CAPPED:
        assert math.isfinite(result.achieved), result.detail
        assert {name for name, over in _sub_checks(result.detail).items() if over} == {shows}
    elif shows is not None:
        assert result.detail.startswith(shows), result.detail
    else:
        assert math.isfinite(result.achieved), result.detail


def test_every_criterion_and_capped_sub_check_has_a_mutant():
    assert sorted({key for key, *_ in MUTANTS}) == sorted(c.key for c in CRITERIA)
    for criterion in CRITERIA:
        rows = [shows for key, shows, *_ in MUTANTS if key == criterion.key]
        detail = run_criterion(criterion, quick=True).detail
        if criterion.key in _CAPPED:
            assert sorted(rows) == sorted(_sub_checks(detail)), criterion.key
        elif criterion.key == "C10":
            # "worst: name; name=value; ...": one row per name=value sub-check.
            names = [part.split("=")[0] for part in detail.split("; ") if "=" in part]
            assert len(names) == 3
            assert sorted(rows) == sorted(f"worst: {name};" for name in names)


# (tolerance, quick_tolerance) of each row: fixed inputs, so that any
# loosening shows here. Quick mode doubles only the Monte Carlo gaps C1, C2
# and C4-C6.
PINNED = {
    "C1": (0.02, 0.04), "C2": (0.03, 0.06), "C3": (0.0, 0.0), "C4": (0.15, 0.30),
    "C5": (0.05, 0.10), "C6": (0.05, 0.10), "C7": (0.005, 0.005), "C8": (1.0, 1.0),
    "C9": (1.0, 1.0), "C10": (1.0, 1.0), "C11": (3.0, 3.0),
}


@pytest.mark.parametrize("quick", [False, True])
def test_run_criterion_pins_each_tolerance(quick):
    # Runners return only (achieved, detail): run_criterion takes the
    # tolerance of the row for the mode.
    assert [c.key for c in CRITERIA] == list(PINNED)
    for criterion in CRITERIA:
        assert (criterion.tolerance, criterion.quick_tolerance) == PINNED[criterion.key]
        stub = dataclasses.replace(criterion, runner=lambda quick, pairs: (0.0, ""),
                                   draws=lambda quick: ())
        assert run_criterion(stub, quick).tolerance == PINNED[criterion.key][quick]
