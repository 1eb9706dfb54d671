"""Span tracer for vixsmile, built from the benchmark's own files.

Nothing in the package is edited: the tracer replaces public functions at
their call-site bindings, the module attributes the callers look up at call
time (``vixsmile.mc.kernel_covariance``, ``vixsmile.model.integrate``,
``vixsmile.pricing.implied_vol`` and so on). Each wrapped call records a span
(id, name, start, end, parent, run id) in memory. The integrand handed to a
quadrature is wrapped too: it counts abscissae and runs as a
``<caller>.integrand`` span, so its time is the calling layer's, not
specfun's. Spans are written out when the repeat ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans. ``<name>.s`` is the time inside the outermost ``<name>``
span, so a quadrature nested in another quadrature's integrand counts once.
Blind spots, whose time folds into the caller's self time:

- ``asymptotics._lig_vec`` bound ``lower_incomplete_gamma`` at import, so
  those incomplete-gamma calls show as asymptotics, not specfun;
- ``normal_cdf``/``normal_pdf`` and ``model.kernel`` are not wrapped: they are
  called per Newton step or per quadrature panel, where a wrapper would cost
  more than the call;
- the chunks drawn inside ``sample_vix``/``sample_rv`` are not split further.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("specfun", "bs", "model", "mc", "pricing", "asymptotics", "acceptance", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, name, start, end, parent id, outermost span of this name?)
        self.spans: list[tuple[int, str, float, float, int, bool]] = []
        self.counters: Counter = Counter()
        self.unbound: list[str] = []
        # Every name a span can take, so an uncalled function reports zeros.
        self.names: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span named ``name``."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.active = [], Counter()
        stack, active = local.stack, local.active
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        outer = active[name] == 0
        stack.append(span_id)
        active[name] += 1
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except Exception:
            self.counters[name + ".failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            active[name] -= 1
            self.spans.append((span_id, name, start, end, parent, outer))

    def wrap(self, name: str, func, *, name_of=None, before=None, after=None):
        """Wrap ``func`` so every call records one span.

        ``name_of(args)`` picks a per-call name, ``before(name, args)`` may
        replace the positional arguments, ``after(name, result)`` records
        counters.
        """
        if name_of is None:
            self.names.add(name)
            self.counters[name + ".failed"] += 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            if before is not None:
                args = before(span_name, args)
            result = self.call(span_name, func, *args, **kwargs)
            if after is not None:
                after(span_name, result)
            return result

        return wrapper

    # -- argument and result hooks ------------------------------------------

    def integrand_hook(self, owner: str):
        """Wrap the integrand passed in: count abscissae, time it as ``owner``."""
        span = owner + ".integrand"
        self.names.add(span)

        def before(name, args):
            f = args[0]
            evals = name + ".evals"

            def integrand(x):
                self.counters[evals] += np.size(x)
                return self.call(span, f, x)

            return (integrand,) + tuple(args[1:])

        return before

    def count_points(self, name, args):
        self.counters[name + ".points"] += np.size(args[3])
        return args

    def count_paths(self, name, batch):
        self.counters[name + ".paths"] += batch.samples.size

    # -- output --------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name calls and seconds, per-layer self time, and counters."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for name in self.names:
            out[name + ".calls"] = out[name + ".s"] = 0.0
        for span_id, name, start, end, _, outer in self.spans:
            duration = end - start
            out[name + ".calls"] += 1
            if outer:
                out[name + ".s"] += duration
            out[name.split(".")[0] + ".self_s"] += duration - child_time[span_id]
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)

    def write(self, path: str) -> None:
        """One JSON object per span and line, gzip-compressed."""
        run = self.run_id
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span_id, name, start, end, parent, _ in self.spans:
                handle.write(f'{{"id": {span_id}, "name": "{name}", "start": {start!r}, '
                             f'"end": {end!r}, "parent": {parent}, "run": "{run}"}}\n')


class _Proxy:
    """Stands in for a module at one caller's binding, overriding some names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer, vs) -> None:
    """Wrap vixsmile's public functions at the bindings their callers use.

    ``vs`` is a namespace holding the imported vixsmile modules. A binding
    that no longer exists is skipped and listed in ``tracer.unbound``.
    """
    mods = {name: getattr(vs, name) for name in LAYERS}

    def patch(span: str, owners: tuple[str, ...], integrand: bool = False, **hooks) -> None:
        layer, func_name = span.split(".", 1)
        func = getattr(mods[layer], func_name, None)
        if func is None:
            tracer.unbound.append(span)
            return
        for owner in owners:
            if getattr(mods[owner], func_name, None) is not func:
                tracer.unbound.append(f"{owner}.{func_name}")
                continue
            if integrand:
                hooks["before"] = tracer.integrand_hook(owner)
            setattr(mods[owner], func_name, tracer.wrap(span, func, **hooks))

    patch("specfun.integrate", ("model", "acceptance"), integrand=True)
    patch("specfun.integrate_err", ("asymptotics",), integrand=True)
    patch("specfun.lower_incomplete_gamma", ("model", "asymptotics", "acceptance"))
    patch("specfun.gauss_2f1", ("asymptotics", "acceptance"), before=tracer.count_points)
    patch("model.kernel_variance", ("model",))
    patch("model.kernel_covariance", ("mc",))
    patch("mc.build_vix_sampler", ("mc", "cli", "acceptance"))
    patch("mc.sample_vix", ("mc", "cli", "acceptance"), after=tracer.count_paths)
    patch("mc.sample_rv", ("mc", "cli", "acceptance"), after=tracer.count_paths)
    patch("pricing.atmi", ("pricing", "cli", "acceptance"))
    patch("pricing.atmi_skew", ("pricing", "cli", "acceptance"))
    patch("bs.implied_vol", ("bs", "pricing", "acceptance"))
    patch("bs.atm_implied_vol", ("pricing",))
    patch("bs.bs_vega", ("pricing",))
    for name in ("vix_atmi_limit", "vix_atmi_approx", "vix_skew_limit",
                 "vix_skew_approx", "sabr_mixed_vix_skew", "rv_atmi_limit",
                 "rv_atmi_approx", "rv_skew_limit", "heston_vix_skew_sign"):
        patch(f"asymptotics.{name}", ("asymptotics",))
    _patch_rv_skew_constant(tracer, mods["asymptotics"])
    _patch_factor(tracer, mods["mc"])
    patch("cli.main", ("cli",))
    patch("cli.run_criterion", ("cli",), name_of=lambda args: f"acceptance.{args[0].key}")
    tracer.names.update(f"acceptance.{c.key}" for c in mods["acceptance"].CRITERIA)
    for key in ("specfun.integrate.evals", "specfun.integrate_err.evals",
                "specfun.gauss_2f1.points", "mc.sample_vix.paths", "mc.sample_rv.paths"):
        tracer.counters[key] += 0


def _patch_rv_skew_constant(tracer: Tracer, asy) -> None:
    """Count lru-cache hits of ``rv_skew_constant`` as seen by its callers."""
    cached = asy.rv_skew_constant
    name = "asymptotics.rv_skew_constant"
    timed = tracer.wrap(name, cached)

    @functools.wraps(cached)
    def counted(*args, **kwargs):
        hits = cached.cache_info().hits
        try:
            return timed(*args, **kwargs)
        finally:
            tracer.counters[name + ".lookups"] += 1
            tracer.counters[name + ".hits"] += cached.cache_info().hits - hits

    asy.rv_skew_constant = counted


def _patch_factor(tracer: Tracer, mc) -> None:
    """Time every Cholesky attempt made from ``mc``; a jitter retry follows a
    failed attempt, so ``mc.factor.failed`` counts the retries."""
    real_np = mc.np
    cholesky = tracer.wrap("mc.factor", real_np.linalg.cholesky)
    mc.np = _Proxy(real_np, linalg=_Proxy(real_np.linalg, cholesky=cholesky))


def per_layer(summary: dict[str, float]) -> dict[str, float]:
    """Derived per-layer metrics: attempts and hit ratio."""
    out = dict(summary)
    out["mc.factor.attempts"] = summary.get("mc.factor.calls", 0.0)
    lookups = summary.get("asymptotics.rv_skew_constant.lookups", 0.0)
    hits = summary.get("asymptotics.rv_skew_constant.hits", 0.0)
    out["asymptotics.rv_skew_constant.hit_ratio"] = hits / lookups if lookups else 0.0
    return out
