"""Command-line front end: experiment orchestration and CSV emission.

Subcommands
-----------
atmi       simulate each maturity, emit MC ATM implied vol vs the
           closed-form approximation and limit (mixed model only)
skew       same for the ATM skew, from the digital identity (mixed model only)
asymptote  closed forms only, no simulation
validate   run the acceptance criteria end to end at their fixed seeds and
           path counts; nonzero exit on failure

Settings come from flags alone: a setting no flag gives keeps its
``RunConfig`` default. Every setting is declared once, in ``_SETTINGS``: its
flag, caster, help text and header echo. ``_TAKES`` declares which settings
each subcommand reads; its flags and its header echo both come from that one
row, so a flag that the subcommand does not read exits 2 before any output.
``_UNREAD`` does the same per run mode: the settings that the heston model,
the mixed model, the vix or the rv underlying does not read exit 2 when
given, and are not echoed. ``validate`` also takes ``--quick``.
CSV goes to ``--out`` or stdout with a schema/parameter header line; floats
are printed with 17 significant digits so outputs are byte-stable. ``atmi``
and ``skew`` share one row loop over the maturities, whose draws share one
normal block per chunk (``mc.sample_common``). Logs go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from . import asymptotics as asy
from .acceptance import CRITERIA, run_criterion
from .asymptotics import DegenerateModelError
from .mc import SimGrid, build_rv_sampler, build_vix_sampler, sample_common
from .model import ModelParams
from .pricing import atmi, atmi_skew

__all__ = ["RunConfig", "cmd_atmi", "cmd_skew", "cmd_asymptote", "cmd_validate", "main"]

SCHEMA_VERSION = "v1"


@dataclass
class RunConfig:
    """Resolved run configuration. Each setting comes from its flag, else the
    field default below (see :func:`resolve_config`)."""

    model: str = "mixed"
    underlying: str = "vix"
    hurst: float = 0.3
    beta: float = 0.0
    gamma: float = 1.0
    nu: float = 2.0
    eta: float = 0.0
    delta: float = 30.0 / 365.0
    maturities: list[float] = field(default_factory=lambda: [0.25])
    n_paths: int = 200_000
    n_inner: int = 64
    seed: int = 42
    out_path: str = "-"
    workers: int = 0  # 0: all cores; capped at the core count
    quick: bool = False
    heston_k: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in ("mixed", "heston"):
            raise ValueError(f"model must be 'mixed' or 'heston', got {self.model!r}")
        if self.underlying not in ("vix", "rv"):
            raise ValueError(f"underlying must be 'vix' or 'rv', got {self.underlying!r}")
        if not self.maturities or any(t <= 0.0 for t in self.maturities):
            raise ValueError("maturities must be nonempty and positive")
        if self.n_paths < 3:  # the fewest the skew's delete-block jackknife takes
            raise ValueError(f"paths must be >= 3, got {self.n_paths!r}")
        if self.workers < 0:
            raise ValueError("workers must be nonnegative")

    @property
    def effective_workers(self) -> int:
        cores = os.cpu_count() or 1
        return min(self.workers, cores) if self.workers > 0 else cores

    def model_params(self) -> ModelParams:
        return ModelParams(H=self.hurst, beta=self.beta,
                           gamma=self.gamma, nu=self.nu, eta=self.eta)

    def sim_grid(self, maturity: float) -> SimGrid:
        return SimGrid(T=maturity, delta=self.delta, n_inner=self.n_inner,
                       n_paths=self.n_paths, seed=self.seed)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


class _Setting(NamedTuple):
    field: str  # RunConfig field
    cast: Callable[[str], Any]  # of the flag text
    help: str | None = None
    echo: Callable[[Any], str] | None = _fmt  # header text; None: not echoed
    choices: tuple[str, ...] | None = None


# Every setting, keyed by its flag's dest ("--heston-k" -> "heston_k"), which
# is also its header name. The defaults live only in RunConfig. Out and
# workers are not echoed: they do not affect the numbers, and the
# byte-identity contract must hold across worker counts.
_SETTINGS: dict[str, _Setting] = {
    "model": _Setting("model", str, None, str, ("mixed", "heston")),
    "underlying": _Setting("underlying", str, None, str, ("vix", "rv")),
    "hurst": _Setting("hurst", float, "Hurst parameter in (0, 1/2]"),
    "beta": _Setting("beta", float, "kernel mean-reversion rate"),
    "gamma": _Setting("gamma", float, "mixing weight in [0, 1]"),
    "nu": _Setting("nu", float, "first vol-of-vol"),
    "eta": _Setting("eta", float, "second vol-of-vol"),
    "delta": _Setting("delta", float, "averaging window in years"),
    "T": _Setting("maturities", _parse_float_list, "comma list of maturities",
                  lambda ts: ",".join(_fmt(t) for t in ts)),
    "paths": _Setting("n_paths", int, "Monte Carlo paths", str),
    "inner": _Setting("n_inner", int, "RV trapezoid steps (rv underlying only)", str),
    "seed": _Setting("seed", int, "RNG seed", str),
    "out": _Setting("out_path", str, "output path ('-' for stdout)", None),
    "workers": _Setting("workers", int, "parallel workers, at most one per core (0: all)",
                        None),
    "heston_k": _Setting("heston_k", float, "Heston reversion speed (heston model only)"),
}

# The settings each subcommand reads, in _SETTINGS order: its flags and its
# header echo. atmi and skew simulate only the mixed model, at unit mean;
# asymptote writes the VIX and RV closed forms whatever the underlying, and
# no Monte Carlo setting reaches them.
_CLOSED_FORM = ("hurst", "beta", "gamma", "nu", "eta", "delta", "T")
_MC = ("paths", "inner", "seed")
_TAKES: dict[str, tuple[str, ...]] = {
    "atmi": ("underlying", *_CLOSED_FORM, *_MC, "out", "workers"),
    "skew": ("underlying", *_CLOSED_FORM, *_MC, "out", "workers"),
    "asymptote": ("model", *_CLOSED_FORM, "out", "heston_k"),
    "validate": ("out",),
}

# The settings a run mode does not read, keyed by the setting and the value
# that select the mode. Only the heston model's skew sign reads heston_k, the
# RV formulas and draws have no window, and the VIX draws take a fixed window
# rule, so only the RV reads inner.
_UNREAD: dict[tuple[str, str], tuple[str, ...]] = {
    ("model", "mixed"): ("heston_k",),
    ("model", "heston"): ("hurst", "beta", "gamma", "eta", "T"),
    ("underlying", "vix"): ("inner",),
    ("underlying", "rv"): ("delta",),
}

_COLUMNS = {
    "atmi": "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status",
    "skew": "T,mc_skew,mc_stderr,approx_skew,limit_value,status",
    "asymptote": "formula_id,maturity,value,quad_error_bound,status",
}


def _unread(config: RunConfig, command: str) -> dict[str, str]:
    """The settings ``command`` takes but does not read in the run mode of
    ``config``, each mapped to the ``key=value`` of the mode."""
    values = vars(config)
    return {key: f"{mode_key}={mode}"
            for (mode_key, mode), keys in _UNREAD.items()
            if values[_SETTINGS[mode_key].field] == mode
            for key in keys if key in _TAKES[command]}


def _write_header(config: RunConfig, schema: str, stream) -> None:
    """The schema/parameter header line, echoing the settings the subcommand
    named by ``schema`` reads in the run mode of ``config``, then the column
    line."""
    values = vars(config)
    unread = _unread(config, schema)
    fields = [f"{key}={setting.echo(values[setting.field])}"
              for key, setting in _SETTINGS.items()
              if key in _TAKES[schema] and key not in unread and setting.echo]
    stream.write(f"# vixsmile-csv schema={schema}.{SCHEMA_VERSION} {' '.join(fields)}\n")
    stream.write(_COLUMNS[schema] + "\n")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _simulated_rows(config: RunConfig, stream, schema: str,
                    row_values: Callable[..., list[float]]) -> None:
    """Header, then one row per maturity: ``row_values(params, batch, T)`` on
    the maturity's draw of the underlying, or zeros marked degenerate when
    the vol-of-vol mean is zero. Every maturity's sampler is built first,
    and one ``sample_common`` call draws them all from shared normals, each
    batch bit-identical to the maturity's lone draw. A failing maturity
    writes an error row and a comment line, then re-raises: a sampler build
    fails at its own maturity, after the rows of the maturities before it,
    and the shared draw at the first maturity."""
    params = config.model_params()
    _write_header(config, schema, stream)
    width = _COLUMNS[schema].count(",") - 1  # the values between T and status
    batches, failure = [], None
    if params.volvol_mean != 0.0:
        build = build_vix_sampler if config.underlying == "vix" else build_rv_sampler
        samplers = []
        try:
            for maturity in config.maturities:
                _log(f"{schema}: simulating {config.underlying} at T={maturity:g}")
                samplers.append(build(params, config.sim_grid(maturity)))
        except Exception as exc:
            failure = exc
        if samplers:
            try:
                batches = sample_common(samplers, workers=config.effective_workers)
            except Exception as exc:
                failure = exc
    for index, maturity in enumerate(config.maturities):
        try:
            if params.volvol_mean == 0.0:
                values, status = [0.0] * width, "degenerate"
            elif index < len(batches):
                values, status = row_values(params, batches[index], maturity), "ok"
            else:
                raise failure
            stream.write(",".join(_fmt(v) for v in [maturity, *values]) + f",{status}\n")
        except Exception as exc:
            stream.write(f"{_fmt(maturity)},{',' * width}error\n")
            stream.write(f"# error at T={maturity!r}: {exc!r}\n")
            raise
        finally:
            stream.flush()


def cmd_atmi(config: RunConfig, stream) -> None:
    """One row per maturity: MC ATM implied vol vs approximation and limit."""

    def row_values(params: ModelParams, batch, maturity: float) -> list[float]:
        if config.underlying == "vix":
            approx = asy.vix_atmi_approx(params, config.delta, maturity)
            limit = asy.vix_atmi_limit(params, config.delta)
        else:
            approx = asy.rv_atmi_approx(params, maturity)
            limit = asy.rv_atmi_limit(params)
        vol, stderr = atmi(batch, maturity)
        rel_gap = abs(approx - vol) / vol
        return [vol, stderr, approx, limit, rel_gap]

    _simulated_rows(config, stream, "atmi", row_values)


def cmd_skew(config: RunConfig, stream) -> None:
    """One row per maturity: MC ATM skew vs approximation and limit."""

    def row_values(params: ModelParams, batch, maturity: float) -> list[float]:
        if config.underlying == "vix":
            approx = asy.vix_skew_approx(params, config.delta, maturity)
            limit = asy.vix_skew_limit(params, config.delta)
        else:
            limit = asy.rv_skew_limit(params)
            approx = limit * maturity ** (params.H - 0.5)
        value, stderr = atmi_skew(batch, maturity)
        return [value, stderr, approx, limit]

    _simulated_rows(config, stream, "skew", row_values)


# The mixed model's asymptote rows, in order: each formula_id and its
# (value, quadrature bound) function, first the limits, of (params, delta),
# then the finite-maturity approximations, of (params, delta, T), once per
# maturity. Closed forms report a zero bound; the four quadrature-backed
# forms read theirs from their asymptotics ``_err`` functions.
_LIMIT_ROWS: tuple[tuple[str, Callable[..., tuple[float, float]]], ...] = (
    ("VIX_ATMI_LIMIT", lambda p, d: (asy.vix_atmi_limit(p, d), 0.0)),
    ("VIX_SKEW_LIMIT", lambda p, d: (asy.vix_skew_limit(p, d), 0.0)),
    ("SABR_VIX_SKEW", lambda p, d: (asy.sabr_mixed_vix_skew(p.gamma, p.nu, p.eta), 0.0)),
    ("RV_ATMI_LIMIT", lambda p, d: (asy.rv_atmi_limit(p), 0.0)),
    ("RV_SKEW_LIMIT", lambda p, d: asy.rv_skew_limit_err(p)),
)
_APPROX_ROWS: tuple[tuple[str, Callable[..., tuple[float, float]]], ...] = (
    ("VIX_ATMI_APPROX", asy.vix_atmi_approx_err),
    ("VIX_SKEW_APPROX", asy.vix_skew_approx_err),
    ("RV_ATMI_APPROX", lambda p, d, t: asy.rv_atmi_approx_err(p, t)),
)


def cmd_asymptote(config: RunConfig, stream) -> None:
    """Closed forms only: the Heston skew sign alone, or every mixed-model
    row of ``_LIMIT_ROWS`` and ``_APPROX_ROWS``; a skew of a zero vol-of-vol
    mean writes an empty row marked degenerate. Any other failure writes an
    error row and a ``# error`` comment line after the rows before it, then
    re-raises."""
    _write_header(config, "asymptote", stream)
    if config.model == "heston":
        value = asy.heston_vix_skew_sign(config.heston_k, config.nu, config.delta)
        sign = (value > 0.0) - (value < 0.0)
        stream.write(f"HESTON_VIX_SKEW_SIGN,,{_fmt(value)},0,sign={sign:+d}\n")
        stream.flush()
        return

    params, delta = config.model_params(), config.delta
    rows = [(formula_id, "", form, (params, delta)) for formula_id, form in _LIMIT_ROWS]
    rows += [(formula_id, _fmt(maturity), form, (params, delta, maturity))
             for maturity in config.maturities for formula_id, form in _APPROX_ROWS]
    for formula_id, maturity, form, args in rows:
        try:
            value, bound = form(*args)
        except DegenerateModelError:
            stream.write(f"{formula_id},{maturity},,,degenerate\n")
            continue
        except Exception as exc:
            where = f"{formula_id} T={maturity}" if maturity else formula_id
            stream.write(f"{formula_id},{maturity},,,error\n")
            stream.write(f"# error at {where}: {exc!r}\n")
            stream.flush()
            raise
        stream.write(f"{formula_id},{maturity},{_fmt(value)},{_fmt(bound)},ok\n")
    stream.flush()


def cmd_validate(config: RunConfig, stream) -> int:
    """Run the acceptance criteria; returns the number of failures."""
    failures = 0
    stream.write(
        f"{'criterion':<10s} {'status':<6s} {'achieved':>12s} {'tolerance':>12s} "
        f"{'seconds':>8s}  name\n"
    )
    stream.flush()
    for criterion in CRITERIA:
        result = run_criterion(criterion, quick=config.quick)
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        stream.write(
            f"{result.key:<10s} {status:<6s} {result.achieved:>12.4e} "
            f"{result.tolerance:>12.4e} {result.seconds:>8.1f}  {result.name}\n"
        )
        stream.flush()
        _log(f"validate {result.key}: {status} ({result.detail})")
    stream.write(f"# {len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed\n")
    stream.flush()
    return failures


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vixsmile",
        description=(
            "Short-maturity ATM implied-vol asymptotics for VIX and "
            "realized-variance options, validated by Monte Carlo."
        ),
        epilog=(
            "CSV columns: "
            + " | ".join(f"{name} -> {columns}" for name, columns in _COLUMNS.items())
            + ". For the rv underlying, limit_value is the power-law coefficient "
            "of T^(H-1/2). Floats carry 17 significant digits; outputs are "
            "byte-stable for a fixed seed, independent of --workers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("atmi", "Monte Carlo ATM implied vol vs closed forms (mixed model only)"),
        ("skew", "Monte Carlo ATM skew vs closed forms (mixed model only)"),
        ("asymptote", "closed-form values only, no simulation"),
        ("validate", "run the acceptance criteria suite at its fixed seeds and "
                     "path counts"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "validate":
            p.add_argument("--quick", action="store_true",
                           help="10x fewer paths, doubled tolerances for C1, C2, C4-C6")
        for key in _TAKES[name]:
            setting = _SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=setting.cast,
                           choices=setting.choices, help=setting.help)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags given; a setting no flag gives keeps its
    field default. A flag that the run mode does not read (``_UNREAD``)
    raises ValueError."""
    given = [key for key in _TAKES[args.command] if getattr(args, key) is not None]
    config = RunConfig(quick=getattr(args, "quick", False),
                       **{_SETTINGS[key].field: getattr(args, key) for key in given})
    unread = _unread(config, args.command)
    for key in given:
        if key in unread:
            raise ValueError(f"{args.command} with {unread[key]} does not read {key!r}")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        # Fail fast on invalid model parameters, maturities, window or output
        # path before any output or simulation.
        if config.model == "mixed":
            config.model_params()
        else:
            asy.heston_vix_skew_sign(config.heston_k, config.nu, config.delta)
        for maturity in config.maturities:
            config.sim_grid(maturity)
        own_stream = config.out_path not in ("-", "")
        stream = open(config.out_path, "w", encoding="utf-8") if own_stream else sys.stdout
    except (ValueError, OSError) as exc:
        _log(f"vixsmile: configuration error: {exc}")
        return 2

    try:
        if args.command == "atmi":
            cmd_atmi(config, stream)
        elif args.command == "skew":
            cmd_skew(config, stream)
        elif args.command == "asymptote":
            cmd_asymptote(config, stream)
        elif args.command == "validate":
            return 1 if cmd_validate(config, stream) else 0
        return 0
    except Exception as exc:
        _log(f"vixsmile: error: {exc!r}")
        return 1
    finally:
        if own_stream:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
