"""Command-line front end: experiment orchestration and CSV emission.

Subcommands
-----------
atmi       simulate each maturity, emit MC ATM implied vol vs the
           closed-form approximation and limit (mixed model only)
skew       same for the central-difference ATM skew (mixed model only)
asymptote  closed forms only, no simulation
validate   run the acceptance criteria end to end at their fixed seeds and
           path counts; nonzero exit on failure

Every setting is declared once, in ``_SETTINGS``: its flag, config-file key,
caster, help text and header echo. ``_TAKES`` declares which settings each
subcommand reads; its flags, the config-file keys it accepts and its header
echo all come from that one row, so a flag or a known config-file key that
the subcommand does not read exits 2 before any output. The first three
subcommands also take ``--config`` and ``validate`` takes ``--quick``.
Configuration is flat ``key = value`` text (``#`` comments) overridden by
command-line flags of the same names; ``VIXSMILE_SEED`` is the seed
fallback of the subcommands that take ``--seed``. CSV goes to ``--out`` or
stdout with a schema/parameter header line; floats are printed with 17
significant digits so outputs are byte-stable. ``atmi`` and ``skew`` share
one row loop over the maturities. Logs go to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from . import asymptotics as asy
from .acceptance import CRITERIA, run_criterion
from .asymptotics import DegenerateModelError, FormulaId, evaluate
from .mc import SimGrid, build_vix_sampler, sample_rv, sample_vix
from .model import HestonParams, ModelParams
from .pricing import DEFAULT_SKEW_STEP, atmi, atmi_skew

__all__ = ["RunConfig", "cmd_atmi", "cmd_skew", "cmd_asymptote", "cmd_validate", "main"]

SCHEMA_VERSION = "v1"


@dataclass
class RunConfig:
    """Resolved run configuration. Each setting comes from its flag, else the
    config file, else the field default below; the seed alone falls back to
    ``VIXSMILE_SEED`` before its default (see :func:`resolve_config`)."""

    model: str = "mixed"
    underlying: str = "vix"
    v0: float = 0.04
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
    skew_step: float = DEFAULT_SKEW_STEP
    out_path: str = "-"
    workers: int = 0  # 0: all cores
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
        if not (self.skew_step > 0.0 and math.isfinite(self.skew_step)):
            raise ValueError(f"skew_step must be positive and finite, got {self.skew_step!r}")
        if self.workers < 0:
            raise ValueError("workers must be nonnegative")

    @property
    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    def model_params(self) -> ModelParams:
        return ModelParams(v0=self.v0, H=self.hurst, beta=self.beta,
                           gamma=self.gamma, nu=self.nu, eta=self.eta)

    def heston_params(self) -> HestonParams:
        return HestonParams(k=self.heston_k, nu=self.nu, v0=self.v0)

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
    cast: Callable[[str], Any]  # of the flag or config-file text
    help: str | None = None
    echo: Callable[[Any], str] | None = _fmt  # header text; None: not echoed
    choices: tuple[str, ...] | None = None


# Every setting, keyed by its config-file key, which is also its flag's dest
# ("--skew-step" -> "skew_step") and its header name. The defaults live only
# in RunConfig. Out and workers are not echoed: they do not affect the
# numbers, and the byte-identity contract must hold across worker counts.
_SETTINGS: dict[str, _Setting] = {
    "model": _Setting("model", str, None, str, ("mixed", "heston")),
    "underlying": _Setting("underlying", str, None, str, ("vix", "rv")),
    "v0": _Setting("v0", float, "initial instantaneous variance"),
    "hurst": _Setting("hurst", float, "Hurst parameter in (0, 1/2]"),
    "beta": _Setting("beta", float, "kernel mean-reversion rate"),
    "gamma": _Setting("gamma", float, "mixing weight in [0, 1]"),
    "nu": _Setting("nu", float, "first vol-of-vol"),
    "eta": _Setting("eta", float, "second vol-of-vol"),
    "delta": _Setting("delta", float, "averaging window in years"),
    "T": _Setting("maturities", _parse_float_list, "comma list of maturities",
                  lambda ts: ",".join(_fmt(t) for t in ts)),
    "paths": _Setting("n_paths", int, "Monte Carlo paths", str),
    "inner": _Setting("n_inner", int, "inner quadrature nodes", str),
    "seed": _Setting("seed", int, "RNG seed (VIXSMILE_SEED fallback)", str),
    "skew_step": _Setting("skew_step", float, "central-difference log-strike step"),
    "out": _Setting("out_path", str, "output path ('-' for stdout)", None),
    "workers": _Setting("workers", int, "parallel workers (0: all cores)", None),
    # Echoed for the heston model only.
    "heston_k": _Setting("heston_k", float, "Heston reversion speed (heston model only)"),
}

# The settings each subcommand reads, in _SETTINGS order: its flags, the
# config-file keys it accepts and its header echo. atmi and skew simulate
# only the mixed model; asymptote writes the VIX and the RV closed forms
# whatever the underlying, and no Monte Carlo setting reaches them.
_CLOSED_FORM = ("v0", "hurst", "beta", "gamma", "nu", "eta", "delta", "T")
_MC = ("paths", "inner", "seed")
_TAKES: dict[str, tuple[str, ...]] = {
    "atmi": ("underlying", *_CLOSED_FORM, *_MC, "out", "workers"),
    "skew": ("underlying", *_CLOSED_FORM, *_MC, "skew_step", "out", "workers"),
    "asymptote": ("model", *_CLOSED_FORM, "out", "heston_k"),
    "validate": ("out",),
}

_COLUMNS = {
    "atmi": "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status",
    "skew": "T,mc_skew,mc_stderr,approx_skew,limit_value,status",
    "asymptote": "formula_id,maturity,value,quad_error_bound,status",
}


def _write_header(config: RunConfig, schema: str, stream) -> None:
    """The schema/parameter header line, echoing the settings the subcommand
    named by ``schema`` reads, then the column line."""
    values = vars(config)
    fields = [f"{key}={setting.echo(values[setting.field])}"
              for key, setting in _SETTINGS.items()
              if key in _TAKES[schema] and setting.echo
              and (config.model == "heston" or not key.startswith("heston_"))]
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
    a fresh draw of the underlying, or zeros marked degenerate when the
    vol-of-vol mean is zero. A failing maturity writes an error row and a
    comment line, then re-raises."""
    params = config.model_params()
    _write_header(config, schema, stream)
    width = _COLUMNS[schema].count(",") - 1  # the values between T and status
    for maturity in config.maturities:
        try:
            if params.volvol_mean == 0.0:
                values, status = [0.0] * width, "degenerate"
            else:
                _log(f"{schema}: simulating {config.underlying} at T={maturity:g}")
                grid = config.sim_grid(maturity)
                if config.underlying == "vix":
                    batch = sample_vix(build_vix_sampler(params, grid),
                                       workers=config.effective_workers)
                else:
                    batch = sample_rv(params, grid, workers=config.effective_workers)
                values, status = row_values(params, batch, maturity), "ok"
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
        rel_gap = abs(approx - vol) / vol if vol > 0.0 else math.inf
        return [vol, stderr, approx, limit, rel_gap]

    _simulated_rows(config, stream, "atmi", row_values)


def cmd_skew(config: RunConfig, stream) -> None:
    """One row per maturity: MC central-difference skew vs approximation/limit."""

    def row_values(params: ModelParams, batch, maturity: float) -> list[float]:
        if config.underlying == "vix":
            approx = asy.vix_skew_approx(params, config.delta, maturity)
            limit = asy.vix_skew_limit(params, config.delta)
        else:
            limit = asy.rv_skew_limit(params)
            approx = limit * maturity ** (params.H - 0.5)
        value, stderr = atmi_skew(batch, maturity, step=config.skew_step)
        return [value, stderr, approx, limit]

    _simulated_rows(config, stream, "skew", row_values)


def cmd_asymptote(config: RunConfig, stream) -> None:
    """Closed forms only: every formula applicable to the configuration."""
    _write_header(config, "asymptote", stream)

    def write_row(fid: FormulaId, maturity: float | None) -> None:
        params = (config.heston_params() if fid is FormulaId.HESTON_VIX_SKEW_SIGN
                  else config.model_params())
        head = f"{fid.value},{'' if maturity is None else _fmt(maturity)}"
        try:
            res = evaluate(fid, params, delta=config.delta, maturity=maturity)
        except DegenerateModelError:
            stream.write(f"{head},,,degenerate\n")
            return
        status = "ok"
        if fid is FormulaId.HESTON_VIX_SKEW_SIGN:
            status = f"sign={(res.value > 0.0) - (res.value < 0.0):+d}"
        stream.write(f"{head},{_fmt(res.value)},{_fmt(res.quad_error_bound)},{status}\n")

    if config.model == "heston":
        write_row(FormulaId.HESTON_VIX_SKEW_SIGN, None)
        stream.flush()
        return

    for fid in (FormulaId.VIX_ATMI_LIMIT, FormulaId.VIX_SKEW_LIMIT,
                FormulaId.SABR_VIX_SKEW, FormulaId.RV_ATMI_LIMIT,
                FormulaId.RV_SKEW_LIMIT):
        write_row(fid, None)
    for maturity in config.maturities:
        for fid in (FormulaId.VIX_ATMI_APPROX, FormulaId.VIX_SKEW_APPROX,
                    FormulaId.RV_ATMI_APPROX):
            write_row(fid, maturity)
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

def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` pairs; ``#`` starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


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
        else:
            p.add_argument("--config", help="flat key=value config file")
        for key in _TAKES[name]:
            setting = _SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=setting.cast,
                           choices=setting.choices, help=setting.help)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags, else the config file, else (seed only, and
    only for a subcommand with ``--seed``) ``VIXSMILE_SEED``; a setting none
    of them gives keeps its field default. A config-file key that the
    subcommand does not read raises ValueError, as its flag would exit 2."""
    takes = _TAKES[args.command]
    config_path = getattr(args, "config", None)
    settings = load_config_file(config_path) if config_path else {}
    for key in settings:
        if key not in takes:
            raise ValueError(f"{config_path}: {args.command} does not take {key!r}")
    values = {}
    for key in takes:
        setting = _SETTINGS[key]
        value = getattr(args, key)
        if value is None and key in settings:
            value = setting.cast(settings[key])
        if value is not None:
            values[setting.field] = value
    if "seed" in takes and "seed" not in values and "VIXSMILE_SEED" in os.environ:
        values["seed"] = int(os.environ["VIXSMILE_SEED"])
    return RunConfig(quick=getattr(args, "quick", False), **values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        # Fail fast on invalid model parameters, maturities, window or output
        # path before any output or simulation.
        if config.model == "mixed":
            config.model_params()
        else:
            config.heston_params()
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
