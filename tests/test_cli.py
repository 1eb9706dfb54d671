"""CLI tests: configuration plumbing, CSV schema, determinism, validate."""

import dataclasses
import io
import math

import pytest

import vixsmile.acceptance as acceptance
import vixsmile.asymptotics as asy
import vixsmile.cli as cli
from vixsmile.asymptotics import heston_vix_skew_sign
from vixsmile.cli import RunConfig, cmd_atmi, cmd_skew, cmd_validate, main
from vixsmile.model import HestonParams
from vixsmile.specfun import QuadratureError


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a flag the subcommand does not take
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The VIX draws take a fixed window rule, so --inner is for the RV only.
BASE = ["--paths", "4000", "--T", "0.25", "--seed", "11"]
RV = ["--underlying", "rv", "--inner", "8"]


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment configuration\n"
        "hurst = 0.4\n"
        "nu = 1.5\n"
        "paths = 4000\n"
        "T = 0.25\n"
        "seed = 5\n"
    )
    code, out, _ = run_cli(["atmi", "--config", str(cfg), "--nu", "2.5"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert "hurst=0.40000000000000002" in header  # from the file
    assert "nu=2.5" in header                      # flag wins
    assert "seed=5" in header


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volatility = 2\n")
    code, _, err = run_cli(["asymptote", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown key" in err


def test_config_file_rejects_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("hurst = 0.1\nnu = 2\n# later\nhurst = 0.3\n")
    code, out, err = run_cli(["asymptote", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:4: key 'hurst' repeats line 1" in err


def test_config_file_accepts_every_setting_flag(tmp_path):
    keys = {
        "model": "mixed", "underlying": "rv", "v0": "0.04", "hurst": "0.3",
        "beta": "0", "gamma": "1", "nu": "2", "eta": "0", "delta": "0.08",
        "T": "0.25", "paths": "4000", "inner": "8", "seed": "5",
        "out": "-", "workers": "1", "heston_k": "1",
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert cli.load_config_file(str(cfg)) == keys


def test_offsets_flag_and_key_are_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptote", "--offsets", "-0.1,0.1"])
    assert exc.value.code == 2
    cfg = tmp_path / "old.cfg"
    for line in ("offsets = -0.1,0.1\n", "config = other.cfg\n", "quick = 1\n",
                 "skew_step = 0.01\n"):
        cfg.write_text(line)
        code, _, err = run_cli(["asymptote", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown key" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VIXSMILE_SEED", "777")
    argv = ["atmi", "--paths", "4000", "--T", "0.25"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "seed=777" in out.splitlines()[0]
    # explicit flag still wins
    code, out, _ = run_cli(argv + ["--seed", "3"], capsys)
    assert "seed=3" in out.splitlines()[0]


def test_env_seed_read_only_by_subcommands_with_a_seed(capsys, monkeypatch):
    monkeypatch.setenv("VIXSMILE_SEED", "abc")
    monkeypatch.setattr(cli, "CRITERIA", _fast_criteria())
    code, out, _ = run_cli(["validate", "--quick"], capsys)
    assert code == 0
    assert "2/2 criteria passed" in out
    code, out, err = run_cli(["atmi", "--paths", "4000", "--T", "0.25"], capsys)
    assert code == 2
    assert out == ""
    assert "configuration error" in err
    # asymptote has no --seed: the variable is not read.
    code, out, _ = run_cli(["asymptote"], capsys)
    assert code == 0
    assert "seed" not in out.splitlines()[0]


_MODEL = ["hurst", "beta", "gamma", "nu", "eta", "delta", "T"]
_TAKES = {
    "atmi": ["config", "underlying", *_MODEL, "paths", "inner", "seed", "out", "workers"],
    "skew": ["config", "underlying", *_MODEL, "paths", "inner", "seed", "out", "workers"],
    "asymptote": ["config", "model", "v0", *_MODEL, "out", "heston_k"],
    "validate": ["quick", "out"],
}


def test_unset_settings_keep_the_run_config_defaults(monkeypatch):
    monkeypatch.delenv("VIXSMILE_SEED", raising=False)
    for command, takes in _TAKES.items():
        args = cli.build_parser().parse_args([command])
        # Each subcommand has exactly the flags of the settings it reads.
        assert sorted(vars(args)) == sorted(["command", *takes]), command
        assert cli.resolve_config(args) == RunConfig()


def test_validate_takes_only_quick_and_out(monkeypatch, tmp_path):
    monkeypatch.delenv("VIXSMILE_SEED", raising=False)
    out = str(tmp_path / "rows.txt")
    args = cli.build_parser().parse_args(["validate", "--quick", "--out", out])
    assert set(vars(args)) == {"command", "quick", "out"}
    assert cli.resolve_config(args) == RunConfig(quick=True, out_path=out)


# Argparse rejects each flag below before any setting is resolved, so this
# run tail, which passes --inner to a VIX run, is never read.
_REJECTED_TAIL = ["--paths", "4000", "--inner", "8", "--T", "0.25", "--seed", "11"]


@pytest.mark.parametrize(
    "argv",
    [["asymptote", "--model", "heston", "--heston-theta", "5", "--v0", "0.04"],
     ["skew", "--model", "heston"] + _REJECTED_TAIL,
     ["validate", "--seed", "7"], ["validate", "--paths", "10"],
     ["asymptote", "--quick"], ["atmi", "--quick"] + _REJECTED_TAIL,
     ["skew", "--quick"] + _REJECTED_TAIL,
     ["asymptote", "--underlying", "rv"], ["asymptote", "--paths", "10"],
     ["asymptote", "--inner", "8"], ["asymptote", "--seed", "3"],
     ["asymptote", "--skew-step", "0.02"], ["asymptote", "--workers", "2"],
     ["atmi", "--skew-step", "0.02"] + _REJECTED_TAIL,
     ["skew", "--skew-step", "0.02"] + _REJECTED_TAIL,
     ["atmi", "--heston-k", "2"] + _REJECTED_TAIL,
     ["atmi", "--model", "mixed"] + _REJECTED_TAIL,
     ["skew", "--heston-k", "2"] + _REJECTED_TAIL,
     ["skew", "--model", "mixed"] + _REJECTED_TAIL,
     ["atmi", "--v0", "0.09"], ["skew", "--v0", "0.09"]],
    ids=" ".join,
)
def test_dropped_inputs_exit_2_before_any_output(argv, capsys):
    # Inputs that changed no output are rejected, not ignored.
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command,line,key", [("asymptote", "paths = 10", "paths"),
                                              ("atmi", "model = heston", "model"),
                                              ("atmi", "v0 = 0.09", "v0"),
                                              ("skew", "v0 = 0.09", "v0")])
def test_config_key_the_subcommand_does_not_take_exits_2(command, line, key,
                                                          tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "configuration error" in err and repr(key) in err and str(cfg) in err


_MODE_UNREAD = (
    [("asymptote", ["--model", "heston"], key) for key in ("hurst", "beta", "gamma", "eta", "T")]
    + [("asymptote", mode, key) for mode in (["--model", "mixed"], [])
       for key in ("heston_k", "v0")]
    + [(command, ["--underlying", "rv"] + BASE, "delta") for command in ("atmi", "skew")]
    + [(command, mode + BASE, "inner") for command in ("atmi", "skew")
       for mode in (["--underlying", "vix"], [])]
)
_MODE_VALUES = {"hurst": "0.1", "beta": "2", "gamma": "0.5", "eta": "1", "T": "0.5",
                "heston_k": "2", "v0": "0.09", "delta": "0.5", "inner": "16"}


@pytest.mark.parametrize("command,mode,key", _MODE_UNREAD,
                         ids=[" ".join([c, *m[:2], k]) for c, m, k in _MODE_UNREAD])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_setting_the_run_mode_does_not_read_exits_2(command, mode, key, source,
                                                     tmp_path, capsys):
    # The heston model writes only the VIX skew sign, the mixed model's
    # closed forms read neither the Heston reversion speed nor the variance
    # level, the RV formulas and draws have no window, and the VIX draws
    # take a fixed window rule: such a setting would change no row.
    if source == "flag":
        extra = ["--" + key.replace("_", "-"), _MODE_VALUES[key]]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {_MODE_VALUES[key]}\n")
        extra = ["--config", str(cfg)]
    code, out, err = run_cli([command] + mode + extra, capsys)
    assert code == 2
    assert out == ""
    assert "configuration error" in err and f"does not read {key!r}" in err


def test_model_and_underlying_from_the_config_file_select_the_mode(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = heston\nhurst = 0.1\n")
    code, out, err = run_cli(["asymptote", "--config", str(cfg)], capsys)
    assert code == 2 and out == "" and "model=heston does not read 'hurst'" in err
    cfg.write_text("underlying = rv\n")
    code, out, err = run_cli(["atmi", "--config", str(cfg), "--delta", "0.5"] + BASE, capsys)
    assert code == 2 and out == "" and "underlying=rv does not read 'delta'" in err
    cfg.write_text("underlying = vix\n")
    code, out, err = run_cli(["atmi", "--config", str(cfg), "--inner", "16"] + BASE, capsys)
    assert code == 2 and out == "" and "underlying=vix does not read 'inner'" in err


def test_invalid_model_parameters_exit_nonzero(capsys):
    code, _, err = run_cli(["atmi", "--hurst", "0.9"] + BASE, capsys)
    assert code == 2
    assert "configuration error" in err


def _bad_flags(command, flag_lists):
    return [pytest.param(command, flags, id=f"{' '.join(flags)}-{command}")
            for flags in flag_lists]


_BAD_MODEL = [["--T", "nan"], ["--T", "inf"], ["--T", "0.1,inf"],
              ["--delta", "nan"], ["--delta", "0"]]
_BAD_MC = [["--paths", "1"], ["--paths", "2"]]


# Each subcommand only with the flags it takes.
@pytest.mark.parametrize(
    "command,flags",
    _bad_flags("atmi", _BAD_MODEL + _BAD_MC)
    + _bad_flags("skew", _BAD_MODEL + _BAD_MC)
    + _bad_flags("asymptote", _BAD_MODEL),
)
def test_non_finite_maturity_or_window_fails_before_any_output(command, flags, capsys):
    base = [] if command == "asymptote" else BASE
    code, out, err = run_cli([command] + base + flags, capsys)
    assert code == 2
    assert "configuration error" in err
    assert out == ""


def test_atmi_heston_model_is_a_configuration_error(capsys):
    # No Heston simulator or ATMI formula exists: the rows would be the
    # mixed model's under a Heston header. atmi has no --model.
    code, out, err = run_cli(["atmi", "--model", "heston"] + BASE, capsys)
    assert code == 2
    assert "unrecognized arguments: --model heston" in err
    assert out == ""


@pytest.mark.parametrize("command", ["skew", "asymptote"])
def test_heston_model_rv_underlying_is_a_configuration_error(command, capsys):
    # The only Heston formula is the VIX skew sign: its rows would sit under
    # an underlying=rv header. skew has no --model, asymptote no --underlying.
    code, out, err = run_cli([command, "--model", "heston", "--underlying", "rv"], capsys)
    assert code == 2
    dropped = "--model heston" if command == "skew" else "--underlying rv"
    assert f"unrecognized arguments: {dropped}" in err
    assert out == ""


def test_unwritable_output_path_is_a_configuration_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "rows.csv"
    code, out, err = run_cli(["asymptote", "--out", str(missing)], capsys)
    assert code == 2
    assert "configuration error" in err and "Traceback" not in err
    assert out == ""
    assert not missing.parent.exists()


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(model="local")
    with pytest.raises(ValueError):
        RunConfig(maturities=[])
    with pytest.raises(ValueError):
        RunConfig(maturities=[-0.1])
    for n_paths in (0, 1, 2):  # below the skew jackknife's three paths
        with pytest.raises(ValueError):
            RunConfig(n_paths=n_paths)
    assert RunConfig(n_paths=3).n_paths == 3


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_atmi_csv_shape_and_determinism(capsys):
    argv = ["atmi"] + BASE + ["--workers", "1"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].startswith("# vixsmile-csv schema=atmi.v1")
    assert lines[1] == "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status"
    assert lines[2].endswith(",ok")
    assert len(lines) == 3


_HEAD = ("hurst=0.29999999999999999 beta=0 gamma=1 nu=2 "
         "eta=0 delta=0.082191780821917804 T=0.25 paths=4000 seed=11")


@pytest.mark.parametrize(
    "argv,header,columns",
    [
        (["atmi"] + BASE,
         "# vixsmile-csv schema=atmi.v1 underlying=vix " + _HEAD,
         "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status"),
        (["atmi"] + RV + BASE,
         "# vixsmile-csv schema=atmi.v1 underlying=rv "
         + _HEAD.replace(" delta=0.082191780821917804", "").replace(" seed", " inner=8 seed"),
         "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status"),
        (["skew", "--gamma", "0.5", "--eta", "1"] + BASE,
         "# vixsmile-csv schema=skew.v1 underlying=vix "
         "hurst=0.29999999999999999 beta=0 gamma=0.5 "
         "nu=2 eta=1 delta=0.082191780821917804 T=0.25 paths=4000 seed=11",
         "T,mc_skew,mc_stderr,approx_skew,limit_value,status"),
        (["asymptote", "--gamma", "0.5", "--eta", "1", "--beta", "2",
          "--T", "0.1,0.5"],
         "# vixsmile-csv schema=asymptote.v1 model=mixed "
         "hurst=0.29999999999999999 beta=2 gamma=0.5 "
         "nu=2 eta=1 delta=0.082191780821917804 T=0.10000000000000001,0.5",
         "formula_id,maturity,value,quad_error_bound,status"),
        (["asymptote", "--model", "heston", "--heston-k", "1.5", "--nu", "0.3"],
         "# vixsmile-csv schema=asymptote.v1 model=heston "
         "v0=0.040000000000000001 nu=0.29999999999999999 "
         "delta=0.082191780821917804 heston_k=1.5",
         "formula_id,maturity,value,quad_error_bound,status"),
    ],
    ids=["atmi-vix", "atmi-rv", "skew-mixed", "asymptote-mixed", "asymptote-heston"],
)
def test_header_and_column_lines_are_pinned(argv, header, columns, capsys, monkeypatch):
    monkeypatch.delenv("VIXSMILE_SEED", raising=False)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines()[:2] == [header, columns]


def test_atmi_csv_worker_count_invariance(capsys):
    base = ["atmi"] + BASE
    _, out1, _ = run_cli(base + ["--workers", "1"], capsys)
    _, out4, _ = run_cli(base + ["--workers", "4"], capsys)
    assert out1 == out4


@pytest.mark.parametrize("underlying, builder", [("vix", "build_vix_sampler"),
                                                  ("rv", "build_rv_sampler")])
def test_failing_sampler_build_stops_at_its_maturity(underlying, builder, monkeypatch):
    # The maturities share one draw, built first: a sampler that fails to
    # build still leaves the rows before it, then its own error row and
    # comment, then the error itself.
    config = RunConfig(underlying=underlying, maturities=[0.1, 0.25, 0.5], n_paths=5000,
                       n_inner=8, seed=11, workers=2)
    lone = io.StringIO()
    cmd_atmi(RunConfig(**{**vars(config), "maturities": [0.1]}), lone)
    build = getattr(cli, builder)

    def failing_build(params, grid):
        if grid.T == 0.25:
            raise RuntimeError("no sampler at T=0.25")
        return build(params, grid)

    monkeypatch.setattr(cli, builder, failing_build)
    stream = io.StringIO()
    with pytest.raises(RuntimeError, match="no sampler at T=0.25"):
        cmd_atmi(config, stream)
    assert stream.getvalue().splitlines()[2:] == [
        lone.getvalue().splitlines()[2],
        "0.25,,,,,,error",
        "# error at T=0.25: RuntimeError('no sampler at T=0.25')",
    ]


def test_atmi_sabr_tiny_maturity_row(capsys):
    # The SABR short-maturity level: the limit column is exactly half the
    # vol-of-vol and the MC column sits on it.
    code, out, _ = run_cli(
        ["atmi", "--hurst", "0.5", "--nu", "2", "--T", "0.0001",
         "--paths", "20000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    fields = out.splitlines()[2].split(",")
    assert float(fields[4]) == 1.0          # limit_value
    assert float(fields[1]) == pytest.approx(1.0, rel=0.05)


def test_atmi_degenerate_marker(capsys):
    code, out, _ = run_cli(["atmi", "--nu", "0", "--eta", "0"] + BASE, capsys)
    assert code == 0
    row = out.splitlines()[2]
    assert row.endswith(",degenerate")
    assert row.split(",")[4] == "0"  # limit_value


def test_atmi_rv_underlying(capsys):
    code, out, _ = run_cli(["atmi"] + RV + BASE, capsys)
    assert code == 0
    fields = out.splitlines()[2].split(",")
    assert fields[-1] == "ok"
    assert float(fields[1]) > 0.0


def test_atmi_writes_to_file(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run_cli(["atmi"] + BASE + ["--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("# vixsmile-csv")


def test_skew_csv_rv_mode(capsys):
    code, out, _ = run_cli(
        ["skew", "--underlying", "rv", "--paths", "4000", "--inner", "8",
         "--T", "0.5", "--seed", "11"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "T,mc_skew,mc_stderr,approx_skew,limit_value,status"
    fields = lines[2].split(",")
    assert fields[-1] == "ok"
    # rv approx column carries the power-law-scaled limit
    assert float(fields[3]) == pytest.approx(
        float(fields[4]) * 0.5 ** (0.3 - 0.5), rel=1e-12
    )


def test_asymptote_lists_formulas(capsys):
    code, out, _ = run_cli(["asymptote", "--T", "0.25"], capsys)
    assert code == 0
    body = out.splitlines()[2:]
    ids = {line.split(",")[0] for line in body}
    assert {"VIX_ATMI_LIMIT", "VIX_SKEW_LIMIT", "RV_ATMI_LIMIT",
            "RV_SKEW_LIMIT", "SABR_VIX_SKEW", "VIX_ATMI_APPROX",
            "VIX_SKEW_APPROX", "RV_ATMI_APPROX"} <= ids


# Each mixed-model asymptote row's public function of (params, delta, T),
# and the _err function of the four quadrature-backed ones.
_ASYMPTOTE_LIMITS = {
    "VIX_ATMI_LIMIT": (lambda p, d, t: asy.vix_atmi_limit(p, d), None),
    "VIX_SKEW_LIMIT": (lambda p, d, t: asy.vix_skew_limit(p, d), None),
    "SABR_VIX_SKEW": (lambda p, d, t: asy.sabr_mixed_vix_skew(p.gamma, p.nu, p.eta), None),
    "RV_ATMI_LIMIT": (lambda p, d, t: asy.rv_atmi_limit(p), None),
    "RV_SKEW_LIMIT": (lambda p, d, t: asy.rv_skew_limit(p),
                      lambda p, d, t: asy.rv_skew_limit_err(p)),
}
_ASYMPTOTE_APPROXIMATIONS = {
    "VIX_ATMI_APPROX": (asy.vix_atmi_approx, asy.vix_atmi_approx_err),
    "VIX_SKEW_APPROX": (asy.vix_skew_approx, asy.vix_skew_approx_err),
    "RV_ATMI_APPROX": (lambda p, d, t: asy.rv_atmi_approx(p, t),
                       lambda p, d, t: asy.rv_atmi_approx_err(p, t)),
}


@pytest.mark.parametrize("formula_id", [*_ASYMPTOTE_LIMITS, *_ASYMPTOTE_APPROXIMATIONS])
@pytest.mark.parametrize("hurst", [0.1, 0.5])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("mixed", [False, True])
def test_asymptote_rows_equal_the_public_functions(formula_id, hurst, beta, mixed, capsys):
    model = {"gamma": 0.5, "nu": 3.0, "eta": 1.0} if mixed else {}
    flags = [text for key, value in model.items() for text in (f"--{key}", str(value))]
    code, out, _ = run_cli(["asymptote", "--hurst", str(hurst), "--beta", str(beta),
                            *flags, "--T", "1e-3,0.5"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    # The five limits, then the three approximations at each maturity.
    assert [(row[0], row[1]) for row in rows] == (
        [(name, "") for name in _ASYMPTOTE_LIMITS]
        + [(name, maturity) for maturity in ("0.001", "0.5")
           for name in _ASYMPTOTE_APPROXIMATIONS])
    assert all(row[4] == "ok" for row in rows)
    config = RunConfig(hurst=hurst, beta=beta, **model)
    params, delta = config.model_params(), config.delta
    public, err = {**_ASYMPTOTE_LIMITS, **_ASYMPTOTE_APPROXIMATIONS}[formula_id]
    own = [row for row in rows if row[0] == formula_id]
    assert len(own) == (1 if formula_id in _ASYMPTOTE_LIMITS else 2)
    for _, maturity, value, bound, _ in own:
        maturity = float(maturity) if maturity else None
        assert float(value) == public(params, delta, maturity)
        assert float(bound) == (err(params, delta, maturity)[1] if err else 0.0)


@pytest.mark.parametrize("k,delta,sign", [("1", "0.082191780821917804", "-1"),
                                          ("100", "1", "+1")])
def test_asymptote_heston_row_signs_its_value(k, delta, sign, capsys):
    code, out, _ = run_cli(["asymptote", "--model", "heston", "--heston-k", k,
                            "--nu", "0.3", "--v0", "0.09", "--delta", delta], capsys)
    assert code == 0
    params = HestonParams(k=float(k), nu=0.3, v0=0.09)
    value = heston_vix_skew_sign(params, float(delta))
    assert (value > 0.0) - (value < 0.0) == int(sign)
    assert out.splitlines()[2:] == [
        f"HESTON_VIX_SKEW_SIGN,,{format(value, '.17g')},0,sign={sign}"]


def test_asymptote_failing_row_writes_its_error_then_exits_1(monkeypatch, capsys):
    # A form that fails other than degenerately leaves the rows before it,
    # then its own error row and comment, and the run exits 1.
    def failing(p, d, t):
        raise QuadratureError("no skew", 0.5, 1e-3)

    rows = tuple((formula_id, failing if formula_id == "VIX_SKEW_APPROX" else form)
                 for formula_id, form in cli._APPROX_ROWS)
    monkeypatch.setattr(cli, "_APPROX_ROWS", rows)
    code, out, err = run_cli(["asymptote", "--T", "0.25"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert [line.split(",")[0] for line in lines[2:-2]] == [
        "VIX_ATMI_LIMIT", "VIX_SKEW_LIMIT", "SABR_VIX_SKEW", "RV_ATMI_LIMIT",
        "RV_SKEW_LIMIT", "VIX_ATMI_APPROX"]
    assert lines[-2:] == [
        "VIX_SKEW_APPROX,0.25,,,error",
        "# error at VIX_SKEW_APPROX T=0.25: QuadratureError('no skew "
        "(estimate=0.5, error_bound=0.001)')",
    ]
    assert "QuadratureError" in err


def test_asymptote_degenerate_rows(capsys):
    code, out, _ = run_cli(["asymptote", "--nu", "0", "--eta", "0"], capsys)
    assert code == 0
    skew_rows = [l for l in out.splitlines() if l.startswith("VIX_SKEW_LIMIT")]
    assert skew_rows and skew_rows[0].endswith("degenerate")


# ---------------------------------------------------------------------------
# validate harness
# ---------------------------------------------------------------------------

def _fast_criteria():
    return [c for c in acceptance.CRITERIA if c.key in ("C3", "C9")]


def test_validate_passes_on_fast_subset(monkeypatch):
    monkeypatch.setattr(cli, "CRITERIA", _fast_criteria())
    buffer = io.StringIO()
    failures = cmd_validate(RunConfig(quick=True), buffer)
    assert failures == 0
    text = buffer.getvalue()
    assert "C3" in text and "C9" in text and "PASS" in text
    assert "2/2 criteria passed" in text


def test_validate_corrupted_tolerance_fails(monkeypatch):
    # A row whose pinned tolerance is corrupted must flip the exit status.
    c3, c9 = _fast_criteria()
    corrupted = dataclasses.replace(c9, tolerance=-1.0, quick_tolerance=-1.0)
    monkeypatch.setattr(cli, "CRITERIA", [c3, corrupted])
    buffer = io.StringIO()
    failures = cmd_validate(RunConfig(quick=True), buffer)
    assert failures == 1
    assert "FAIL" in buffer.getvalue()


def test_validate_records_criterion_exceptions(monkeypatch):
    bad = acceptance.Criterion(
        "CX", "always broken", 1.0, 1.0,
        lambda quick, pairs: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    monkeypatch.setattr(cli, "CRITERIA", [bad])
    buffer = io.StringIO()
    failures = cmd_validate(RunConfig(quick=True), buffer)
    assert failures == 1
    assert math.isinf(acceptance.run_criterion(bad, True).achieved)


def test_validate_quick_full_run_passes_within_budget(capsys):
    # End to end with the real criteria list at reduced scale.
    import time

    start = time.perf_counter()
    code, out, _ = run_cli(["validate", "--quick"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "11/11 criteria passed" in out
    assert elapsed < 120.0
