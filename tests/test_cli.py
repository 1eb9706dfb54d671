"""CLI tests: configuration plumbing, CSV schema, determinism, validate."""

import io
import math

import pytest

import vixsmile.acceptance as acceptance
import vixsmile.cli as cli
from vixsmile.asymptotics import heston_vix_skew_sign
from vixsmile.cli import RunConfig, cmd_atmi, cmd_skew, cmd_validate, main
from vixsmile.model import HestonParams


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a flag the subcommand does not take
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--paths", "4000", "--inner", "8", "--T", "0.25", "--seed", "11"]


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
        "inner = 8\n"
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


def test_config_file_accepts_every_setting_flag(tmp_path):
    keys = {
        "model": "mixed", "underlying": "rv", "v0": "0.04", "hurst": "0.3",
        "beta": "0", "gamma": "1", "nu": "2", "eta": "0", "delta": "0.08",
        "T": "0.25", "paths": "4000", "inner": "8", "seed": "5",
        "skew_step": "0.01", "out": "-", "workers": "1", "heston_k": "1",
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert cli.load_config_file(str(cfg)) == keys


def test_offsets_flag_and_key_are_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptote", "--offsets", "-0.1,0.1"])
    assert exc.value.code == 2
    cfg = tmp_path / "old.cfg"
    for line in ("offsets = -0.1,0.1\n", "config = other.cfg\n", "quick = 1\n"):
        cfg.write_text(line)
        code, _, err = run_cli(["asymptote", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown key" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VIXSMILE_SEED", "777")
    argv = ["atmi", "--paths", "4000", "--inner", "8", "--T", "0.25"]
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
    code, out, err = run_cli(["atmi", "--paths", "4000", "--inner", "8", "--T", "0.25"], capsys)
    assert code == 2
    assert out == ""
    assert "configuration error" in err
    # asymptote has no --seed: the variable is not read.
    code, out, _ = run_cli(["asymptote"], capsys)
    assert code == 0
    assert "seed" not in out.splitlines()[0]


_MODEL = ["v0", "hurst", "beta", "gamma", "nu", "eta", "delta", "T"]
_TAKES = {
    "atmi": ["config", "underlying", *_MODEL, "paths", "inner", "seed", "out", "workers"],
    "skew": ["config", "underlying", *_MODEL, "paths", "inner", "seed", "skew_step",
             "out", "workers"],
    "asymptote": ["config", "model", *_MODEL, "out", "heston_k"],
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


@pytest.mark.parametrize(
    "argv",
    [["asymptote", "--model", "heston", "--heston-theta", "5", "--v0", "0.04"],
     ["skew", "--model", "heston"] + BASE,
     ["validate", "--seed", "7"], ["validate", "--paths", "10"],
     ["asymptote", "--quick"], ["atmi", "--quick"] + BASE, ["skew", "--quick"] + BASE,
     ["asymptote", "--underlying", "rv"], ["asymptote", "--paths", "10"],
     ["asymptote", "--inner", "8"], ["asymptote", "--seed", "3"],
     ["asymptote", "--skew-step", "0.02"], ["asymptote", "--workers", "2"],
     ["atmi", "--skew-step", "0.02"] + BASE, ["atmi", "--heston-k", "2"] + BASE,
     ["atmi", "--model", "mixed"] + BASE,
     ["skew", "--heston-k", "2"] + BASE, ["skew", "--model", "mixed"] + BASE],
    ids=" ".join,
)
def test_dropped_inputs_exit_2_before_any_output(argv, capsys):
    # Inputs that changed no output are rejected, not ignored.
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command,line,key", [("asymptote", "paths = 10", "paths"),
                                              ("atmi", "model = heston", "model")])
def test_config_key_the_subcommand_does_not_take_exits_2(command, line, key,
                                                          tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "configuration error" in err and repr(key) in err and str(cfg) in err


def test_invalid_model_parameters_exit_nonzero(capsys):
    code, _, err = run_cli(["atmi", "--hurst", "0.9"] + BASE, capsys)
    assert code == 2
    assert "configuration error" in err


def _bad_flags(command, flag_lists):
    return [pytest.param(command, flags, id=f"{' '.join(flags)}-{command}")
            for flags in flag_lists]


_BAD_MODEL = [["--T", "nan"], ["--T", "inf"], ["--T", "0.1,inf"],
              ["--delta", "nan"], ["--delta", "0"]]
_BAD_STEP = [["--skew-step", "-1"], ["--skew-step", "0"], ["--skew-step", "nan"],
             ["--skew-step", "inf"]]
_BAD_MC = [["--paths", "1"], ["--paths", "2"]]


# Each subcommand only with the flags it takes.
@pytest.mark.parametrize(
    "command,flags",
    _bad_flags("atmi", _BAD_MODEL + _BAD_MC)
    + _bad_flags("skew", _BAD_MODEL + _BAD_STEP + _BAD_MC)
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
    for step in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError):
            RunConfig(skew_step=step)
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


_HEAD = ("v0=0.040000000000000001 hurst=0.29999999999999999 beta=0 gamma=1 nu=2 "
         "eta=0 delta=0.082191780821917804 T=0.25 paths=4000 inner=8 seed=11")


@pytest.mark.parametrize(
    "argv,header,columns",
    [
        (["atmi"] + BASE,
         "# vixsmile-csv schema=atmi.v1 underlying=vix " + _HEAD,
         "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status"),
        (["atmi", "--underlying", "rv"] + BASE,
         "# vixsmile-csv schema=atmi.v1 underlying=rv " + _HEAD,
         "T,mc_atmi,mc_stderr,approx_atmi,limit_value,rel_gap,status"),
        (["skew", "--gamma", "0.5", "--eta", "1"] + BASE,
         "# vixsmile-csv schema=skew.v1 underlying=vix "
         "v0=0.040000000000000001 hurst=0.29999999999999999 beta=0 gamma=0.5 "
         "nu=2 eta=1 delta=0.082191780821917804 T=0.25 paths=4000 inner=8 "
         "seed=11 skew_step=0.01",
         "T,mc_skew,mc_stderr,approx_skew,limit_value,status"),
        (["asymptote", "--gamma", "0.5", "--eta", "1", "--beta", "2",
          "--T", "0.1,0.5"],
         "# vixsmile-csv schema=asymptote.v1 model=mixed "
         "v0=0.040000000000000001 hurst=0.29999999999999999 beta=2 gamma=0.5 "
         "nu=2 eta=1 delta=0.082191780821917804 T=0.10000000000000001,0.5",
         "formula_id,maturity,value,quad_error_bound,status"),
        (["asymptote", "--model", "heston", "--heston-k", "1.5", "--nu", "0.3"],
         "# vixsmile-csv schema=asymptote.v1 model=heston "
         "v0=0.040000000000000001 hurst=0.29999999999999999 beta=0 gamma=1 "
         "nu=0.29999999999999999 eta=0 delta=0.082191780821917804 T=0.25 "
         "heston_k=1.5",
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


def test_atmi_sabr_tiny_maturity_row(capsys):
    # The SABR short-maturity level: the limit column is exactly half the
    # vol-of-vol and the MC column sits on it.
    code, out, _ = run_cli(
        ["atmi", "--hurst", "0.5", "--nu", "2", "--T", "0.0001",
         "--paths", "20000", "--inner", "16", "--seed", "7"],
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
    code, out, _ = run_cli(["atmi", "--underlying", "rv"] + BASE, capsys)
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
    # Test hook: corrupting a pinned tolerance must flip the exit status.
    monkeypatch.setattr(cli, "CRITERIA", _fast_criteria())
    monkeypatch.setitem(acceptance.TOLERANCES, "C9", -1.0)
    buffer = io.StringIO()
    failures = cmd_validate(RunConfig(quick=True), buffer)
    assert failures == 1
    assert "FAIL" in buffer.getvalue()


def test_validate_records_criterion_exceptions(monkeypatch):
    bad = acceptance.Criterion(
        "CX", "always broken", lambda quick: (_ for _ in ()).throw(RuntimeError("boom"))
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
