"""CLI behaviour: renderings, exit codes, figure sweeps, golden projections.

Golden tests assert that CSV output reproduces direct library calls bit for
bit, guaranteeing no physics is computed in the CLI layer.
"""

import argparse
import contextlib
import csv
import io
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairgate import cli, model
from pairgate.materials import MATERIALS_ENV_VAR
from pairgate.model import Medium, Process, PumpDrive, triplet_from_wavelengths


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criteria_prints_quoted_constants(capsys):
    code, out, _ = run_cli(["criteria"], capsys)
    assert code == 0
    for token in ("0.369", "0.738", "1.718"):
        assert token in out
    # full-precision column present
    assert repr(model.limit_criteria().pairs_limit) in out


def test_criteria_csv_golden(capsys):
    code, out, _ = run_cli(["criteria", "--format", "csv"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    crit = model.limit_criteria()
    assert float(row["pairs_per_bandwidth_limit"]) == crit.pairs_limit
    assert float(row["photons_per_bandwidth_limit"]) == crit.photons_limit
    assert float(row["field_ratio_limit"]) == crit.field_ratio_limit


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def test_classify_at_limit_example(capsys):
    code, out, _ = run_cli(
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--lambda-s", "1um", "--lambda-i", "1um",
         "--pump-intensity", "135MW/cm2"],
        capsys,
    )
    assert code == 0
    assert "at-limit" in out
    assert "1.00" in out  # beta*L within 1% of 1


def test_classify_halved_intensity_is_small_signal(capsys):
    code, out, _ = run_cli(
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--pump-intensity", "67.5MW/cm2"],
        capsys,
    )
    assert code == 0
    assert "small-signal" in out


def test_classify_fwm_silica_example(capsys):
    code, out, _ = run_cli(
        ["classify", "--material", "silica_fiber", "--length", "10m",
         "--pump-intensity", "84.5MW/cm2"],
        capsys,
    )
    assert code == 0
    assert "at-limit" in out


def test_classify_csv_golden(capsys):
    code, out, _ = run_cli(
        ["classify", "--chi2", "1pm/V", "--length", "1cm",
         "--pump-intensity", "135MW/cm2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = parse_csv(out)[0]

    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    beta_l = model.gain_coefficient(medium, triplet, PumpDrive.from_intensity(1.35e12)) * 1e-2
    report = model.classify_regime(beta_l)
    assert float(row["beta_l"]) == report.beta_l
    assert row["regime"] == report.regime.value
    assert float(row["pairs_per_bandwidth"]) == report.pairs_per_bandwidth
    assert float(row["field_ratio"]) == report.field_ratio


def test_classify_field_report_columns(capsys):
    code, out, _ = run_cli(
        ["classify", "--chi2", "1pm/V", "--length", "1cm",
         "--pump-intensity", "135MW/cm2", "--section", "1mm2",
         "--delta-nu", "1GHz", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["generated_field_V_per_m"]) == pytest.approx(
        float(row["vacuum_field_V_per_m"]) * float(row["field_ratio"]), rel=1e-12
    )


def test_classify_bad_unit_names_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--chi2", "1pm/V", "--length", "1cm",
                  "--pump-intensity", "135parsec"])
    assert exc.value.code == 2
    assert "--pump-intensity" in capsys.readouterr().err


def test_classify_requires_one_medium_source(capsys):
    code, _, err = run_cli(
        ["classify", "--length", "1cm", "--pump-intensity", "1MW/cm2"], capsys
    )
    assert code == 2
    assert "--material" in err

    code, _, err = run_cli(
        ["classify", "--chi2", "1pm/V", "--chi3", "1e-22m2/V2",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 2


def test_classify_requires_one_pump(capsys):
    code, _, err = run_cli(["classify", "--chi2", "1pm/V", "--length", "1cm"], capsys)
    assert code == 2
    assert "--pump-intensity" in err


def test_classify_unknown_material_suggests(capsys):
    code, _, err = run_cli(
        ["classify", "--material", "KTP_clas", "--length", "1cm",
         "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 2
    assert "KTP_class" in err


# --------------------------------------------------------------------------
# flux
# --------------------------------------------------------------------------

def test_flux_zero_gain(capsys):
    code, out, _ = run_cli(["flux", "--beta-l", "0", "--delta-nu", "1GHz"], capsys)
    assert code == 0
    assert "pairs_per_s  0" in out


def test_flux_csv_golden(capsys):
    code, out, _ = run_cli(
        ["flux", "--beta-l", "1.0", "--delta-nu", "1Hz", "--format", "csv"], capsys
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["pairs_per_s"]) == model.pair_flux_reduced(1.0, 1.0)


def test_flux_physical_path_matches_classify(capsys):
    code, out, _ = run_cli(
        ["flux", "--chi2", "1pm/V", "--length", "1cm",
         "--pump-intensity", "135MW/cm2", "--delta-nu", "1Hz", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = parse_csv(out)[0]
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    beta_l = model.gain_coefficient(medium, triplet, PumpDrive.from_intensity(1.35e12)) * 1e-2
    assert float(row["beta_l"]) == beta_l
    assert float(row["pairs_per_s"]) == model.pair_flux_reduced(beta_l, 1.0)


@pytest.mark.parametrize("extra", [
    ["--pump-intensity", "1MW/cm2"],
    ["--chi2", "0pm/V"],
], ids=["pump_intensity", "chi2_zero"])
def test_flux_beta_l_conflicts_with_pump(extra, capsys):
    code, _, err = run_cli(["flux", "--beta-l", "1", "--delta-nu", "1Hz"] + extra, capsys)
    assert code == 2
    assert "--beta-l" in err


def test_flux_needs_length_without_beta_l(capsys):
    code, _, err = run_cli(
        ["flux", "--chi2", "1pm/V", "--pump-intensity", "1MW/cm2", "--delta-nu", "1Hz"],
        capsys,
    )
    assert code == 2
    assert "--length" in err


# --------------------------------------------------------------------------
# limit
# --------------------------------------------------------------------------

def test_limit_quoted_endpoint(capsys):
    code, out, _ = run_cli(["limit", "--chi2", "1pm/V", "--length", "1mm"], capsys)
    assert code == 0
    assert "13.4 GW/cm2" in out  # 13.447, i.e. the quoted 13.5 within 1%


def test_limit_csv_golden(capsys):
    code, out, _ = run_cli(
        ["limit", "--chi3", "1e-22m2/V2", "--length", "10m", "--format", "csv"], capsys
    )
    assert code == 0
    row = parse_csv(out)[0]
    medium = Medium(process=Process.FWM, chi_eff=1e-22)
    assert float(row["limit_intensity_W_per_m2"]) == model.limit_pump_intensity(
        medium, 1e-6, 1e-6, 10.0
    )
    assert float(row["effective_limit_W_per_m2"]) == model.effective_limit_intensity(
        medium, 1e-6, 1e-6, 10.0
    )


def test_limit_with_indices_reports_both_intensities(capsys):
    code, out, _ = run_cli(
        ["limit", "--chi2", "10pm/V", "--length", "1cm",
         "--n-p", "1.8", "--n-s", "1.8", "--n-i", "1.8", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = parse_csv(out)[0]
    ratio = float(row["limit_intensity_W_per_m2"]) / float(row["effective_limit_W_per_m2"])
    assert ratio == pytest.approx(1.8**3, rel=1e-12)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_figure2_schema_and_origin(capsys):
    code, out, _ = run_cli(["sweep", "--figure", "2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["beta_l", "pairs_per_bandwidth"]
    assert float(rows[0]["beta_l"]) == 0.0
    assert float(rows[0]["pairs_per_bandwidth"]) == 0.0
    assert float(rows[-1]["beta_l"]) == 6.0


def test_sweep_figure2_golden(capsys):
    _, out, _ = run_cli(["sweep", "--figure", "2"], capsys)
    for row in parse_csv(out)[::20]:
        assert float(row["pairs_per_bandwidth"]) == model.pairs_per_bandwidth(
            float(row["beta_l"])
        )


def pick_row(rows, column, value):
    return min(rows, key=lambda r: abs(float(r[column]) - value))


def test_sweep_figure3_quoted_endpoints(capsys):
    code, out, _ = run_cli(["sweep", "--figure", "3"], capsys)
    assert code == 0
    rows = parse_csv(out)
    at_1mm = pick_row(rows, "length_m", 1e-3)
    at_1cm = pick_row(rows, "length_m", 1e-2)
    assert float(at_1mm["gamma_W_per_m2_chi2_1pm_V"]) == pytest.approx(1.35e14, rel=0.01)
    assert float(at_1cm["gamma_W_per_m2_chi2_1pm_V"]) == pytest.approx(1.35e12, rel=0.01)
    assert float(at_1mm["gamma_W_per_m2_chi2_10pm_V"]) == pytest.approx(1.35e12, rel=0.01)
    assert float(at_1cm["gamma_W_per_m2_chi2_10pm_V"]) == pytest.approx(1.35e10, rel=0.01)
    assert float(at_1mm["gamma_W_per_m2_chi2_100pm_V"]) == pytest.approx(1.35e10, rel=0.01)
    assert float(at_1cm["gamma_W_per_m2_chi2_100pm_V"]) == pytest.approx(1.35e8, rel=0.01)


def test_sweep_figure4_quoted_endpoints(capsys):
    code, out, _ = run_cli(["sweep", "--figure", "4"], capsys)
    assert code == 0
    rows = parse_csv(out)
    at_1mm = pick_row(rows, "length_m", 1e-3)
    at_1cm = pick_row(rows, "length_m", 1e-2)
    at_10m = pick_row(rows, "length_m", 10.0)
    at_1km = pick_row(rows, "length_m", 1e3)
    assert float(at_1mm["gamma_W_per_m2_chi3_1e-22m2_V2"]) == pytest.approx(8.45e15, rel=0.01)
    assert float(at_1cm["gamma_W_per_m2_chi3_1e-22m2_V2"]) == pytest.approx(8.45e14, rel=0.01)
    assert float(at_1cm["gamma_W_per_m2_chi3_1e-20m2_V2"]) == pytest.approx(8.45e12, rel=0.01)
    assert float(at_1mm["gamma_W_per_m2_chi3_1e-18m2_V2"]) == pytest.approx(8.45e11, rel=0.01)
    assert float(at_10m["gamma_W_per_m2_chi3_1e-22m2_V2"]) == pytest.approx(8.45e11, rel=0.01)
    assert float(at_1km["gamma_W_per_m2_chi3_1e-22m2_V2"]) == pytest.approx(8.45e9, rel=0.01)


def test_sweep_deterministic_output(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["sweep", "--figure", "3", "--out", str(first)]) == 0
    assert cli.main(["sweep", "--figure", "3", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 6.0, 121),        # figure 2
    (0.0, 1.0, 2),
    (1e2, 1e9, 100_000),
    (0.0, 1e-320, 4),       # subnormal span: the step underflows to zero
])
def test_sweep_grid_is_numpy_linspace(start, stop, count):
    assert cli.SweepSpec(start, stop, count).grid() == np.linspace(start, stop, count).tolist()


@pytest.mark.parametrize("start, stop, count", [
    (1e-3, 1.0, 61),        # figure 3
    (1e-3, 1e3, 121),       # figure 4
    (1e6, 1e14, 100_000),
])
def test_sweep_log_grid_is_ten_to_the_linear_grid(start, stop, count):
    exponents = np.linspace(math.log10(start), math.log10(stop), count).tolist()
    assert cli.SweepSpec(start, stop, count, log=True).grid() == [10.0 ** x for x in exponents]


def test_sweep_explicit_beta_l(capsys):
    code, out, _ = run_cli(
        ["sweep", "--variable", "beta_l", "--min", "0", "--max", "2", "--count", "5"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[2]["beta_l"]) == 1.0
    assert float(rows[2]["pairs_per_bandwidth"]) == model.pairs_per_bandwidth(1.0)


def test_sweep_explicit_length(capsys):
    code, out, _ = run_cli(
        ["sweep", "--variable", "length", "--min", "1mm", "--max", "1m",
         "--count", "4", "--scale", "log", "--chi2", "1pm/V"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["length_m", "gamma_W_per_m2"]
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    assert float(rows[0]["gamma_W_per_m2"]) == model.effective_limit_intensity(
        medium, 1e-6, 1e-6, float(rows[0]["length_m"])
    )


def test_sweep_explicit_pump_intensity(capsys):
    code, out, _ = run_cli(
        ["sweep", "--variable", "pump_intensity", "--min", "1MW/cm2", "--max", "1GW/cm2",
         "--count", "7", "--scale", "log", "--chi2", "1pm/V", "--length", "1cm"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["pump_intensity_W_per_m2", "beta_l", "pairs_per_bandwidth"]
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    for row in rows:
        pump = PumpDrive.from_intensity(float(row["pump_intensity_W_per_m2"]))
        beta_l = model.gain_coefficient(medium, triplet, pump) * 1e-2
        assert float(row["beta_l"]) == beta_l


def test_sweep_beta_l_with_bandwidth_adds_flux_column(capsys):
    code, out, _ = run_cli(
        ["sweep", "--variable", "beta_l", "--min", "0", "--max", "2",
         "--count", "5", "--delta-nu", "1GHz"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["beta_l", "pairs_per_bandwidth", "pairs_per_s"]
    assert float(rows[2]["pairs_per_s"]) == model.pair_flux_reduced(1.0, 1e9)


def test_sweep_length_rejects_bandwidth(capsys):
    code, _, err = run_cli(
        ["sweep", "--variable", "length", "--min", "1mm", "--max", "1m",
         "--chi2", "1pm/V", "--delta-nu", "1GHz"],
        capsys,
    )
    assert code == 2
    assert "--delta-nu" in err


def test_missing_materials_file_is_input_error(capsys):
    code, _, err = run_cli(
        ["classify", "--materials", "/nonexistent/catalog.mat", "--material", "x",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 2
    assert "catalog.mat" in err


def test_sweep_validation_errors(capsys):
    code, _, err = run_cli(["sweep"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["sweep", "--figure", "2", "--variable", "beta_l"], capsys
    )
    assert code == 2
    code, _, err = run_cli(
        ["sweep", "--variable", "beta_l", "--min", "5", "--max", "1"], capsys
    )
    assert code == 2
    assert "min < max" in err
    code, _, err = run_cli(
        ["sweep", "--variable", "beta_l", "--min", "0", "--max", "1", "--scale", "log"],
        capsys,
    )
    assert code == 2
    assert "log" in err


def run_cli_catching_exit(argv):
    """cli.main with argparse's SystemExit folded into the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["flux", "--beta-l", "400", "--delta-nu", "1Hz"],
    ["flux", "--beta-l", "800", "--delta-nu", "1Hz"],
    ["flux", "--beta-l", "nan", "--delta-nu", "1Hz"],
    ["flux", "--beta-l", "300", "--delta-nu", "1e200THz"],
    ["limit", "--chi2", "1pm/V", "--n-s", "inf", "--length", "1mm"],
    ["limit", "--chi2", "1pm/V", "--length", "1e-150m"],
    ["classify", "--chi2", "1pm/V", "--length", "1cm", "--pump-intensity", "1e400W/m2"],
    ["sweep", "--variable", "beta_l", "--min", "0", "--max", "1000"],
    ["sweep", "--variable", "beta_l", "--min", "nan", "--max", "1"],
    ["oracle", "--beta-l", "inf"],
    # argparse rejections
    ["limit", "--chi2", "1pm/V", "--length", "3furlong"],
    ["flux", "--beta-l", "1", "--delta-nu", "3Gbps"],
    ["classify", "--chi2", "1pm/V", "--length", "1cm", "--pump-intensity", "3MW/in2"],
    ["sweep", "--variable", "beta_l", "--min", "0", "--max", "1", "--count", "-3"],
    ["oracle", "--beta-l", "1", "--steps", "-3"],
    ["oracle", "--beta-l", "1", "--steps", "many"],
    ["criteria", "--format", "xml"],
    # caps on the grid size and the RK4 step count, and a log grid whose top overflows
    ["sweep", "--variable", "beta_l", "--min", "0", "--max", "1", "--count", "1000000000"],
    ["sweep", "--variable", "length", "--min", "1m", "--max", "1.7976931348623157e308m",
     "--scale", "log", "--chi2", "1pm/V"],
    ["oracle", "--beta-l", "1", "--steps", "1000000000000"],
    # an empty --material is a medium source like any other
    ["limit", "--material", "", "--chi2", "1pm/V", "--length", "1mm"],
    ["limit", "--material", "", "--length", "1mm"],
    # a flag the command would not read
    ["limit", "--chi2", "1pm/V", "--length", "1mm", "--materials", "/nonexistent/cat.toml"],
    ["classify", "--chi2", "1pm/V", "--length", "1cm", "--pump-intensity", "135MW/cm2",
     "--section", "1mm2"],
    ["classify", "--chi2", "1pm/V", "--length", "1cm", "--pump-intensity", "135MW/cm2",
     "--delta-nu", "1GHz"],
    ["flux", "--beta-l", "1", "--delta-nu", "1GHz", "--n-p", "2"],
    ["flux", "--beta-l", "1", "--delta-nu", "1GHz", "--n-s", "2"],
    ["flux", "--beta-l", "1", "--delta-nu", "1GHz", "--n-i", "2"],
    ["flux", "--beta-l", "1", "--delta-nu", "1GHz", "--materials", "/nonexistent/cat.toml"],
    # an empty --materials is a path, not a fall-back to the presets
    ["limit", "--material", "KTP_class", "--materials", "", "--length", "1mm"],
    # more flags the chosen path would not read
    *[["sweep", "--figure", "2", *extra] for extra in (
        ["--min", "0"], ["--max", "1"], ["--count", "5"], ["--scale", "log"], ["--length", "1m"],
        ["--delta-nu", "1GHz"], ["--chi2", "1pm/V"], ["--material", "KTP_class"],
        ["--n-p", "2"], ["--lambda-s", "2um"], ["--lambda-i", "2um"])],
    *[["sweep", "--variable", "beta_l", "--min", "0", "--max", "1", *extra] for extra in (
        ["--chi3", "1e-22m2/V2"], ["--materials", "/nonexistent/cat.toml"], ["--n-i", "2"],
        ["--lambda-s", "2um"], ["--lambda-i", "2um"], ["--length", "1m"])],
    ["sweep", "--variable", "length", "--min", "1mm", "--max", "1m", "--chi2", "1pm/V",
     "--length", "1m"],
    ["flux", "--beta-l", "1", "--delta-nu", "1GHz", "--lambda-s", "2um"],
    ["flux", "--beta-l", "1", "--delta-nu", "1GHz", "--lambda-i", "2um"],
    # a flag the subcommand does not accept is reported under the subcommand
    ["criteria", "--bogus"],
    ["sweep", "--figure", "2", "--format", "csv"],
    ["oracle", "--beta-l", "1", "--materials", "/nonexistent/cat.toml"],
    # index overrides are checked like any other medium
    ["limit", "--chi2", "1pm/V", "--length", "1mm", "--n-p", "0.5"],
    ["classify", "--chi2", "1pm/V", "--pump-intensity", "1GW/cm2", "--length", "1cm",
     "--n-s", "nan"],
])
def test_invalid_input_is_one_line_exit_2(argv):
    code, out, err = run_cli_catching_exit(argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"pairgate {argv[0]}: ")


def test_index_override_is_checked():
    code, _, err = run_cli_catching_exit(["limit", "--chi2", "1pm/V", "--length", "1mm",
                                          "--n-p", "0.5"])
    assert (code, err) == (2, "pairgate limit: n_p must be >= 1 and finite, got 0.5\n")


_OUTPUT = ["--out", "-h", "--help"]
_SCALAR = _OUTPUT + ["--format"]
_MEDIUM = ["--materials", "--material", "--chi2", "--chi3", "--n-p", "--n-s", "--n-i"]
_WAVE = ["--lambda-s", "--lambda-i"]
_PUMP = ["--pump-intensity", "--pump-field"]
ACCEPTED_OPTIONS = {
    "criteria": _SCALAR,
    "classify": _SCALAR + _MEDIUM + _WAVE + _PUMP + ["--length", "--section", "--delta-nu",
                                                     "--band"],
    "flux": _SCALAR + _MEDIUM + _WAVE + _PUMP + ["--beta-l", "--length", "--delta-nu"],
    "limit": _SCALAR + _MEDIUM + _WAVE + ["--length"],
    "sweep": _OUTPUT + _MEDIUM + _WAVE + ["--figure", "--variable", "--min", "--max", "--count",
                                          "--scale", "--length", "--delta-nu"],
    "oracle": _SCALAR + ["--beta-l", "--steps", "--delta-nu", "--section"],
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {name: sorted(option for action in sub._actions for option in action.option_strings)
                for name, sub in subparsers.choices.items()}
    assert accepted == {name: sorted(options) for name, options in ACCEPTED_OPTIONS.items()}


def test_help_still_exits_zero():
    code, out, _ = run_cli_catching_exit(["flux", "--help"])
    assert code == 0
    assert "--beta-l" in out


# --------------------------------------------------------------------------
# fuzzed argv: every input ends in a finite result or a one-line error
# --------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e308", "1e300", "1e-300",
                     "1e-320", "0", "-0", "-1", "-1e30", "354.9", "355"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
)
_UNITS = {
    "len": ["nm", "um", "mm", "cm", "m", "km", "furlong"],
    "area": ["um2", "mm2", "m2", "acre"],
    "int": ["W/m2", "MW/cm2", "TW/cm2", "MW/in2"],
    "field": ["V/m", "MV/m", "V/in"],
    "freq": ["Hz", "GHz", "THz", "Gbps"],
    "chi2": ["pm/V", "m/V", "m2/V2"],
    "chi3": ["m2/V2", "pm/V"],
}
_FLAGS = {
    "classify": {"--chi2": "chi2", "--chi3": "chi3", "--length": "len", "--pump-intensity": "int",
                 "--pump-field": "field", "--section": "area", "--delta-nu": "freq",
                 "--band": "num", "--n-p": "num", "--n-s": "num", "--lambda-s": "len"},
    "flux": {"--beta-l": "num", "--delta-nu": "freq", "--chi2": "chi2", "--length": "len",
             "--pump-intensity": "int", "--n-i": "num", "--lambda-i": "len"},
    "limit": {"--chi2": "chi2", "--chi3": "chi3", "--length": "len", "--lambda-s": "len",
              "--lambda-i": "len", "--n-p": "num", "--n-s": "num", "--n-i": "num"},
    "sweep": {"--min": "num", "--max": "num", "--delta-nu": "freq", "--chi2": "chi2",
              "--length": "len", "--lambda-s": "len"},
    "oracle": {"--beta-l": "num", "--delta-nu": "freq", "--section": "area"},
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "sweep":
        argv += ["--variable", draw(st.sampled_from(["beta_l", "length", "pump_intensity"])),
                 "--count", str(draw(st.integers(-2, 40))),
                 "--scale", draw(st.sampled_from(["linear", "log"]))]
    if command == "oracle":
        argv += ["--steps", str(draw(st.sampled_from([-1, 0, 16, 64])))]
    for flag, kind in _FLAGS[command].items():
        if draw(st.booleans()):
            value = draw(_NUMBERS)
            if command == "sweep" and flag in ("--min", "--max"):
                kind = draw(st.sampled_from(["num", "len", "int"]))
            if kind != "num":
                value += draw(st.sampled_from(_UNITS[kind]))
            argv.append(f"{flag}={value}")
    if command not in ("oracle", "sweep"):  # sweeps are always CSV and take no --format
        argv += ["--format", draw(st.sampled_from(["table", "csv"]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_ends_in_finite_output_or_one_line_error(argv):
    code, out, err = run_cli_catching_exit(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert len(err.splitlines()) == 1
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out


def test_sweep_unwritable_path_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--figure", "2", "--out", str(tmp_path / "missing" / "out.csv")], capsys
    )
    assert code == 3
    assert "cannot write" in err


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def test_oracle_at_limit(capsys):
    code, out, _ = run_cli(["oracle", "--beta-l", "1", "--format", "csv"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["analytic_pairs_per_s"]) == model.pair_flux_reduced(1.0, 1.0)
    assert float(row["relative_error"]) <= 1e-6


def test_oracle_zero_gain(capsys):
    code, out, _ = run_cli(["oracle", "--beta-l", "0", "--format", "csv"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["oracle_pairs_per_s"]) == 0.0
    assert float(row["relative_error"]) == 0.0


def test_oracle_custom_steps(capsys):
    code, out, _ = run_cli(
        ["oracle", "--beta-l", "2", "--steps", "64", "--format", "csv"], capsys
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["relative_error"]) <= 1e-4
    code, out, _ = run_cli(["oracle", "--beta-l", "2", "--steps", "8"], capsys)
    assert code == 2  # below the fixed-step minimum


# --------------------------------------------------------------------------
# materials wiring
# --------------------------------------------------------------------------

def test_materials_flag_and_env(tmp_path, capsys, monkeypatch):
    custom = tmp_path / "custom.mat"
    custom.write_text(
        "[lab_crystal]\nprocess = spdc\nchi_eff = 5 pm/V\nn_p = 1.8\nn_s = 1.8\nn_i = 1.8\n"
    )
    code, out, _ = run_cli(
        ["classify", "--materials", str(custom), "--material", "lab_crystal",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 0

    monkeypatch.setenv(MATERIALS_ENV_VAR, str(custom))
    code, out, _ = run_cli(
        ["classify", "--material", "lab_crystal", "--length", "1cm",
         "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 0
    # presets are shadowed by the env catalog
    code, _, err = run_cli(
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 2


def test_materials_parse_error_is_input_error(tmp_path, capsys):
    broken = tmp_path / "broken.mat"
    broken.write_text("[x]\nprocess = spdc\nchi_eff = 1 m2/V2\n")
    code, _, err = run_cli(
        ["classify", "--materials", str(broken), "--material", "x",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"],
        capsys,
    )
    assert code == 2
    assert ":3:" in err


# --------------------------------------------------------------------------
# exact report bytes, README examples
# --------------------------------------------------------------------------

REPORT_ARGV = {
    "criteria": ["criteria"],
    "classify": ["classify", "--chi2", "1pm/V", "--length", "1cm",
                 "--pump-intensity", "135MW/cm2", "--section", "1mm2", "--delta-nu", "1GHz"],
    "flux": ["flux", "--beta-l", "1", "--delta-nu", "1GHz"],
    "limit": ["limit", "--chi3", "1e-22m2/V2", "--length", "1km",
              "--n-p", "1.45", "--n-s", "1.44", "--n-i", "1.46"],
    "oracle": ["oracle", "--beta-l", "0"],
    "limit_preset": ["limit", "--material", "silica_fiber", "--length", "1km"],
}


@pytest.mark.parametrize("command, fmt, expected", [
    ("criteria", "table",
     "quantity                     value   exact\n"
     "pairs_per_bandwidth_limit    0.369   0.3690615552515699\n"
     "photons_per_bandwidth_limit  0.738   0.7381231105031398\n"
     "field_ratio_limit            1.718   1.718281828459045\n"),
    ("criteria", "csv",
     "pairs_per_bandwidth_limit,photons_per_bandwidth_limit,field_ratio_limit\n"
     "0.3690615552515699,0.7381231105031398,1.718281828459045\n"),
    ("classify", "table",
     "beta_l               1.00\n"
     "regime               at-limit\n"
     "pairs_per_bandwidth  0.371\n"
     "field_ratio          1.72\n"
     "vacuum_field         0.193 V/m\n"
     "generated_field      0.333 V/m\n"),
    ("classify", "csv",
     "beta_l,regime,pairs_per_bandwidth,field_ratio,vacuum_field_V_per_m,generated_field_V_per_m\n"
     "1.0019522811408441,at-limit,0.37134697531843075,1.723593862412908,"
     "0.19343660083422298,0.3334061379638823\n"),
    ("flux", "table",
     "beta_l       1.00\n"
     "delta_nu     1.00e+09 Hz\n"
     "pairs_per_s  3.69e+08\n"),
    ("flux", "csv",
     "beta_l,delta_nu_Hz,pairs_per_s\n"
     "1.0,1000000000.0,369061555.2515699\n"),
    ("limit", "table",
     "process                fwm\n"
     "length                 1.00e+03 m\n"
     "lambda_s               1.00e-06 m\n"
     "lambda_i               1.00e-06 m\n"
     "chi_eff                1.00e-22 m2/V2\n"
     "limit_pump_intensity   1.78 MW/cm2   (17764182911.217876 W/m2)\n"
     "effective_limit_gamma  845 kW/cm2   (8449277231.915789 W/m2)\n"),
    ("limit", "csv",
     "process,length_m,lambda_s_m,lambda_i_m,chi_eff_si,"
     "limit_intensity_W_per_m2,effective_limit_W_per_m2\n"
     "fwm,1000.0,1e-06,1e-06,1e-22,17764182911.217876,8449277231.915789\n"),
    ("oracle", "table",
     "beta_l                0.00\n"
     "steps                 1024\n"
     "analytic_pairs_per_s  0.0\n"
     "oracle_pairs_per_s    0.0\n"
     "relative_error        0.00\n"),
    ("oracle", "csv",
     "beta_l,steps,analytic_pairs_per_s,oracle_pairs_per_s,relative_error\n"
     "0.0,1024,0.0,0.0,0.0\n"),
    ("limit_preset", "table",
     "process                fwm\n"
     "length                 1.00e+03 m\n"
     "lambda_s               1.00e-06 m\n"
     "lambda_i               1.00e-06 m\n"
     "chi_eff                1.00e-22 m2/V2\n"
     "limit_pump_intensity   845 kW/cm2   (8449277231.915787 W/m2)\n"
     "effective_limit_gamma  845 kW/cm2   (8449277231.915787 W/m2)\n"),
    ("limit_preset", "csv",
     "process,length_m,lambda_s_m,lambda_i_m,chi_eff_si,"
     "limit_intensity_W_per_m2,effective_limit_W_per_m2\n"
     "fwm,1000.0,1e-06,1e-06,1e-22,8449277231.915787,8449277231.915787\n"),
])
def test_scalar_report_bytes(command, fmt, expected, capsys, monkeypatch):
    monkeypatch.delenv(MATERIALS_ENV_VAR, raising=False)
    code, out, err = run_cli(REPORT_ARGV[command] + ["--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == expected


def readme_cli_examples():
    """Every `pairgate ...` line of the README's command-line block, continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = next(b for b in text.split("```")[1::2] if "\npairgate criteria\n" in b)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pairgate ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the sweep examples write their --out files here
    monkeypatch.delenv(MATERIALS_ENV_VAR, raising=False)
    examples = readme_cli_examples()
    assert len(examples) == 7
    for argv in examples:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert (tmp_path / "fig3.csv").exists() and (tmp_path / "ramp.csv").exists()


# --------------------------------------------------------------------------
# table output to file, entry point
# --------------------------------------------------------------------------

def test_out_flag_writes_table(tmp_path, capsys):
    target = tmp_path / "criteria.txt"
    assert cli.main(["criteria", "--out", str(target)]) == 0
    capsys.readouterr()
    assert "0.369" in target.read_text()


def test_every_subcommand_runs_without_numpy():
    argvs = [
        ["criteria"],
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--pump-intensity", "135MW/cm2"],
        ["flux", "--beta-l", "1", "--delta-nu", "1GHz"],
        ["limit", "--chi2", "1pm/V", "--length", "1mm"],
        ["sweep", "--figure", "2"],
        ["sweep", "--figure", "4"],
        ["sweep", "--variable", "pump_intensity", "--min", "1MW/cm2", "--max", "10GW/cm2",
         "--scale", "log", "--chi2", "1pm/V", "--length", "1cm"],
        ["oracle", "--beta-l", "1"],
    ]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"  # any numpy import now raises ImportError
        "from pairgate import cli\n"
        f"sys.exit(max(cli.main(argv) for argv in {argvs!r}))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_dataclass_or_typing_machinery():
    src = Path(__file__).parent.parent / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import pairgate.cli\n"
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "pairgate.cli", "criteria"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "1.718" in result.stdout
