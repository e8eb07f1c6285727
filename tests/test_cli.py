"""CLI behaviour: renderings, exit codes, figure sweeps, golden projections.

Golden tests assert that CSV output reproduces direct library calls bit for
bit, guaranteeing no physics is computed in the CLI layer. The property tests
over CLI cases (one-line errors, range messages, sweep errors, --help, imports,
runs without numpy) take their argv from tests/corpus/argv.txt by tag, so each case
is written once there, next to its recorded bytes in expected.txt.
"""

import argparse
import csv
import io
import math
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import regen, sweep_rows
from pairgate import cli, model
from pairgate.materials import MATERIALS_ENV_VAR
from pairgate.model import Medium, Process, PumpDrive, triplet_from_wavelengths
from pairgate.oracle import MAX_STEPS
from pairgate.units import parse_length


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


_EXPECTED = regen.expected()


def _argv(tag):
    """The argv of each corpus line that carries tag."""
    return [shlex.split(line) for line in regen.tagged(tag)]


def _message(line):
    """The stderr line of a corpus record, after its "pairgate <command>: "."""
    stderr = [text for text in _EXPECTED[line].splitlines() if text.startswith("stderr: ")]
    return stderr[0].split(": ", 2)[2]


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criteria_prints_quoted_constants():
    code, out, _ = regen.run(["criteria"])
    assert code == 0
    for token in ("0.369", "0.738", "1.718"):
        assert token in out
    # full-precision column present
    assert repr(model.limit_criteria().pairs_limit) in out


def test_criteria_csv_golden():
    code, out, _ = regen.run(["criteria", "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    crit = model.limit_criteria()
    assert float(row["pairs_per_bandwidth_limit"]) == crit.pairs_limit
    assert float(row["photons_per_bandwidth_limit"]) == crit.photons_limit
    assert float(row["field_ratio_limit"]) == crit.field_ratio_limit


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def test_classify_at_limit_example():
    code, out, _ = regen.run(
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--lambda-s", "1um", "--lambda-i", "1um",
         "--pump-intensity", "135MW/cm2"])
    assert code == 0
    assert "at-limit" in out
    assert "1.00" in out  # beta*L within 1% of 1


def test_classify_halved_intensity_is_small_signal():
    code, out, _ = regen.run(
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--pump-intensity", "67.5MW/cm2"])
    assert code == 0
    assert "small-signal" in out


def test_classify_fwm_silica_example():
    code, out, _ = regen.run(
        ["classify", "--material", "silica_fiber", "--length", "10m",
         "--pump-intensity", "84.5MW/cm2"])
    assert code == 0
    assert "at-limit" in out


def test_classify_csv_golden():
    code, out, _ = regen.run(
        ["classify", "--chi2", "1pm/V", "--length", "1cm",
         "--pump-intensity", "135MW/cm2", "--format", "csv"])
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


def test_classify_field_report_columns():
    code, out, _ = regen.run(
        ["classify", "--chi2", "1pm/V", "--length", "1cm",
         "--pump-intensity", "67.5MW/cm2", "--section", "1mm2",
         "--delta-nu", "1GHz", "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["generated_field_V_per_m"]) == pytest.approx(
        float(row["vacuum_field_V_per_m"]) * float(row["field_ratio"]), rel=1e-12
    )


def test_classify_bad_unit_names_flag():
    code, _, err = regen.run(["classify", "--chi2", "1pm/V", "--length", "1cm",
                              "--pump-intensity", "135parsec"])
    assert code == 2
    assert "--pump-intensity" in err


def test_classify_requires_one_medium_source():
    code, _, err = regen.run(
        ["classify", "--length", "1cm", "--pump-intensity", "1MW/cm2"])
    assert code == 2
    assert "--material" in err

    code, _, err = regen.run(
        ["classify", "--chi2", "1pm/V", "--chi3", "1e-22m2/V2",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"])
    assert code == 2


def test_classify_requires_one_pump():
    code, _, err = regen.run(["classify", "--chi2", "1pm/V", "--length", "1cm"])
    assert code == 2
    assert "--pump-intensity" in err


def test_classify_unknown_material_suggests():
    code, _, err = regen.run(
        ["classify", "--material", "KTP_clas", "--length", "1cm",
         "--pump-intensity", "1MW/cm2"])
    assert code == 2
    assert "KTP_class" in err


# --------------------------------------------------------------------------
# flux
# --------------------------------------------------------------------------

def test_flux_zero_gain():
    code, out, _ = regen.run(["flux", "--beta-l", "0", "--delta-nu", "1GHz"])
    assert code == 0
    assert "pairs_per_s  0" in out


def test_flux_csv_golden():
    code, out, _ = regen.run(
        ["flux", "--beta-l", "1.0", "--delta-nu", "1Hz", "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["pairs_per_s"]) == model.pair_flux_reduced(1.0, 1.0)


def test_flux_physical_path_matches_classify():
    code, out, _ = regen.run(
        ["flux", "--chi2", "1pm/V", "--length", "1cm",
         "--pump-intensity", "135MW/cm2", "--delta-nu", "1Hz", "--format", "csv"])
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
def test_flux_beta_l_conflicts_with_pump(extra):
    code, _, err = regen.run(["flux", "--beta-l", "1", "--delta-nu", "1Hz"] + extra)
    assert code == 2
    assert "--beta-l" in err


def test_flux_needs_length_without_beta_l():
    code, _, err = regen.run(
        ["flux", "--chi2", "1pm/V", "--pump-intensity", "1MW/cm2", "--delta-nu", "1Hz"])
    assert code == 2
    assert "--length" in err


# --------------------------------------------------------------------------
# limit
# --------------------------------------------------------------------------

def test_limit_quoted_endpoint():
    code, out, _ = regen.run(["limit", "--chi2", "1pm/V", "--length", "1mm"])
    assert code == 0
    assert "13.4 GW/cm2" in out  # 13.447, i.e. the quoted 13.5 within 1%


def test_limit_csv_golden():
    code, out, _ = regen.run(
        ["limit", "--chi3", "1e-22m2/V2", "--length", "10m", "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    medium = Medium(process=Process.FWM, chi_eff=1e-22)
    assert float(row["limit_intensity_W_per_m2"]) == model.limit_pump_intensity(
        medium, 1e-6, 1e-6, 10.0
    )
    assert float(row["effective_limit_W_per_m2"]) == model.effective_limit_intensity(
        medium, 1e-6, 1e-6, 10.0
    )


def test_limit_with_indices_reports_both_intensities():
    code, out, _ = regen.run(
        ["limit", "--chi2", "10pm/V", "--length", "1cm",
         "--n-p", "1.8", "--n-s", "1.8", "--n-i", "1.8", "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    ratio = float(row["limit_intensity_W_per_m2"]) / float(row["effective_limit_W_per_m2"])
    assert ratio == pytest.approx(1.8**3, rel=1e-12)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_figure2_schema_and_origin():
    code, out, _ = regen.run(["sweep", "--figure", "2"])
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["beta_l", "pairs_per_bandwidth"]
    assert float(rows[0]["beta_l"]) == 0.0
    assert float(rows[0]["pairs_per_bandwidth"]) == 0.0
    assert float(rows[-1]["beta_l"]) == 6.0


def test_sweep_figure2_golden():
    _, out, _ = regen.run(["sweep", "--figure", "2"])
    for row in parse_csv(out)[::20]:
        assert float(row["pairs_per_bandwidth"]) == model.pairs_per_bandwidth(
            float(row["beta_l"])
        )


def pick_row(rows, column, value):
    return min(rows, key=lambda r: abs(float(r[column]) - value))


def test_sweep_figure3_quoted_endpoints():
    code, out, _ = regen.run(["sweep", "--figure", "3"])
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


def test_sweep_figure4_quoted_endpoints():
    code, out, _ = regen.run(["sweep", "--figure", "4"])
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


def test_sweep_deterministic_output(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert regen.run(["sweep", "--figure", "3", "--out", str(first)]) == (0, "", "")
    assert regen.run(["sweep", "--figure", "3", "--out", str(second)]) == (0, "", "")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 6.0, 121),        # figure 2
    (0.0, 1.0, 2),
    (1e2, 1e9, 100_000),
    (0.0, 1e-320, 4),       # subnormal span: the step is subnormal, not zero
    (0.0, 5e-324, 4),       # the step underflows to zero: numpy scales i/div
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


def test_sweep_explicit_beta_l():
    code, out, _ = regen.run(
        ["sweep", "--variable", "beta_l", "--min", "0", "--max", "2", "--count", "5"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[2]["beta_l"]) == 1.0
    assert float(rows[2]["pairs_per_bandwidth"]) == model.pairs_per_bandwidth(1.0)


def test_sweep_explicit_length():
    code, out, _ = regen.run(
        ["sweep", "--variable", "length", "--min", "1mm", "--max", "1m",
         "--count", "4", "--scale", "log", "--chi2", "1pm/V"])
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["length_m", "gamma_W_per_m2"]
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    assert float(rows[0]["gamma_W_per_m2"]) == model.effective_limit_intensity(
        medium, 1e-6, 1e-6, float(rows[0]["length_m"])
    )


def test_sweep_explicit_pump_intensity():
    code, out, _ = regen.run(
        ["sweep", "--variable", "pump_intensity", "--min", "1MW/cm2", "--max", "1GW/cm2",
         "--count", "7", "--scale", "log", "--chi2", "1pm/V", "--length", "1cm"])
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["pump_intensity_W_per_m2", "beta_l", "pairs_per_bandwidth"]
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    for row in rows:
        pump = PumpDrive.from_intensity(float(row["pump_intensity_W_per_m2"]))
        beta_l = model.gain_coefficient(medium, triplet, pump) * 1e-2
        assert float(row["beta_l"]) == beta_l


def test_sweep_beta_l_with_bandwidth_adds_flux_column():
    code, out, _ = regen.run(
        ["sweep", "--variable", "beta_l", "--min", "0", "--max", "2",
         "--count", "5", "--delta-nu", "1GHz"])
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["beta_l", "pairs_per_bandwidth", "pairs_per_s"]
    assert float(rows[2]["pairs_per_s"]) == model.pair_flux_reduced(1.0, 1e9)


# (medium flags, index flags, the medium they give, the wavelengths)
_SWEEP_MEDIA = {
    "chi2": (["--chi2", "1pm/V"], [], Medium(Process.SPDC, 1e-12), (1e-6, 1e-6)),
    "chi3": (["--chi3", "1e-20m2/V2"], [], Medium(Process.FWM, 1e-20), (1e-6, 1e-6)),
    "KTP": (["--material", "KTP_class", "--lambda-s", "810nm", "--lambda-i", "1.55um"],
            ["--n-p", "1.8", "--n-s", "1.75", "--n-i", "1.7"],
            Medium(Process.SPDC, 1e-12, 1.8, 1.75, 1.7), (parse_length("810nm"), 1.55e-6)),
    "silica": (["--material", "silica_fiber", "--lambda-s", "1.5um", "--lambda-i", "1.6um"],
               ["--n-p", "1.45", "--n-s", "1.44", "--n-i", "1.46"],
               Medium(Process.FWM, 1e-22, 1.45, 1.44, 1.46), (1.5e-6, 1.6e-6)),
}


@pytest.mark.parametrize("variable, scale, medium, delta_nu", [
    ("pump_intensity", "linear", "chi2", None),
    ("pump_intensity", "log", "chi3", "1GHz"),
    ("pump_intensity", "log", "KTP", "1GHz"),
    ("pump_intensity", "linear", "silica", None),
    ("length", "linear", "chi2", None),
    ("length", "log", "chi3", None),
    ("length", "log", "KTP", None),
    ("length", "linear", "silica", None),
    ("beta_l", "linear", None, "1GHz"),
    ("beta_l", "log", None, None),
])
def test_sweep_rows_equal_the_scalar_kernels(variable, scale, medium, delta_nu):
    """Every row of a ~10^4-point sweep is the scalar kernels' value at its point, bit for bit."""
    count = 10_001
    bounds = {"pump_intensity": ("1MW/cm2", "10GW/cm2"), "length": ("1mm", "1km"),
              "beta_l": ("1e-6" if scale == "log" else "0", "40")}[variable]
    argv = ["sweep", "--variable", variable, "--min", bounds[0], "--max", bounds[1],
            "--count", str(count), "--scale", scale]
    if medium is not None:
        flags, index_flags, medium, (lambda_s, lambda_i) = _SWEEP_MEDIA[medium]
        argv += flags if variable == "length" else flags + index_flags  # Gamma reads no index
    if variable == "pump_intensity":
        argv += ["--length", "1cm"]
        triplet = triplet_from_wavelengths(lambda_s, lambda_i, medium.process)
    if delta_nu is not None:
        argv += ["--delta-nu", delta_nu]
    code, out, _ = regen.run(argv)
    assert code == 0
    rows = [[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == count
    for x, *cells in rows:
        if variable == "length":
            assert cells == [model.effective_limit_intensity(medium, lambda_s, lambda_i, x)]
            continue
        if variable == "pump_intensity":
            beta_l = model.gain_coefficient(medium, triplet, PumpDrive.from_intensity(x)) * 1e-2
            assert cells[0] == beta_l
            cells = cells[1:]
        else:
            beta_l = x
        want = [model.pairs_per_bandwidth(beta_l)]
        if delta_nu is not None:
            want.append(model.pair_flux_reduced(beta_l, 1e9))
        assert cells == want


@pytest.mark.parametrize("argv, message", [(shlex.split(line), _message(line))
                                           for line in regen.tagged("sweep-error")])
@pytest.mark.parametrize("to_file", [False, True])
def test_sweep_error_comes_before_any_output(argv, message, to_file, tmp_path):
    target = tmp_path / "out.csv"
    code, out, err = regen.run(argv + (["--out", str(target)] if to_file else []))
    assert (code, out, err) == (2, "", f"pairgate sweep: {message}\n")
    assert not target.exists()


def _scalar_sweep(variable, grid, medium, lambdas, length, delta_nu):
    """A sweep's CSV rows walked point by point with the public scalar kernels, or the
    message of the first ValueError they raise."""
    triplet = triplet_from_wavelengths(*lambdas, medium.process)
    rows = []
    try:
        for x in grid:
            if variable == "length":
                rows.append([x, model.effective_limit_intensity(medium, *lambdas, x)])
                continue
            row = [x]
            beta_l = x
            if variable == "pump_intensity":
                pump = PumpDrive.from_intensity(x)
                beta_l = model.gain_coefficient(medium, triplet, pump) * length
                row.append(beta_l)
            row.append(model.pairs_per_bandwidth(beta_l))
            if delta_nu is not None:
                row.append(model.pair_flux_reduced(beta_l, delta_nu))
            rows.append(row)
    except ValueError as exc:
        return str(exc)
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


_BLOCK = cli.SWEEP_BLOCK


@st.composite
def _block_sweeps(draw):
    """Sweeps of one to three blocks and a point, on every path of cmd_sweep, over
    ranges that stay finite or overflow or leave the beta*L range somewhere."""
    variable = draw(st.sampled_from(["beta_l", "length", "pump_intensity"]))
    count = draw(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    log = draw(st.booleans())
    exponents = {"beta_l": (-12.0, 2.5), "length": (-310.0, 300.0),
                 "pump_intensity": (0.0, 16.0)}[variable]
    low, high = sorted(draw(st.floats(*exponents)) for _ in range(2))
    start = 10.0 ** low if log or draw(st.booleans()) else 0.0
    if variable == "beta_l":  # a span of 10**2.56 crosses BETA_L_MAX
        high = draw(st.one_of(st.floats(-3.0, 2.5), st.floats(2.56, 3.0)))
    stop = start + 10.0 ** high if variable == "beta_l" else 10.0 ** high
    assume(start < stop)
    process = draw(st.sampled_from([Process.SPDC, Process.FWM]))
    chi = 10.0 ** draw(st.floats(-24.0, -10.0))
    indices = draw(st.sampled_from([(1.0, 1.0, 1.0), (1.8, 1.75, 1.7)]))
    lambdas = (10.0 ** draw(st.floats(-6.5, -5.5)), 1.55e-6)
    length = 10.0 ** draw(st.floats(-3.0, 2.0))
    delta_nu = None
    if variable != "length":
        delta_nu = draw(st.sampled_from([None, None, 0.0, 1e9, 1e9]
                                        + [10.0 ** draw(st.floats(-5.0, 300.0))] * 3))
    return (variable, cli.SweepSpec(start, stop, count, log).grid(),
            Medium(process, chi, *indices), lambdas, length, delta_nu)


@settings(max_examples=40, deadline=None)
@given(_block_sweeps())
def test_sweep_blocks_equal_the_scalar_walk(sweep):
    """Around and across block boundaries, a sweep is the scalar kernels' walk bit for bit,
    or fails with the message of its first offending point."""
    variable, grid, medium, lambdas, length, delta_nu = sweep
    try:
        if variable == "beta_l":
            model_sweep = model._flux_sweep(delta_nu)
        elif variable == "length":
            model_sweep = model._gamma_sweep([medium], *lambdas)
        else:
            triplet = triplet_from_wavelengths(*lambdas, medium.process)
            model_sweep = model._pump_sweep(medium, triplet, length, delta_nu)
    except ValueError as exc:
        text = str(exc)
    else:
        rows = sweep_rows(model_sweep, grid)
        text = rows if isinstance(rows, str) else "".join(
            ",".join(map(repr, [x, *values])) + "\n" for x, values in zip(grid, rows))
    assert text == _scalar_sweep(variable, grid, medium, lambdas, length, delta_nu)


def test_a_failing_sweep_computes_no_block(monkeypatch):
    """Every block is checked before the first one is computed: no failing sweep renders a
    row, not even one whose second block fails, and each pair flux is one scalar kernel's
    point."""
    sizes, rendered, rows = [], [], cli._rows
    pair_fluxes = model._pair_fluxes

    def counted(growths, per_hz):
        growths = list(growths)
        sizes.append(len(growths))
        return pair_fluxes(growths, per_hz)

    monkeypatch.setattr(model, "_pair_fluxes", counted)
    monkeypatch.setattr(cli, "_rows", lambda *args: rendered.append(args) or rows(*args))
    for argv in _argv("sweep-error"):
        assert regen.run(argv)[:2] == (2, "")
    assert rendered == [] and max(sizes) == 1


_forking = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="a sweep renders on one CPU without os.fork and os.sched_getaffinity")

# a beta_l sweep with --delta-nu, a log pump_intensity sweep and a length sweep
_PARALLEL_SWEEPS = {
    "beta_l": ["sweep", "--variable", "beta_l", "--min", "0", "--max", "5", "--delta-nu", "1GHz"],
    "pump_intensity": ["sweep", "--variable", "pump_intensity", "--chi2", "1pm/V", "--length",
                       "1cm", "--min", "1MW/cm2", "--max", "10GW/cm2", "--scale", "log"],
    "length": ["sweep", "--variable", "length", "--chi3", "1e-22m2/V2", "--min", "1mm",
               "--max", "1km"],
}


def _count_forks(monkeypatch) -> list:
    """The calls to os.fork from now on; each still forks."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _set_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _sweep_leaving_no_child(argv):
    """cli.main's (exit code, stdout, stderr) on argv, after asserting that no child of this
    process is left unreaped."""
    result = regen.run(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


@_forking
@pytest.mark.parametrize("count", [4097, 8193, 3 * 4096 + 5, 25119])
@pytest.mark.parametrize("variable", _PARALLEL_SWEEPS)
def test_a_sweep_on_any_cpu_count_has_the_one_cpu_bytes(variable, count, monkeypatch):
    """The blocks are cut into one range per CPU, capped at the block count, and a forked
    child renders every range but the first: the text is the one-CPU text byte for byte."""
    argv = _PARALLEL_SWEEPS[variable] + ["--count", str(count)]
    forks = _count_forks(monkeypatch)
    outputs = []
    for cpus in (1, 2, 3, 5):
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        code, out, err = _sweep_leaving_no_child(argv)
        assert (code, err) == (0, "")
        assert len(forks) == min(cpus, -(-count // cli.SWEEP_BLOCK)) - 1
        outputs.append(out)
    assert out.count("\n") == count + 1
    assert outputs == outputs[:1] * 4


def _refused():
    raise OSError("refused")


def _failing_pipe(monkeypatch):
    monkeypatch.setattr(os, "pipe", _refused)


def _failing_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", _refused)


def _failing_child(monkeypatch):
    parent, rows = os.getpid(), cli._rows
    monkeypatch.setattr(cli, "_rows", lambda *args: rows(*args) if os.getpid() == parent else 1 / 0)


def _child_reported_failed(monkeypatch):
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (waitpid(pid, options)[0], 256))


@_forking
@pytest.mark.parametrize("fail", [_failing_pipe, _failing_fork, _failing_child,
                                  _child_reported_failed])
def test_a_failed_pipe_fork_or_child_leaves_the_bytes(fail, monkeypatch):
    """The parent renders a range whose pipe or fork fails, or whose child exits nonzero."""
    argv = _PARALLEL_SWEEPS["beta_l"] + ["--count", "25119"]
    _set_cpus(monkeypatch, 1)
    expected = _sweep_leaving_no_child(argv)
    _set_cpus(monkeypatch, 3)
    fail(monkeypatch)
    assert _sweep_leaving_no_child(argv) == expected


@_forking
def test_an_exception_kills_and_reaps_every_child(monkeypatch):
    parent, rows = os.getpid(), cli._rows

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return rows(*args)

    monkeypatch.setattr(cli, "_rows", interrupted)
    _set_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        _sweep_leaving_no_child(_PARALLEL_SWEEPS["beta_l"] + ["--count", "25119"])
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_forking
def test_no_fork_for_a_failing_sweep_or_beside_a_live_thread(monkeypatch):
    _set_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    for argv in _argv("sweep-error"):
        assert _sweep_leaving_no_child(argv)[:2] == (2, "")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        code, out, _ = _sweep_leaving_no_child(_PARALLEL_SWEEPS["beta_l"] + ["--count", "8193"])
    finally:
        release.set()
        thread.join()
    assert code == 0 and out.count("\n") == 8194
    assert forks == []


@pytest.mark.parametrize("argv", _argv("one-line-error"))
def test_invalid_input_is_one_line_exit_2(argv):
    code, out, err = regen.run(argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"pairgate {argv[0]}: ")


@pytest.mark.parametrize("argv", _argv("zero-length"))
def test_zero_length_has_one_message_everywhere(argv):
    code, _, err = regen.run(argv)
    assert (code, err) == (2, f"pairgate {argv[0]}: length must be strictly positive and finite, "
                              "got 0.0\n")


@pytest.mark.parametrize("argv, inputs", [(shlex.split(line), _message(line).split("range: ")[1])
                                          for line in regen.tagged("limit-range")])
def test_limit_intensity_range_error_names_its_inputs(argv, inputs):
    """limit checks I_lim before Gamma; a length sweep computes Gamma alone."""
    what = "effective limit intensity" if argv[0] == "sweep" else "limit pump intensity"
    assert regen.run(argv) == (
        2, "", f"pairgate {argv[0]}: {what} out of the float range: {inputs}\n")


_PARSER = cli.build_parser()


@pytest.mark.parametrize("argv, message",
                         [(line, _message(line)) for line in regen.tagged("range")])
def test_range_error_names_its_inputs(argv, message):
    """A nonzero input whose result, or a partial product of it, leaves the normal floats:
    the message names each input it was computed from, and a flag given on the command
    line by the value it was given."""
    argv = shlex.split(argv)
    assert regen.run(argv) == (2, "", f"pairgate {argv[0]}: {message}\n")
    given = vars(_PARSER.parse_args(argv))
    given["chi_eff"] = given.get("chi2") or given.get("chi3")
    _, inputs = message.split(" out of the float range: ")
    for name, value in (pair.split("=") for pair in inputs.split(", ")):
        assert given.get(name) in (None, float(value)), name


@pytest.mark.parametrize("argv, columns", [
    (["flux", "--beta-l", "0", "--delta-nu", "1Hz"], ["0.0", "1.0", "0.0"]),
    (["classify", "--chi2", "1pm/V", "--length", "1cm", "--pump-field", "0V/m"],
     ["0.0", "small-signal", "0.0", "0.0"]),
    (["oracle", "--beta-l", "0", "--steps", "16"], ["0.0", "16", "0.0", "0.0", "0.0"]),
])
def test_a_zero_drive_still_gives_exact_zeros(argv, columns):
    """beta*L = 0 and a zero pump are the inputs whose zero results are exact. The oracle's
    is the one that reaches cmd_oracle's analytic > 0 fallback."""
    code, out, err = regen.run(argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",") == columns


def test_sweep_from_zero_beta_l_keeps_its_bytes():
    argv = ["sweep", "--variable", "beta_l", "--min", "0", "--max", "1e-3", "--count", "3",
            "--delta-nu", "1Hz"]
    expected = ("beta_l,pairs_per_bandwidth,pairs_per_s\n"
                "0.0,0.0,0.0\n"
                "0.0005,3.1265629558268405e-08,3.1265629558268405e-08\n"
                "0.001,1.2512507294792744e-07,1.2512507294792744e-07\n")
    assert regen.run(argv) == (0, expected, "")


def test_vacuum_seed_underflow_names_its_inputs():
    code, out, err = regen.run(["classify", "--chi2", "1pm/V", "--length", "1cm",
                                "--pump-intensity", "1MW/cm2", "--section", "1e306m2",
                                "--delta-nu", "1e-5Hz"])
    assert (code, out) == (2, "")
    assert err.startswith("pairgate classify: vacuum field out of the float range: omega=")
    assert err.endswith(", section=1e+306, delta_omega=6.283185307179587e-05\n")


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
    "oracle": _SCALAR + ["--beta-l", "--steps", "--delta-nu"],
}


def _accepted_options(parser):
    """{subcommand: its sorted option strings} of a parser that build_parser returned."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sorted(option for action in sub._actions for option in action.option_strings)
            for name, sub in subparsers.choices.items()}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    """The parser of every subcommand, and the parser of each subcommand alone."""
    expected = {name: sorted(options) for name, options in ACCEPTED_OPTIONS.items()}
    assert _accepted_options(cli.build_parser()) == expected
    for name, options in expected.items():
        assert _accepted_options(cli.build_parser(name)) == {name: options}


def test_concurrent_first_calls_all_get_a_whole_parser(tmp_path, monkeypatch):
    """Threads that make main's first call at once each parse every flag they are given."""
    monkeypatch.setattr(cli, "_parsers", {})
    argv = ["limit", "--chi2", "1pm/V", "--length", "1mm", "--lambda-s", "2um", "--n-i", "2",
            "--format", "csv"]
    barrier = threading.Barrier(8)
    codes = []

    def call(k):
        barrier.wait()
        try:
            codes.append(cli.main(argv + ["--out", str(tmp_path / f"{k}.csv")]))
        except BaseException as exc:  # SystemExit from a parser without one of the flags
            codes.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * 8
    texts = {(tmp_path / f"{k}.csv").read_text(encoding="utf-8") for k in range(8)}
    assert texts == {regen.run(argv)[1]}


def test_help_still_exits_zero():
    for argv in _argv("help"):
        code, out, err = regen.run(argv)
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: pairgate", *argv[:-1]]))


def test_main_builds_one_parser_per_subcommand_it_runs(monkeypatch):
    monkeypatch.setattr(cli, "_parsers", {})
    built = []
    build_parser = cli.build_parser

    def counting_build_parser(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    lines = regen.tagged("calls")
    regen.records(lines)
    assert sorted(built) == sorted({shlex.split(line)[0] for line in lines})
    built.clear()
    regen.records(lines)
    assert built == []
    assert build_parser("limit") is not build_parser("limit")


def test_no_call_state_leaks_into_the_next_call():
    """A rejection, --help, other flags and a ValueError in between leave the same bytes."""
    argv = ["limit", "--chi2", "1pm/V", "--length", "1mm", "--format", "csv"]
    first = regen.run(argv)
    assert regen.run(["limit", "--bogus"])[0] == 2
    assert regen.run(["flux", "--help"])[0] == 0
    assert regen.run(argv + ["--n-p", "2", "--lambda-s", "2um"])[0] == 0
    assert regen.run(["flux", "--beta-l", "400", "--delta-nu", "1GHz"])[0] == 2
    assert regen.run(argv) == first
    child = subprocess.run([sys.executable, "-m", "pairgate.cli", *argv],
                           capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == first


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
    code, out, err = regen.run(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert len(err.splitlines()) == 1
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("beta_l", [1e-150, 1.0, 100.0, 354.0])
def test_oracle_at_limit(beta_l):
    """At its default step count the oracle is sharp over the whole accepted beta*L range:
    within the RK4 scheme bound plus the rounding floor of tests/test_oracle.py."""
    code, out, _ = regen.run(["oracle", "--beta-l", repr(beta_l), "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["steps"] == str(MAX_STEPS)
    assert float(row["analytic_pairs_per_s"]) == model.pair_flux_reduced(beta_l, 1.0)
    floor = (beta_l**5 / MAX_STEPS**4
             + 8 * (math.log2(MAX_STEPS) + beta_l) * sys.float_info.epsilon)
    assert float(row["relative_error"]) <= floor


def test_oracle_custom_steps():
    code, out, _ = regen.run(
        ["oracle", "--beta-l", "2", "--steps", "64", "--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["relative_error"]) <= 1e-4
    code, out, _ = regen.run(["oracle", "--beta-l", "2", "--steps", "8"])
    assert code == 2  # below the fixed-step minimum


# --------------------------------------------------------------------------
# materials wiring
# --------------------------------------------------------------------------

def test_materials_flag_and_env(tmp_path, monkeypatch):
    custom = tmp_path / "custom.mat"
    custom.write_text(
        "[lab_crystal]\nprocess = spdc\nchi_eff = 5 pm/V\nn_p = 1.8\nn_s = 1.8\nn_i = 1.8\n"
    )
    code, out, _ = regen.run(
        ["classify", "--materials", str(custom), "--material", "lab_crystal",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"])
    assert code == 0

    monkeypatch.setenv(MATERIALS_ENV_VAR, str(custom))
    code, out, _ = regen.run(
        ["classify", "--material", "lab_crystal", "--length", "1cm",
         "--pump-intensity", "1MW/cm2"])
    assert code == 0
    # presets are shadowed by the env catalog
    code, _, err = regen.run(
        ["classify", "--material", "KTP_class", "--length", "1cm",
         "--pump-intensity", "1MW/cm2"])
    assert code == 2


def test_materials_parse_error_is_input_error(tmp_path):
    broken = tmp_path / "broken.mat"
    broken.write_text("[x]\nprocess = spdc\nchi_eff = 1 m2/V2\n")
    code, _, err = regen.run(
        ["classify", "--materials", str(broken), "--material", "x",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"])
    assert code == 2
    assert ":3:" in err


# --------------------------------------------------------------------------
# README examples
# --------------------------------------------------------------------------

def readme_cli_examples():
    """Every `pairgate ...` line of the README's command-line block, continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = next(b for b in text.split("```")[1::2] if "\npairgate criteria\n" in b)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pairgate ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep examples write their --out files here
    monkeypatch.delenv(MATERIALS_ENV_VAR, raising=False)
    examples = readme_cli_examples()
    assert len(examples) == 7
    for argv in examples:
        assert regen.run(argv)[0] == 0, argv
    assert (tmp_path / "fig3.csv").exists() and (tmp_path / "ramp.csv").exists()


# --------------------------------------------------------------------------
# table output to file, numpy and import footprint
# --------------------------------------------------------------------------

def test_out_flag_writes_table(tmp_path):
    target = tmp_path / "criteria.txt"
    assert regen.run(["criteria", "--out", str(target)]) == (0, "", "")
    assert "0.369" in target.read_text()


def test_every_subcommand_runs_without_numpy():
    """The calls records replay byte for byte in a process that cannot import numpy."""
    script = (
        "import importlib.util, sys\n"
        "sys.modules['numpy'] = None\n"  # any numpy import now raises ImportError
        f"spec = importlib.util.spec_from_file_location('regen', {regen.__file__!r})\n"
        "regen = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(regen)\n"
        "sys.stdout.write(''.join(regen.records(regen.tagged('calls'))))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.stderr == ""
    assert result.stdout == "".join(map(_EXPECTED.get, regen.tagged("calls")))


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


@pytest.mark.parametrize("argv, lazy", [([], [])] + [  # [] is a bare `import pairgate`
    (argv, ["pairgate.materials"] * ("--material" in argv)
     + ["pairgate.oracle"] * (argv[0] == "oracle")) for argv in _argv("imports")],
    ids=lambda value: " ".join(value) or "none")
def test_a_call_imports_the_catalog_and_oracle_only_where_it_runs_them(argv, lazy):
    """A call loads pairgate.materials only for --material, pairgate.oracle only for oracle."""
    src = Path(__file__).parent.parent / "src"
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import pairgate\n"
        "if sys.argv[1:]:\n"
        "    from pairgate import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted({'pairgate.materials', 'pairgate.oracle'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True,
                            text=True, env={**os.environ, MATERIALS_ENV_VAR: ""})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == lazy
