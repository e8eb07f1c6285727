"""CLI behaviour that a corpus record cannot hold.

Each CLI case's exit code, stderr and output are pinned once: its argv is a line of
tests/corpus/argv.txt, and its record is in expected.txt. The property tests here over
one-line errors, range messages, sweep errors, --help, imports and runs without numpy
take their argv from there by tag. The cases written here stay outside the corpus:
each needs a closed or redirected descriptor, a signal, threads, a monkeypatched fork
or CPU count, a catalog file or environment variable, several calls in one process, or
argv drawn by hypothesis or read from the README; or it states what a printed value
means: equal to a library call, within a bound, an exact zero or a figure the paper
quotes.
"""

import argparse
import ast
import contextlib
import csv
import errno
import io
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import model_sweep, regen, scalar_walk, sweep_rows
from pairgate import cli, model, sweep, units
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
# scalar reports: the paper's figures, and CSV equal to the library
# --------------------------------------------------------------------------

def test_criteria_prints_quoted_constants():
    code, out, _ = regen.run(["criteria"])
    assert code == 0
    for token in ("0.369", "0.738", "1.718"):
        assert token in out
    # full-precision column present
    assert repr(model.limit_criteria().pairs_limit) in out


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


def test_limit_quoted_endpoint():
    code, out, _ = regen.run(["limit", "--chi2", "1pm/V", "--length", "1mm"])
    assert code == 0
    assert "13.4 GW/cm2" in out  # 13.447, i.e. the quoted 13.5 within 1%


_AT_LIMIT = ["--chi2", "1pm/V", "--length", "1cm", "--pump-intensity", "135MW/cm2"]


def _beta_l_at_limit():
    """beta*L of _AT_LIMIT through the library: 1 pm/V, 1 um degenerate, 1 cm."""
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    return model.gain_coefficient(medium, triplet, PumpDrive.from_intensity(1.35e12)) * 1e-2


def _classify_at_limit():
    report = model.classify_regime(_beta_l_at_limit())
    return {"beta_l": report.beta_l, "regime": report.regime.value,
            "pairs_per_bandwidth": report.pairs_per_bandwidth, "field_ratio": report.field_ratio}


def _limit_fwm_10m():
    medium = Medium(process=Process.FWM, chi_eff=1e-22)
    return {"limit_intensity_W_per_m2": model.limit_pump_intensity(medium, 1e-6, 1e-6, 10.0),
            "effective_limit_W_per_m2": model.effective_limit_intensity(medium, 1e-6, 1e-6, 10.0)}


@pytest.mark.parametrize("argv, columns", [
    (["classify", *_AT_LIMIT], _classify_at_limit),
    (["flux", "--beta-l", "1.0", "--delta-nu", "1Hz"],
     lambda: {"pairs_per_s": model.pair_flux_reduced(1.0, 1.0)}),
    (["flux", *_AT_LIMIT, "--delta-nu", "1Hz"],
     lambda: {"beta_l": _beta_l_at_limit(),
              "pairs_per_s": model.pair_flux_reduced(_beta_l_at_limit(), 1.0)}),
    (["limit", "--chi3", "1e-22m2/V2", "--length", "10m"], _limit_fwm_10m),
], ids=["classify", "flux", "flux-physical", "limit"])
def test_scalar_csv_equals_the_library(argv, columns):
    """A scalar report's CSV columns are the library's values bit for bit: the CLI layer
    computes no physics."""
    code, out, _ = regen.run(argv + ["--format", "csv"])
    assert code == 0
    row = parse_csv(out)[0]
    for name, value in columns().items():
        assert (row[name] if isinstance(value, str) else float(row[name])) == value, name


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


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 6.0, 121),        # figure 2
    (0.0, 1.0, 2),
    (1e2, 1e9, 100_000),
    (0.0, 1e-320, 4),       # subnormal span: the step is subnormal, not zero
    (0.0, 5e-324, 4),       # the step underflows to zero: numpy scales i/div
    (1e-322, 1.1e-322, 7),  # so it does from a nonzero start
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


_POWERS = st.floats(-323.3, 308.0).map(lambda exponent: 10.0 ** exponent)


@settings(max_examples=300, deadline=None)
@example(start=0.0, span=3.162277e-318, log=False, count=1960)  # numpy's grid passes stop
@given(start=st.one_of(st.just(0.0), _POWERS), span=_POWERS, log=st.booleans(),
       count=st.one_of(st.integers(2, 64), st.integers(2, 3 * sweep.SWEEP_BLOCK + 1)))
def test_a_sweep_grid_is_finite_from_zero_up_and_never_decreasing(start, span, log, count):
    """What sweep._check_block relies on, as it runs a block's row at its first, first
    nonzero and last points only: a grid over a linear, log or subnormal span is finite,
    starts at or above +0.0 and never decreases, or it is a log grid that overflows."""
    assume(start < start + span < math.inf and not (log and start == 0.0))
    try:
        grid = cli.SweepSpec(start, start + span, count, log).points(0, count)
    except ValueError as exc:
        assert log and str(exc).endswith("overflows a log grid")
        return
    assert all(map(math.isfinite, grid)) and grid[0] >= 0.0 and math.copysign(1.0, grid[0]) > 0
    assert all(a <= b for a, b in zip(grid, grid[1:]))


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
    """Every row of a ~10^4-point sweep is the scalar kernels' value at its point, bit for bit,
    under the header that names its columns."""
    count = 10_001
    bounds = {"pump_intensity": ("1MW/cm2", "10GW/cm2"), "length": ("1mm", "1km"),
              "beta_l": ("1e-6" if scale == "log" else "0", "40")}[variable]
    argv = ["sweep", "--variable", variable, "--min", bounds[0], "--max", bounds[1],
            "--count", str(count), "--scale", scale]
    flags, index_flags, medium, lambdas = _SWEEP_MEDIA[medium] if medium else ([], [], None, None)
    argv += flags if variable == "length" else flags + index_flags  # Gamma reads no index
    if variable == "pump_intensity":
        argv += ["--length", "1cm"]
    if delta_nu is not None:
        argv += ["--delta-nu", delta_nu]
    code, out, _ = regen.run(argv)
    assert code == 0
    header, *lines = out.splitlines()
    columns = {"pump_intensity": "pump_intensity_W_per_m2,beta_l,pairs_per_bandwidth",
               "length": "length_m,gamma_W_per_m2", "beta_l": "beta_l,pairs_per_bandwidth"}
    assert header == columns[variable] + (",pairs_per_s" if delta_nu else "")
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    assert len(rows) == count
    points = [row[0] for row in rows]
    assert [row[1:] for row in rows] == scalar_walk(variable, points, [medium], lambdas, 1e-2,
                                                    delta_nu and 1e9)
    if variable == "pump_intensity":
        triplet = triplet_from_wavelengths(*lambdas, medium.process)
        assert [row[1] for row in rows] == [
            model.gain_coefficient(medium, triplet, PumpDrive.from_intensity(x)) * 1e-2
            for x in points]


@pytest.mark.parametrize("argv, message", [(shlex.split(line), _message(line))
                                           for line in regen.tagged("sweep-error")])
@pytest.mark.parametrize("to_file", [False, True])
def test_sweep_error_comes_before_any_output(argv, message, to_file, tmp_path):
    target = tmp_path / "out.csv"
    code, out, err = regen.run(argv + (["--out", str(target)] if to_file else []))
    assert (code, out, err) == (2, "", f"pairgate sweep: {message}\n")
    assert not target.exists()


_BLOCK = sweep.SWEEP_BLOCK


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
            [Medium(process, chi, *indices)], lambdas, length, delta_nu)


@settings(max_examples=40, deadline=None)
@given(_block_sweeps())
def test_sweep_blocks_equal_the_scalar_walk(case):
    """Around and across block boundaries, a sweep is the scalar kernels' walk bit for bit,
    or fails with the message of its first offending point."""
    variable, grid, *inputs = case
    try:
        rows = sweep_rows(model_sweep(variable, *inputs), grid)
    except ValueError as exc:
        rows = str(exc)
    assert repr(rows) == repr(scalar_walk(variable, grid, *inputs))  # repr: -0.0 too


def test_a_failing_sweep_computes_no_block(monkeypatch):
    """Every block is checked before the first one is computed: no failing sweep renders a
    row, not even one whose second block fails. Columns run only in _render_block, so none
    is computed."""
    rendered, render = [], sweep._render_block
    monkeypatch.setattr(sweep, "_render_block",
                        lambda *args: rendered.append(args) or render(*args))
    for argv in _argv("sweep-error"):
        assert regen.run(argv)[:2] == (2, "")
    assert rendered == []


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
    """Block i is rendered by process i % cpus, cpus capped at the block count: a forked
    child renders each block whose index is not a multiple of cpus, and the text is the
    one-CPU text byte for byte."""
    argv = _PARALLEL_SWEEPS[variable] + ["--count", str(count)]
    forks = _count_forks(monkeypatch)
    outputs = []
    for cpus in (1, 2, 3, 5):
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        code, out, err = _sweep_leaving_no_child(argv)
        assert (code, err) == (0, "")
        assert len(forks) == min(cpus, -(-count // sweep.SWEEP_BLOCK)) - 1
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
    parent, render = os.getpid(), sweep._render_block
    monkeypatch.setattr(sweep, "_render_block",
                        lambda *args: render(*args) if os.getpid() == parent else 1 / 0)


def _child_dying_after_a_block(monkeypatch):
    parent, render, calls = os.getpid(), sweep._render_block, []

    def dying(*args):
        if os.getpid() != parent and calls:
            os._exit(1)
        calls.append(None)
        return render(*args)

    monkeypatch.setattr(sweep, "_render_block", dying)


def _child_reported_failed(monkeypatch):
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (waitpid(pid, options)[0], 256))


@_forking
@pytest.mark.parametrize("fail", [_failing_pipe, _failing_fork, _failing_child,
                                  _child_reported_failed, _child_dying_after_a_block])
def test_a_failed_pipe_fork_or_child_leaves_the_bytes(fail, monkeypatch):
    """The caller renders the blocks of a child whose pipe or fork fails, and every block a
    child dies before sending whole; a child's exit status is not read."""
    argv = _PARALLEL_SWEEPS["beta_l"] + ["--count", "25119"]
    _set_cpus(monkeypatch, 1)
    expected = _sweep_leaving_no_child(argv)
    _set_cpus(monkeypatch, 3)
    fail(monkeypatch)
    assert _sweep_leaving_no_child(argv) == expected


@_forking
def test_an_exception_kills_and_reaps_every_child(monkeypatch):
    """The children are killed, not waited for: each would render for a minute."""
    parent, render = os.getpid(), sweep._render_block

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return render(*args)

    monkeypatch.setattr(sweep, "_render_block", interrupted)
    _set_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _sweep_leaving_no_child(_PARALLEL_SWEEPS["beta_l"] + ["--count", "25119"])
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_block_that_comes_short_is_none():
    """A child sends each block as its 8-byte length, then that many bytes; a pipe that ends
    first, in the length or in the block (the child died), gives None."""
    whole_then_short = (4).to_bytes(8, "little") + b"1,2\n" + (9).to_bytes(8, "little") + b"3,4"
    for data, blocks in [(whole_then_short, ["1,2\n", None, None]), (b"\x04\x00\x00", [None])]:
        read, write = os.pipe()
        os.write(write, data)
        os.close(write)
        with open(read, "rb") as pipe:
            assert [sweep._receive(pipe) for _ in blocks] == blocks


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=_forking)])
def test_a_sweep_streams_each_block_as_it_is_rendered(cpus, monkeypatch):
    """The header and the blocks before the last are written before the last block is
    rendered, on one CPU and on two, where the caller renders blocks 0 and 2 of 3."""
    argv = _PARALLEL_SWEEPS["beta_l"] + ["--count", str(2 * _BLOCK + 1)]
    _set_cpus(monkeypatch, 1)
    code, expected, _ = regen.run(argv)
    parent, render, written = os.getpid(), sweep._render_block, []

    def render_last_after_a_look(points, columns):
        if os.getpid() == parent and points == [5.0]:  # the last block, the grid's last point
            written.append(sys.stdout.getvalue())
        return render(points, columns)

    monkeypatch.setattr(sweep, "_render_block", render_last_after_a_look)
    _set_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    assert _sweep_leaving_no_child(argv) == (code, expected, "")
    assert len(forks) == cpus - 1
    assert written == ["".join(expected.splitlines(keepends=True)[:1 + 2 * _BLOCK])]


class _NoSpaceOnSecondWrite:
    """A text sink whose second write fails as a full disk does."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.handle.write(text)

    def close(self):
        self.handle.close()


@_forking
@pytest.mark.parametrize("to_file", [False, True])
def test_a_write_failing_midway_exits_3_and_leaves_no_child(to_file, tmp_path, monkeypatch):
    """A write that fails midway ends the call with exit 3 and one stderr line; the writer
    has killed and reaped every child before it returns, whatever still holds the chunk
    stream, and --out keeps what was written before the failure, the header."""
    target = tmp_path / "out.csv"
    argv = _PARALLEL_SWEEPS["beta_l"] + ["--count", "25119"] + ["--out", str(target)] * to_file
    _set_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    write = cli._write

    def write_then_look_for_children(output, args):
        try:
            write(output, args)
        finally:  # main still holds output here, so only the writer can have closed it
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    monkeypatch.setattr(cli, "_write", write_then_look_for_children)
    stdout, err = _NoSpaceOnSecondWrite(io.StringIO()), io.StringIO()
    if to_file:
        monkeypatch.setattr(cli, "open", lambda path, mode="r", **kwargs: (
            _NoSpaceOnSecondWrite(open(path, mode, **kwargs)) if mode == "w"
            else open(path, mode, **kwargs)), raising=False)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 3 and len(forks) == 2
    assert err.getvalue() == ("pairgate sweep: cannot write output: [Errno 28] "
                              f"{os.strerror(errno.ENOSPC)}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    header = "beta_l,pairs_per_bandwidth,pairs_per_s\n"
    assert (target.read_text() if to_file else stdout.handle.getvalue()) == header


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


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def _accepted_options(parser):
    """{subcommand: its sorted option strings} of a parser that build_parser returned: of each
    subparser of the parser with every subcommand, or of a subcommand's own parser itself."""
    subparsers = _subparsers(parser)
    parsers = subparsers[0].choices if subparsers else {parser.get_default("command"): parser}
    return {name: sorted(option for action in sub._actions for option in action.option_strings)
            for name, sub in parsers.items()}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    """The parser of every subcommand, and the parser of each subcommand alone, which has no
    subparser and reports under its own prog."""
    expected = {name: sorted(options) for name, options in ACCEPTED_OPTIONS.items()}
    assert _accepted_options(cli.build_parser()) == expected
    for name, options in expected.items():
        parser = cli.build_parser(name)
        assert (parser.prog, _subparsers(parser)) == (f"pairgate {name}", [])
        assert _accepted_options(parser) == {name: options}


# units a converter reads, to draw its values from; parse_float reads a bare number
_UNITS_OF = {cli.parse_length: units.LENGTH_UNITS, cli.parse_area: units.AREA_UNITS,
             cli.parse_intensity: units.INTENSITY_UNITS, cli.parse_field: units.FIELD_UNITS,
             cli.parse_frequency: units.FREQUENCY_UNITS, cli.parse_chi2: units.CHI2_UNITS,
             cli.parse_chi3: units.CHI3_UNITS, cli.parse_float: {"": 1.0}}
_LEADING_DASH = ["-1", "-1e3", "-0", "-h", "--help", "-"]


def _flag_table(command):
    """{option string: the keyword arguments it is added with} of a subcommand's flags."""
    table = {}
    cli._add_flags(command, lambda flag, **kwargs: table.setdefault(flag, kwargs))
    return table


def _flag_value(draw, kwargs, good):
    """A value of one flag: one it reads where good, else a bad choice, a bad unit or number,
    a non-int or a '-'-leading value. The ints it reads include 1_0 and an Arabic-Indic 3."""
    parse, choices = kwargs.get("type"), kwargs.get("choices")
    if choices:
        return draw(st.sampled_from(choices if good else ["bogus", "5", *_LEADING_DASH]))
    if parse is int:
        return draw(st.sampled_from(["16", "3", "1_0", "\u0663", " 7 "] if good
                                    else ["1e3", "0x10", "1.5", "", *_LEADING_DASH]))
    if parse is None:
        return draw(st.sampled_from(["1", "1mm", "KTP_class", "x y", ""] if good
                                    else _LEADING_DASH))
    unit = draw(st.sampled_from([*sorted(_UNITS_OF[parse]), *([] if good else ["furlong"])]))
    numbers = (["1", "2.5", ".5", "1e-3", "0", "3E2", "\u0661"] if good
               else ["1e-400", "abc", "inf", "-1", "-1e3", "1"])
    return draw(st.sampled_from(numbers)) + unit


# ways to make an argv that argparse must read: a bad value, a dropped flag (a required one
# among them), an abbreviation, --flag=value, a repeat, a flag without its value, an odd token
_FAULTS = ["value", "drop", "abbreviate", "equals", "repeat", "cut", "odd"]


@st.composite
def parser_argv(draw):
    """A subcommand and a plain argv after it, its required flags and some others, with up to
    two of _FAULTS made to it."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    table = _flag_table(command)
    pairs = [[flag, _flag_value(draw, kwargs, good=True)] for flag, kwargs in table.items()
             if kwargs.get("required") or draw(st.booleans())]
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        if fault == "odd" or not pairs:
            pairs.append([draw(st.sampled_from(["--help", "-h", "--bogus", "--", "x"]))])
            continue
        k = draw(st.integers(0, len(pairs) - 1))
        flag, *value = pairs[k]
        if fault == "value":
            pairs[k] = [flag, _flag_value(draw, table.get(flag, {}), good=False)]
        elif fault == "drop":
            del pairs[k]
        elif fault == "abbreviate" and len(flag) > 3:
            pairs[k] = [flag[:draw(st.integers(3, len(flag) - 1))], *value]
        elif fault == "equals":
            pairs[k] = ["=".join(pairs[k])]
        elif fault == "repeat":
            pairs.append(pairs[k])
        elif fault == "cut":
            pairs[k] = [flag]
    argv = [token for pair in draw(st.permutations(pairs)) for token in pair]
    return [command, *argv]


@settings(max_examples=500, deadline=None)
@given(argv=parser_argv())
def test_the_plain_reader_gives_argparse_namespace_or_declines(argv):
    """Where the plain reader reads an argv, argparse reads it into the same namespace; where
    argparse exits, on --help or a usage error, the reader declines."""
    command, rest = argv[0], argv[1:]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli.build_parser(command).parse_args(rest))
        except SystemExit:
            parsed = None
    plain = cli._read_plain(command, rest)
    assert plain is None or vars(plain) == parsed


@pytest.mark.parametrize("argv", _argv("calls"), ids=" ".join)
def test_every_calls_record_is_read_plain(argv):
    plain = cli._read_plain(argv[0], argv[1:])
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser(argv[0]).parse_args(argv[1:]))


def test_concurrent_first_calls_all_get_a_whole_parser(tmp_path):
    """Threads that call main at once, each building a parser for --format=csv, which the
    plain reader declines, each parse every flag they are given."""
    argv = ["limit", "--chi2", "1pm/V", "--length", "1mm", "--lambda-s", "2um", "--n-i", "2",
            "--format=csv"]
    barrier = threading.Barrier(8)
    codes = []

    def call(k):
        barrier.wait()
        codes.append(cli.main(argv + ["--out", str(tmp_path / f"{k}.csv")]))

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
    """A plain call, as each calls record is, builds no parser; a call that argparse reads, as
    each help record is, builds its subcommand's parser, or the one with every subcommand, on
    every call."""
    built = []
    build_parser = cli.build_parser

    def counting_build_parser(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    regen.records(regen.tagged("calls"))
    assert built == []
    lines = regen.tagged("help")
    regen.records(lines + lines)
    commands = [line.split()[0] if line.split()[0] in cli._COMMANDS else None for line in lines]
    assert built == commands + commands
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


def test_failing_calls_without_stderr_leave_every_descriptor_as_it_was(monkeypatch):
    """main with sys.stderr None, as Python sets it where descriptor 2 was closed, drops its
    message and touches no descriptor: the host keeps its count of open descriptors and the
    target of its descriptor 2."""
    def descriptors():
        return len(os.listdir("/proc/self/fd")), os.readlink("/proc/self/fd/2")

    before = descriptors()
    monkeypatch.setattr(sys, "stderr", None)
    codes = [cli.main(argv) for _ in range(25)
             for argv in (["limit", "--bogus"], ["flux", "--beta-l", "400", "--delta-nu", "1Hz"])]
    after = descriptors()
    assert codes == [2] * 50
    assert after == before


# --------------------------------------------------------------------------
# the process entry: cli.run ends every `pairgate` and `python -m pairgate.cli` process
# --------------------------------------------------------------------------

_PIPE_ARGV = [
    ["criteria"],
    ["limit", "--chi2", "1pm/V", "--length", "1mm"],
    ["sweep", "--figure", "4"],
    ["sweep", "--variable", "beta_l", "--min", "0", "--max", "5", "--count", "100000",
     "--delta-nu", "1GHz"],
]


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(argv, unbuffered, id=f"{name}-{'un' * unbuffered}buffered")
    for name, argv in [*[(f"argv{i}", argv) for i, argv in enumerate(_PIPE_ARGV)],
                       ("help", ["--help"]), ("limit-help", ["limit", "--help"])]
    for unbuffered in (False, True)])
def test_a_closed_stdout_pipe_is_exit_3_and_one_line(argv, unbuffered):
    """A buffered stdout (Python's default) held the bytes a closed pipe refused, and the
    interpreter's final flush failed on them again: exit 120 and "Exception ignored"; an
    unbuffered one let argparse drop a refused --help and exit 0. The help text is smaller
    than a pipe buffer, so the read end is closed before the child starts."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "pairgate.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    message = f"cannot write output: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    prog = "pairgate" if "--help" in argv else f"pairgate {argv[0]}"
    assert (child.returncode, child.stderr) == (3, f"{prog}: {message}\n")


def _in_shell(redirect, argv):
    """A child that runs `python -m pairgate.cli argv` with the shell redirection redirect."""
    return subprocess.run(["/bin/sh", "-c", f'exec "$0" -m pairgate.cli "$@" {redirect}',
                           sys.executable, *argv], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, prog", [(["criteria"], "pairgate criteria"),
                                        (["--help"], "pairgate")], ids=["criteria", "help"])
def test_a_closed_stdout_is_exit_3_and_one_line(argv, prog):
    """Python sets sys.stdout to None where descriptor 1 is closed: that was a traceback, and
    argparse wrote --help to stderr and exited 0."""
    child = _in_shell(">&-", argv)
    assert (child.returncode, child.stdout, child.stderr) == (
        3, "", f"{prog}: cannot write output: stdout is closed\n")


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv", [
    ["flux", "--beta-l", "-1", "--delta-nu", "1Hz"],
    ["flux", "--bogus"],
    ["sweep", "--variable", "beta_l", "--min", "0", "--max", "400", "--count", "5"],
], ids=["value-error", "usage-error", "sweep-range"])
def test_a_closed_or_read_only_stderr_keeps_exit_2_and_stdout_clean(argv, redirect):
    """A message that stderr cannot take is dropped: print(file=None) wrote it to stdout where
    descriptor 2 was closed, and a read-only descriptor 2 failed the write itself (exit 1)."""
    child = _in_shell(redirect, argv)
    assert (child.returncode, child.stdout, child.stderr) == (2, "", "")


def test_ctrl_c_during_a_sweep_is_one_line_and_death_by_sigint(tmp_path):
    """SIGINT to the call's process group, as a terminal's Ctrl-C sends it to the caller and
    its sweep workers: one line, no traceback, the workers reaped, and the call dies by SIGINT
    so that a calling shell sees the interrupt."""
    out = tmp_path / "sweep.csv"
    child = subprocess.Popen(
        [sys.executable, "-m", "pairgate.cli", "sweep", "--variable", "beta_l", "--min", "0",
         "--max", "5", "--count", "1000000", "--delta-nu", "1GHz", "--out", str(out)],
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size) and time.monotonic() < deadline:
            time.sleep(0.01)  # until the sweep writes: its handlers are then in place
        os.killpg(child.pid, signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    assert (child.returncode, err) == (-signal.SIGINT, "pairgate: interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)  # no worker is left in the call's process group


# a pairgate success, a ValueError, an argparse rejection and --help
_ENDINGS = [(["criteria"], 0), (["flux", "--beta-l", "400", "--delta-nu", "1GHz"], 2),
            (["limit", "--bogus"], 2), (["--help"], 0)]


def _run_entry(argv, setup=""):
    """Runs the process entry as `python -m pairgate.cli` does, after the statements `setup`.
    An atexit callback writes 'atexit' to descriptor 2, and an audit hook writes 'finalized'
    there where the interpreter clears its state in its teardown."""
    hook = ("import atexit, io, os, runpy, sys\n"
            "atexit.register(os.write, 2, b'atexit\\n')\n"
            "def audit(event, args, write=os.write):\n"
            "    if event == 'cpython.PyInterpreterState_Clear':\n"
            "        write(2, b'finalized\\n')\n"
            "sys.addaudithook(audit)\n"
            f"{setup}runpy.run_module('pairgate.cli', run_name='__main__', alter_sys=True)\n")
    return subprocess.run([sys.executable, "-c", hook, *argv], capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("argv, code", _ENDINGS)
def test_the_process_entry_runs_atexit_then_ends_without_finalizing(argv, code, monkeypatch):
    """However main returns, the process runs the atexit callbacks, keeps main's exit code and
    output, and ends without the interpreter's teardown."""
    monkeypatch.setenv("COLUMNS", "80")
    child = _run_entry(argv)
    expected_code, out, err = regen.run(argv)
    assert expected_code == code
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err + "atexit\n")


def test_an_exception_out_of_main_leaves_with_a_traceback_and_the_teardown():
    """Only a return from main skips the teardown: a stdout whose write raises RuntimeError
    ends the call with the traceback, exit 1, and the interpreter's own shutdown."""
    child = _run_entry(["criteria"], setup="class Refusing(io.StringIO):\n"
                                            "    def write(self, text):\n"
                                            "        raise RuntimeError('refused')\n"
                                            "sys.stdout = Refusing()\n")
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr.startswith("Traceback (most recent call last):\n")
    assert child.stderr.endswith("RuntimeError: refused\natexit\nfinalized\n")


def test_the_console_script_runs_the_entry_of_the_main_block():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    [target] = re.findall(r'^pairgate = "pairgate\.cli:(\w+)"$', pyproject, re.MULTILINE)
    [block] = [node for node in ast.parse(Path(cli.__file__).read_text()).body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(statement) for statement in block.body] == [f"{target}()"]
    assert target == "run"


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


@pytest.mark.parametrize("record, message", [
    ("chi_eff = 1 m2/V2\n", "3: chi_eff unit 'm2/V2' does not match process 'spdc'"),
    ("chi_eff = 1e-400 pm/V\n", "3: chi '1e-400 pm/V' is out of the floating-point range"),
    ("chi_eff = 1 pm/V\nn_p = 1e-400\n",
     "4: n_p: number '1e-400' is out of the floating-point range"),
], ids=["unit", "chi-underflow", "index-underflow"])
def test_materials_parse_error_is_input_error(record, message, tmp_path):
    broken = tmp_path / "broken.mat"
    broken.write_text("[x]\nprocess = spdc\n" + record)
    code, out, err = regen.run(
        ["classify", "--materials", str(broken), "--material", "x",
         "--length", "1cm", "--pump-intensity", "1MW/cm2"])
    assert (code, out, err) == (2, "", f"pairgate classify: {broken}:{message}\n")


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
# numpy and import footprint
# --------------------------------------------------------------------------

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


# sweeps that cmd_sweep rejects in its flag checks: a unit --min does not take, and --length
# on a length sweep
_REJECTED_SWEEPS = [
    ["sweep", "--variable", "length", "--chi2", "1pm/V", "--min", "1furlong", "--max", "1km"],
    ["sweep", "--variable", "length", "--chi2", "1pm/V", "--length", "1m", "--min", "1m",
     "--max", "1km"],
]


def _lazy_modules(argv):
    """The modules loaded on first use that a call passing its flag checks loads, in name
    order: the catalog for --material, the oracle and the sweep module for their subcommands,
    and the model's kernels of a configuration that it computes."""
    command = argv[0]
    figure = argv[2] if argv[1:2] == ["--figure"] else None
    variable = argv[argv.index("--variable") + 1] if "--variable" in argv else None
    loads = {
        "fields": command == "oracle" or "--section" in argv,
        "gain": (command in ("classify", "oracle") or variable == "pump_intensity"
                 or command == "flux" and "--beta-l" not in argv),
        "limit": command == "limit" or variable == "length" or figure in ("3", "4"),
        "materials": "--material" in argv,
        "oracle": command == "oracle",
        "sweep": command == "sweep",
    }
    return [f"pairgate.{name}" for name, loaded in loads.items() if loaded]


# modules a call must not load: argparse, with the gettext and locale it loads, where the argv
# is plain, and the dataclass and typing machinery anywhere
_HEAVY = {"argparse", "dataclasses", "gettext", "inspect", "locale", "typing"}
_NOT_PLAIN = ["limit", "--chi2=1pm/V", "--length", "1mm"]


@pytest.mark.parametrize("argv, lazy", [([], [])] + [  # [] is a bare `import pairgate`
    (argv, _lazy_modules(argv)) for argv in _argv("imports")]
    + [(argv, []) for argv in _REJECTED_SWEEPS] + [(_NOT_PLAIN, ["pairgate.limit"])],
    ids=lambda value: " ".join(value) or "none")
def test_a_call_imports_the_catalog_and_oracle_only_where_it_runs_them(argv, lazy):
    """A call loads pairgate.materials only for --material, pairgate.oracle only for oracle,
    pairgate.sweep only for a sweep that passes its flag checks, and pairgate.gain,
    pairgate.limit and pairgate.fields only where it computes their kernels. It loads
    argparse only for an argv that is not plain, and no dataclass or typing machinery."""
    src = Path(__file__).parent.parent / "src"
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import pairgate\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    from pairgate import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(sys.argv[1:])\n"
        "lazy = {'fields', 'gain', 'limit', 'materials', 'oracle', 'sweep'}\n"
        "print(code, *sorted({f'pairgate.{name}' for name in lazy} & set(sys.modules)))\n"
        f"print(*sorted({_HEAVY!r} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True,
                            text=True, env={**os.environ, MATERIALS_ENV_VAR: ""})
    assert result.returncode == 0, result.stderr
    calls, heavy = result.stdout.splitlines()
    assert calls.split() == [str(2 if argv in _REJECTED_SWEEPS else 0), *lazy]
    if argv == _NOT_PLAIN:
        assert "argparse" in heavy.split()
        assert set(heavy.split()) <= {"argparse", "gettext", "locale"}
    else:
        assert heavy == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--figure", "2"],
    _PARALLEL_SWEEPS["pump_intensity"] + ["--count", "8193"],  # forks where it has 2 CPUs
    ["oracle", "--beta-l", "1", "--steps", "16"],
    ["limit", "--material", "KTP_class", "--length", "1mm"],
], ids=" ".join)
def test_the_module_entry_imports_no_second_cli(argv):
    """Under `python -m pairgate.cli` the CLI is __main__: no module it imports, the sweep
    module included, imports pairgate.cli, which would compile it a second time."""
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "pairgate.cli", *argv],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           env={**os.environ, MATERIALS_ENV_VAR: ""}, timeout=60)
    assert child.returncode == 0, child.stderr
    imported = [line.rpartition("|")[2].strip() for line in child.stderr.splitlines()]
    assert "pairgate.model" in imported  # the log is there
    assert "pairgate.cli" not in imported
