"""Shared hypothesis strategies, 50-digit reference helpers, the checked-sweep helpers and
their scalar reference, the behaviour corpus's regen module and the acceptance-summary hook."""

import importlib.util
from decimal import Context, Decimal, localcontext
from pathlib import Path

from hypothesis import strategies as st

from pairgate import gain, model, sweep
from pairgate.model import (Geometry, Medium, Process, PumpDrive, WaveTriplet,
                            triplet_from_wavelengths)

# tests/corpus/regen.py, which the corpus tests and the tag-driven CLI tests share
_spec = importlib.util.spec_from_file_location("corpus_regen",
                                               Path(__file__).parent / "corpus" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        verdict = "PASS" if _acceptance_outcomes[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{nodeid.split('::')[-1]}: {verdict}")


def sweep_rows(model_sweep, points):
    """The rows of a model sweep, its (header, columns, row), over points in sweep.SWEEP_BLOCK
    blocks: sweep._check_block passes every block before columns computes any, as in
    sweep.csv. Else the message of the ValueError that the check raises."""
    _, columns, row = model_sweep
    blocks = [points[i:i + sweep.SWEEP_BLOCK] for i in range(0, len(points), sweep.SWEEP_BLOCK)]
    try:
        for block in blocks:
            sweep._check_block(block, row)
    except ValueError as exc:
        return str(exc)
    return [list(values) for block in blocks for values in zip(*columns(block))]


def model_sweep(variable, media=None, lambdas=None, length=None, delta_nu=None):
    """The (header, columns, row) of the model sweep that `sweep --variable variable` runs: of
    beta*L, of length with a Gamma column per medium of media, or of pump intensity in the one
    medium of media over length. lambdas are the signal and idler wavelengths."""
    if variable == "beta_l":
        return sweep.beta_l(delta_nu)
    if variable == "length":
        return sweep.length(media, *lambdas)
    [medium] = media
    triplet = triplet_from_wavelengths(*lambdas, medium.process)
    return sweep.pump_intensity(medium, triplet, length, delta_nu)


def scalar_walk(variable, points, media=None, lambdas=None, length=None, delta_nu=None):
    """The rows of model_sweep(variable, media, ...) at points, each without its point, walked
    point by point with the public scalar kernels, beta*L by gain._gain_product as a sweep's
    row takes it; or the message of the first ValueError they raise."""
    rows = []
    try:
        if variable == "pump_intensity":
            [medium] = media
            triplet = triplet_from_wavelengths(*lambdas, medium.process)
        for x in points:
            if variable == "length":
                rows.append([model.effective_limit_intensity(m, *lambdas, x) for m in media])
                continue
            row, beta_l = [], x
            if variable == "pump_intensity":
                beta_l = gain._gain_product(medium, triplet, PumpDrive.from_intensity(x), length)
                row.append(beta_l)
            row.append(model.pairs_per_bandwidth(beta_l))
            if delta_nu is not None:
                row.append(model.pair_flux_reduced(beta_l, delta_nu))
            rows.append(row)
    except ValueError as exc:
        return str(exc)
    return rows


# optical angular frequencies from mid-IR to near-UV (rad/s)
omegas = st.floats(min_value=1e14, max_value=1e16)
indices = st.floats(min_value=1.0, max_value=4.0)
sections = st.floats(min_value=1e-12, max_value=1e-2)
delta_omegas = st.floats(min_value=1e3, max_value=1e13)
lengths = st.floats(min_value=1e-6, max_value=1e3)
wavelengths = st.floats(min_value=4e-7, max_value=4e-6)
chi2_values = st.floats(min_value=1e-13, max_value=1e-9)
chi3_values = st.floats(min_value=1e-24, max_value=1e-16)
processes = st.sampled_from(Process)
gain_products = st.floats(min_value=0.0, max_value=20.0)


@st.composite
def triplets(draw, process=None):
    proc = draw(processes) if process is None else process
    omega_s = draw(omegas)
    omega_i = draw(omegas)
    return WaveTriplet(omega_s, omega_i, proc)


@st.composite
def media(draw, process=None):
    proc = draw(processes) if process is None else process
    chi = draw(chi2_values if proc is Process.SPDC else chi3_values)
    return Medium(
        process=proc,
        chi_eff=chi,
        n_p=draw(indices),
        n_s=draw(indices),
        n_i=draw(indices),
    )


@st.composite
def geometries(draw):
    return Geometry(length=draw(lengths), section=draw(sections))


@st.composite
def matched_scenarios(draw, process=None):
    """(medium, triplet, geometry) with consistent process."""
    proc = draw(processes) if process is None else process
    return draw(media(process=proc)), draw(triplets(process=proc)), draw(geometries())


# 50-digit references: the closed forms evaluated in decimal on the same double inputs
# and constants, so that a kernel's error against them is its own rounding
REFERENCE = Context(prec=50, Emin=-99999, Emax=99999)


def decimal_expm1(x: float) -> Decimal:
    """exp(x) - 1 at REFERENCE precision for a float x >= 0; by its series below 1e-3,
    where exp(x) - 1 in decimal would cancel."""
    with localcontext(REFERENCE):
        d = Decimal(x)
        if x >= 1e-3:
            return d.exp() - 1
        term = total = d
        for k in range(2, 30):  # the tail is below (1e-3)^30/30!
            term = term * d / k
            total += term
        return total


def exact_pair_flux(beta_l: float, delta_nu: float) -> Decimal:
    """(delta_nu/8)*(exp(beta_l) - 1)^2 at REFERENCE precision."""
    with localcontext(REFERENCE):
        return Decimal(delta_nu) / 8 * decimal_expm1(beta_l) ** 2
