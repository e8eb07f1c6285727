"""Core model tests: the paper's figures, invariants and value-type contracts.

A single point of a public callable (an exact zero, a frozen value, a domain
error and its message) is pinned once, as a point of its row in
tests/test_float_range.py. The paper's figures 0.369 and 1.718 keep their own
tests here; their frozen numbers were computed independently with 30-digit
arithmetic from the closed forms and CODATA 2018 constants.
"""

import math
import struct
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    delta_omegas,
    exact_pair_flux,
    gain_products,
    indices,
    lengths,
    matched_scenarios,
    media,
    model_sweep,
    omegas,
    scalar_walk,
    sections,
    sweep_rows,
    wavelengths,
)
from pairgate import gain, model
from pairgate.cli import SweepSpec
from pairgate.constants import CODATA2018
from pairgate.fields import _photon_partials
from pairgate.model import (
    BETA_L_MAX,
    Arm,
    AsymptoteBranch,
    Bandwidth,
    Geometry,
    Medium,
    Process,
    PumpDrive,
    Regime,
    WaveTriplet,
    classify_regime,
    coupling_factor,
    effective_limit_intensity,
    field_ratio,
    flux_asymptote,
    gain_coefficient,
    generated_field,
    limit_criteria,
    limit_pump_intensity,
    pair_flux_general,
    pair_flux_reduced,
    pairs_per_bandwidth,
    pump_for_gain,
    triplet_from_wavelengths,
    vacuum_fluctuation,
)
from pairgate.materials import MaterialRecord
from pairgate.oracle import IntegrationConfig, OdeState

C = CODATA2018.c


# --------------------------------------------------------------------------
# the range rule
# --------------------------------------------------------------------------

@pytest.mark.parametrize("values, normal", [
    ((sys.float_info.min,), True),
    ((sys.float_info.max,), True),
    ((0.0,), False),
    ((-0.0,), False),
    ((5e-324,), False),
    ((-1.0,), False),
    ((math.inf,), False),
    ((math.nan, 1.0, 1.0), False),
    ((1.0, math.nan, 1.0), False),
    ((1.0, 1.0, math.nan), False),
])
def test_normal_is_the_range_rule_with_inclusive_edges(values, normal):
    """model._normal, the range rule's one statement: true on the normal floats, both edges
    included, and false on a NaN at any position."""
    assert model._normal(*values) is normal


# --------------------------------------------------------------------------
# coupling factor
# --------------------------------------------------------------------------

@given(omega=omegas, n=indices)
def test_coupling_factor_halves_when_index_doubles(omega, n):
    assert coupling_factor(omega, 2.0 * n) == pytest.approx(
        0.5 * coupling_factor(omega, n), rel=1e-12
    )


# --------------------------------------------------------------------------
# vacuum fluctuations
# --------------------------------------------------------------------------

@given(omega=omegas, n=indices, section=sections, d_omega=delta_omegas)
def test_vacuum_fluctuation_sqrt_bandwidth_scaling(omega, n, section, d_omega):
    base = vacuum_fluctuation(omega, n, section, d_omega)
    assert vacuum_fluctuation(omega, n, section, 4.0 * d_omega) == pytest.approx(
        2.0 * base, rel=1e-12
    )


@given(omega=omegas, n=indices, section=sections, d_omega=delta_omegas)
def test_vacuum_fluctuation_matches_photon_energy_form(omega, n, section, d_omega):
    # same amplitude written with h*nu*delta_nu instead of hbar*omega*delta_omega
    nu = omega / (2.0 * math.pi)
    d_nu = d_omega / (2.0 * math.pi)
    alt = math.sqrt(CODATA2018.h * nu * d_nu / (2.0 * C * CODATA2018.eps0 * n * section))
    assert vacuum_fluctuation(omega, n, section, d_omega) == pytest.approx(alt, rel=1e-12)


# --------------------------------------------------------------------------
# pump intensity <-> field
# --------------------------------------------------------------------------

@given(intensity=st.floats(min_value=0.0, max_value=1e18), n=indices)
def test_intensity_field_round_trip(intensity, n):
    # below the smallest normal intensity (and within rounding of it), the field's square or
    # the intensity back is subnormal, and the call that would give it raises the range error
    try:
        field = PumpDrive.from_intensity(intensity).field(n)
    except ValueError as exc:
        assert str(exc) == f"pump field out of the float range: intensity={intensity!r}, n_p={n!r}"
        assert 0.0 < intensity < sys.float_info.min
        return
    try:
        back = PumpDrive.from_field(field).as_intensity(n)
    except ValueError as exc:
        assert str(exc) == f"pump intensity out of the float range: pump_field={field!r}, n_p={n!r}"
        assert 0.0 < intensity < sys.float_info.min * (1 + 1e-12)  # within the round trip's 1e-12
        return
    assert back == pytest.approx(intensity, rel=1e-12, abs=0.0)


# --------------------------------------------------------------------------
# gain coefficient
# --------------------------------------------------------------------------

def degenerate_spdc(chi2=1e-12):
    medium = Medium(process=Process.SPDC, chi_eff=chi2)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    return medium, triplet


def test_gain_reaches_unity_product_at_quoted_intensity():
    # 13.5 GW/cm^2 over 1 mm is the quoted beta*L = 1 point for a 1 pm/V medium
    medium, triplet = degenerate_spdc()
    beta = gain_coefficient(medium, triplet, PumpDrive.from_intensity(1.35e14))
    assert beta * 1e-3 == pytest.approx(1.0, rel=0.01)


@given(intensity=st.floats(min_value=1e3, max_value=1e15))
def test_fwm_gain_quadratic_in_pump_field(intensity):
    medium = Medium(process=Process.FWM, chi_eff=1e-22)
    triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.FWM)
    base = gain_coefficient(medium, triplet, PumpDrive.from_intensity(intensity))
    doubled = gain_coefficient(medium, triplet, PumpDrive.from_intensity(2.0 * intensity))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


@given(scenario=matched_scenarios(), beta_l=st.floats(min_value=1e-6, max_value=20.0))
def test_pump_for_gain_inverts_gain_coefficient(scenario, beta_l):
    medium, triplet, geometry = scenario
    pump = pump_for_gain(medium, triplet, geometry, beta_l)
    assert gain_coefficient(medium, triplet, pump) * geometry.length == pytest.approx(
        beta_l, rel=1e-12
    )


# --------------------------------------------------------------------------
# pair flux
# --------------------------------------------------------------------------

def test_pair_flux_reduced_frozen_values():
    assert pair_flux_reduced(1.0, 1.0) == pytest.approx(0.369061555252, rel=1e-10)
    assert pair_flux_reduced(2.0, 1.0) == pytest.approx(5.10250472941, rel=1e-10)


def test_beta_l_max_is_the_overflow_edge():
    above = math.nextafter(BETA_L_MAX, math.inf)
    for kernel in (pairs_per_bandwidth, field_ratio, classify_regime,
                   lambda x: flux_asymptote(x, AsymptoteBranch.HIGH),
                   lambda x: pair_flux_reduced(x, 1.0)):
        kernel(BETA_L_MAX)  # the edge itself is finite
        with pytest.raises(ValueError, match="BETA_L_MAX"):
            kernel(above)
    assert math.isfinite(pairs_per_bandwidth(BETA_L_MAX))
    assert math.isfinite(flux_asymptote(BETA_L_MAX, AsymptoteBranch.HIGH))


def test_pair_flux_general_at_limit_matches_quoted_value():
    medium, triplet = degenerate_spdc()
    geometry = Geometry(length=1e-3, section=1e-6)
    d_omega = 2.0 * math.pi
    vac_s = vacuum_fluctuation(triplet.omega_s, medium.n_s, geometry.section, d_omega)
    vac_i = vacuum_fluctuation(triplet.omega_i, medium.n_i, geometry.section, d_omega)
    flux = pair_flux_general(1.0, vac_s, vac_i, triplet, medium, geometry)
    assert flux == pytest.approx(0.369, rel=0.005)


def flux_or_underflow(kernel, *args, exact):
    """kernel(*args), or None where it raises the range error, which it may only where
    the exact flux is below the smallest normal float."""
    try:
        return kernel(*args)
    except ValueError as exc:
        assert "out of the float range" in str(exc)
        assert exact < sys.float_info.min, (args, exact)
        return None


@given(scenario=matched_scenarios(), beta_l=gain_products, d_omega=delta_omegas)
def test_pair_flux_general_reduces_for_vacuum_seeds(scenario, beta_l, d_omega):
    medium, triplet, geometry = scenario
    vac_s = vacuum_fluctuation(triplet.omega_s, medium.n_s, geometry.section, d_omega)
    vac_i = vacuum_fluctuation(triplet.omega_i, medium.n_i, geometry.section, d_omega)
    delta_nu = d_omega / (2.0 * math.pi)
    exact = exact_pair_flux(beta_l, delta_nu)
    general = flux_or_underflow(pair_flux_general, beta_l, vac_s, vac_i, triplet, medium,
                                geometry, exact=exact)
    reduced = flux_or_underflow(pair_flux_reduced, beta_l, delta_nu, exact=exact)
    if exact >= sys.float_info.min:
        assert general == pytest.approx(reduced, rel=1e-12, abs=0.0)


def test_pairs_per_bandwidth_values():
    assert pairs_per_bandwidth(1.0) == pytest.approx(0.369061555252, rel=1e-10)
    assert pairs_per_bandwidth(0.0) == 0.0
    assert pairs_per_bandwidth(0.01) == pytest.approx(1.26257323025e-5, rel=1e-10)
    # small gain stays within 1% of the quadratic branch
    quad = flux_asymptote(0.01, AsymptoteBranch.SMALL)
    assert abs(quad - pairs_per_bandwidth(0.01)) / pairs_per_bandwidth(0.01) < 0.01


# --------------------------------------------------------------------------
# asymptotes
# --------------------------------------------------------------------------

def test_high_branch_error_below_permille_at_gain_eight():
    exact = pairs_per_bandwidth(8.0)
    approx = flux_asymptote(8.0, AsymptoteBranch.HIGH)
    assert abs(approx - exact) / exact < 1e-3


@given(beta_l=st.floats(min_value=2.0, max_value=20.0))
def test_high_branch_error_bound(beta_l):
    # leading-order error is 2*exp(-beta_l); factor 1.3 absorbs the
    # next-order correction, which peaks at ~1.25 at beta_l = 2
    exact = pairs_per_bandwidth(beta_l)
    approx = flux_asymptote(beta_l, AsymptoteBranch.HIGH)
    assert abs(approx - exact) / exact <= 2.0 * math.exp(-beta_l) * 1.3


@given(beta_l=st.floats(min_value=1e-8, max_value=0.01))
def test_small_branch_within_percent_below_hundredth(beta_l):
    exact = pairs_per_bandwidth(beta_l)
    approx = flux_asymptote(beta_l, AsymptoteBranch.SMALL)
    assert abs(approx - exact) / exact < 0.01


# --------------------------------------------------------------------------
# limit criteria and field ratio
# --------------------------------------------------------------------------

def test_limit_criteria_closed_forms():
    crit = limit_criteria()
    growth = math.e - 1.0
    assert crit.pairs_limit == growth**2 / 8.0
    assert crit.photons_limit == growth**2 / 4.0
    assert crit.field_ratio_limit == growth


def test_limit_criteria_identities():
    crit = limit_criteria()
    assert crit.photons_limit == pytest.approx(2.0 * crit.pairs_limit, rel=1e-15)
    assert crit.field_ratio_limit**2 / 8.0 == pytest.approx(crit.pairs_limit, rel=1e-15)


def test_limit_criteria_display_values():
    crit = limit_criteria()
    assert f"{crit.pairs_limit:.3f}" == "0.369"
    assert f"{crit.photons_limit:.3f}" == "0.738"
    assert f"{crit.field_ratio_limit:.3f}" == "1.718"


def test_field_ratio_values():
    assert field_ratio(1.0) == pytest.approx(1.71828182846, rel=1e-10)
    assert field_ratio(0.0) == 0.0
    assert field_ratio(math.log(2.0)) == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------------------
# generated field and photon number
# --------------------------------------------------------------------------

def test_generated_field_at_limit_is_ratio_times_vacuum():
    medium, triplet = degenerate_spdc()
    geometry = Geometry(length=1e-3, section=1e-6)
    bandwidth = Bandwidth.from_delta_nu(1e9)
    vac = vacuum_fluctuation(
        triplet.omega_s, medium.n_s, geometry.section, bandwidth.delta_omega
    )
    gen = generated_field(1.0, triplet, medium, geometry, bandwidth, Arm.SIGNAL)
    assert gen == pytest.approx(1.718281828 * vac, rel=1e-9)


@given(
    scenario=matched_scenarios(),
    beta_l=gain_products,
    d_omega=delta_omegas,
    arm=st.sampled_from(Arm),
)
def test_photon_number_round_trip(scenario, beta_l, d_omega, arm):
    medium, triplet, geometry = scenario
    bandwidth = Bandwidth(delta_omega=d_omega)
    exact = exact_pair_flux(beta_l, bandwidth.delta_nu)
    reduced = flux_or_underflow(pair_flux_reduced, beta_l, bandwidth.delta_nu, exact=exact)
    if reduced is None:
        return
    field = generated_field(beta_l, triplet, medium, geometry, bandwidth, arm)
    photons = _photon_partials(field, triplet.omega(arm), medium.n(arm), geometry.section)[-1]
    assert photons == pytest.approx(reduced, rel=1e-9)


# --------------------------------------------------------------------------
# limit pump intensity
# --------------------------------------------------------------------------

def test_effective_limit_quoted_endpoints():
    spdc = Medium(process=Process.SPDC, chi_eff=1e-12)
    # 13.5 GW/cm^2 at 1 mm, 135 MW/cm^2 at 1 cm (1e13 W/m2 per GW/cm2)
    assert effective_limit_intensity(spdc, 1e-6, 1e-6, 1e-3) == pytest.approx(
        1.35e14, rel=0.01
    )
    assert effective_limit_intensity(spdc, 1e-6, 1e-6, 1e-2) == pytest.approx(
        1.35e12, rel=0.01
    )


def test_effective_limit_divides_out_indices():
    spdc = Medium(process=Process.SPDC, chi_eff=1e-12, n_p=1.8, n_s=1.7, n_i=1.6)
    i_lim = limit_pump_intensity(spdc, 1e-6, 1.2e-6, 5e-3)
    gamma = effective_limit_intensity(spdc, 1e-6, 1.2e-6, 5e-3)
    assert gamma == pytest.approx(i_lim / (1.8 * 1.7 * 1.6), rel=1e-12)

    fwm = Medium(process=Process.FWM, chi_eff=1e-22, n_p=1.5, n_s=1.45, n_i=1.44)
    i_lim = limit_pump_intensity(fwm, 1e-6, 1.2e-6, 5e-3)
    gamma = effective_limit_intensity(fwm, 1e-6, 1.2e-6, 5e-3)
    assert gamma == pytest.approx(i_lim / (1.5 * math.sqrt(1.45 * 1.44)), rel=1e-12)


@given(chi=st.floats(1e-25, 1e-8), field=st.floats(0.0, 1e12), root=st.floats(1e3, 1e9),
       length=st.floats(1e-4, 1e3), process=st.sampled_from(list(Process)))
def test_beta_l_column_is_the_drive_coupling_times_root_times_length(chi, field, root, length,
                                                                     process):
    """The oracle's scalar _drive_coupling and the sweeps' _beta_ls agree bit for bit."""
    assert (gain._beta_ls((field,), chi, root, length, process)
            == [gain._drive_coupling(chi, field, process) * root * length])


# columns no grid produces: NaN, infinite, negative or zero points, anywhere in the column
_ODD_COLUMNS = [[1.0, math.nan, 2.0], [1.0, 2.0, math.nan], [1.0, math.inf], [2.0, -1.0, 1.0],
                [3.0, 0.0, 1.0], [1.0, -math.inf], [1.0, 400.0, math.nan]]


@pytest.mark.parametrize("column", _ODD_COLUMNS)
@pytest.mark.parametrize("delta_nu", [None, 1e9, 0.0])
def test_flux_columns_stop_where_the_scalar_kernels_do(column, delta_nu):
    assert (sweep_rows(model_sweep("beta_l", delta_nu=delta_nu), column)
            == scalar_walk("beta_l", column, delta_nu=delta_nu))


@pytest.mark.parametrize("column", _ODD_COLUMNS)
@pytest.mark.parametrize("process", [Process.SPDC, Process.FWM])
def test_gamma_columns_stop_where_the_scalar_kernel_does(column, process):
    inputs = [Medium(process, 1e-12), Medium(process, 1e-20, 1.5, 1.4, 1.6)], (1e-6, 1.2e-6)
    assert (sweep_rows(model_sweep("length", *inputs), column)
            == scalar_walk("length", column, *inputs))


@pytest.mark.parametrize("column", [[0.0, 5e-301, 1e-300], [0.0, 0.0, 1e-300], [1e-300, 1e300],
                                    [0.0, 1.0, 1e300], [1e-320, 1e-310, 1e-300, 1.0]])
@pytest.mark.parametrize("delta_nu", [None, 1e9, 0.0])
@pytest.mark.parametrize("process", [Process.SPDC, Process.FWM])
def test_pump_columns_stop_where_the_scalar_kernels_do(column, delta_nu, process):
    """Intensities whose gain under- or overflows are walked with _gain_product and the
    flux kernels point by point, and raise where that walk does."""
    inputs = [Medium(process, 1e-12 if process is Process.SPDC else 1e-22)], (1e-6, 1e-6), 1.0
    assert (sweep_rows(model_sweep("pump_intensity", *inputs, delta_nu), column)
            == scalar_walk("pump_intensity", column, *inputs, delta_nu))


def _bits(x: float) -> int:
    """The bit pattern of a float; positive floats and their patterns share one order."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _first_failing(walk, passing: float, failing: float) -> float:
    """The float next to the last one at which the scalar walk of a one-point column passes,
    between a passing and a failing point, by bisection over the bit patterns."""
    good, bad = _bits(passing), _bits(failing)
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        if isinstance(walk([_float(mid)]), str):
            bad = mid
        else:
            good = mid
    return _float(bad)


def _sweep_edges():
    """(variable, media, lambdas, length, delta_nu) of a sweep, a passing point and a failing
    one, per range edge of each swept quantity."""
    def flux(delta_nu):
        return "beta_l", None, None, None, delta_nu

    def pump(medium, delta_nu):
        return "pump_intensity", [medium], (1e-6, 1e-6), 1.0, delta_nu

    def gamma(medium, lambda_s):
        return "length", [medium], (lambda_s, lambda_s), None, None

    spdc, strong, weak = (Medium(Process.SPDC, chi) for chi in (1e-12, 1e88, 1e-290))
    edges = {
        "beta_l-pair-flux-overflow": (flux(1e200), 100.0, 300.0),
        "beta_l-pair-flux-underflow-near-4.2e-154": (flux(1.0), 1.0, 1e-160),
        "intensity-gain-E_p^2-underflow": (pump(strong, 1e9), 1e-200, 1e-320),
        "intensity-pairs-per-bandwidth-underflow": (pump(spdc, 1e9), 1.0, 1e-305),
        "intensity-pair-flux-overflow": (pump(spdc, 1e9), 1.0, 1e300),
        "intensity-pump-field-overflow": (pump(weak, 1e9), 1e280, 1e308),
        "length-(L*chi)^2-underflow": (gamma(spdc, 1e-6), 1.0, 1e-150),
        "length-quotient-overflow": (gamma(spdc, 1e100), 1.0, 1e-60),
        "length-quotient-underflow": (gamma(spdc, 1e-6), 1.0, 1e200),
    }
    return [pytest.param(*edge, id=name) for name, edge in edges.items()]


@pytest.mark.parametrize("inputs, passing, failing", _sweep_edges())
def test_sweep_blocks_at_the_range_edges_equal_the_scalar_walk(inputs, passing, failing):
    """The block check trusts each column to be monotone in the swept point: blocks that
    end or start 0 to 3 ulp either side of the point where the scalar kernels start to
    raise are the scalar walk bit for bit, or raise its first message."""
    variable, *rest = inputs
    sweep = model_sweep(variable, *rest)

    def walk(column):
        return scalar_walk(variable, column, *rest)

    edge = _first_failing(walk, passing, failing)
    inward = -1 if edge > passing else 1  # one bit pattern toward the passing point
    assert isinstance(walk([edge]), str)
    assert not isinstance(walk([_float(_bits(edge) + inward)]), str)
    for steps in range(-4, 4):
        point = _float(_bits(edge) + steps)
        run = [_float(_bits(point) + k) for k in range(4)]
        for block in (sorted([passing, point]), [0.0, *sorted([passing, point])], run):
            assert sweep_rows(sweep, block) == walk(block)


@given(medium=media(), lambda_s=wavelengths, lambda_i=wavelengths, length=lengths)
def test_limit_intensity_round_trip(medium, lambda_s, lambda_i, length):
    # pumping at the limit intensity must give beta*L = 1
    i_lim = limit_pump_intensity(medium, lambda_s, lambda_i, length)
    triplet = triplet_from_wavelengths(lambda_s, lambda_i, medium.process)
    beta = gain_coefficient(medium, triplet, PumpDrive.from_intensity(i_lim))
    assert beta * length == pytest.approx(1.0, rel=1e-9)


# --------------------------------------------------------------------------
# regime classification
# --------------------------------------------------------------------------

def test_classify_examples():
    assert classify_regime(0.1, 0.01).regime is Regime.SMALL_SIGNAL
    report = classify_regime(1.0, 0.01)
    assert report.regime is Regime.AT_LIMIT
    assert report.pairs_per_bandwidth == pytest.approx(0.369, rel=1e-3)
    assert classify_regime(3.0, 0.01).regime is Regime.HIGH_SIGNAL


def test_classify_band_edges():
    assert classify_regime(0.99, 0.01).regime is Regime.AT_LIMIT
    assert classify_regime(1.01, 0.01).regime is Regime.AT_LIMIT
    assert classify_regime(0.9899, 0.01).regime is Regime.SMALL_SIGNAL
    assert classify_regime(1.0101, 0.01).regime is Regime.HIGH_SIGNAL
    assert classify_regime(1.0101).regime is Regime.HIGH_SIGNAL  # the default band is 0.01
    assert classify_regime(1.0099).regime is Regime.AT_LIMIT


def test_classify_report_consistency():
    report = classify_regime(2.5)
    assert report.pairs_per_bandwidth == pairs_per_bandwidth(2.5)
    assert report.field_ratio == field_ratio(2.5)


# --------------------------------------------------------------------------
# cross-cutting invariants
# --------------------------------------------------------------------------

@given(beta_l=st.floats(min_value=1e-12, max_value=20.0))
def test_hyperbolic_identity_of_stable_forms(beta_l):
    # [(cosh-1) + sinh] == expm1 for the cancellation-stable evaluations
    lhs = 2.0 * math.sinh(0.5 * beta_l) ** 2 + math.sinh(beta_l)
    rhs = math.expm1(beta_l)
    assert lhs**2 == pytest.approx(rhs**2, rel=1e-12)


@given(scenario=matched_scenarios(), d_omega=delta_omegas)
def test_vacuum_arm_symmetry(scenario, d_omega):
    # the idler vacuum amplitude rescaled by the arm weight equals the signal one
    medium, triplet, geometry = scenario
    vac_s = vacuum_fluctuation(triplet.omega_s, medium.n_s, geometry.section, d_omega)
    vac_i = vacuum_fluctuation(triplet.omega_i, medium.n_i, geometry.section, d_omega)
    weight = math.sqrt(triplet.omega_s * medium.n_i / (triplet.omega_i * medium.n_s))
    assert weight * vac_i == pytest.approx(vac_s, rel=1e-12)


@given(scenario=matched_scenarios())
def test_small_signal_pump_scaling(scenario):
    medium, triplet, geometry = scenario
    base_pump = pump_for_gain(medium, triplet, geometry, 1e-3)
    base_intensity = base_pump.as_intensity(medium.n_p)
    doubled = PumpDrive.from_intensity(2.0 * base_intensity)
    beta_l = gain_coefficient(medium, triplet, doubled) * geometry.length
    ratio = pairs_per_bandwidth(beta_l) / pairs_per_bandwidth(1e-3)
    expected = 2.0 if medium.process is Process.SPDC else 4.0
    assert ratio == pytest.approx(expected, rel=0.01)


@settings(max_examples=50)
@given(
    x1=st.floats(min_value=1e-6, max_value=20.0),
    x2=st.floats(min_value=1e-6, max_value=20.0),
)
def test_pairs_per_bandwidth_strictly_increasing(x1, x2):
    lo, hi = sorted((x1, x2))
    assume(hi > lo * (1.0 + 1e-12))
    assert pairs_per_bandwidth(lo) < pairs_per_bandwidth(hi)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class TestWaveTriplet:
    def test_energy_conservation_enforced(self):
        spdc = WaveTriplet(1.2e15, 0.8e15, Process.SPDC)
        assert spdc.omega_p == 1.2e15 + 0.8e15
        fwm = WaveTriplet(1.2e15, 0.8e15, Process.FWM)
        assert fwm.omega_p == 0.5 * (1.2e15 + 0.8e15)
        assert WaveTriplet._fields == ("omega_s", "omega_i", "process")
        with pytest.raises(AttributeError):
            spdc.omega_p = 3e15  # derived, never stored

    def test_positive_frequencies_required(self):
        with pytest.raises(ValueError):
            WaveTriplet(-1e15, 3e15, Process.SPDC)
        with pytest.raises(ValueError, match="omega_s"):
            WaveTriplet(math.nan, 1e15, Process.SPDC)
        with pytest.raises(ValueError, match="lambda_s"):
            triplet_from_wavelengths(0.0, 1e-6, Process.SPDC)

    def test_from_wavelengths_degenerate(self):
        triplet = triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
        assert triplet.omega_s == triplet.omega_i
        assert triplet.omega_p == 2.0 * triplet.omega_s


class TestMedium:
    def test_validation(self):
        with pytest.raises(ValueError):
            Medium(process=Process.SPDC, chi_eff=0.0)
        with pytest.raises(ValueError):
            Medium(process=Process.SPDC, chi_eff=1e-12, n_s=0.9)
        with pytest.raises(ValueError, match="n_s"):
            Medium(process=Process.SPDC, chi_eff=1e-12, n_s=math.inf)
        with pytest.raises(ValueError, match="chi_eff"):
            Medium(process=Process.SPDC, chi_eff=math.nan)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(length=0.0, section=1e-6)
        with pytest.raises(ValueError):
            Geometry(length=1e-3, section=-1e-6)
        with pytest.raises(ValueError, match="length"):
            Geometry(math.nan, 1e-6)


class TestPumpDrive:
    def test_exactly_one_representation(self):
        with pytest.raises(ValueError):
            PumpDrive()
        with pytest.raises(ValueError):
            PumpDrive(intensity=1.0, field_amplitude=1.0)
        with pytest.raises(ValueError):
            PumpDrive.from_intensity(-1.0)
        with pytest.raises(ValueError, match="finite"):
            PumpDrive.from_intensity(math.inf)
        with pytest.raises(ValueError, match="finite"):
            PumpDrive.from_field(math.nan)

    def test_conversion_consistency(self):
        drive = PumpDrive.from_intensity(1e13)
        assert drive.field(1.0) == pytest.approx(86802109.8438, rel=1e-10)
        assert drive.as_intensity(1.0) == 1e13
        back = PumpDrive.from_field(drive.field(1.5))
        assert back.as_intensity(1.5) == pytest.approx(1e13, rel=1e-12)


class TestBandwidth:
    def test_two_pi_relation(self):
        bandwidth = Bandwidth.from_delta_nu(1e9)
        assert bandwidth.delta_omega == pytest.approx(2.0 * math.pi * 1e9, rel=1e-15)
        assert bandwidth.delta_nu == pytest.approx(1e9, rel=1e-15)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Bandwidth(delta_omega=0.0)
        with pytest.raises(ValueError):
            Bandwidth.from_delta_nu(-1.0)
        with pytest.raises(ValueError, match="finite"):
            Bandwidth(math.nan)
        with pytest.raises(ValueError, match=r"^bandwidth out of the float range: delta_nu=1e\+308"):
            Bandwidth.from_delta_nu(1e308)  # 2*pi*delta_nu overflows
        with pytest.raises(ValueError, match=r"^bandwidth out of the float range: delta_nu=1e-310"):
            Bandwidth.from_delta_nu(1e-310)  # 2*pi*delta_nu is subnormal


# (class, valid arguments, field, a value its check rejects, the message it raises)
CHECKED_VALUES = [
    (WaveTriplet, (1e15, 1e15, Process.SPDC), "omega_s", -1e15,
     "omega_s must be strictly positive and finite, got -1000000000000000.0"),
    (Medium, (Process.SPDC, 1e-12), "n_p", 0.5, "n_p must be >= 1 and finite, got 0.5"),
    (Medium, (Process.SPDC, 1e-12), "process", "spdc",  # the enum's value, not its member
     "process must be Process.SPDC or Process.FWM, got 'spdc'"),
    (Geometry, (1e-3, 1e-6), "section", 0.0,
     "section must be strictly positive and finite, got 0.0"),
    (PumpDrive, (1e13,), "intensity", -1.0, "pump drive must be nonnegative and finite, got -1.0"),
    (Bandwidth, (1e9,), "delta_omega", math.nan,
     "bandwidth delta_omega must be strictly positive and finite, got nan"),
    (OdeState, (0.0, 1.0, 0.0), "e_i", -1.0, "e_i must be nonnegative and finite, got -1.0"),
    (IntegrationConfig, (1024,), "steps", 8, "steps must be >= 16"),
    (SweepSpec, (0.0, 1.0, 5), "count", 1, "sweep requires at least 2 points"),
]


@pytest.mark.parametrize("cls, args, field, bad, message", CHECKED_VALUES,
                         ids=[case[0].__name__ for case in CHECKED_VALUES])
def test_construction_make_and_replace_run_the_same_check(cls, args, field, bad, message):
    good = cls(*args)
    assert cls._make(args) == good
    values = dict(zip(cls._fields, good), **{field: bad})
    with pytest.raises(ValueError) as built:
        cls(**values)
    with pytest.raises(ValueError) as made:
        cls._make(values.values())
    with pytest.raises(ValueError) as replaced:
        good._replace(**{field: bad})
    assert str(built.value) == str(made.value) == str(replaced.value) == message


def _counted_hook(monkeypatch, cls) -> list:
    """Wraps cls.__post_init__, as the bench tracer does for PumpDrive; returns the
    list of values the hook ran on."""
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


@pytest.mark.parametrize("cls, args, field, bad, message", CHECKED_VALUES,
                         ids=[case[0].__name__ for case in CHECKED_VALUES])
def test_post_init_is_the_one_construction_hook(cls, args, field, bad, message, monkeypatch):
    calls = _counted_hook(monkeypatch, cls)
    good = cls(*args)
    made = cls._make(args)
    replaced = good._replace(**{field: getattr(good, field)})
    assert list(map(id, calls)) == list(map(id, (good, made, replaced)))


def test_every_pump_drive_constructor_runs_the_hook_once(monkeypatch):
    calls = _counted_hook(monkeypatch, PumpDrive)
    triplet = WaveTriplet(1e15, 1e15, Process.SPDC)
    drives = [PumpDrive.from_intensity(1e13), PumpDrive.from_field(1e6),
              pump_for_gain(Medium(Process.SPDC, 1e-12), triplet, Geometry(1e-3, 1e-6), 1.0)]
    assert list(map(id, calls)) == list(map(id, drives))


VALUES = list({cls: cls(*args) for cls, args, *_ in CHECKED_VALUES}.values()) + [
    classify_regime(1.0), limit_criteria(), MaterialRecord("x", Medium(Process.SPDC, 1e-12), "")]


@pytest.mark.parametrize("value", VALUES, ids=[type(value).__name__ for value in VALUES])
def test_values_are_frozen(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.unknown = 1


def test_replace_with_valid_values_returns_an_equal_value():
    replaced = Medium(Process.SPDC, 1e-12)._replace(n_p=2.0)
    assert type(replaced) is Medium and replaced == Medium(Process.SPDC, 1e-12, n_p=2.0)
    # a value is a named tuple: equal to the plain tuple of its fields, and it unpacks
    assert replaced == (Process.SPDC, 1e-12, 2.0, 1.0, 1.0)
    length, section = Geometry(1e-3, 1e-6)
    assert (length, section) == (1e-3, 1e-6)
