"""Coupled-wave RK4 oracle vs the closed-form solution it must reproduce."""

import functools
import math
import sys
from decimal import Context, Decimal, localcontext

import pytest

from pairgate.model import (
    Bandwidth,
    Geometry,
    Medium,
    Process,
    PumpDrive,
    coupling_factor,
    pair_flux_reduced,
    pump_for_gain,
    triplet_from_wavelengths,
    vacuum_fluctuation,
)
from pairgate.model import _couplings, _drive_coupling, _gain_factors, _photon_partials
from pairgate.oracle import MAX_STEPS, IntegrationConfig, OdeState, integrate, oracle_pair_flux

EPS = sys.float_info.epsilon
REFERENCE_DIGITS = Context(prec=34)  # the Decimal reference loop's own rounding is ~1e-34 a step


def spdc_scenario(beta_l, length=1e-3, lambda_s=1e-6, lambda_i=1.2e-6):
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(lambda_s, lambda_i, Process.SPDC)
    geometry = Geometry(length=length, section=1e-6)
    pump = pump_for_gain(medium, triplet, geometry, beta_l)
    return medium, triplet, geometry, pump


def fwm_scenario(beta_l, length=1.0):
    medium = Medium(process=Process.FWM, chi_eff=1e-22)
    triplet = triplet_from_wavelengths(1e-6, 1.1e-6, Process.FWM)
    geometry = Geometry(length=length, section=1e-9)
    pump = pump_for_gain(medium, triplet, geometry, beta_l)
    return medium, triplet, geometry, pump


def closed_form(initial, beta_l, ks, ki):
    # exact solution of the linear gain system for arbitrary seeds
    cosh, sinh = math.cosh(beta_l), math.sinh(beta_l)
    e_s = initial.e_s * cosh + initial.e_i * math.sqrt(ks / ki) * sinh
    e_i = initial.e_i * cosh + initial.e_s * math.sqrt(ki / ks) * sinh
    return e_s, e_i


def test_zero_drive_returns_input_exactly():
    medium, triplet, geometry, _ = spdc_scenario(1.0)
    pump = PumpDrive.from_intensity(0.0)
    initial = OdeState(z=0.0, e_s=0.123, e_i=0.456)
    final = integrate(medium, triplet, pump, geometry, initial)
    assert final.e_s == initial.e_s
    assert final.e_i == initial.e_i
    assert final.z == geometry.length


def test_matches_closed_form_from_single_seed():
    medium, triplet, geometry, pump = spdc_scenario(1.0)
    ks = coupling_factor(triplet.omega_s, medium.n_s)
    ki = coupling_factor(triplet.omega_i, medium.n_i)
    seed = 0.2
    final = integrate(medium, triplet, pump, geometry, OdeState(0.0, seed, 0.0),
                      IntegrationConfig(steps=1024))
    assert final.e_s == pytest.approx(seed * math.cosh(1.0), rel=1e-8)
    assert final.e_i == pytest.approx(seed * math.sqrt(ki / ks) * math.sinh(1.0), rel=1e-8)


def test_matches_closed_form_from_vacuum_seeds():
    medium, triplet, geometry, pump = spdc_scenario(1.0)
    ks = coupling_factor(triplet.omega_s, medium.n_s)
    ki = coupling_factor(triplet.omega_i, medium.n_i)
    bandwidth = Bandwidth.from_delta_nu(1.0)
    initial = OdeState(
        0.0,
        vacuum_fluctuation(triplet.omega_s, medium.n_s, geometry.section, bandwidth.delta_omega),
        vacuum_fluctuation(triplet.omega_i, medium.n_i, geometry.section, bandwidth.delta_omega),
    )
    final = integrate(medium, triplet, pump, geometry, initial, IntegrationConfig(steps=1024))
    exact_s, exact_i = closed_form(initial, 1.0, ks, ki)
    assert final.e_s == pytest.approx(exact_s, rel=1e-8)
    assert final.e_i == pytest.approx(exact_i, rel=1e-8)


def test_conserved_arm_difference_along_trajectory():
    # ki*e_s^2 - ks*e_i^2 is a constant of the motion
    medium, triplet, _, _ = spdc_scenario(2.0)
    ks = coupling_factor(triplet.omega_s, medium.n_s)
    ki = coupling_factor(triplet.omega_i, medium.n_i)
    initial = OdeState(0.0, 1.0, 0.0)
    invariant0 = ki * initial.e_s**2 - ks * initial.e_i**2
    full_length = 1e-3
    for fraction in (0.25, 0.5, 0.75, 1.0):
        geometry = Geometry(length=fraction * full_length, section=1e-6)
        pump = pump_for_gain(medium, triplet, Geometry(length=full_length, section=1e-6), 2.0)
        final = integrate(medium, triplet, pump, geometry, initial)
        invariant = ki * final.e_s**2 - ks * final.e_i**2
        assert abs(invariant - invariant0) / abs(invariant0) <= 1e-9


def test_contract_errors():
    medium, triplet, geometry, pump = spdc_scenario(1.0)
    with pytest.raises(ValueError, match="steps"):
        IntegrationConfig(steps=8)
    with pytest.raises(ValueError, match="z = 0"):
        integrate(medium, triplet, pump, geometry, OdeState(z=1e-4, e_s=0.1, e_i=0.0))
    with pytest.raises(ValueError):
        OdeState(z=0.0, e_s=-0.1, e_i=0.0)
    fwm_medium = Medium(process=Process.FWM, chi_eff=1e-22)
    with pytest.raises(ValueError, match="mismatch"):
        integrate(fwm_medium, triplet, pump, geometry, OdeState(0.0, 0.1, 0.0))


@pytest.mark.parametrize("steps", [2048.0, math.nan, "2048"])
def test_steps_must_be_an_integer(steps):
    with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
        IntegrationConfig(steps=steps)


def test_oracle_flux_at_limit():
    medium, triplet, geometry, pump = spdc_scenario(1.0)
    flux = oracle_pair_flux(medium, triplet, pump, geometry, Bandwidth.from_delta_nu(1.0))
    assert flux == pytest.approx(0.369061555252, rel=1e-6)


def test_oracle_flux_zero_gain():
    medium, triplet, geometry, _ = spdc_scenario(1.0)
    pump = PumpDrive.from_intensity(0.0)
    flux = oracle_pair_flux(medium, triplet, pump, geometry, Bandwidth.from_delta_nu(1.0))
    assert flux == 0.0


# the spontaneous regime at the default and at many steps, the top of the range, and
# both ends of it at the step cap
EDGE_CASES = ([(b, s) for b in (1e-12, 1e-9, 1e-6) for s in (1024, 65536)]
              + [(350.0, 65536), (1e-12, MAX_STEPS), (350.0, MAX_STEPS)])


def oracle_cases(beta_ls):
    """Cases (beta_l, steps): the given beta_ls at the default 1024 steps, then EDGE_CASES."""
    return ([pytest.param(b, 1024, id=str(b)) for b in beta_ls]
            + [pytest.param(b, s, id=f"{b}-{s}") for b, s in EDGE_CASES])


def assert_oracle_matches_closed_form(scenario, beta_l, steps, delta_nu):
    medium, triplet, geometry, pump = scenario
    if beta_l > 300:
        delta_nu = 1.0  # a wider linewidth overflows the flux near BETA_L_MAX
    bandwidth = Bandwidth.from_delta_nu(delta_nu)
    numeric = oracle_pair_flux(medium, triplet, pump, geometry, bandwidth,
                               IntegrationConfig(steps=steps))
    analytic = pair_flux_reduced(beta_l, bandwidth.delta_nu)
    # RK4 scheme bound plus a rounding floor: the propagator's rounding grows with
    # log2(steps), and the closed form and the pump round trip are ~beta_l-conditioned
    tolerance = beta_l**5 / steps**4 + 8 * (math.log2(steps) + beta_l) * EPS
    assert abs(numeric - analytic) <= tolerance * analytic


@pytest.mark.parametrize("beta_l, steps", oracle_cases([0.01, 0.1, 1.0, 2.0, 5.0]))
def test_oracle_agrees_with_analytic_flux_spdc(beta_l, steps):
    assert_oracle_matches_closed_form(spdc_scenario(beta_l), beta_l, steps, 1e6)


@pytest.mark.parametrize("beta_l, steps", oracle_cases([0.1, 1.0, 3.0]))
def test_oracle_agrees_with_analytic_flux_fwm(beta_l, steps):
    assert_oracle_matches_closed_form(fwm_scenario(beta_l), beta_l, steps, 1e9)


@pytest.mark.parametrize("steps", [1024, MAX_STEPS])
@pytest.mark.parametrize("process", ["spdc", "fwm"])
@pytest.mark.parametrize("beta_l", [1e-150, 4.3e-154])
def test_oracle_agrees_at_the_bottom_of_the_accepted_range(beta_l, process, steps):
    """At 1 Hz the flux (beta*L)^2/8 is a normal float down to beta*L ~ 4.22e-154, and
    there the oracle still matches it within the floor; below, both sides raise."""
    scenario = SCENARIOS[process](beta_l)
    assert pair_flux_reduced(beta_l, 1.0) >= sys.float_info.min
    assert_oracle_matches_closed_form(scenario, beta_l, steps, 1.0)
    medium, triplet, geometry, pump = SCENARIOS[process](4.2e-154)
    with pytest.raises(ValueError, match="^oracle pair flux out of the float range: "):
        oracle_pair_flux(medium, triplet, pump, geometry, Bandwidth.from_delta_nu(1.0))
    with pytest.raises(ValueError, match="^pair flux out of the float range: beta_l=4.2e-154"):
        pair_flux_reduced(4.2e-154, 1.0)


def test_oracle_independent_of_constants_identity():
    # growing/decaying mode mix: seeding only the idler still reproduces
    # the closed-form signal output
    medium, triplet, geometry, pump = spdc_scenario(1.5)
    ks = coupling_factor(triplet.omega_s, medium.n_s)
    ki = coupling_factor(triplet.omega_i, medium.n_i)
    initial = OdeState(0.0, 0.0, 0.3)
    final = integrate(medium, triplet, pump, geometry, initial, IntegrationConfig(steps=2048))
    exact_s, exact_i = closed_form(initial, 1.5, ks, ki)
    assert final.e_s == pytest.approx(exact_s, rel=1e-9)
    assert final.e_i == pytest.approx(exact_i, rel=1e-9)


def reference_rk4(cs, ci, h, steps, v_s, v_i, d_s, d_i):
    """Classical four-stage RK4, one step at a time, on e = v + d with v constant.

    The step-matrix powering in the oracle must reproduce this loop. Run on
    Decimal at REFERENCE_DIGITS, its own rounding is far below a double's ulp.
    """
    for _ in range(steps):
        e_s = v_s + d_s
        e_i = v_i + d_i
        k1s = cs * e_i
        k1i = ci * e_s
        k2s = cs * (e_i + h * k1i / 2)
        k2i = ci * (e_s + h * k1s / 2)
        k3s = cs * (e_i + h * k2i / 2)
        k3i = ci * (e_s + h * k2s / 2)
        k4s = cs * (e_i + h * k3i)
        k4i = ci * (e_s + h * k3s)
        d_s += h * (k1s + 2 * k2s + 2 * k3s + k4s) / 6
        d_i += h * (k1i + 2 * k2i + 2 * k3i + k4i) / 6
    return d_s, d_i


SCENARIOS = {"spdc": spdc_scenario, "fwm": fwm_scenario}


@functools.lru_cache(maxsize=None)
def reference_columns(process, beta_l, steps):
    """The scenario and the columns of the N-step propagator, R^N e_s and R^N e_i, from
    the reference loop in Decimal on the oracle's own double inputs cs, ci and h."""
    scenario = SCENARIOS[process](beta_l)
    medium, triplet, geometry, pump = scenario
    g = _drive_coupling(_gain_factors(medium, triplet)[0], pump.field(medium.n_p),
                        medium.process)
    ks, ki = _couplings(medium, triplet)
    with localcontext(REFERENCE_DIGITS):
        args = [Decimal(x) for x in (ks * g, ki * g, geometry.length / steps)]
        zero, one = Decimal(0), Decimal(1)
        columns = (reference_rk4(*args, steps, zero, zero, one, zero),
                   reference_rk4(*args, steps, zero, zero, zero, one))
    return scenario, columns


def reference_generated(columns, v, d0):
    """d at z = L from the reference columns: R^N (v + d0) - v."""
    with localcontext(REFERENCE_DIGITS):
        e_s, e_i = (Decimal(a) + Decimal(b) for a, b in zip(v, d0))
        return tuple(e_s * col_s + e_i * col_i - Decimal(w)
                     for col_s, col_i, w in zip(*columns, v))


def assert_rel_close(got, want, bound):
    assert abs(Decimal(got) - want) <= Decimal(bound) * abs(want), (got, want)


# every beta*L band; step counts at and off powers of two; at 65536 steps the
# Decimal reference loop costs ~0.5 s a run, so that row keeps three beta*L
PROPAGATOR_CASES = [(b, s) for b in (1e-12, 1e-6, 1e-3, 1.0, 5.0, 100.0, 350.0)
                    for s in (16, 17, 1000, 1024, 4097)] + [(b, 65536) for b in (1e-12, 1.0, 350.0)]


@pytest.mark.parametrize("process", ["spdc", "fwm"])
@pytest.mark.parametrize("beta_l, steps", PROPAGATOR_CASES)
def test_propagator_matches_reference_loop(process, beta_l, steps):
    # a few ulp per doubling, plus ~beta_l for the doublings past R^m ~ e, whose
    # relative error squaring doubles each time (x -> x^2 has condition 2)
    bound = 2 * (math.log2(steps) + beta_l) * EPS
    (medium, triplet, geometry, pump), columns = reference_columns(process, beta_l, steps)
    config = IntegrationConfig(steps=steps)
    for seed in ((0.3, 0.0), (0.0, 0.3), (0.2, 0.7)):
        final = integrate(medium, triplet, pump, geometry, OdeState(0.0, *seed), config)
        want = reference_generated(columns, (0.0, 0.0), seed)
        assert_rel_close(final.e_s, want[0], bound)
        assert_rel_close(final.e_i, want[1], bound)

    bandwidth = Bandwidth.from_delta_nu(1.0)
    vacuum = tuple(vacuum_fluctuation(omega, n, geometry.section, bandwidth.delta_omega)
                   for omega, n in ((triplet.omega_s, medium.n_s), (triplet.omega_i, medium.n_i)))
    flux = oracle_pair_flux(medium, triplet, pump, geometry, bandwidth, config)
    d_s, _ = reference_generated(columns, vacuum, (0.0, 0.0))
    want = _photon_partials(float(d_s), triplet.omega_s, medium.n_s, geometry.section)[-1]
    # the flux is quadratic in the generated field: twice its error, plus a few ulp
    assert abs(flux - want) <= (2 * bound + 4 * EPS) * want
