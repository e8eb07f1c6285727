"""Coupled-wave RK4 oracle vs the closed-form solution it must reproduce."""

import math
import sys

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
from pairgate.oracle import IntegrationConfig, OdeState, integrate, oracle_pair_flux


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


def test_fourth_order_convergence():
    medium, triplet, geometry, pump = spdc_scenario(2.0)
    ks = coupling_factor(triplet.omega_s, medium.n_s)
    ki = coupling_factor(triplet.omega_i, medium.n_i)
    initial = OdeState(0.0, 1.0, 0.0)
    exact_s, _ = closed_form(initial, 2.0, ks, ki)

    errors = []
    for steps in (16, 32, 64, 128):
        final = integrate(medium, triplet, pump, geometry, initial,
                          IntegrationConfig(steps=steps))
        errors.append(abs(final.e_s - exact_s) / exact_s)
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 3.8 <= order <= 4.2


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


def test_oracle_flux_at_limit():
    medium, triplet, geometry, pump = spdc_scenario(1.0)
    flux = oracle_pair_flux(medium, triplet, pump, geometry, Bandwidth.from_delta_nu(1.0))
    assert flux == pytest.approx(0.369061555252, rel=1e-6)


def test_oracle_flux_zero_gain():
    medium, triplet, geometry, _ = spdc_scenario(1.0)
    pump = PumpDrive.from_intensity(0.0)
    flux = oracle_pair_flux(medium, triplet, pump, geometry, Bandwidth.from_delta_nu(1.0))
    assert flux == 0.0


# the spontaneous regime at the default and at many steps, and the top of the range
EDGE_CASES = [(b, s) for b in (1e-12, 1e-9, 1e-6) for s in (1024, 65536)] + [(350.0, 65536)]


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
    # RK4 scheme bound plus a rounding floor that grows with the step count
    tolerance = beta_l**5 / steps**4 + steps * sys.float_info.epsilon
    assert abs(numeric - analytic) <= tolerance * analytic


@pytest.mark.parametrize("beta_l, steps", oracle_cases([0.01, 0.1, 1.0, 2.0, 5.0]))
def test_oracle_agrees_with_analytic_flux_spdc(beta_l, steps):
    assert_oracle_matches_closed_form(spdc_scenario(beta_l), beta_l, steps, 1e6)


@pytest.mark.parametrize("beta_l, steps", oracle_cases([0.1, 1.0, 3.0]))
def test_oracle_agrees_with_analytic_flux_fwm(beta_l, steps):
    assert_oracle_matches_closed_form(fwm_scenario(beta_l), beta_l, steps, 1e9)


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
