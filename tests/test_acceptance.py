"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; a summary section prints one
PASS/FAIL line per criterion.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from pairgate.model import (
    Arm,
    AsymptoteBranch,
    Bandwidth,
    Geometry,
    Medium,
    Process,
    PumpDrive,
    WaveTriplet,
    coupling_factor,
    effective_limit_intensity,
    flux_asymptote,
    gain_coefficient,
    limit_criteria,
    limit_pump_intensity,
    pair_flux_general,
    pair_flux_reduced,
    pairs_per_bandwidth,
    pump_for_gain,
    triplet_from_wavelengths,
    vacuum_fluctuation,
)
from pairgate.oracle import IntegrationConfig, OdeState, integrate, oracle_pair_flux

GW_PER_CM2 = 1e13  # W/m^2
MW_PER_CM2 = 1e10
KW_PER_CM2 = 1e7

RNG_SEED = 20260809


def test_criterion_1_universal_constants():
    crit = limit_criteria()
    growth = math.e - 1.0
    assert crit.pairs_limit == growth**2 / 8.0
    assert crit.photons_limit == growth**2 / 4.0
    assert crit.field_ratio_limit == growth
    assert f"{crit.pairs_limit:.3f}" == "0.369"
    assert f"{crit.photons_limit:.3f}" == "0.738"
    assert f"{crit.field_ratio_limit:.3f}" == "1.718"


def test_criterion_2_spdc_limit_intensity_endpoints():
    cases = [
        (1e-12, 1e-3, 13.5 * GW_PER_CM2),
        (1e-12, 1e-2, 135 * MW_PER_CM2),
        (1e-11, 1e-3, 135 * MW_PER_CM2),
        (1e-11, 1e-2, 1.35 * MW_PER_CM2),
        (1e-10, 1e-3, 1.35 * MW_PER_CM2),
        (1e-10, 1e-2, 13.5 * KW_PER_CM2),
    ]
    for chi2, length, expected in cases:
        medium = Medium(process=Process.SPDC, chi_eff=chi2)
        gamma = effective_limit_intensity(medium, 1e-6, 1e-6, length)
        assert gamma == pytest.approx(expected, rel=0.01), (chi2, length)


def test_criterion_3_fwm_limit_intensity_endpoints():
    cases = [
        (1e-22, 1e-3, 845 * GW_PER_CM2),
        (1e-22, 1e-2, 84.5 * GW_PER_CM2),
        (1e-20, 1e-3, 8.45 * GW_PER_CM2),
        (1e-20, 1e-2, 845 * MW_PER_CM2),
        (1e-18, 1e-3, 84.5 * MW_PER_CM2),
        (1e-18, 1e-2, 8.45 * MW_PER_CM2),
        (1e-22, 10.0, 84.5 * MW_PER_CM2),
        (1e-22, 1e3, 845 * KW_PER_CM2),
    ]
    for chi3, length, expected in cases:
        medium = Medium(process=Process.FWM, chi_eff=chi3)
        gamma = effective_limit_intensity(medium, 1e-6, 1e-6, length)
        assert gamma == pytest.approx(expected, rel=0.01), (chi3, length)


def test_criterion_4_oracle_equivalence_and_order():
    medium = Medium(process=Process.SPDC, chi_eff=1e-12)
    triplet = triplet_from_wavelengths(1e-6, 1.2e-6, Process.SPDC)
    geometry = Geometry(length=1e-3, section=1e-6)
    bandwidth = Bandwidth.from_delta_nu(1.0)

    for beta_l in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
        pump = pump_for_gain(medium, triplet, geometry, beta_l)
        numeric = oracle_pair_flux(
            medium, triplet, pump, geometry, bandwidth, IntegrationConfig(steps=1024)
        )
        analytic = pair_flux_reduced(beta_l, bandwidth.delta_nu)
        assert numeric == pytest.approx(analytic, rel=1e-6), beta_l

    # observed convergence order of the integrator: 4 +/- 0.2
    pump = pump_for_gain(medium, triplet, geometry, 2.0)
    ks = coupling_factor(triplet.omega_s, medium.n_s)
    ki = coupling_factor(triplet.omega_i, medium.n_i)
    initial = OdeState(0.0, 1.0, 0.0)
    exact = math.cosh(2.0)  # e_s for unit seed
    errors = []
    for steps in (16, 32, 64, 128):
        final = integrate(medium, triplet, pump, geometry, initial,
                          IntegrationConfig(steps=steps))
        errors.append(abs(final.e_s - exact) / exact)
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 3.8 <= order <= 4.2, errors


def test_criterion_5_limit_round_trip_randomized():
    rng = np.random.default_rng(RNG_SEED)
    for process in (Process.SPDC, Process.FWM):
        for _ in range(100):
            if process is Process.SPDC:
                chi = 10.0 ** rng.uniform(-13, -10)
            else:
                chi = 10.0 ** rng.uniform(-23, -18)
            medium = Medium(
                process=process,
                chi_eff=chi,
                n_p=rng.uniform(1.0, 3.5),
                n_s=rng.uniform(1.0, 3.5),
                n_i=rng.uniform(1.0, 3.5),
            )
            lambda_s = rng.uniform(0.4e-6, 4e-6)
            lambda_i = rng.uniform(0.4e-6, 4e-6)
            length = 10.0 ** rng.uniform(-4, 2)
            i_lim = limit_pump_intensity(medium, lambda_s, lambda_i, length)
            triplet = triplet_from_wavelengths(lambda_s, lambda_i, process)
            beta = gain_coefficient(medium, triplet, PumpDrive.from_intensity(i_lim))
            assert beta * length == pytest.approx(1.0, rel=1e-9)


def test_criterion_6_regime_scaling():
    base_beta_l = 1e-3
    for process, expected in ((Process.SPDC, 2.0), (Process.FWM, 4.0)):
        chi = 1e-12 if process is Process.SPDC else 1e-22
        medium = Medium(process=process, chi_eff=chi)
        triplet = triplet_from_wavelengths(1e-6, 1e-6, process)
        geometry = Geometry(length=1e-2, section=1e-6)
        pump = pump_for_gain(medium, triplet, geometry, base_beta_l)
        doubled = PumpDrive.from_intensity(2.0 * pump.as_intensity(medium.n_p))
        beta_l = gain_coefficient(medium, triplet, doubled) * geometry.length
        ratio = pairs_per_bandwidth(beta_l) / pairs_per_bandwidth(base_beta_l)
        assert ratio == pytest.approx(expected, rel=0.01), process

    for beta_l in (8.0, 10.0, 15.0, 20.0):
        exact = pairs_per_bandwidth(beta_l)
        approx = flux_asymptote(beta_l, AsymptoteBranch.HIGH)
        assert abs(approx - exact) / exact < 1e-3, beta_l


def test_criterion_7_equivalence_of_forms():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(200):
        process = Process.SPDC if rng.random() < 0.5 else Process.FWM
        omega_s = rng.uniform(1e14, 1e16)
        omega_i = rng.uniform(1e14, 1e16)
        triplet = WaveTriplet(omega_s, omega_i, process)
        chi = 1e-12 if process is Process.SPDC else 1e-22
        medium = Medium(
            process=process,
            chi_eff=chi,
            n_p=rng.uniform(1.0, 3.5),
            n_s=rng.uniform(1.0, 3.5),
            n_i=rng.uniform(1.0, 3.5),
        )
        geometry = Geometry(
            length=10.0 ** rng.uniform(-4, 1), section=10.0 ** rng.uniform(-10, -4)
        )
        delta_omega = 10.0 ** rng.uniform(4, 12)
        beta_l = rng.uniform(0.0, 10.0)

        vac_s = vacuum_fluctuation(omega_s, medium.n_s, geometry.section, delta_omega)
        vac_i = vacuum_fluctuation(omega_i, medium.n_i, geometry.section, delta_omega)
        general = pair_flux_general(beta_l, vac_s, vac_i, triplet, medium, geometry)
        reduced = pair_flux_reduced(beta_l, delta_omega / (2.0 * math.pi))
        assert general == pytest.approx(reduced, rel=1e-12, abs=0.0)

        # the hbar*omega*delta_omega and h*nu*delta_nu vacuum forms agree
        from pairgate.constants import CODATA2018

        nu = omega_s / (2.0 * math.pi)
        d_nu = delta_omega / (2.0 * math.pi)
        alt = math.sqrt(
            CODATA2018.h * nu * d_nu
            / (2.0 * CODATA2018.c * CODATA2018.eps0 * medium.n_s * geometry.section)
        )
        assert vac_s == pytest.approx(alt, rel=1e-12)


def test_criterion_8_experimental_threshold_limitation_documented():
    # the measured ~40 MW/cm2 KTP threshold at 532 nm cannot be reproduced at
    # desk scale; the README must say so and point at the model-consistency
    # round trip as the only indirect coverage
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "40 MW/cm" in text
    assert "not reproduce" in text or "not reproduced" in text
    assert "round trip" in text.lower() or "round-trip" in text.lower()
