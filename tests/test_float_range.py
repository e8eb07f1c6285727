"""The float-range rule against 50-digit references, over the whole accepted domain.

Each public kernel is drawn with log-uniform inputs from the smallest subnormal to the
largest float (indices from 1 up), and zeros where an input may be zero. For each draw
the kernel either raises "... out of the float range: ..." or returns what a 50-digit
decimal evaluation of the same closed form gives, on the same double inputs and
constants, to within the roundings of its float evaluation: every operation rounds by
at most u = 2^-53 relative and a libm call (exp, expm1, sinh, tanh) by at most 2 ulp,
4u. The inputs are exact, so nothing amplifies those roundings but the square roots,
which halve them. (Goldberg 1991; Higham, Accuracy and Stability of Numerical
Algorithms, ch. 2-3.)
"""

import math
import re
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE, decimal_expm1, exact_pair_flux
from pairgate import model
from pairgate.constants import CODATA2018
from pairgate.model import (
    BETA_L_MAX,
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
    generated_field,
    limit_pump_intensity,
    pair_flux_general,
    pair_flux_reduced,
    pairs_per_bandwidth,
    vacuum_fluctuation,
)

U = 2.0**-53
FLOAT_MIN, FLOAT_MAX = sys.float_info.min, sys.float_info.max  # the normal floats
EXAMPLES = settings(max_examples=50, deadline=None)
K = {name: Decimal(getattr(CODATA2018, name)) for name in ("c", "hbar", "eps0", "mu0")}
PI = Decimal(math.pi)


def log_uniform(low_exp: int, high_exp: int):
    """2^e * m for an integer e in [low_exp, high_exp] and m in [1, 2): log-uniform, down
    to the subnormals when low_exp < -1022 (ldexp rounds those)."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(low_exp, high_exp)).filter(lambda x: 0.0 < x < math.inf)


positive = log_uniform(-1074, 1023)
index = log_uniform(0, 1023)
beta_l = st.one_of(st.just(0.0), log_uniform(-1074, 8).filter(lambda x: x <= BETA_L_MAX))
processes = st.sampled_from(list(Process))


def maybe_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


@st.composite
def scenario(draw):
    """(medium, triplet) of one process, anywhere in their accepted domain."""
    process = draw(processes)
    try:
        triplet = WaveTriplet(draw(positive), draw(positive), process)
    except ValueError:  # omega_p = omega_s + omega_i overflows
        assume(False)
    return Medium(process, draw(positive), draw(index), draw(index), draw(index)), triplet


def assert_in_range_or_rejected(kernel, exact_fn, ulps, *args):
    """kernel(*args) raises the range error, or is within ulps*u of exact_fn(*args)."""
    try:
        value = kernel(*args)
    except ValueError as exc:
        assert "out of the float range" in str(exc), (args, exc)
        return
    with localcontext(REFERENCE):
        exact = exact_fn(*args)
        assert abs(Decimal(value) - exact) <= Decimal(ulps * U) * exact, (args, value, exact)


# ---------------------------------------------------------------------------
# 50-digit references of the closed forms
# ---------------------------------------------------------------------------

def exact_coupling(omega, n):
    return Decimal(omega) / (2 * Decimal(n) * K["c"])


def exact_vacuum(omega, n, section, delta_omega):
    d = [Decimal(x) for x in (omega, n, section, delta_omega)]
    return (K["hbar"] * d[0] * d[3] / (4 * PI * K["c"] * K["eps0"] * d[1] * d[2])).sqrt()


def exact_generated(beta, triplet, medium, geometry, bandwidth, arm):
    vac = exact_vacuum(triplet.omega(arm), medium.n(arm), geometry.section,
                       bandwidth.delta_omega)
    return vac * decimal_expm1(beta)


def exact_root(medium, triplet):
    c = K["c"]
    ks = Decimal(triplet.omega_s) / (2 * Decimal(medium.n_s) * c)
    ki = Decimal(triplet.omega_i) / (2 * Decimal(medium.n_i) * c)
    return (ks * ki).sqrt()


def exact_gain(medium, triplet, pump):
    if pump.field_amplitude is not None:
        field = Decimal(pump.field_amplitude)
    else:
        field = (2 * Decimal(pump.intensity) * K["c"] * K["mu0"] / Decimal(medium.n_p)).sqrt()
    chi = Decimal(medium.chi_eff)
    drive = chi * field if medium.process is Process.SPDC else chi / 2 * field * field
    return drive * exact_root(medium, triplet)


def exact_general(beta, vac_s, vac_i, triplet, medium, geometry):
    growth = decimal_expm1(beta)
    cosh_m1 = growth * growth / (2 * (1 + growth))
    sinh = (growth + growth / (1 + growth)) / 2
    d = {name: Decimal(getattr(obj, name)) for obj, names in (
        (triplet, ("omega_s", "omega_i")), (medium, ("n_s", "n_i"))) for name in names}
    weight = (d["omega_s"] * d["n_i"] / (d["omega_i"] * d["n_s"])).sqrt()
    bracket = Decimal(vac_s) * cosh_m1 + weight * Decimal(vac_i) * sinh
    scale = (K["eps0"] * d["n_s"] * K["c"] * Decimal(geometry.section)
             / (4 * K["hbar"] * d["omega_s"]))
    return scale * bracket * bracket


def exact_asymptote(beta, branch):
    d = Decimal(beta)
    return d * d / 8 if branch is AsymptoteBranch.SMALL else (2 * d).exp() / 8


def exact_limit(medium, lambda_s, lambda_i, length):
    n_p, n_s, n_i, chi, ls, li, L = (Decimal(x) for x in (
        medium.n_p, medium.n_s, medium.n_i, medium.chi_eff, lambda_s, lambda_i, length))
    if medium.process is Process.SPDC:
        return n_p * n_s * n_i * ls * li / (Decimal(model._SPDC_LIMIT_SCALE) * (L * chi) ** 2)
    impedance = Decimal(math.sqrt(CODATA2018.eps0 / CODATA2018.mu0))  # the code's constant
    return n_p * (n_s * n_i * ls * li).sqrt() * impedance / (PI * L * chi)


def exact_gamma(medium, lambda_s, lambda_i, length):
    """Gamma by its definition, I_lim/(n_p*n_s*n_i) for SPDC and I_lim/(n_p*sqrt(n_s*n_i))
    for FWM, in which the indices cancel."""
    n_p, n_s, n_i = (Decimal(x) for x in (medium.n_p, medium.n_s, medium.n_i))
    norm = n_p * n_s * n_i if medium.process is Process.SPDC else n_p * (n_s * n_i).sqrt()
    return exact_limit(medium, lambda_s, lambda_i, length) / norm


def gamma_partials(medium, lambda_s, lambda_i, length):
    """The partial products of Gamma's index-free closed form, in float: lambda_s*lambda_i,
    then L*chi2, its square and 2*pi^2*mu0*c times that for SPDC, or pi*L and pi*L*chi3."""
    chi = medium.chi_eff
    if medium.process is Process.SPDC:
        span = length * chi
        return lambda_s * lambda_i, span, span * span, model._SPDC_LIMIT_SCALE * (span * span)
    return lambda_s * lambda_i, math.pi * length, math.pi * length * chi


# ---------------------------------------------------------------------------
# the gate: one test per kernel
# ---------------------------------------------------------------------------

@EXAMPLES
@given(omega=positive, n=index)
def test_coupling_factor(omega, n):
    # the product n*c (2*n is exact) and the quotient
    assert_in_range_or_rejected(coupling_factor, exact_coupling, 2, omega, n)


@pytest.mark.parametrize("omega, n", [
    (1e-320, 1.0),   # was 0.0
    (1e15, 1e308),   # 2*n*c overflows: was 0.0
    (1e-300, 1.0),   # was the subnormal 1.67e-309
])
def test_coupling_factor_that_gave_zero_or_a_subnormal_now_raises(omega, n):
    message = f"coupling factor out of the float range: omega={omega!r}, n={n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coupling_factor(omega, n)


@EXAMPLES
@given(omega=positive, n=index, section=positive, delta_omega=positive)
def test_vacuum_fluctuation(omega, n, section, delta_omega):
    # 7 roundings under the square root, which halves them, and its own
    assert_in_range_or_rejected(vacuum_fluctuation, exact_vacuum, 5, omega, n, section,
                                delta_omega)


@EXAMPLES
@given(media=scenario(), beta=beta_l, section=positive, delta_omega=positive,
       arm=st.sampled_from(list(Arm)))
def test_generated_field(media, beta, section, delta_omega, arm):
    # the vacuum field's 4.5u, expm1's 4u and the product's u
    medium, triplet = media
    assert_in_range_or_rejected(generated_field, exact_generated, 10, beta, triplet, medium,
                                Geometry(1.0, section), Bandwidth(delta_omega), arm)


@EXAMPLES
@given(media=scenario(), drive=maybe_zero(positive), by_field=st.booleans())
def test_gain_coefficient(media, drive, by_field):
    # a field from an intensity 2.5u, the coupling root 3.5u, up to 3 products
    medium, triplet = media
    pump = PumpDrive.from_field(drive) if by_field else PumpDrive.from_intensity(drive)
    assert_in_range_or_rejected(gain_coefficient, exact_gain, 16, medium, triplet, pump)


@EXAMPLES
@given(media=scenario(), beta=beta_l, vac_s=maybe_zero(positive), vac_i=maybe_zero(positive),
       section=positive)
def test_pair_flux_general(media, beta, vac_s, vac_i, section):
    # the bracket 7.5u and a subnormal seed term's u; the photon-flux scale 5u; two products
    medium, triplet = media
    assert_in_range_or_rejected(pair_flux_general, exact_general, 32, beta, vac_s, vac_i,
                                triplet, medium, Geometry(1.0, section))


@EXAMPLES
@given(beta=beta_l, delta_nu=positive)
def test_pair_flux_reduced(beta, delta_nu):
    # expm1 squared, 8u, and two products
    assert_in_range_or_rejected(pair_flux_reduced, exact_pair_flux, 10, beta, delta_nu)


@EXAMPLES
@given(beta=beta_l, branch=st.sampled_from(list(AsymptoteBranch)))
def test_pairs_per_bandwidth_and_flux_asymptote(beta, branch):
    assert_in_range_or_rejected(pairs_per_bandwidth, lambda b: exact_pair_flux(b, 1.0), 10, beta)
    assert_in_range_or_rejected(flux_asymptote, exact_asymptote, 4, beta, branch)


@EXAMPLES
# an index norm n_p*sqrt(n_s*n_i) that overflows, while I_lim = 1.69e291 W/m^2 and Gamma =
# 8.45e-18 W/m^2 are normal floats
@example(media=(Medium(Process.FWM, 1e-22, 1e308, 4.0, 1.0), WaveTriplet(1.0, 1.0, Process.FWM)),
         lambda_s=1e-6, lambda_i=1e-6, length=1e30)
# a subnormal wavelength whose product with the other is a normal float
@example(media=(Medium(Process.SPDC, 1e-12), WaveTriplet(1.0, 1.0, Process.SPDC)),
         lambda_s=1e-310, lambda_i=1e10, length=1e-140)
@given(media=scenario(), lambda_s=positive, lambda_i=positive, length=positive)
def test_limit_intensities(media, lambda_s, lambda_i, length):
    # I_lim: the index-wavelength product 4u, the denominator 5u, the quotient u; Gamma, at
    # unit indices: the wavelength product u (halved, plus a root and a product, for FWM),
    # the denominator 4u, the quotient u
    medium, _ = media
    args = (medium, lambda_s, lambda_i, length)
    assert_in_range_or_rejected(limit_pump_intensity, exact_limit, 16, *args)
    assert_in_range_or_rejected(effective_limit_intensity, exact_gamma, 8, *args)
    # Gamma reads no index: it is computed wherever it and its index-free partial products
    # are normal floats, with a margin for its 8u
    with localcontext(REFERENCE):
        gamma = exact_gamma(*args)
        margin = Decimal(1) + Decimal(16 * U)
        representable = Decimal(FLOAT_MIN) * margin <= gamma <= Decimal(FLOAT_MAX) / margin
    if representable and all(FLOAT_MIN <= x <= FLOAT_MAX for x in gamma_partials(*args)):
        effective_limit_intensity(*args)


@pytest.mark.parametrize("kernel, args", [
    (pair_flux_general, (300.0, 1e200, 1e200)),  # was inf
    (pair_flux_general, (1e-200, 1e-3, 1e-3)),   # was 0.0
    (flux_asymptote, (1e-170, AsymptoteBranch.SMALL)),
    (pairs_per_bandwidth, (1e-160,)),
    (pair_flux_reduced, (1e-170, 1.0)),
])
def test_kernels_that_printed_zero_or_inf_now_raise(kernel, args):
    if kernel is pair_flux_general:
        args += (model.triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC),
                 Medium(Process.SPDC, 1e-12), Geometry(1e-3, 1e-6))
    with pytest.raises(ValueError, match="out of the float range: beta_l="):
        kernel(*args)


def test_generated_field_of_the_smallest_beta_l_raises():
    triplet = model.triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
    with pytest.raises(ValueError, match="^generated field out of the float range: beta_l=5e-324"):
        generated_field(5e-324, triplet, Medium(Process.SPDC, 1e-12), Geometry(1e-3, 1e-6),
                        Bandwidth(1.0), Arm.SIGNAL)
