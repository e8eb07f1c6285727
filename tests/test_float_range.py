"""The float-range rule against 50-digit references, over the whole accepted domain: one table,
one row per public callable of pairgate.model and per public method of its value types.

Each row draws its callable's inputs log-uniformly from the smallest subnormal to the largest
float (indices from 1 up), with zeros where an input may be zero. For each draw the callable
either raises "... out of the float range: ..." or returns normal floats (or an exact 0 where
the reference is 0) that lie within the row's bound of what a 50-digit decimal evaluation of
the same closed form gives, on the same double inputs and constants. The bound counts the
roundings of the float evaluation in units of u = 2^-53: every operation rounds by at most u
relative and a libm call (exp, expm1, sinh, tanh) by at most 2 ulp, 4u. The inputs are exact,
so nothing amplifies those roundings but the square roots, which halve them. (Goldberg 1991;
Higham, Accuracy and Stability of Numerical Algorithms, ch. 2-3.)

Each row also pins points: exact zeros, frozen values and former breaches of the rule, and
out-of-domain inputs, each with the exact message it raises. A point marked EDGE is where the
value, or the partial product named, is exactly the smallest or the largest normal float: the
range rule's edges are inclusive, so the callable accepts it. The frozen values were computed
independently with 30-digit arithmetic from the closed forms and the CODATA 2018 constants,
and hold to 1e-10 relative.
"""

import inspect
import math
import sys
from decimal import Decimal, localcontext
from typing import Callable, NamedTuple

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
)

U = 2.0**-53
FLOAT_MIN, FLOAT_MAX = sys.float_info.min, sys.float_info.max  # the normal floats
EXAMPLES = settings(max_examples=50, deadline=None)
K = {name: Decimal(getattr(CODATA2018, name)) for name in ("c", "hbar", "eps0", "mu0")}
PI = Decimal(math.pi)
MARGIN = 1 + Decimal(16 * U)  # room for a float evaluation's roundings next to a range edge


def log_uniform(low_exp: int, high_exp: int):
    """2^e * m for an integer e in [low_exp, high_exp] and m in [1, 2): log-uniform, down
    to the subnormals when low_exp < -1022 (ldexp rounds those)."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(low_exp, high_exp)).filter(lambda x: 0.0 < x < math.inf)


positive = log_uniform(-1074, 1023)
index = log_uniform(0, 1023)
beta_l = st.one_of(st.just(0.0), log_uniform(-1074, 8).filter(lambda x: x <= BETA_L_MAX))
processes = st.sampled_from(list(Process))
arms = st.sampled_from(list(Arm))


def maybe_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


@st.composite
def scenario(draw):
    """(medium, triplet) of one process, anywhere in their accepted domain."""
    process = draw(processes)
    try:
        triplet = WaveTriplet(draw(positive), draw(positive), process)
    except ValueError:  # omega_p = omega_s + omega_i is not a normal float
        assume(False)
    return Medium(process, draw(positive), draw(index), draw(index), draw(index)), triplet


def with_scenario(*rest):
    """(medium, triplet, *rest) with the (medium, triplet) of scenario()."""
    return st.tuples(scenario(), *rest).map(lambda drawn: (*drawn[0], *drawn[1:]))


# ---------------------------------------------------------------------------
# 50-digit references of the closed forms
# ---------------------------------------------------------------------------

def exact_coupling(omega, n):
    return Decimal(omega) / (2 * Decimal(n) * K["c"])


def exact_vacuum(omega, n, section, delta_omega):
    d = [Decimal(x) for x in (omega, n, section, delta_omega)]
    return (K["hbar"] * d[0] * d[3] / (4 * PI * K["c"] * K["eps0"] * d[1] * d[2])).sqrt()


def exact_generated(beta, triplet, medium, geometry, delta_omega, arm):
    vac = exact_vacuum(triplet.omega(arm), medium.n(arm), geometry.section, delta_omega)
    return vac * decimal_expm1(beta)


def generated_field_of(beta, triplet, medium, geometry, delta_omega, arm):
    """generated_field with its Bandwidth built inside the checked call, so that the
    bandwidth's own range error counts as a rejection."""
    return model.generated_field(beta, triplet, medium, geometry, Bandwidth(delta_omega), arm)


def exact_root(medium, triplet):
    c = K["c"]
    ks = Decimal(triplet.omega_s) / (2 * Decimal(medium.n_s) * c)
    ki = Decimal(triplet.omega_i) / (2 * Decimal(medium.n_i) * c)
    return (ks * ki).sqrt()


def exact_pump_field(intensity, n_p):
    return (2 * Decimal(intensity) * K["c"] * K["mu0"] / Decimal(n_p)).sqrt()


def exact_gain(medium, triplet, pump):
    if pump.field_amplitude is not None:
        field = Decimal(pump.field_amplitude)
    else:
        field = exact_pump_field(pump.intensity, medium.n_p)
    chi = Decimal(medium.chi_eff)
    drive = chi * field if medium.process is Process.SPDC else chi / 2 * field * field
    return drive * exact_root(medium, triplet)


def exact_pump_for_gain(medium, triplet, geometry, beta):
    """The PumpDrive of pump_for_gain: (no intensity, the field that gives beta*L)."""
    drive = Decimal(beta) / (Decimal(geometry.length) * exact_root(medium, triplet))
    chi = Decimal(medium.chi_eff)
    return None, drive / chi if medium.process is Process.SPDC else (2 * drive / chi).sqrt()


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


def exact_criteria():
    growth = Decimal(math.e) - 1
    return growth * growth / 8, growth * growth / 4, growth


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


def exact_omega_p(omega_s, omega_i, process):
    total = Decimal(omega_s) + Decimal(omega_i)
    return total if process is Process.SPDC else total / 2


def exact_intensity(field, n_p):
    return Decimal(n_p) * Decimal(field) ** 2 / (2 * K["c"] * K["mu0"])


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """A public callable under the gate: call(*args) for args drawn from draw is within
    ulps*u of exact(*args) or raises the range error. pinned maps args to what call gives
    there: a value (exact zeros exactly, frozen values to 1e-10), which is also checked
    against exact, or a ValueError's message. A callable giving several values gives them as
    a tuple, and exact gives a tuple too. Where exact gives a value other than a Decimal, such
    as None or an input that the callable passes through, which the rule does not cover, call
    must give that value exactly."""
    name: str
    call: Callable
    draw: st.SearchStrategy
    exact: Callable
    ulps: int
    pinned: tuple = ()


SPDC, FWM = Medium(Process.SPDC, 1e-12), Medium(Process.FWM, 1e-22)
SPDC_WAVES = model.triplet_from_wavelengths(1e-6, 1e-6, Process.SPDC)
CRYSTAL = Geometry(1e-3, 1e-6)
SMALL, HIGH = AsymptoteBranch.SMALL, AsymptoteBranch.HIGH
NAN, INF = math.nan, math.inf
NEED = {name: f"{name} must be strictly positive and finite, got " for name in (
    "omega", "section", "delta_omega", "delta_nu", "length", "lambda_s")}
BETA_L = "beta_l must be nonnegative and finite, got "
PUMP_DRIVE = "pump drive must be nonnegative and finite, got "
PUMP_FIELD = "pump field out of the float range: "
ABOVE_MAX = "beta_l must be <= BETA_L_MAX = 354.89, got "
BAND = "at_limit_band must lie in [0, 1)"
ARM = "arm must be Arm.SIGNAL or Arm.IDLER, got "
LIMIT = "limit pump intensity out of the float range: "

ROWS = [
    # the product n*c (2*n is exact) and the quotient
    Row("coupling_factor", model.coupling_factor, st.tuples(positive, index), exact_coupling, 2, (
        ((1.885e15, 1.0), 3143841.59724),
        ((2.0 * CODATA2018.c, 1.0), 1.0),  # omega = 2c makes omega/(2nc) exactly 1/m
        ((1e-320, 1.0), "coupling factor out of the float range: omega=1e-320, n=1.0"),
        ((1e15, 1e308), "coupling factor out of the float range: omega=1000000000000000.0, "
                        "n=1e+308"),  # 2*n*c overflows
        ((1e-300, 1.0), "coupling factor out of the float range: omega=1e-300, n=1.0"),
        ((0.0, 1.0), NEED["omega"] + "0.0"),
        ((-1e15, 1.0), NEED["omega"] + "-1000000000000000.0"),
        ((1e15, 0.5), "refractive index must be >= 1 and finite, got 0.5"),
        ((NAN, 1.0), NEED["omega"] + "nan"),
        ((1e15, INF), "refractive index must be >= 1 and finite, got inf"),
        ((1.3341207225468362e-299, 1.0), FLOAT_MIN))),  # EDGE: omega/(2nc)
    # 7 roundings under the square root, which halves them, and its own
    Row("vacuum_fluctuation", model.vacuum_fluctuation,
        st.tuples(positive, index, positive, positive), exact_vacuum, 5, (
            ((1.885e15, 1.0, 1e-6, 2.0 * math.pi * 1e9), 0.193505825307),
            ((1e300, 1.0, 1e-6, 1e300), "vacuum field out of the float range: omega=1e+300, "
                                        "n=1.0, section=1e-06, delta_omega=1e+300"),
            ((1e15, 1.0, 0.0, 1e9), NEED["section"] + "0.0"),
            ((1e15, 1.0, 1e-6, -1e9), NEED["delta_omega"] + "-1000000000.0"),
            ((1e15, 1.0, NAN, 1e9), NEED["section"] + "nan"))),
    # a field from an intensity 2.5u, the coupling root 3.5u, up to 3 products
    Row("gain_coefficient", model.gain_coefficient,
        with_scenario(st.one_of(st.builds(PumpDrive.from_field, maybe_zero(positive)),
                                st.builds(PumpDrive.from_intensity, maybe_zero(positive)))),
        exact_gain, 16, (
            ((SPDC, SPDC_WAVES, PumpDrive.from_intensity(0.0)), 0.0),
            ((FWM, SPDC_WAVES, PumpDrive.from_intensity(1e10)),
             "process mismatch: medium is fwm, triplet is spdc"),
            ((Medium(Process.SPDC, FLOAT_MIN), SPDC_WAVES, PumpDrive.from_field(1e10)),
             6.99027568758e-292))),  # EDGE: chi_eff
    # the coupling root 3.5u, then L*root, beta_l over it and that over chi_eff; for FWM a root
    # halves those 6.5u and adds its own u
    Row("pump_for_gain", model.pump_for_gain,
        with_scenario(st.builds(Geometry, positive, st.just(1.0)), beta_l),
        exact_pump_for_gain, 7, (
            ((SPDC, SPDC_WAVES, CRYSTAL, 0.0), PumpDrive.from_field(0.0)),
            ((Medium(Process.SPDC, 1e-12, 1.0, 1e300, 1e300), SPDC_WAVES, CRYSTAL, 1.0),
             "gain out of the float range: omega_s=1883651567308853.2, "
             "omega_i=1883651567308853.2, n_s=1e+300, n_i=1e+300"),  # ks*ki ~ 1e-587
            ((SPDC, SPDC_WAVES, CRYSTAL, 1e-320),  # a subnormal field
             PUMP_FIELD + "beta_l=1e-320, length=0.001, chi_eff=1e-12"),
            ((SPDC, SPDC_WAVES, Geometry(1e-318, 1e-6), 1e-300),  # a subnormal L*root
             PUMP_FIELD + "beta_l=1e-300, length=1e-318, chi_eff=1e-12"),
            ((Medium(Process.SPDC, 1e-310), SPDC_WAVES, CRYSTAL, 300.0),
             PUMP_FIELD + "beta_l=300.0, length=0.001, chi_eff=1e-310"),
            ((FWM, model.triplet_from_wavelengths(1e-6, 1e-6, Process.FWM), CRYSTAL, 1e-305),
             PUMP_FIELD + "beta_l=1e-305, length=0.001, chi_eff=1e-22"),  # beta_l/(L*root) too
            ((SPDC, WaveTriplet(1.0, 1.0, Process.SPDC), Geometry(5e-324, 1e-6), 0.0),
             PumpDrive.from_field(0.0)))),  # L*root underflows to 0
    # the bracket 7.5u and a subnormal seed term's u; the photon-flux scale 5u; two products
    Row("pair_flux_general", model.pair_flux_general,
        st.tuples(beta_l, maybe_zero(positive), maybe_zero(positive), scenario(),
                  positive).map(lambda d: (*d[:3], d[3][1], d[3][0], Geometry(1.0, d[4]))),
        exact_general, 32, (
            ((0.0, 0.1, 0.1, SPDC_WAVES, SPDC, CRYSTAL), 0.0),
            ((300.0, 1e200, 1e200, SPDC_WAVES, SPDC, CRYSTAL),  # was inf
             "pair flux out of the float range: beta_l=300.0, vac_s=1e+200, vac_i=1e+200"),
            ((1e-200, 1e-3, 1e-3, SPDC_WAVES, SPDC, CRYSTAL),  # was 0.0
             "pair flux out of the float range: beta_l=1e-200, vac_s=0.001, vac_i=0.001"),
            ((-1.0, 0.1, 0.1, SPDC_WAVES, SPDC, CRYSTAL), BETA_L + "-1.0"),
            ((NAN, 0.1, 0.1, SPDC_WAVES, SPDC, CRYSTAL), BETA_L + "nan"),
            ((400.0, 0.1, 0.1, SPDC_WAVES, SPDC, CRYSTAL), ABOVE_MAX + "400.0"),
            ((1.0, INF, 0.1, SPDC_WAVES, SPDC, CRYSTAL),
             "vac_s must be nonnegative and finite, got inf"),
            ((1.0, 0.1, 0.0, SPDC_WAVES, SPDC, CRYSTAL), 9852838.02037),  # no idler seed
            ((300.0, 1e30, 1e30, SPDC_WAVES, SPDC, CRYSTAL),  # N overflows, N/bracket does not
             "pair flux out of the float range: beta_l=300.0, vac_s=1e+30, vac_i=1e+30"))),
    # expm1 squared, 8u, and two products
    Row("pair_flux_reduced", model.pair_flux_reduced, st.tuples(beta_l, positive),
        exact_pair_flux, 10, (
            ((1.0, 1.0), 0.369061555252),
            ((2.0, 1.0), 5.10250472941),
            ((0.0, 1.0), 0.0),
            ((1e-170, 1.0), "pair flux out of the float range: beta_l=1e-170, delta_nu=1.0"),
            ((BETA_L_MAX, 1e12), "pair flux out of the float range: beta_l=354.891356446692, "
                                 "delta_nu=1000000000000.0"),  # overflows through delta_nu
            ((-0.1, 1.0), BETA_L + "-0.1"),
            ((1.0, 0.0), NEED["delta_nu"] + "0.0"),
            ((800.0, 1.0), ABOVE_MAX + "800.0"),
            ((1.0, INF), NEED["delta_nu"] + "inf"),
            ((1.0, 8.0 * FLOAT_MIN), 6.56951375016e-308))),  # EDGE: delta_nu/8
    Row("pairs_per_bandwidth", model.pairs_per_bandwidth, st.tuples(beta_l),
        lambda beta: exact_pair_flux(beta, 1.0), 10, (
            ((0.0,), 0.0),
            ((1e-8,), 1.2500000125e-17),  # where (exp(x)-1)^2 would lose all precision
            ((1e-160,), "pairs per bandwidth out of the float range: beta_l=1e-160"))),
    # beta_l^2 and exp(2*beta_l) (2*beta_l is exact): 4u at most
    Row("flux_asymptote", model.flux_asymptote, st.tuples(beta_l, st.sampled_from([SMALL, HIGH])),
        exact_asymptote, 4, (
            ((1.0, SMALL), 0.125),
            ((1.0, HIGH), 0.923632012366),
            ((0.0, SMALL), 0.0),
            ((1e-170, SMALL), "flux asymptote out of the float range: beta_l=1e-170"),
            ((0.1, "small"),  # was the high branch's 0.1527
             "branch must be AsymptoteBranch.SMALL or AsymptoteBranch.HIGH, got 'small'"))),
    # (e-1)^2/8 of the float e: one product; 2*pairs and e-1 are exact
    Row("limit_criteria", model.limit_criteria, st.just(()), exact_criteria, 1, (
        ((), (0.369061555252, 0.738123110504, 1.71828182846)),)),
    # the vacuum field's 4.5u, expm1's 4u and the product's u
    Row("generated_field", generated_field_of,
        st.tuples(beta_l, scenario(), positive, positive, arms).map(
            lambda d: (d[0], d[1][1], d[1][0], Geometry(1.0, d[2]), d[3], d[4])),
        exact_generated, 10, (
            ((0.0, SPDC_WAVES, SPDC, CRYSTAL, 2.0 * math.pi * 1e9, Arm.SIGNAL), 0.0),
            ((5e-324, SPDC_WAVES, SPDC, CRYSTAL, 1.0, Arm.SIGNAL),
             "generated field out of the float range: beta_l=5e-324, "
             "vacuum_field=2.4403308925693e-06"),
            ((1.1502858553713478e-307, SPDC_WAVES, SPDC, CRYSTAL, 2.0 * math.pi * 1e9,
              Arm.SIGNAL), FLOAT_MIN))),  # EDGE
    Row("field_ratio", model.field_ratio, st.tuples(beta_l), decimal_expm1, 4, (
        ((1.0,), 1.71828182846),
        ((math.log(2.0),), 1.0),
        ((0.0,), 0.0),
        ((1e-310,), "field ratio out of the float range: beta_l=1e-310"),  # was 1e-310
        ((-1.0,), BETA_L + "-1.0"),
        ((FLOAT_MIN,), FLOAT_MIN))),  # EDGE
    # the index-wavelength product 4u, the denominator 5u, the quotient u
    Row("limit_pump_intensity", model.limit_pump_intensity,
        with_scenario(positive, positive, positive).map(lambda d: (d[0], *d[2:])),
        exact_limit, 16, (
            ((SPDC, 1e-6, 1e-6, 1e-3), 1.34474423701e14),
            ((FWM, 1e-6, 1e-6, 1e-3), 8.44927723192e15),
            ((SPDC, 1e-6, 1e-6, 1e-150), LIMIT + "length=1e-150, chi_eff=1e-12"),  # (L*chi)^2 = 0
            ((SPDC, 1e-6, 1e-6, 1e300), LIMIT + "length=1e+300, chi_eff=1e-12"),  # it overflows
            ((SPDC, 1e300, 1e-6, 1e-3), LIMIT + "length=0.001, chi_eff=1e-12"),  # I_lim overflows
            ((SPDC, 1e-6, 1e-6, 0.0), NEED["length"] + "0.0"),
            ((SPDC, -1e-6, 1e-6, 1e-3), NEED["lambda_s"] + "-1e-06"),
            ((SPDC, NAN, 1e-6, 1e-3), NEED["lambda_s"] + "nan"),
            ((SPDC, 1e-6, 1e-6, INF), NEED["length"] + "inf"),
            ((SPDC, 2.0**-511, 2.0**-511, 1e-3), 2.99215524816e-282),  # EDGE: lambda_s*lambda_i
            ((Medium(Process.SPDC, 1.0), FLOAT_MAX, 1.0, 1.0), 2.41743748302e304),  # EDGE: same
            ((Medium(Process.FWM, 2.833052026607821e-308), 1e-6, 1e-6, 0.25),
             1.19295758109e299))),  # EDGE: pi*L*chi3
    # at unit indices: the wavelength product u (halved, plus a root and a product, for FWM),
    # the denominator 4u, the quotient u
    Row("effective_limit_intensity", model.effective_limit_intensity,
        with_scenario(positive, positive, positive).map(lambda d: (d[0], *d[2:])),
        exact_gamma, 8),
    # the pairs per bandwidth 10u and the field ratio 4u; the first one's message comes first
    Row("classify_regime", lambda *args: model.classify_regime(*args)[1:3], st.tuples(beta_l),
        lambda beta, *band: (exact_pair_flux(beta, 1.0), decimal_expm1(beta)), 10, (
            ((0.0,), (0.0, 0.0)),
            ((1e-310,), "pairs per bandwidth out of the float range: beta_l=1e-310"),
            ((1.0, 1.0), BAND), ((1.0, -0.1), BAND), ((1.0, NAN), BAND),
            ((-1.0,), BETA_L + "-1.0"), ((NAN,), BETA_L + "nan"), ((INF,), BETA_L + "inf"),
            ((800.0,), ABOVE_MAX + "800.0"),
            ((1.0, 0.0), (0.369061555252, 1.71828182846)))),  # the band's closed end
    # 2*pi*c rounds once and each quotient once
    Row("triplet_from_wavelengths", lambda *args: model.triplet_from_wavelengths(*args)[:2],
        st.tuples(positive, positive, processes),
        lambda ls, li, _: tuple(2 * PI * K["c"] / Decimal(x) for x in (ls, li)), 2, (
            ((1e-300, 1e-6, Process.SPDC),
             "angular frequency out of the float range: lambda_s=1e-300, lambda_i=1e-06"),
            ((2e-299, 2e-299, Process.SPDC), "omega_p out of the float range: "
             "omega_s=9.418257836544265e+307, omega_i=9.418257836544265e+307"))),
    # the sum rounds once; halving it is exact
    Row("WaveTriplet.omega_p", lambda *args: WaveTriplet(*args).omega_p,
        st.tuples(positive, positive, processes), exact_omega_p, 1, (
            ((5e-324, 1e-323, Process.FWM),  # was 1e-323, against an exact 7.5e-324
             "omega_p out of the float range: omega_s=5e-324, omega_i=1e-323"),
            ((1e-310, 1e-310, Process.FWM),
             "omega_p out of the float range: omega_s=1e-310, omega_i=1e-310"),
            ((1e308, 1e308, Process.SPDC),
             "omega_p out of the float range: omega_s=1e+308, omega_i=1e+308"),
            ((1e308, 1e308, Process.FWM),
             "omega_p out of the float range: omega_s=1e+308, omega_i=1e+308"),
            ((FLOAT_MIN / 2, FLOAT_MIN / 2, Process.SPDC), FLOAT_MIN),  # EDGE
            ((FLOAT_MAX / 2, FLOAT_MAX / 2, Process.SPDC), FLOAT_MAX),  # EDGE
            ((1e15, 1e15, "spdc"), "process must be Process.SPDC or Process.FWM, got 'spdc'"))),
    Row("WaveTriplet.omega", lambda *args: WaveTriplet(*args[:3]).omega(args[3]),
        st.tuples(positive, positive, processes, arms),
        lambda omega_s, omega_i, _, arm: omega_s if arm is Arm.SIGNAL else omega_i, 0, (
            ((1e15, 2e15, Process.SPDC, "signal"), ARM + "'signal'"),)),  # was the idler's 2e15
    Row("Medium.n", lambda medium, arm: medium.n(arm),
        st.tuples(scenario().map(lambda media: media[0]), arms),
        lambda medium, arm: medium.n_s if arm is Arm.SIGNAL else medium.n_i, 0, (
            ((SPDC, Process.SPDC), ARM + "<Process.SPDC: 'spdc'>"),)),
    Row("PumpDrive.from_intensity", lambda x: PumpDrive.from_intensity(x).intensity,
        st.tuples(maybe_zero(positive)), lambda x: x, 0, (
            ((0.0,), 0.0), ((-1.0,), PUMP_DRIVE + "-1.0"), ((NAN,), PUMP_DRIVE + "nan"),
            ((INF,), PUMP_DRIVE + "inf"))),
    Row("PumpDrive.from_field", lambda x: PumpDrive.from_field(x).field_amplitude,
        st.tuples(maybe_zero(positive)), lambda x: x, 0, (
            ((0.0,), 0.0), ((-1.0,), PUMP_DRIVE + "-1.0"), ((NAN,), PUMP_DRIVE + "nan"),
            ((INF,), PUMP_DRIVE + "inf"))),
    # 3 roundings under the square root, which halves them, and its own
    Row("PumpDrive.field", lambda i, n_p: PumpDrive.from_intensity(i).field(n_p),
        st.one_of(st.just((0.0, 1.0)), st.tuples(positive, index)), exact_pump_field, 3, (
            ((0.0, 1.0), 0.0),
            ((1e13, 1.0), 86802109.8438),
            ((5e-324, 1e308), PUMP_FIELD + "intensity=5e-324, n_p=1e+308"),  # was 0.0
            ((1e300, 1.0), PUMP_FIELD + "intensity=1e+300, n_p=1.0"),  # was inf
            ((5e-324, 1.0), PUMP_FIELD + "intensity=5e-324, n_p=1.0"),  # was 6.0994e-161
            ((1e-310, 1.0), 2.744923728145656e-154))),  # a subnormal intensity, E_p^2 normal
    # n_p*E_p, times E_p, c*mu0 and the quotient
    Row("PumpDrive.as_intensity", lambda e_p, n_p: PumpDrive.from_field(e_p).as_intensity(n_p),
        st.one_of(st.just((0.0, 1.0)), st.tuples(positive, index)), exact_intensity, 4, (
            ((0.0, 1.0), 0.0),
            ((1e-170, 1.0), "pump intensity out of the float range: pump_field=1e-170, n_p=1.0"),
            ((1e200, 1.0), "pump intensity out of the float range: pump_field=1e+200, n_p=1.0"),
            ((1e-155, 1.0),  # was 1.327209364e-313
             "pump intensity out of the float range: pump_field=1e-155, n_p=1.0"))),
    # 2*pi doubles math.pi exactly: one product
    Row("Bandwidth.from_delta_nu", lambda d: Bandwidth.from_delta_nu(d).delta_omega,
        st.tuples(positive), lambda d: 2 * PI * Decimal(d), 1, (
            ((5e-309,), "bandwidth out of the float range: delta_nu=5e-309"),  # subnormal back
            ((0.0,), NEED["delta_nu"] + "0.0"))),
    # one quotient
    Row("Bandwidth.delta_nu", lambda d: Bandwidth(d).delta_nu, st.tuples(positive),
        lambda d: Decimal(d) / (2 * PI), 1, (
            ((FLOAT_MIN,),  # was 3.54e-309
             "bandwidth out of the float range: delta_omega=2.2250738585072014e-308"),
            ((1.3980551375161837e-307,), FLOAT_MIN))),  # EDGE
]


def in_range_or_rejected(row: Row, args: tuple) -> None:
    """row.call(*args) raises the range error, or gives normal floats within row.ulps*u of
    row.exact(*args), or exact zeros where that is 0."""
    try:
        value = row.call(*args)
    except ValueError as exc:
        assert "out of the float range" in str(exc), (args, exc)
        return
    with localcontext(REFERENCE):
        exact = row.exact(*args)
        pairs = zip(value, exact, strict=True) if isinstance(exact, tuple) else [(value, exact)]
        for got, want in pairs:
            if not isinstance(want, Decimal):  # None, or an input passed through
                assert got == want, (args, value, exact)
                continue
            assert got == want == 0 or FLOAT_MIN <= got <= FLOAT_MAX, (args, value, exact)
            assert abs(Decimal(got) - want) <= Decimal(row.ulps * U) * want, (args, value, exact)


ROW_PARAMS = [pytest.param(row, id=row.name) for row in ROWS]
# one case per point, so that a wrong point is reported by name and hides no other
POINT_PARAMS = [pytest.param(row, args, want, id=f"{row.name}-pinned-{i}")
                for row in ROWS for i, (args, want) in enumerate(row.pinned)]


@pytest.mark.parametrize("row", ROW_PARAMS)
@EXAMPLES
@given(data=st.data())
def test_each_row_is_in_range_or_rejected(row, data):
    in_range_or_rejected(row, data.draw(row.draw, label="args"))


@pytest.mark.parametrize("row, args, want", POINT_PARAMS)
def test_each_point_gives_its_pinned_value_or_message(row, args, want):
    if isinstance(want, str):
        with pytest.raises(ValueError) as excinfo:
            row.call(*args)
        assert str(excinfo.value) == want, args
        return
    in_range_or_rejected(row, args)
    assert row.call(*args) == pytest.approx(want, rel=1e-10, abs=0.0), args


def test_every_public_callable_has_a_row():
    """The functions of model.__all__ and the public methods and properties of its value
    types are the row names, so a new kernel cannot skip the gate."""
    public = {name for name in model.__all__ if inspect.isfunction(getattr(model, name))}
    for name in model.__all__:
        value = getattr(model, name)
        if isinstance(value, type) and issubclass(value, tuple):  # a value type
            public |= {f"{name}.{attr}" for attr in vars(value) if not attr.startswith("_")}
    assert sorted(row.name for row in ROWS) == sorted(public)


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
    """Gamma reads no index: it is computed wherever it and its index-free partial products
    are normal floats, with a margin for its 8u, and both limit intensities pass their rows."""
    medium, _ = media
    args = (medium, lambda_s, lambda_i, length)
    for row in ROWS:
        if row.name in ("limit_pump_intensity", "effective_limit_intensity"):
            in_range_or_rejected(row, args)
    with localcontext(REFERENCE):
        gamma = exact_gamma(*args)
        representable = Decimal(FLOAT_MIN) * MARGIN <= gamma <= Decimal(FLOAT_MAX) / MARGIN
    if representable and all(FLOAT_MIN <= x <= FLOAT_MAX for x in gamma_partials(*args)):
        model.effective_limit_intensity(*args)
