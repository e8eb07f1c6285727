"""Semiclassical model of photon-pair generation by SPDC and FWM.

Closed-form expressions for the parametric gain, the pair flux seeded by
vacuum fluctuations under the undepleted-pump approximation, and the
universal criteria separating the spontaneous (small-signal) regime from
the stimulated (high-signal) regime at beta*L = 1.

All quantities are strict SI: angular frequencies in rad/s, fields in V/m,
intensities in W/m^2, lengths in m. Collinear, exactly phase-matched
interaction is assumed throughout.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from .constants import CODATA2018

__all__ = [
    "BETA_L_MAX",
    "Process",
    "Arm",
    "Regime",
    "AsymptoteBranch",
    "WaveTriplet",
    "Medium",
    "Geometry",
    "PumpDrive",
    "Bandwidth",
    "RegimeReport",
    "LimitCriteria",
    "coupling_factor",
    "vacuum_fluctuation",
    "gain_coefficient",
    "pump_for_gain",
    "pair_flux_general",
    "pair_flux_reduced",
    "pairs_per_bandwidth",
    "flux_asymptote",
    "limit_criteria",
    "generated_field",
    "field_ratio",
    "limit_pump_intensity",
    "effective_limit_intensity",
    "classify_regime",
    "triplet_from_wavelengths",
]

# Largest beta*L at which both (exp(beta_l) - 1)^2/8 and exp(2*beta_l)/8 are
# finite floats (~354.89); every kernel taking a raw beta*L rejects more.
BETA_L_MAX = 0.5 * math.log(sys.float_info.max)


def _check(name: str, value: float, low: float = 0.0, inclusive: bool = False) -> None:
    """The one domain check on raw numbers: finite and > low (>= low if inclusive)."""
    if low < value < math.inf or (inclusive and value == low):
        return
    if low == 0.0:
        need = "nonnegative" if inclusive else "strictly positive"
    else:
        need = f"{'>=' if inclusive else '>'} {low:g}"
    raise ValueError(f"{name} must be {need} and finite, got {value!r}")


def _check_beta_l(beta_l: float) -> None:
    if not 0.0 <= beta_l <= BETA_L_MAX:
        _check("beta_l", beta_l, inclusive=True)
        raise ValueError(f"beta_l must be <= BETA_L_MAX = {BETA_L_MAX:.2f}, got {beta_l!r}")


def _named_tuple(name: str, fields: str, defaults: tuple = ()) -> type:
    """A collections.namedtuple whose _make, and so _replace, runs the class constructor."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Process(Enum):
    """Pair-generation process: one pump photon (SPDC) or two (FWM) per pair."""

    SPDC = "spdc"
    FWM = "fwm"


class Arm(Enum):
    """Which generated wave of the pair is meant."""

    SIGNAL = "signal"
    IDLER = "idler"


class Regime(Enum):
    """Operating regime relative to the beta*L = 1 limit."""

    SMALL_SIGNAL = "small-signal"
    AT_LIMIT = "at-limit"
    HIGH_SIGNAL = "high-signal"


class AsymptoteBranch(Enum):
    """Limiting branch of the pair flux per frequency unit."""

    SMALL = "small"
    HIGH = "high"


class WaveTriplet(_named_tuple("WaveTriplet", "omega_s omega_i process")):
    """Signal and idler angular frequencies (rad/s) of one process.

    The pump frequency follows from energy conservation, omega_p =
    omega_s + omega_i for SPDC and 2*omega_p = omega_s + omega_i for FWM, so
    it is derived, never given. The degenerate case omega_s = omega_i is
    allowed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("omega_s", "omega_i", "omega_p"):
            _check(name, getattr(self, name))
        return self

    @property
    def omega_p(self) -> float:
        total = self.omega_s + self.omega_i
        return total if self.process is Process.SPDC else 0.5 * total

    @classmethod
    def from_signal_idler(cls, omega_s: float, omega_i: float, process: Process) -> "WaveTriplet":
        """Same as WaveTriplet(omega_s, omega_i, process)."""
        return cls(omega_s, omega_i, process)

    def omega(self, arm: Arm) -> float:
        return self.omega_s if arm is Arm.SIGNAL else self.omega_i


def triplet_from_wavelengths(lambda_s: float, lambda_i: float, process: Process) -> WaveTriplet:
    """Triplet from the signal and idler vacuum wavelengths (m)."""
    _check("lambda_s", lambda_s)
    _check("lambda_i", lambda_i)
    two_pi_c = 2.0 * math.pi * CODATA2018.c
    return WaveTriplet(two_pi_c / lambda_s, two_pi_c / lambda_i, process)


class Medium(_named_tuple("Medium", "process chi_eff n_p n_s n_i", (1.0, 1.0, 1.0))):
    """Nonlinear medium: process order, effective susceptibility, indices.

    chi_eff is in m/V for SPDC (second order) and m^2/V^2 for FWM (third
    order). Refractive indices are taken at the pump, signal and idler
    frequencies respectively; with all indices set to 1 the limit pump
    intensity coincides with the index-normalized effective value.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check("chi_eff", self.chi_eff)
        for name in ("n_p", "n_s", "n_i"):
            _check(name, getattr(self, name), 1.0, inclusive=True)
        return self

    def n(self, arm: Arm) -> float:
        return self.n_s if arm is Arm.SIGNAL else self.n_i


class Geometry(_named_tuple("Geometry", "length section")):
    """Interaction length (m) and beam-overlap section (m^2)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check("length", self.length)
        _check("section", self.section)
        return self


class PumpDrive(_named_tuple("PumpDrive", "intensity field_amplitude", (None, None))):
    """Pump drive, given either as intensity (W/m^2) or field amplitude (V/m).

    For FWM this is the TOTAL of the two pump waves, not the per-wave value;
    using per-wave numbers silently halves the field and quarters the gain.
    The two representations are an exact bijection given the pump index.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()  # kept apart: bench/tracer.py wraps it to count drives
        return self

    def __post_init__(self) -> None:
        if (self.intensity is None) == (self.field_amplitude is None):
            raise ValueError("specify exactly one of intensity or field_amplitude")
        value = self.intensity if self.intensity is not None else self.field_amplitude
        _check("pump drive", value, inclusive=True)

    @classmethod
    def from_intensity(cls, intensity: float) -> "PumpDrive":
        return cls(intensity=intensity)

    @classmethod
    def from_field(cls, field_amplitude: float) -> "PumpDrive":
        return cls(field_amplitude=field_amplitude)

    def field(self, n_p: float) -> float:
        """Pump field amplitude (V/m) at a checked pump index n_p, such as Medium.n_p."""
        if self.field_amplitude is not None:
            return self.field_amplitude
        return math.sqrt(2.0 * self.intensity * CODATA2018.c * CODATA2018.mu0 / n_p)

    def as_intensity(self, n_p: float) -> float:
        """Pump intensity (W/m^2) at a checked pump index n_p."""
        if self.intensity is not None:
            return self.intensity
        e_p, k = self.field_amplitude, CODATA2018
        return 0.5 * n_p * e_p * e_p / (k.c * k.mu0)


class Bandwidth(_named_tuple("Bandwidth", "delta_omega")):
    """Spectral linewidth of the generated pairs (monochromatic pump assumed).

    Stored as delta_omega (rad/s); delta_nu (Hz) is delta_omega/(2*pi).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check("bandwidth delta_omega", self.delta_omega)
        return self

    @classmethod
    def from_delta_nu(cls, delta_nu: float) -> "Bandwidth":
        return cls(delta_omega=2.0 * math.pi * delta_nu)

    @property
    def delta_nu(self) -> float:
        return self.delta_omega / (2.0 * math.pi)


class RegimeReport(_named_tuple("RegimeReport", "beta_l pairs_per_bandwidth field_ratio regime")):
    """Outcome of a regime classification at a given gain product beta*L."""

    __slots__ = ()


class LimitCriteria(_named_tuple("LimitCriteria", "pairs_limit photons_limit field_ratio_limit")):
    """Universal dimensionless criteria at the beta*L = 1 limit: pairs_limit is
    (e-1)^2/8 pairs per s per Hz, photons_limit (e-1)^2/4 signal+idler photons
    per s per Hz, and field_ratio_limit e-1, the generated over the vacuum field."""

    __slots__ = ()


# --------------------------------------------------------------------------
# elementary building blocks
# --------------------------------------------------------------------------

def coupling_factor(omega: float, n: float) -> float:
    """Per-field coupling factor omega/(2*n*c), in 1/m.

    Multiplied by the dimensionless product chi_eff*field it yields the
    spatial gain rate of one arm.
    """
    _check("omega", omega)
    _check("refractive index", n, 1.0, inclusive=True)
    return omega / (2.0 * n * CODATA2018.c)


def vacuum_fluctuation(omega: float, n: float, section: float, delta_omega: float) -> float:
    """Zero-point field amplitude (V/m) seeding spontaneous generation.

    sqrt(hbar*omega*delta_omega / (4*pi*c*eps0*n*section)); equivalently
    sqrt(h*nu*delta_nu / (2*c*eps0*n*section)).
    """
    _check("omega", omega)
    _check("refractive index", n, 1.0, inclusive=True)
    _check("section", section)
    _check("delta_omega", delta_omega)
    k = CODATA2018
    denom = 4.0 * math.pi * k.c * k.eps0 * n * section  # zero only for a subnormal section
    vac = math.sqrt(k.hbar * omega * delta_omega / denom) if denom else math.inf
    _check("vacuum field", vac, inclusive=True)
    return vac


# --------------------------------------------------------------------------
# parametric gain
# --------------------------------------------------------------------------

def _couplings(medium: Medium, triplet: WaveTriplet) -> tuple[float, float]:
    """coupling_factor of both arms; Medium and WaveTriplet already checked its inputs."""
    if medium.process is not triplet.process:
        raise ValueError(
            f"process mismatch: medium is {medium.process.value}, "
            f"triplet is {triplet.process.value}"
        )
    c = CODATA2018.c
    return triplet.omega_s / (2.0 * medium.n_s * c), triplet.omega_i / (2.0 * medium.n_i * c)


def _drive_coupling(medium: Medium, pump: PumpDrive) -> float:
    """Dimensionless chi*pump product whose units cancel against 1/m couplings.

    chi2*E_p for SPDC, (1/2)*chi3*E_p^2 for FWM (E_p the total two-wave
    amplitude).
    """
    e_p = pump.field(medium.n_p)
    if medium.process is Process.SPDC:
        return medium.chi_eff * e_p
    return 0.5 * medium.chi_eff * e_p * e_p


def gain_coefficient(medium: Medium, triplet: WaveTriplet, pump: PumpDrive) -> float:
    """Parametric gain coefficient beta (1/m) of the phase-matched process.

    beta = chi2*E_p*sqrt(ks*ki) for SPDC and (1/2)*chi3*E_p^2*sqrt(ks*ki)
    for FWM, with ks, ki the signal/idler coupling factors.
    """
    ks, ki = _couplings(medium, triplet)
    return _drive_coupling(medium, pump) * math.sqrt(ks * ki)


def pump_for_gain(
    medium: Medium, triplet: WaveTriplet, geometry: Geometry, beta_l: float
) -> PumpDrive:
    """Pump drive that realizes a target gain product beta*L (inverse of
    gain_coefficient at fixed medium and geometry)."""
    _check_beta_l(beta_l)
    ks, ki = _couplings(medium, triplet)
    drive = beta_l / (geometry.length * math.sqrt(ks * ki))
    if medium.process is Process.SPDC:
        return PumpDrive.from_field(drive / medium.chi_eff)
    return PumpDrive.from_field(math.sqrt(2.0 * drive / medium.chi_eff))


# --------------------------------------------------------------------------
# pair flux
# --------------------------------------------------------------------------

def _photon_flux(field: float, omega: float, n: float, section: float) -> float:
    """Photon flux (photons/s) of a field amplitude: eps0*n*c*S/(4*hbar*omega) * field^2."""
    k = CODATA2018
    return k.eps0 * n * k.c * section / (4.0 * k.hbar * omega) * field * field


def pair_flux_general(
    beta_l: float,
    vac_s: float,
    vac_i: float,
    triplet: WaveTriplet,
    medium: Medium,
    geometry: Geometry,
) -> float:
    """Pair flux (pairs/s) for arbitrary seed amplitudes on the two arms.

    N = eps0*n_s*c*S/(4*hbar*omega_s) *
        [vac_s*(cosh(bL)-1) + sqrt(omega_s*n_i/(omega_i*n_s))*vac_i*sinh(bL)]^2

    cosh(x)-1 is evaluated as 2*sinh(x/2)^2 so the small-signal regime keeps
    full precision.
    """
    _check_beta_l(beta_l)
    _check("vac_s", vac_s, inclusive=True)
    _check("vac_i", vac_i, inclusive=True)
    cosh_m1 = 2.0 * math.sinh(0.5 * beta_l) ** 2
    weight = math.sqrt(triplet.omega_s * medium.n_i / (triplet.omega_i * medium.n_s))
    bracket = vac_s * cosh_m1 + weight * vac_i * math.sinh(beta_l)
    return _photon_flux(bracket, triplet.omega_s, medium.n_s, geometry.section)


def pair_flux_reduced(beta_l: float, delta_nu: float) -> float:
    """Pair flux (pairs/s) with both arms seeded by vacuum at linewidth delta_nu.

    (delta_nu/8)*(exp(beta_l)-1)^2, via expm1 for small-gain stability.
    """
    _check_beta_l(beta_l)
    _check("delta_nu", delta_nu)
    growth = math.expm1(beta_l)
    pairs = 0.125 * delta_nu * growth * growth
    if pairs == math.inf:
        raise ValueError(f"pair flux overflows a float at delta_nu={delta_nu!r}")
    return pairs


def pairs_per_bandwidth(beta_l: float) -> float:
    """Dimensionless pair flux per frequency unit, (1/8)*(exp(beta_l)-1)^2."""
    _check_beta_l(beta_l)
    growth = math.expm1(beta_l)
    return 0.125 * growth * growth


def flux_asymptote(beta_l: float, branch: AsymptoteBranch) -> float:
    """Limiting branches of pairs_per_bandwidth.

    Small signal: (1/8)*(beta_l)^2 (spontaneous, quadratic).
    High signal: (1/8)*exp(2*beta_l) (stimulated, exponential).
    """
    _check_beta_l(beta_l)
    if branch is AsymptoteBranch.SMALL:
        return 0.125 * beta_l * beta_l
    return 0.125 * math.exp(2.0 * beta_l)


def limit_criteria() -> LimitCriteria:
    """Universal criteria at beta*L = 1: ((e-1)^2/8, (e-1)^2/4, e-1).

    To three decimals these read 0.369 pairs per s per Hz, 0.738 photons
    per s per Hz, and a generated/vacuum field ratio of 1.718.
    """
    growth = math.e - 1.0
    pairs = 0.125 * growth * growth
    return LimitCriteria(pairs_limit=pairs, photons_limit=2.0 * pairs, field_ratio_limit=growth)


def field_ratio(beta_l: float) -> float:
    """Generated-field to vacuum-field amplitude ratio, exp(beta_l) - 1."""
    _check_beta_l(beta_l)
    return math.expm1(beta_l)


def generated_field(
    beta_l: float,
    triplet: WaveTriplet,
    medium: Medium,
    geometry: Geometry,
    bandwidth: Bandwidth,
    arm: Arm,
) -> float:
    """Field amplitude (V/m) generated on one arm from the vacuum seed.

    vacuum_fluctuation(arm) * (exp(beta_l) - 1).
    """
    vac = vacuum_fluctuation(
        triplet.omega(arm), medium.n(arm), geometry.section, bandwidth.delta_omega
    )
    generated = vac * field_ratio(beta_l)
    _check("generated field", generated, inclusive=True)
    return generated


# --------------------------------------------------------------------------
# the beta*L = 1 limit
# --------------------------------------------------------------------------

def limit_pump_intensity(
    medium: Medium, lambda_s: float, lambda_i: float, length: float
) -> float:
    """Pump intensity (W/m^2) at which beta*L reaches 1.

    SPDC: (1/(2*pi^2*mu0*c)) * n_p*n_s*n_i*lambda_s*lambda_i / (L*chi2)^2
    FWM:  (1/pi)*sqrt(eps0/mu0) * n_p*sqrt(n_s*n_i*lambda_s*lambda_i) / (L*chi3)

    Wavelengths are vacuum values in m. For FWM the result is the total
    two-wave pump intensity.
    """
    _check("lambda_s", lambda_s)
    _check("lambda_i", lambda_i)
    _check("length", length)
    k = CODATA2018
    try:
        if medium.process is Process.SPDC:
            numer = medium.n_p * medium.n_s * medium.n_i * lambda_s * lambda_i
            i_lim = numer / (2.0 * math.pi**2 * k.mu0 * k.c * (length * medium.chi_eff) ** 2)
        else:
            numer = medium.n_p * math.sqrt(medium.n_s * medium.n_i * lambda_s * lambda_i)
            i_lim = numer * math.sqrt(k.eps0 / k.mu0) / (math.pi * length * medium.chi_eff)
    except ArithmeticError as exc:  # an intermediate left the float range
        raise ValueError(f"limit pump intensity out of the float range: {exc}") from exc
    _check("limit pump intensity", i_lim, inclusive=True)
    return i_lim


def effective_limit_intensity(
    medium: Medium, lambda_s: float, lambda_i: float, length: float
) -> float:
    """Index-normalized limit pump intensity Gamma (W/m^2).

    Gamma = I_lim/(n_p*n_s*n_i) for SPDC and I_lim/(n_p*sqrt(n_s*n_i)) for
    FWM; with unit indices Gamma equals the limit intensity itself.
    """
    i_lim = limit_pump_intensity(medium, lambda_s, lambda_i, length)
    if medium.process is Process.SPDC:
        return i_lim / (medium.n_p * medium.n_s * medium.n_i)
    return i_lim / (medium.n_p * math.sqrt(medium.n_s * medium.n_i))


def classify_regime(beta_l: float, at_limit_band: float = 0.01) -> RegimeReport:
    """Classify the operating regime around the beta*L = 1 limit.

    beta_l within +/- at_limit_band (relative) of 1 counts as at-limit; the
    band is a reporting convenience, exact equality being measure-zero.
    """
    _check_beta_l(beta_l)
    if not 0.0 <= at_limit_band < 1.0:
        raise ValueError("at_limit_band must lie in [0, 1)")
    if beta_l < 1.0 - at_limit_band:
        regime = Regime.SMALL_SIGNAL
    elif beta_l > 1.0 + at_limit_band:
        regime = Regime.HIGH_SIGNAL
    else:
        regime = Regime.AT_LIMIT
    return RegimeReport(
        beta_l=beta_l,
        pairs_per_bandwidth=pairs_per_bandwidth(beta_l),
        field_ratio=field_ratio(beta_l),
        regime=regime,
    )
