"""Semiclassical model of photon-pair generation by SPDC and FWM.

Closed-form expressions for the parametric gain, the pair flux seeded by
vacuum fluctuations under the undepleted-pump approximation, and the
universal criteria separating the spontaneous (small-signal) regime from
the stimulated (high-signal) regime at beta*L = 1.

All quantities are strict SI: angular frequencies in rad/s, fields in V/m,
intensities in W/m^2, lengths in m. Collinear, exactly phase-matched
interaction is assumed throughout.

This module holds what nearly every call runs: the range rule and its
checks, the enums, the value types and the results that read beta*L alone
(pairs_per_bandwidth, pair_flux_reduced, field_ratio, limit_criteria,
flux_asymptote, classify_regime). The kernels of a configuration live in
modules imported on first use: pairgate.gain (coupling_factor,
gain_coefficient, pump_for_gain), pairgate.limit (limit_pump_intensity,
effective_limit_intensity) and pairgate.fields (vacuum_fluctuation,
generated_field, pair_flux_general). This module serves their public names too,
through _HOMES and a module __getattr__ (PEP 562), so `model.gain_coefficient`
reads as ever; no code here reads one of them as a global.

Every kernel here and in those modules computes one checked scalar. Kernels that
sweeps evaluate split off the factors constant along a sweep (gain._gain_factors;
limit._limit_factors, the whole factor (numer, chi_eff, process), which Gamma
takes at unit indices). pairgate.sweep builds each sweep from these factors,
evaluates its columns by repeating the scalar kernels' expressions in their
order, which tests pin bit for bit, and checks it with the scalar kernels.

One range rule, stated once by _normal, holds for every derived value: it is a
normal float, _FLOAT_MIN <= x <= _FLOAT_MAX, and so is each partial product it
is computed through, or it is an exact 0 where the input driving it is 0
(beta*L = 0, a zero pump). Anything else (a zero, subnormal, infinite or NaN
result of nonzero inputs) raises _out_of_float_range's "<what> out of the
float range: k=v, ..." instead of printing 0.0, a few-digit number or inf.
tests/test_float_range.py holds each public callable and method to the rule.
"""

import importlib
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
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max  # the normal floats
_AT_LIMIT_BAND = 0.01  # classify_regime's relative at-limit band, also `classify --band`'s


def _normal(*values: float) -> bool:
    """The range rule: every value is a normal float, _FLOAT_MIN <= x <= _FLOAT_MAX, so a
    NaN at any position fails it."""
    for value in values:
        if not _FLOAT_MIN <= value <= _FLOAT_MAX:
            return False
    return True


def _out_of_float_range(what: str, **inputs) -> ValueError:
    """The range rule's error, built only where _normal fails."""
    return ValueError(f"{what} out of the float range: "
                      + ", ".join(f"{name}={value!r}" for name, value in inputs.items()))


def _check(name: str, value: float, low: float = 0.0, inclusive: bool = False) -> None:
    """The one domain check on raw numbers: finite and > low (>= low if inclusive, where a
    negative zero counts as below a low of 0)."""
    if low < value < math.inf or (inclusive and value == low and math.copysign(1.0, value) > 0):
        return
    if low == 0.0:
        need = "nonnegative" if inclusive else "strictly positive"
    else:  # every nonzero low is the inclusive index floor 1.0
        need = f">= {low:g}"
    raise ValueError(f"{name} must be {need} and finite, got {value!r}")


def _check_member(name: str, value, kind: type) -> None:
    """The one check on an enum argument: a member of kind, not its value nor another enum's."""
    if not isinstance(value, kind):
        members = " or ".join(f"{kind.__name__}.{member.name}" for member in kind)
        raise ValueError(f"{name} must be {members}, got {value!r}")


def _check_beta_l(beta_l: float) -> None:
    _check("beta_l", beta_l, inclusive=True)
    if beta_l > BETA_L_MAX:
        raise ValueError(f"beta_l must be <= BETA_L_MAX = {BETA_L_MAX:.2f}, got {beta_l!r}")


def _named_tuple(name: str, fields: str, defaults: tuple = ()) -> type:
    """The base of a value type: a frozen collections.namedtuple whose constructor runs
    the type's __post_init__ checks; _make, and so _replace, goes through the constructor."""

    class Value(namedtuple(name, fields, defaults=defaults)):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            self = super().__new__(cls, *args, **kwargs)
            self.__post_init__()
            return self

        def __post_init__(self) -> None:
            """A value type with invariants checks them here; this one has none."""

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

    return Value


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

    def __post_init__(self) -> None:
        _check_member("process", self.process, Process)
        for name in ("omega_s", "omega_i"):
            _check(name, getattr(self, name))
        if not _normal(self.omega_p):
            raise _out_of_float_range("omega_p", omega_s=self.omega_s, omega_i=self.omega_i)

    @property
    def omega_p(self) -> float:
        total = self.omega_s + self.omega_i
        return total if self.process is Process.SPDC else 0.5 * total

    def omega(self, arm: Arm) -> float:
        _check_member("arm", arm, Arm)
        return self.omega_s if arm is Arm.SIGNAL else self.omega_i


def triplet_from_wavelengths(lambda_s: float, lambda_i: float, process: Process) -> WaveTriplet:
    """Triplet from the signal and idler vacuum wavelengths (m)."""
    _check("lambda_s", lambda_s)
    _check("lambda_i", lambda_i)
    two_pi_c = 2.0 * math.pi * CODATA2018.c
    omegas = two_pi_c / lambda_s, two_pi_c / lambda_i
    if not _normal(*omegas):
        raise _out_of_float_range("angular frequency", lambda_s=lambda_s, lambda_i=lambda_i)
    return WaveTriplet(*omegas, process)


class Medium(_named_tuple("Medium", "process chi_eff n_p n_s n_i", (1.0, 1.0, 1.0))):
    """Nonlinear medium: process order, effective susceptibility, indices.

    chi_eff is in m/V for SPDC (second order) and m^2/V^2 for FWM (third
    order). Refractive indices are taken at the pump, signal and idler
    frequencies respectively; with all indices set to 1 the limit pump
    intensity coincides with the index-normalized effective value.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        _check_member("process", self.process, Process)
        _check("chi_eff", self.chi_eff)
        for name in ("n_p", "n_s", "n_i"):
            _check(name, getattr(self, name), 1.0, inclusive=True)

    def n(self, arm: Arm) -> float:
        _check_member("arm", arm, Arm)
        return self.n_s if arm is Arm.SIGNAL else self.n_i


class Geometry(_named_tuple("Geometry", "length section")):
    """Interaction length (m) and beam-overlap section (m^2)."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check("length", self.length)
        _check("section", self.section)


class PumpDrive(_named_tuple("PumpDrive", "intensity field_amplitude", (None, None))):
    """Pump drive, given either as intensity (W/m^2) or field amplitude (V/m).

    For FWM this is the TOTAL of the two pump waves, not the per-wave value;
    using per-wave numbers silently halves the field and quarters the gain.
    The two representations are an exact bijection given the pump index.
    """

    __slots__ = ()

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
        """Pump field amplitude (V/m) at a checked pump index n_p, such as Medium.n_p.
        Of an intensity, E_p^2 = 2*I*c*mu0/n_p is the partial product under the root."""
        if self.intensity is None:
            return self.field_amplitude
        k = CODATA2018
        field = math.sqrt(2.0 * self.intensity * k.c * k.mu0 / n_p)
        if self.intensity and not _normal(field * field):
            raise _out_of_float_range("pump field", intensity=self.intensity, n_p=n_p)
        return field

    def as_intensity(self, n_p: float) -> float:
        """Pump intensity (W/m^2) at a checked pump index n_p."""
        if self.intensity is not None:
            return self.intensity
        e_p, k = self.field_amplitude, CODATA2018
        # a partial product off the float range takes the intensity off it too
        intensity = 0.5 * n_p * e_p * e_p / (k.c * k.mu0)
        if e_p and not _normal(intensity):
            raise _out_of_float_range("pump intensity", pump_field=e_p, n_p=n_p)
        return intensity


class Bandwidth(_named_tuple("Bandwidth", "delta_omega")):
    """Spectral linewidth of the generated pairs (monochromatic pump assumed).

    Stored as delta_omega (rad/s); delta_nu (Hz) is delta_omega/(2*pi).
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        _check("bandwidth delta_omega", self.delta_omega)
        if not _normal(self.delta_nu):
            raise _out_of_float_range("bandwidth", delta_omega=self.delta_omega)

    @classmethod
    def from_delta_nu(cls, delta_nu: float) -> "Bandwidth":
        _check("delta_nu", delta_nu)
        try:
            return cls(delta_omega=2.0 * math.pi * delta_nu)
        except ValueError:  # 2*pi*delta_nu, or delta_nu back from it, is not a normal float
            raise _out_of_float_range("bandwidth", delta_nu=delta_nu) from None

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
# the results of beta*L alone
# --------------------------------------------------------------------------

def pair_flux_reduced(beta_l: float, delta_nu: float) -> float:
    """Pair flux (pairs/s) with both arms seeded by vacuum at linewidth delta_nu.

    (delta_nu/8)*(exp(beta_l)-1)^2, via expm1 for small-gain stability.
    """
    growth = _growth(beta_l)
    _check("delta_nu", delta_nu)
    per_hz = 0.125 * delta_nu  # the one partial product that the result does not bound
    pairs = per_hz * growth * growth
    if beta_l and not _normal(per_hz, pairs):
        raise _out_of_float_range("pair flux", beta_l=beta_l, delta_nu=delta_nu)
    return pairs


def pairs_per_bandwidth(beta_l: float) -> float:
    """Dimensionless pair flux per frequency unit, (1/8)*(exp(beta_l)-1)^2."""
    growth = _growth(beta_l)
    pairs = 0.125 * growth * growth
    if beta_l and not _normal(pairs):
        raise _out_of_float_range("pairs per bandwidth", beta_l=beta_l)
    return pairs


def flux_asymptote(beta_l: float, branch: AsymptoteBranch) -> float:
    """Limiting branches of pairs_per_bandwidth.

    Small signal: (1/8)*(beta_l)^2 (spontaneous, quadratic).
    High signal: (1/8)*exp(2*beta_l) (stimulated, exponential).
    """
    _check_beta_l(beta_l)
    _check_member("branch", branch, AsymptoteBranch)
    small = branch is AsymptoteBranch.SMALL
    value = 0.125 * beta_l * beta_l if small else 0.125 * math.exp(2.0 * beta_l)
    if beta_l and not _normal(value):
        raise _out_of_float_range("flux asymptote", beta_l=beta_l)
    return value


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
    growth = _growth(beta_l)
    if beta_l and not _normal(growth):
        raise _out_of_float_range("field ratio", beta_l=beta_l)
    return growth


def _growth(beta_l: float) -> float:
    """field_ratio unchecked, for kernels that check what they derive from it under their name."""
    _check_beta_l(beta_l)
    return math.expm1(beta_l)


def classify_regime(beta_l: float, at_limit_band: float = _AT_LIMIT_BAND) -> RegimeReport:
    """Classify the operating regime around the beta*L = 1 limit.

    beta_l within +/- at_limit_band (relative) of 1 counts as at-limit; the
    band is a reporting convenience, exact equality being measure-zero.
    """
    _check_beta_l(beta_l)
    if not (0.0 <= at_limit_band < 1.0 and math.copysign(1.0, at_limit_band) > 0):
        raise ValueError("at_limit_band must lie in [0, 1)")
    if beta_l < 1.0 - at_limit_band:
        regime = Regime.SMALL_SIGNAL
    elif beta_l > 1.0 + at_limit_band:
        regime = Regime.HIGH_SIGNAL
    else:
        regime = Regime.AT_LIMIT
    return RegimeReport(beta_l, pairs_per_bandwidth(beta_l), field_ratio(beta_l), regime)


# --------------------------------------------------------------------------
# the kernels of a configuration, imported on first use
# --------------------------------------------------------------------------

# each public name of __all__ that another module holds -> that module; the package's
# lazy names include these too
_HOMES = {
    **dict.fromkeys(("coupling_factor", "gain_coefficient", "pump_for_gain"), "gain"),
    **dict.fromkeys(("limit_pump_intensity", "effective_limit_intensity"), "limit"),
    **dict.fromkeys(("vacuum_fluctuation", "generated_field", "pair_flux_general"), "fields"),
}


def __getattr__(name: str):
    """A name of _HOMES, from its module, which is imported on the first use of one of its
    names; the value is then kept here, so this runs once per name."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_HOMES[name]}")
    value = globals()[name] = getattr(module, name)
    return value
