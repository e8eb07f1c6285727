"""Semiclassical model of photon-pair generation by SPDC and FWM.

Closed-form expressions for the parametric gain, the pair flux seeded by
vacuum fluctuations under the undepleted-pump approximation, and the
universal criteria separating the spontaneous (small-signal) regime from
the stimulated (high-signal) regime at beta*L = 1.

All quantities are strict SI: angular frequencies in rad/s, fields in V/m,
intensities in W/m^2, lengths in m. Collinear, exactly phase-matched
interaction is assumed throughout.

Kernels that sweeps evaluate are split into the factors constant along a sweep
(_gain_factors; _limit_factors, the whole factor (numer, chi_eff, process),
which Gamma takes at unit indices) and a column body, which evaluates the
formula over a whole column of points in one pass (_pump_fields, _beta_ls,
_pair_fluxes, _limit_quotients). The scalar kernels call them on a one-point
column, so each formula has one home; only the oracle's _drive_coupling stays
scalar, and a test pins _beta_ls to it. Each swept quantity has one sweep
function, _flux_sweep (beta*L), _pump_sweep (pump intensity) and _gamma_sweep
(length), which computes the per-sweep factors once and returns a (columns,
row) pair: columns evaluates a block with the column bodies, unchecked, and
row is the scalar kernels at one point. _check_block is the one place a block
is checked: the row at the block's extremes vouches for every point, as each
value is monotone in the swept point, and a block it rejects is walked with
the row, which raises the scalar message at the first offending point.

One range rule holds for every derived value: it is a normal float,
_FLOAT_MIN <= x <= _FLOAT_MAX, and so is each partial product it is computed
through, or it is an exact 0 where the input driving it is 0 (beta*L = 0, a
zero pump). Anything else (a zero, subnormal, infinite or NaN result of
nonzero inputs) raises _out_of_float_range's "<what> out of the float range:
k=v, ..." instead of printing 0.0, a few-digit number or inf.
tests/test_float_range.py holds each public callable and method to the rule.
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
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max  # the normal floats
_AT_LIMIT_BAND = 0.01  # classify_regime's relative at-limit band, also `classify --band`'s


def _out_of_float_range(what: str, **inputs) -> ValueError:
    """The range rule's error, built only where an inline `_FLOAT_MIN <= x <= _FLOAT_MAX` fails."""
    return ValueError(f"{what} out of the float range: "
                      + ", ".join(f"{name}={value!r}" for name, value in inputs.items()))


def _check(name: str, value: float, low: float = 0.0, inclusive: bool = False) -> None:
    """The one domain check on raw numbers: finite and > low (>= low if inclusive)."""
    if low < value < math.inf or (inclusive and value == low):
        return
    if low == 0.0:
        need = "nonnegative" if inclusive else "strictly positive"
    else:
        need = f"{'>=' if inclusive else '>'} {low:g}"
    raise ValueError(f"{name} must be {need} and finite, got {value!r}")


def _check_member(name: str, value, kind: type) -> None:
    """The one check on an enum argument: a member of kind, not its value nor another enum's."""
    if not isinstance(value, kind):
        members = " or ".join(f"{kind.__name__}.{member.name}" for member in kind)
        raise ValueError(f"{name} must be {members}, got {value!r}")


def _check_beta_l(beta_l: float) -> None:
    if not 0.0 <= beta_l <= BETA_L_MAX:
        _check("beta_l", beta_l, inclusive=True)
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
        if not _FLOAT_MIN <= self.omega_p <= _FLOAT_MAX:
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
    omegas = two_pi_c / lambda_s, two_pi_c / lambda_i  # never below 2*pi*c/_FLOAT_MAX ~ 1e-299
    if max(omegas) == math.inf:
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
        field = _pump_fields((self.intensity,), n_p)[0]
        if self.intensity and not _FLOAT_MIN <= field * field <= _FLOAT_MAX:
            raise _out_of_float_range("pump field", intensity=self.intensity, n_p=n_p)
        return field

    def as_intensity(self, n_p: float) -> float:
        """Pump intensity (W/m^2) at a checked pump index n_p."""
        if self.intensity is not None:
            return self.intensity
        e_p, k = self.field_amplitude, CODATA2018
        # a partial product off the float range takes the intensity off it too
        intensity = 0.5 * n_p * e_p * e_p / (k.c * k.mu0)
        if e_p and not _FLOAT_MIN <= intensity <= _FLOAT_MAX:
            raise _out_of_float_range("pump intensity", pump_field=e_p, n_p=n_p)
        return intensity


def _pump_fields(intensities, n_p: float) -> list[float]:
    """Pump field amplitude (V/m) at each nonnegative intensity (W/m^2) of a column,
    at a checked pump index n_p."""
    c, mu0, sqrt = CODATA2018.c, CODATA2018.mu0, math.sqrt
    return [sqrt(2.0 * i * c * mu0 / n_p) for i in intensities]


class Bandwidth(_named_tuple("Bandwidth", "delta_omega")):
    """Spectral linewidth of the generated pairs (monochromatic pump assumed).

    Stored as delta_omega (rad/s); delta_nu (Hz) is delta_omega/(2*pi).
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        _check("bandwidth delta_omega", self.delta_omega)
        if not _FLOAT_MIN <= self.delta_nu:  # never above _FLOAT_MAX: 2*pi > 1
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
# elementary building blocks
# --------------------------------------------------------------------------

def coupling_factor(omega: float, n: float) -> float:
    """Per-field coupling factor omega/(2*n*c), in 1/m.

    Multiplied by the dimensionless product chi_eff*field it yields the
    spatial gain rate of one arm.
    """
    _check("omega", omega)
    _check("refractive index", n, 1.0, inclusive=True)
    factor = omega / (2.0 * n * CODATA2018.c)
    if not _FLOAT_MIN <= factor:  # never above _FLOAT_MAX (2*n*c >= 2c); 0.0 if 2*n*c overflows
        raise _out_of_float_range("coupling factor", omega=omega, n=n)
    return factor


def vacuum_fluctuation(omega: float, n: float, section: float, delta_omega: float) -> float:
    """Zero-point field amplitude (V/m) seeding spontaneous generation.

    sqrt(hbar*omega*delta_omega / (4*pi*c*eps0*n*section)); equivalently
    sqrt(h*nu*delta_nu / (2*c*eps0*n*section)).
    """
    _check("omega", omega)
    _check("refractive index", n, 1.0, inclusive=True)
    _check("section", section)
    _check("delta_omega", delta_omega)
    return _vacuum_field(omega, n, section, delta_omega)


def _vacuum_field(omega: float, n: float, section: float, delta_omega: float) -> float:
    """vacuum_fluctuation at inputs a value type has checked: the range rule only."""
    k = CODATA2018
    photon = k.hbar * omega
    energy = photon * delta_omega
    denom = 4.0 * math.pi * k.c * k.eps0 * n * section
    quotient = energy / denom if denom else math.inf
    if not (_FLOAT_MIN <= min(photon, energy, denom, quotient) and quotient <= _FLOAT_MAX):
        raise _out_of_float_range("vacuum field", omega=omega, n=n, section=section,
                                  delta_omega=delta_omega)
    return math.sqrt(quotient)


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


def _chi(medium: Medium) -> float:
    """The susceptibility as _drive_coupling takes it: chi2 for SPDC, (1/2)*chi3 for FWM."""
    return medium.chi_eff if medium.process is Process.SPDC else 0.5 * medium.chi_eff


def _gain_factors(medium: Medium, triplet: WaveTriplet) -> tuple[float, float]:
    """The pump-independent factors of the gain, (_chi(medium), sqrt(ks*ki))."""
    ks, ki = _couplings(medium, triplet)
    if not (_FLOAT_MIN <= min(ks, ki, ks * ki) and ks * ki <= _FLOAT_MAX):
        raise _out_of_float_range("gain", omega_s=triplet.omega_s, omega_i=triplet.omega_i,
                                  n_s=medium.n_s, n_i=medium.n_i)
    return _chi(medium), math.sqrt(ks * ki)


def _beta_ls(fields, chi: float, root: float, length: float, process: Process) -> list[float]:
    """beta*L at each pump field of a column, from the _gain_factors (chi, root) of a
    medium and triplet: _drive_coupling times root times length, in that order."""
    if process is Process.SPDC:
        return [chi * e * root * length for e in fields]
    return [chi * e * e * root * length for e in fields]


def _drive_coupling(chi: float, e_p: float, process: Process) -> float:
    """Dimensionless chi*pump product whose units cancel against 1/m couplings.

    chi2*E_p for SPDC, (1/2)*chi3*E_p^2 for FWM (E_p the total two-wave
    amplitude), with chi = _chi(medium). The oracle's one use; _beta_ls repeats
    the product per point, as a one-point column costs the oracle ~20% of a call.
    """
    return chi * e_p if process is Process.SPDC else chi * e_p * e_p


def gain_coefficient(medium: Medium, triplet: WaveTriplet, pump: PumpDrive) -> float:
    """Parametric gain coefficient beta (1/m) of the phase-matched process.

    beta = chi2*E_p*sqrt(ks*ki) for SPDC and (1/2)*chi3*E_p^2*sqrt(ks*ki)
    for FWM, with ks, ki the signal/idler coupling factors.
    """
    chi, root = _gain_factors(medium, triplet)
    field = pump.field(medium.n_p)
    beta = _beta_ls((field,), chi, root, 1.0, medium.process)[0]
    # the chain's partial products: chi (chi3/2 for FWM), the drive coupling (chi*E_p is at
    # least the smaller of the two) and beta; pump.field checks E_p^2
    partials = (chi, _drive_coupling(chi, field, medium.process), beta)
    if any(pump) and not (_FLOAT_MIN <= min(partials) and beta <= _FLOAT_MAX):  # a nonzero pump
        raise _out_of_float_range("gain", chi_eff=medium.chi_eff, pump_field=field)
    return beta


def _gain_product(medium: Medium, triplet: WaveTriplet, pump: PumpDrive, length: float) -> float:
    """beta*L of a pump drive over a length: gain_coefficient times the length, which the
    _beta_ls chain of a sweep repeats bit for bit. Only a zero pump gives beta*L = 0."""
    _check("length", length)
    beta = gain_coefficient(medium, triplet, pump)
    beta_l = beta * length
    if beta and not _FLOAT_MIN <= beta_l <= _FLOAT_MAX:
        raise _out_of_float_range("beta_l", beta=beta, length=length)
    return beta_l


def pump_for_gain(medium: Medium, triplet: WaveTriplet, geometry: Geometry,
                  beta_l: float) -> PumpDrive:
    """Pump drive that realizes a target gain product beta*L (inverse of
    gain_coefficient at fixed medium and geometry)."""
    _check_beta_l(beta_l)
    _, root = _gain_factors(medium, triplet)
    span = geometry.length * root
    drive = beta_l / span if span else (math.inf if beta_l else 0.0)  # 0 span: raised if beta_l
    spdc = medium.process is Process.SPDC
    field = (drive if spdc else 2.0 * drive) / medium.chi_eff  # E_p^2 for FWM
    if beta_l and not (_FLOAT_MIN <= min(span, drive, field) and field <= _FLOAT_MAX):
        raise _out_of_float_range("pump field", beta_l=beta_l, length=geometry.length,
                                  chi_eff=medium.chi_eff)
    return PumpDrive.from_field(field if spdc else math.sqrt(field))


# --------------------------------------------------------------------------
# pair flux
# --------------------------------------------------------------------------

def _photon_partials(field: float, omega: float, n: float, section: float) -> tuple:
    """The partial products of the photon flux (photons/s) of a field amplitude,
    eps0*n*c*S/(4*hbar*omega) * field^2, in evaluation order, the flux last:
    eps0*n*c*S, 4*hbar*omega, their quotient, that times field, that times field."""
    k = CODATA2018
    area, quantum = k.eps0 * n * k.c * section, 4.0 * k.hbar * omega
    scale = area / quantum if quantum else 0.0  # the caller's check sees the zero quantum
    return area, quantum, scale, scale * field, scale * field * field


def pair_flux_general(beta_l: float, vac_s: float, vac_i: float, triplet: WaveTriplet,
                      medium: Medium, geometry: Geometry) -> float:
    """Pair flux (pairs/s) for arbitrary seed amplitudes on the two arms.

    N = eps0*n_s*c*S/(4*hbar*omega_s) *
        [vac_s*(cosh(bL)-1) + sqrt(omega_s*n_i/(omega_i*n_s))*vac_i*sinh(bL)]^2

    As cosh(x)-1 = sinh(x)*tanh(x/2), the bracket is evaluated as
    sinh(bL)*(vac_s*tanh(bL/2) + weight*vac_i): the small-signal regime keeps full
    precision, and a seed term too small to matter may be subnormal.
    """
    _check_beta_l(beta_l)
    _check("vac_s", vac_s, inclusive=True)
    _check("vac_i", vac_i, inclusive=True)
    if not (beta_l and (vac_s or vac_i)):
        return 0.0  # no gain or no seed
    cross = (triplet.omega_s * medium.n_i, triplet.omega_i * medium.n_s)
    weight_squared = cross[0] / cross[1]
    weighted = math.sqrt(weight_squared) * vac_i if vac_i else 0.0
    seeds = vac_s * math.tanh(0.5 * beta_l) + weighted
    bracket = math.sinh(beta_l) * seeds
    photon = _photon_partials(bracket, triplet.omega_s, medium.n_s, geometry.section)
    # the partial products of the idler weight, the bracket and the photon flux; a seed
    # term is one rounding (tanh(bL/2) is subnormal only below ~2 ulp of its term)
    partials = (*cross, weight_squared) if vac_i else ()
    if not (_FLOAT_MIN <= min(*partials, seeds, bracket, *photon) and photon[-1] <= _FLOAT_MAX):
        raise _out_of_float_range("pair flux", beta_l=beta_l, vac_s=vac_s, vac_i=vac_i)
    return photon[-1]


def pair_flux_reduced(beta_l: float, delta_nu: float) -> float:
    """Pair flux (pairs/s) with both arms seeded by vacuum at linewidth delta_nu.

    (delta_nu/8)*(exp(beta_l)-1)^2, via expm1 for small-gain stability.
    """
    growth = _growth(beta_l)
    _check("delta_nu", delta_nu)
    per_hz = 0.125 * delta_nu  # the one partial product that the result does not bound
    pairs = _pair_fluxes((growth,), per_hz)[0]
    if beta_l and not (_FLOAT_MIN <= min(per_hz, pairs) and pairs <= _FLOAT_MAX):
        raise _out_of_float_range("pair flux", beta_l=beta_l, delta_nu=delta_nu)
    return pairs


def pairs_per_bandwidth(beta_l: float) -> float:
    """Dimensionless pair flux per frequency unit, (1/8)*(exp(beta_l)-1)^2."""
    pairs = _pair_fluxes((_growth(beta_l),), 0.125)[0]
    if beta_l and not _FLOAT_MIN <= pairs <= _FLOAT_MAX:
        raise _out_of_float_range("pairs per bandwidth", beta_l=beta_l)
    return pairs


def _pair_fluxes(growths, per_hz: float) -> list[float]:
    """per_hz*growth^2 at each growth = expm1(beta_l) of a column: the pairs per
    bandwidth at per_hz = 1/8 and the pair flux at per_hz = delta_nu/8."""
    return [per_hz * g * g for g in growths]


def _check_block(points: list[float], row) -> None:
    """Raises what row, the scalar kernels of a sweep, raises at the first offending point of
    a block, or nothing. row runs at the block's smallest, smallest nonzero and largest points,
    and walks every point in order if one of them fails. Each derived value and partial
    product of a sweep is a rounded chain of products, quotients, sqrt and expm1 of the point,
    so it is monotone in it: on finite, nonnegative points the range rule holds at every point
    once it holds at those three. A sweep's columns and row share their column bodies, so the
    columns of a block that passes are the walk's result bit for bit."""
    total, low, high = sum(points), min(points), max(points)
    if total == total and 0.0 <= low and high < math.inf:  # no NaN, negative or inf point
        try:
            for point in (low, low or min(filter(None, points), default=low), high):
                row(point)
            return
        except ValueError:
            pass
    for point in points:
        row(point)


def _flux_sweep(delta_nu: float | None):
    """(columns, row) of a beta*L sweep: pairs_per_bandwidth and, given delta_nu,
    pair_flux_reduced; columns evaluates a block of beta*L unchecked, row one beta*L."""
    per_hz = [0.125] if delta_nu is None else [0.125, 0.125 * delta_nu]

    def columns(beta_ls: list[float]) -> list[list[float]]:
        growths = list(map(math.expm1, beta_ls))
        return [_pair_fluxes(growths, factor) for factor in per_hz]

    def row(beta_l: float) -> list[float]:
        pairs = pairs_per_bandwidth(beta_l)
        return [pairs] if delta_nu is None else [pairs, pair_flux_reduced(beta_l, delta_nu)]

    return columns, row


def _pump_sweep(medium: Medium, triplet: WaveTriplet, length: float, delta_nu: float | None):
    """(columns, row) of a pump-intensity sweep at a checked length: beta*L, then the
    _flux_sweep columns; the row is _gain_product and the flux kernels, as classify and flux run."""
    chi, root = _gain_factors(medium, triplet)
    flux_columns, flux_row = _flux_sweep(delta_nu)

    def columns(intensities: list[float]) -> list[list[float]]:
        beta_ls = _beta_ls(_pump_fields(intensities, medium.n_p), chi, root, length, medium.process)
        return [beta_ls, *flux_columns(beta_ls)]

    def row(intensity: float) -> list[float]:
        beta_l = _gain_product(medium, triplet, PumpDrive(intensity=intensity), length)
        return [beta_l, *flux_row(beta_l)]

    return columns, row


def flux_asymptote(beta_l: float, branch: AsymptoteBranch) -> float:
    """Limiting branches of pairs_per_bandwidth.

    Small signal: (1/8)*(beta_l)^2 (spontaneous, quadratic).
    High signal: (1/8)*exp(2*beta_l) (stimulated, exponential).
    """
    _check_beta_l(beta_l)
    _check_member("branch", branch, AsymptoteBranch)
    small = branch is AsymptoteBranch.SMALL
    value = 0.125 * beta_l * beta_l if small else 0.125 * math.exp(2.0 * beta_l)
    if beta_l and not _FLOAT_MIN <= value <= _FLOAT_MAX:
        raise _out_of_float_range("flux asymptote", beta_l=beta_l)
    return value


def limit_criteria() -> LimitCriteria:
    """Universal criteria at beta*L = 1: ((e-1)^2/8, (e-1)^2/4, e-1).

    To three decimals these read 0.369 pairs per s per Hz, 0.738 photons
    per s per Hz, and a generated/vacuum field ratio of 1.718.
    """
    growth = math.e - 1.0
    pairs = _pair_fluxes((growth,), 0.125)[0]
    return LimitCriteria(pairs_limit=pairs, photons_limit=2.0 * pairs, field_ratio_limit=growth)


def field_ratio(beta_l: float) -> float:
    """Generated-field to vacuum-field amplitude ratio, exp(beta_l) - 1."""
    growth = _growth(beta_l)
    if beta_l and not _FLOAT_MIN <= growth:  # never above _FLOAT_MAX: beta_l <= BETA_L_MAX
        raise _out_of_float_range("field ratio", beta_l=beta_l)
    return growth


def _growth(beta_l: float) -> float:
    """field_ratio unchecked, for kernels that check what they derive from it under their name."""
    _check_beta_l(beta_l)
    return math.expm1(beta_l)


def generated_field(beta_l: float, triplet: WaveTriplet, medium: Medium, geometry: Geometry,
                    bandwidth: Bandwidth, arm: Arm) -> float:
    """Field amplitude (V/m) generated on one arm from the vacuum seed.

    vacuum_fluctuation(arm) * (exp(beta_l) - 1).
    """
    vac = _vacuum_field(triplet.omega(arm), medium.n(arm), geometry.section,
                        bandwidth.delta_omega)
    generated = vac * _growth(beta_l)
    if beta_l and not _FLOAT_MIN <= generated <= _FLOAT_MAX:
        raise _out_of_float_range("generated field", beta_l=beta_l, vacuum_field=vac)
    return generated


# --------------------------------------------------------------------------
# the beta*L = 1 limit
# --------------------------------------------------------------------------

def limit_pump_intensity(medium: Medium, lambda_s: float, lambda_i: float, length: float) -> float:
    """Pump intensity (W/m^2) at which beta*L reaches 1.

    SPDC: (1/(2*pi^2*mu0*c)) * n_p*n_s*n_i*lambda_s*lambda_i / (L*chi2)^2
    FWM:  (1/pi)*sqrt(eps0/mu0) * n_p*sqrt(n_s*n_i*lambda_s*lambda_i) / (L*chi3)

    Wavelengths are vacuum values in m. For FWM the result is the total
    two-wave pump intensity.
    """
    return _limit_intensity(length, *_limit_factors(medium, lambda_s, lambda_i))


def effective_limit_intensity(medium: Medium, lambda_s: float, lambda_i: float,
                              length: float) -> float:
    """Index-normalized limit pump intensity Gamma (W/m^2), which reads no index, so it
    is computed as limit_pump_intensity at unit indices, and a range error names only
    the wavelengths, or the length and chi_eff:

    SPDC: I_lim/(n_p*n_s*n_i) = lambda_s*lambda_i / (2*pi^2*mu0*c*(L*chi2)^2)
    FWM:  I_lim/(n_p*sqrt(n_s*n_i)) = sqrt(eps0/mu0)*sqrt(lambda_s*lambda_i) / (pi*L*chi3)
    """
    return _limit_intensity(length, *_limit_factors(medium, lambda_s, lambda_i, gamma=True),
                            gamma=True)


# 2*pi^2*mu0*c, the constant of the SPDC limit intensity's denominator
_SPDC_LIMIT_SCALE = 2.0 * math.pi**2 * CODATA2018.mu0 * CODATA2018.c
# what a range error of I_lim, and of Gamma (gamma=True), names
_LIMIT_NAMES = ("limit pump intensity", "effective limit intensity")


def _limit_factors(medium: Medium, lambda_s: float, lambda_i: float, gamma: bool = False) -> tuple:
    """The length-independent factor of the limit intensity, (numer, chi_eff, process):
    numer over _limit_quotients' denominator is I_lim, or Gamma at unit indices if gamma.
    Checks the partial products of numer: the index-wavelength products and, for FWM,
    n_p times their root."""
    _check("lambda_s", lambda_s)
    _check("lambda_i", lambda_i)
    n_p, n_s, n_i = (1.0, 1.0, 1.0) if gamma else (medium.n_p, medium.n_s, medium.n_i)
    spdc = medium.process is Process.SPDC
    indices = n_p * n_s * n_i if spdc else n_s * n_i
    scaled = indices * lambda_s  # a partial product only where it rounds: indices != 1
    product = scaled * lambda_i
    k = CODATA2018
    numer = product if spdc else n_p * math.sqrt(product) * math.sqrt(k.eps0 / k.mu0)
    if not (_FLOAT_MIN <= min(product, scaled if indices != 1.0 else product)
            and max(product, numer) <= _FLOAT_MAX):
        read = {} if gamma else {"n_p": n_p, "n_s": n_s, "n_i": n_i}
        raise _out_of_float_range(_LIMIT_NAMES[gamma], lambda_s=lambda_s, lambda_i=lambda_i,
                                  **read)
    return numer, medium.chi_eff, medium.process


def _limit_intensity(length: float, numer: float, chi: float, process: Process,
                     gamma: bool = False) -> float:
    """The limit intensity at one length, I_lim or Gamma as gamma, from the _limit_factors
    of a medium, checked: _limit_quotients on a one-point column, and the first partial
    products of its denominator, L*chi2 and its square or pi*L and pi*L*chi3, which can
    underflow while the quotient stays normal."""
    _check("length", length)
    try:
        i_lim = _limit_quotients((length,), numer, chi, process)[0]
    except ArithmeticError:  # an intermediate left the float range: rejected below
        i_lim = 0.0
    span = length * chi if process is Process.SPDC else math.pi * length
    partial = span * span if process is Process.SPDC else span * chi
    if not (_FLOAT_MIN <= min(span, partial, i_lim) and i_lim <= _FLOAT_MAX):
        raise _out_of_float_range(_LIMIT_NAMES[gamma], length=length, chi_eff=chi)
    return i_lim


def _limit_quotients(lengths, numer: float, chi: float, process: Process) -> list[float]:
    """The limit intensity at each length of a column, from the _limit_factors of a
    medium: numer/(2*pi^2*mu0*c*(L*chi2)^2) for SPDC, numer/(pi*L*chi3) for FWM.
    Raises ArithmeticError where an intermediate leaves the float range."""
    if process is Process.SPDC:
        scale = _SPDC_LIMIT_SCALE
        return [numer / (scale * (length * chi) ** 2) for length in lengths]
    pi = math.pi
    return [numer / (pi * length * chi) for length in lengths]


def _gamma_sweep(media: list[Medium], lambda_s: float, lambda_i: float):
    """(columns, row) of a length sweep: effective_limit_intensity, one column per medium."""
    factors = [_limit_factors(medium, lambda_s, lambda_i, gamma=True) for medium in media]
    return (lambda lengths: [_limit_quotients(lengths, *f) for f in factors],
            lambda length: [_limit_intensity(length, *f, gamma=True) for f in factors])


def classify_regime(beta_l: float, at_limit_band: float = _AT_LIMIT_BAND) -> RegimeReport:
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
    return RegimeReport(beta_l, pairs_per_bandwidth(beta_l), field_ratio(beta_l), regime)
