"""Field amplitudes and the photon flux of a field: the vacuum seed, the generated field
and the pair flux for arbitrary seed amplitudes.

pairgate.model serves the public names of this module (vacuum_fluctuation,
generated_field, pair_flux_general) and imports it on the first use of one, so
only `classify --section ... --delta-nu ...` and `oracle` compile it among CLI
calls. The oracle takes _vacuum_field and _photon_partials from here.
"""

import math

from .constants import CODATA2018
from .model import (
    Arm,
    Bandwidth,
    Geometry,
    Medium,
    WaveTriplet,
    _check,
    _check_beta_l,
    _FLOAT_MAX,
    _FLOAT_MIN,
    _growth,
    _out_of_float_range,
)


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
