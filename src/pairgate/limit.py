"""The beta*L = 1 limit pump intensity I_lim and its index-normalized value Gamma.

pairgate.model serves the public names of this module (limit_pump_intensity,
effective_limit_intensity) and imports it on the first use of one, so among CLI
calls only `limit`, length sweeps and the Gamma figures (3 and 4) compile it.

The length-independent factor of the limit intensity is _limit_factors, the
whole factor (numer, chi_eff, process), which Gamma takes at unit indices;
_limit_intensity divides it by the denominator at one length, and
pairgate.sweep's length column repeats that quotient per point.
"""

import math

from .constants import CODATA2018
from .model import (
    Medium,
    Process,
    _check,
    _normal,
    _out_of_float_range,
)


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
    numer over _limit_intensity's denominator is I_lim, or Gamma at unit indices if gamma.
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
    if not _normal(product, numer, scaled if indices != 1.0 else product):
        read = {} if gamma else {"n_p": n_p, "n_s": n_s, "n_i": n_i}
        raise _out_of_float_range(_LIMIT_NAMES[gamma], lambda_s=lambda_s, lambda_i=lambda_i,
                                  **read)
    return numer, medium.chi_eff, medium.process


def _limit_intensity(length: float, numer: float, chi: float, process: Process,
                     gamma: bool = False) -> float:
    """The limit intensity at one length, I_lim or Gamma as gamma, from the _limit_factors
    of a medium: numer/(2*pi^2*mu0*c*(L*chi2)^2) for SPDC, numer/(pi*L*chi3) for FWM.
    Checks first the partial products of its denominator, L*chi2 and its square or pi*L
    and pi*L*chi3, which can underflow while the quotient stays normal; where they are
    normal, the quotient cannot raise, and is checked last."""
    _check("length", length)
    spdc = process is Process.SPDC
    span = length * chi if spdc else math.pi * length
    partial = span * span if spdc else span * chi
    if _normal(span, partial):
        if spdc:
            i_lim = numer / (_SPDC_LIMIT_SCALE * (length * chi) ** 2)
        else:
            i_lim = numer / (math.pi * length * chi)
        if _normal(i_lim):
            return i_lim
    raise _out_of_float_range(_LIMIT_NAMES[gamma], length=length, chi_eff=chi)
