"""Parametric gain: the coupling factors, the gain coefficient beta and its inverse.

pairgate.model serves the public names of this module (coupling_factor,
gain_coefficient, pump_for_gain) and imports it on the first use of one, so a
call that computes no gain (`criteria`, `limit`, `flux --beta-l`, a beta_l or
length sweep) never compiles it.

The pump-independent factors of the gain, (chi, sqrt(ks*ki)), are
_gain_factors. gain_coefficient and the oracle take the scalar _drive_coupling,
and pairgate.sweep's pump_intensity column repeats it times root times length.
"""

import math

from .constants import CODATA2018
from .model import (
    Geometry,
    Medium,
    Process,
    PumpDrive,
    WaveTriplet,
    _check,
    _check_beta_l,
    _normal,
    _out_of_float_range,
)


def coupling_factor(omega: float, n: float) -> float:
    """Per-field coupling factor omega/(2*n*c), in 1/m.

    Multiplied by the dimensionless product chi_eff*field it yields the
    spatial gain rate of one arm.
    """
    _check("omega", omega)
    _check("refractive index", n, 1.0, inclusive=True)
    factor = omega / (2.0 * n * CODATA2018.c)
    if not _normal(factor):
        raise _out_of_float_range("coupling factor", omega=omega, n=n)
    return factor


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
    if not _normal(ks, ki, ks * ki):
        raise _out_of_float_range("gain", omega_s=triplet.omega_s, omega_i=triplet.omega_i,
                                  n_s=medium.n_s, n_i=medium.n_i)
    return _chi(medium), math.sqrt(ks * ki)


def _drive_coupling(chi: float, e_p: float, process: Process) -> float:
    """Dimensionless chi*pump product whose units cancel against 1/m couplings.

    chi2*E_p for SPDC, (1/2)*chi3*E_p^2 for FWM (E_p the total two-wave
    amplitude), with chi = _chi(medium). gain_coefficient and the oracle take it
    at one pump field; a pump sweep's column repeats the product per point, and
    tests pin the two bit for bit.
    """
    return chi * e_p if process is Process.SPDC else chi * e_p * e_p


def gain_coefficient(medium: Medium, triplet: WaveTriplet, pump: PumpDrive) -> float:
    """Parametric gain coefficient beta (1/m) of the phase-matched process.

    beta = chi2*E_p*sqrt(ks*ki) for SPDC and (1/2)*chi3*E_p^2*sqrt(ks*ki)
    for FWM, with ks, ki the signal/idler coupling factors.
    """
    chi, root = _gain_factors(medium, triplet)
    field = pump.field(medium.n_p)
    drive = _drive_coupling(chi, field, medium.process)
    beta = drive * root
    # the chain's partial products: chi (chi3/2 for FWM), the drive coupling (chi*E_p is at
    # least the smaller of the two) and beta; pump.field checks E_p^2
    if any(pump) and not _normal(chi, drive, beta):  # a nonzero pump
        raise _out_of_float_range("gain", chi_eff=medium.chi_eff, pump_field=field)
    return beta


def _gain_product(medium: Medium, triplet: WaveTriplet, pump: PumpDrive, length: float) -> float:
    """beta*L of a pump drive over a length: gain_coefficient times the length, which a
    pump sweep's column repeats bit for bit. Only a zero pump gives beta*L = 0."""
    _check("length", length)
    beta = gain_coefficient(medium, triplet, pump)
    beta_l = beta * length
    if beta and not _normal(beta_l):
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
    if beta_l and not _normal(span, drive, field):
        raise _out_of_float_range("pump field", beta_l=beta_l, length=geometry.length,
                                  chi_eff=medium.chi_eff)
    return PumpDrive.from_field(field if spdc else math.sqrt(field))
