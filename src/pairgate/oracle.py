"""Independent numerical check of the analytic pair-flux formulas.

Integrates the undepleted-pump coupled-wave system for the real signal and
idler field moduli,

    d e_s / dz = ks * g * e_i
    d e_i / dz = ki * g * e_s

with g the chi*pump drive product (chi2*E_p for SPDC, chi3*E_p^2/2 for FWM)
and ks, ki the per-arm coupling factors, so that both arms grow with rate
beta = g*sqrt(ks*ki). All phases are locked to the growing solution; this is
the phase-matched maximum-gain system whose solution is the cosh/sinh
combination the closed forms are built on.

A fixed-step classical RK4 scheme keeps the integration deterministic; the
system is linear and smooth, so no adaptivity is needed. Its coefficients
are constant, so one step is a fixed 2x2 matrix, the scheme's stability
polynomial in h*A (Hairer, Norsett & Wanner, Solving ODEs I, II.1), and N
steps are that matrix to the power N, taken by binary powering: the same
scheme in ~2*log2(N) fixed-cost updates, with rounding that grows with
log2(N) + beta*L instead of N. No cosh, sinh or exp enters, so the check stays
independent of the closed forms, and its scheme error is still
~(beta*L)^5/steps^4 relative.
"""

from .fields import _photon_partials, _vacuum_field
from .gain import _chi, _couplings, _drive_coupling
from .model import (
    Bandwidth,
    Geometry,
    Medium,
    PumpDrive,
    WaveTriplet,
    _check,
    _named_tuple,
    _normal,
    _out_of_float_range,
)

__all__ = ["OdeState", "IntegrationConfig", "integrate", "oracle_pair_flux"]

MIN_STEPS = 16
# At 2^24 steps the scheme bound (beta*L)^5/steps^4 is below double rounding for every
# accepted beta*L (BETA_L_MAX^5/2^96 ~ 7e-17): more steps cannot make the check sharper,
# and binary powering makes it cost ~2*log2(steps) updates, so it is the default.
MAX_STEPS = 2**24


class OdeState(_named_tuple("OdeState", "z e_s e_i")):
    """Signal/idler field moduli (V/m) at position z (m) along the path."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check("e_s", self.e_s, inclusive=True)
        _check("e_i", self.e_i, inclusive=True)


class IntegrationConfig(_named_tuple("IntegrationConfig", "steps", (MAX_STEPS,))):
    __slots__ = ()

    def __post_init__(self) -> None:
        if not isinstance(self.steps, int):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < MIN_STEPS:
            raise ValueError(f"steps must be >= {MIN_STEPS}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= MAX_STEPS = {MAX_STEPS}, got {self.steps}")


def integrate(
    medium: Medium,
    triplet: WaveTriplet,
    pump: PumpDrive,
    geometry: Geometry,
    initial: OdeState,
    config: IntegrationConfig = IntegrationConfig(),
) -> OdeState:
    """Propagate the coupled arms from z = 0 to z = L with fixed-step RK4.

    For an initial state (a, 0) the exact solution is
    e_s(L) = a*cosh(beta*L), e_i(L) = a*sqrt(ki/ks)*sinh(beta*L); RK4
    reproduces it to its scheme error, ~(beta*L)^5/steps^4 relative.
    """
    if initial.z != 0.0:
        raise ValueError("initial state must be at z = 0")
    p, q, hs, hi = _propagator(medium, triplet, pump, geometry, config.steps)
    e_s, e_i = initial.e_s, initial.e_i
    return OdeState(z=geometry.length, e_s=e_s + p * e_s + q * (hs * e_i),
                    e_i=e_i + p * e_i + q * (hi * e_s))


def _propagator(medium, triplet, pump, geometry, steps) -> tuple[float, float, float, float]:
    """The N-step RK4 propagator less the identity, R^N - I = p*I + q*hA, as (p, q, hs, hi),
    with hA = [[0, hs], [hi, 0]] the step times the couplings: e(L) = e(0) + (p*I + q*hA)*e(0).

    With A = [[0, cs], [ci, 0]], one RK4 step of size h is e -> R*e with
    R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, and N steps are R^N, here by
    binary powering over the bits of N. As (hA)^2 = y*I with y = h^2*cs*ci,
    every power of R is p*I + q*hA, the pair (p, q). The pair held is
    D = R^m - I, never R^m: all its terms are non-negative, so no update
    subtracts and the generated part D*e(0) is never formed as a difference.
    Products are ordered (q*(q*y), not (q*q)*y) so that no intermediate
    exceeds the final field.
    """
    ks, ki = _couplings(medium, triplet)
    g = _drive_coupling(_chi(medium), pump.field(medium.n_p), medium.process)
    h = geometry.length / steps
    hs = h * (ks * g)  # step times the growth of e_s fed by e_i
    hi = h * (ki * g)
    y = hs * hi
    a, b = y * (0.5 + y / 24.0), 1.0 + y / 6.0  # E = R - I = a*I + b*hA
    p, q = a, b  # D = R^m - I, m the leading bits of steps read so far
    for bit in bin(steps)[3:]:
        p, q = p * (2.0 + p) + q * (q * y), 2.0 * q * (1.0 + p)  # D(2I + D): m -> 2m
        if bit == "1":
            p, q = p + a + a * p + b * (q * y), q + b + a * q + b * p  # D + E + E*D: m -> m+1
    return p, q, hs, hi


def oracle_pair_flux(
    medium: Medium,
    triplet: WaveTriplet,
    pump: PumpDrive,
    geometry: Geometry,
    bandwidth: Bandwidth,
    config: IntegrationConfig = IntegrationConfig(),
) -> float:
    """Pair flux (pairs/s) obtained by integration instead of closed form.

    Both arms are seeded with their vacuum amplitudes; the generated part of
    the fields is the propagator less the identity applied to them, so the
    signal arm's generated field is converted to a photon flux without
    subtracting two nearly equal numbers, and the check holds deep in the
    spontaneous regime.
    """
    vac_s = _vacuum_field(triplet.omega_s, medium.n_s, geometry.section, bandwidth.delta_omega)
    vac_i = _vacuum_field(triplet.omega_i, medium.n_i, geometry.section, bandwidth.delta_omega)
    p, q, hs, _ = _propagator(medium, triplet, pump, geometry, config.steps)
    d_s = p * vac_s + q * (hs * vac_i)
    partials = _photon_partials(d_s, triplet.omega_s, medium.n_s, geometry.section)
    if not _normal(*partials) and pump.field(medium.n_p):
        raise _out_of_float_range("oracle pair flux", pump_field=pump.field(medium.n_p),
                                  length=geometry.length, delta_omega=bandwidth.delta_omega)
    return partials[-1]
