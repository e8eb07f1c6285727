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
system is linear and smooth, so no adaptivity is needed.
"""

from __future__ import annotations

from .model import (
    Bandwidth,
    Geometry,
    Medium,
    PumpDrive,
    WaveTriplet,
    _check,
    _couplings,
    _drive_coupling,
    _gain_factors,
    _named_tuple,
    _photon_flux,
    vacuum_fluctuation,
)

__all__ = ["OdeState", "IntegrationConfig", "integrate", "oracle_pair_flux"]

MIN_STEPS = 16
MAX_STEPS = 2**24  # ~10 s at ~0.6 us per RK4 step; 10**12 steps would run for a week


class OdeState(_named_tuple("OdeState", "z e_s e_i")):
    """Signal/idler field moduli (V/m) at position z (m) along the path."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check("e_s", self.e_s, inclusive=True)
        _check("e_i", self.e_i, inclusive=True)


class IntegrationConfig(_named_tuple("IntegrationConfig", "steps", (1024,))):
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
    e_s, e_i = _rk4(medium, triplet, pump, geometry, config.steps, 0.0, 0.0,
                    initial.e_s, initial.e_i)
    return OdeState(z=geometry.length, e_s=e_s, e_i=e_i)


def _rk4(medium, triplet, pump, geometry, steps, v_s, v_i, d_s, d_i) -> tuple[float, float]:
    """The one RK4 loop: the fields are e = v + d with v constant, d is the state.

    The stages read e, so d_s' = cs*e_i and d_i' = ci*e_s; v = (0, 0) is the
    plain field system. Returns d at z = L.
    """
    ks, ki = _couplings(medium, triplet)
    chi, _ = _gain_factors(medium, triplet)
    g = _drive_coupling(chi, pump.field(medium.n_p), medium.process)
    cs = ks * g  # growth of e_s fed by e_i (1/m)
    ci = ki * g

    h = geometry.length / steps
    for _ in range(steps):
        e_s = v_s + d_s
        e_i = v_i + d_i
        k1s = cs * e_i
        k1i = ci * e_s
        k2s = cs * (e_i + 0.5 * h * k1i)
        k2i = ci * (e_s + 0.5 * h * k1s)
        k3s = cs * (e_i + 0.5 * h * k2i)
        k3i = ci * (e_s + 0.5 * h * k2s)
        k4s = cs * (e_i + h * k3i)
        k4i = ci * (e_s + h * k3s)
        d_s += h * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        d_i += h * (k1i + 2.0 * k2i + 2.0 * k3i + k4i) / 6.0
    return d_s, d_i


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
    the fields is the integrated state, so the signal arm's generated field
    is converted to a photon flux without subtracting two nearly equal
    numbers, and the check holds deep in the spontaneous regime.
    """
    vac_s = vacuum_fluctuation(
        triplet.omega_s, medium.n_s, geometry.section, bandwidth.delta_omega
    )
    vac_i = vacuum_fluctuation(
        triplet.omega_i, medium.n_i, geometry.section, bandwidth.delta_omega
    )
    d_s, _ = _rk4(medium, triplet, pump, geometry, config.steps, vac_s, vac_i, 0.0, 0.0)
    flux = _photon_flux(d_s, triplet.omega_s, medium.n_s, geometry.section)
    _check("oracle pair flux", flux, inclusive=True)
    return flux
