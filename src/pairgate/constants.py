"""Fundamental physical constants, CODATA 2018, strict SI.

Everything downstream computes in SI (m, s, rad/s, V/m, W/m^2); unit
conveniences live at the CLI boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants of the electromagnetic vacuum used throughout the model.

    c and h are exact by SI definition; eps0 and mu0 are the CODATA 2018
    measured values, which satisfy eps0*mu0*c^2 = 1 to ~1e-10 relative.
    """

    c: float = 299_792_458.0           # speed of light (m/s)
    h: float = 6.626_070_15e-34        # Planck constant (J s)
    eps0: float = 8.854_187_8128e-12   # vacuum permittivity (F/m)
    mu0: float = 1.256_637_062_12e-6   # vacuum permeability (H/m)
    hbar: float = field(init=False)    # reduced Planck constant (J s)

    def __post_init__(self) -> None:
        # model._check cannot be imported here: model imports this module
        for name in ("c", "h", "eps0", "mu0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
        object.__setattr__(self, "hbar", self.h / (2.0 * math.pi))
        residual = abs(self.eps0 * self.mu0 * self.c**2 - 1.0)
        if residual > 1e-9:
            raise ValueError(
                f"inconsistent constants: eps0*mu0*c^2 deviates from 1 by {residual:.3e}"
            )

    @property
    def vacuum_impedance(self) -> float:
        """Z0 = mu0*c (ohm), approximately 376.73."""
        return self.mu0 * self.c


CODATA2018 = PhysicalConstants()
