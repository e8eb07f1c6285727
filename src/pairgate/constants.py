"""Fundamental physical constants, CODATA 2018, strict SI, and the name of the
environment variable that points at a material catalog.

Everything downstream computes in SI (m, s, rad/s, V/m, W/m^2); unit
conveniences live at the CLI boundary only.
"""

import math


class CODATA2018:
    """Constants of the electromagnetic vacuum used throughout the model.

    c and h are exact by SI definition; eps0 and mu0 are the CODATA 2018
    measured values, which satisfy eps0*mu0*c^2 = 1 to ~1e-10 relative.
    """

    c = 299_792_458.0            # speed of light (m/s)
    h = 6.626_070_15e-34         # Planck constant (J s)
    eps0 = 8.854_187_8128e-12    # vacuum permittivity (F/m)
    mu0 = 1.256_637_062_12e-6    # vacuum permeability (H/m)
    hbar = h / (2.0 * math.pi)   # reduced Planck constant (J s)


# read by materials.resolve_catalog; here so that the CLI's help names it
# without importing the catalog
MATERIALS_ENV_VAR = "PAIRGATE_MATERIALS"
