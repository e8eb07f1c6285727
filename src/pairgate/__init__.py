"""pairgate: semiclassical photon-pair generation by SPDC and FWM.

Closed-form pair-flux and gain-regime calculations seeded by vacuum
fluctuations, the universal beta*L = 1 limit criteria, limit pump
intensities, a coupled-wave RK4 oracle validating the closed forms, and a
material-class catalog. See the CLI (`pairgate --help`) for the command
surface.

The catalog and oracle names, and the `materials` and `oracle` modules, are
imported on first use: most CLI calls need neither.
"""

import importlib

from .constants import CODATA2018
from .model import (
    Arm,
    AsymptoteBranch,
    Bandwidth,
    Geometry,
    LimitCriteria,
    Medium,
    Process,
    PumpDrive,
    Regime,
    RegimeReport,
    WaveTriplet,
    classify_regime,
    coupling_factor,
    effective_limit_intensity,
    field_ratio,
    flux_asymptote,
    gain_coefficient,
    generated_field,
    limit_criteria,
    limit_pump_intensity,
    pair_flux_general,
    pair_flux_reduced,
    pairs_per_bandwidth,
    pump_for_gain,
    triplet_from_wavelengths,
    vacuum_fluctuation,
)

__version__ = "0.1.0"

# name -> the module it is imported from on first use
_LAZY = {
    **dict.fromkeys(("MaterialParseError", "MaterialRecord", "UnknownMaterialError",
                     "builtin_presets", "load_catalog", "lookup", "resolve_catalog"), "materials"),
    **dict.fromkeys(("IntegrationConfig", "OdeState", "integrate", "oracle_pair_flux"), "oracle"),
}


def __getattr__(name: str):
    module = _LAZY.get(name, name)
    if module not in ("materials", "oracle"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, "materials", "oracle"})
