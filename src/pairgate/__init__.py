"""pairgate: semiclassical photon-pair generation by SPDC and FWM.

Closed-form pair-flux and gain-regime calculations seeded by vacuum
fluctuations, the universal beta*L = 1 limit criteria, limit pump
intensities, a coupled-wave RK4 oracle validating the closed forms, and a
material-class catalog. See the CLI (`pairgate --help`) for the command
surface.

The catalog and oracle names, the model's kernels of a configuration (gain,
limit intensity, fields; see pairgate.model) and the modules that hold them are
imported on first use: most CLI calls need none of them.
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
    _HOMES,
    classify_regime,
    field_ratio,
    flux_asymptote,
    limit_criteria,
    pair_flux_reduced,
    pairs_per_bandwidth,
    triplet_from_wavelengths,
)

__version__ = "0.1.0"

# name -> the module it is imported from on first use
_LAZY = {
    **dict.fromkeys(("MaterialParseError", "MaterialRecord", "UnknownMaterialError",
                     "builtin_presets", "load_catalog", "lookup", "resolve_catalog"), "materials"),
    **dict.fromkeys(("IntegrationConfig", "OdeState", "integrate", "oracle_pair_flux"), "oracle"),
    **_HOMES,
}


def __getattr__(name: str):
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
