"""pairgate: semiclassical photon-pair generation by SPDC and FWM.

Closed-form pair-flux and gain-regime calculations seeded by vacuum
fluctuations, the universal beta*L = 1 limit criteria, limit pump
intensities, a coupled-wave RK4 oracle validating the closed forms, and a
material-class catalog. See the CLI (`pairgate --help`) for the command
surface.
"""

from .constants import CODATA2018
from .materials import (
    MaterialParseError,
    MaterialRecord,
    UnknownMaterialError,
    builtin_presets,
    load_catalog,
    lookup,
    resolve_catalog,
)
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
from .oracle import IntegrationConfig, OdeState, integrate, oracle_pair_flux

__version__ = "0.1.0"
