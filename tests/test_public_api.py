"""The public surface: the names pairgate exports and the README's Library snippet."""

import re
import types
from pathlib import Path

import pairgate
from pairgate import materials, model, oracle, units

PUBLIC_NAMES = [
    "Arm", "AsymptoteBranch", "Bandwidth", "CODATA2018", "Geometry", "IntegrationConfig",
    "LimitCriteria", "MaterialParseError", "MaterialRecord", "Medium", "OdeState", "Process",
    "PumpDrive", "Regime", "RegimeReport", "UnknownMaterialError", "WaveTriplet",
    "builtin_presets", "classify_regime", "coupling_factor", "effective_limit_intensity",
    "field_ratio", "flux_asymptote", "gain_coefficient", "generated_field", "integrate",
    "limit_criteria", "limit_pump_intensity", "load_catalog", "lookup", "oracle_pair_flux",
    "pair_flux_general", "pair_flux_reduced", "pairs_per_bandwidth", "pump_for_gain",
    "resolve_catalog", "triplet_from_wavelengths", "vacuum_fluctuation",
]


def test_public_names_are_pinned():
    exported = sorted(name for name in dir(pairgate) if not name.startswith("_")
                      and not isinstance(getattr(pairgate, name), types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
    for module in (model, materials, oracle, units):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_readme_library_snippet_runs():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert namespace["report"].regime is model.Regime.AT_LIMIT  # as its comment says
