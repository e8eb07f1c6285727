"""The public surface: the names pairgate exports and the README's Library snippet."""

import importlib
import re
import types
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("home, names", [
    ("gain", ["coupling_factor", "gain_coefficient", "pump_for_gain"]),
    ("limit", ["limit_pump_intensity", "effective_limit_intensity"]),
    ("fields", ["vacuum_fluctuation", "generated_field", "pair_flux_general"]),
])
def test_each_kernel_of_a_configuration_is_one_object_wherever_it_is_read(home, names):
    """A public name of pairgate.model that another module holds is one object as
    pairgate.<name>, pairgate.model.<name> and pairgate.<module>.<name>."""
    module = importlib.import_module(f"pairgate.{home}")
    for name in names:
        assert getattr(pairgate, name) is getattr(model, name) is getattr(module, name), name


def test_only_model_names_the_float_range_edges():
    """The range rule is stated once, by model._normal: no other module reads its edges."""
    naming = sorted(path.name for path in Path(pairgate.__file__).parent.glob("*.py")
                    if re.search(r"_FLOAT_M(IN|AX)", path.read_text(encoding="utf-8")))
    assert naming == ["model.py"]


def test_readme_library_snippet_runs():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert namespace["report"].regime is model.Regime.AT_LIMIT  # as its comment says
