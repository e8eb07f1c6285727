"""Unit-suffixed quantity parsing and display scaling for the CLI boundary.

Grammar: a number immediately followed by a unit token, e.g. 532nm,
40MW/cm2, 1pm/V, 2.5GHz (whitespace between number and unit is tolerated).
Decimal point is always '.', never locale-dependent. Unit tokens are
case-sensitive; '^' and the micro sign are normalized away, so um2, µm²-less
spellings like um^2 and m^2/V^2 all work.

One reader, _quantity, turns each <number><unit> of a flag or a catalog into
SI. It rejects a product that is not finite or that reads 0.0 from a nonzero
mantissa (the number before its exponent), as parse_float does a bare number.

The library core is strict SI; everything here converts to or from it. Each
parser raises a plain ValueError, UnitParseError, and imports no argparse: the
CLI reads a plain argv without it.
"""

import math
import re

__all__ = [
    "UnitParseError",
    "parse_length",
    "parse_area",
    "parse_intensity",
    "parse_frequency",
    "parse_field",
    "parse_chi2",
    "parse_chi3",
    "parse_float",
    "format_sig",
    "format_intensity",
]


class UnitParseError(ValueError):
    """Not a float-range <number>[<unit>]. The CLI's argparse parser shows its text."""


LENGTH_UNITS = {
    "nm": 1e-9,
    "um": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
    "km": 1e3,
}

AREA_UNITS = {
    "um2": 1e-12,
    "mm2": 1e-6,
    "cm2": 1e-4,
    "m2": 1.0,
}

INTENSITY_UNITS = {
    "W/m2": 1.0,
    "kW/m2": 1e3,
    "MW/m2": 1e6,
    "GW/m2": 1e9,
    "TW/m2": 1e12,
    "W/cm2": 1e4,
    "kW/cm2": 1e7,
    "MW/cm2": 1e10,
    "GW/cm2": 1e13,
    "TW/cm2": 1e16,
}

FREQUENCY_UNITS = {
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
    "THz": 1e12,
}

FIELD_UNITS = {
    "V/m": 1.0,
    "kV/m": 1e3,
    "MV/m": 1e6,
    "GV/m": 1e9,
}

CHI2_UNITS = {
    "m/V": 1.0,
    "pm/V": 1e-12,
}

CHI3_UNITS = {
    "m2/V2": 1.0,
}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S+)\s*$"
)


def _underflows(value: float, number: str) -> bool:
    """A number float() read as `value` underflowed: it reads 0.0 from a nonzero mantissa."""
    return value == 0.0 and float(number.lower().partition("e")[0]) != 0.0


def _quantity(text: str, table: dict[str, float], dimension: str) -> tuple[float, str]:
    """'2.5 pm/V' -> (2.5e-12, 'pm/V'): the SI value, in the float range, and the unit."""
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise UnitParseError(
            f"cannot parse {dimension} {text!r}: expected <number><unit>, e.g. 1{next(iter(table))}"
        )
    unit = match.group(2).replace("^", "").replace("µ", "u").replace("μ", "u")
    if unit not in table:
        allowed = ", ".join(sorted(table))
        raise UnitParseError(
            f"unknown {dimension} unit {match.group(2)!r}; allowed: {allowed}"
        )
    value = float(match.group(1)) * table[unit]
    if not math.isfinite(value) or _underflows(value, match.group(1)):
        raise UnitParseError(f"{dimension} {text!r} is out of the floating-point range")
    return value, unit


def parse_float(text: str) -> float:
    """'2.5' -> 2.5: a bare number as float() reads it, inf and nan too (the model rejects
    them), but not a nonzero number that rounds to 0.0."""
    try:
        value = float(text)
    except ValueError:
        raise UnitParseError(f"invalid float value: {text!r}") from None
    if _underflows(value, text):
        raise UnitParseError(f"number {text!r} is out of the floating-point range")
    return value


def parse_length(text: str) -> float:
    """'532nm' -> 5.32e-7 (m)."""
    return _quantity(text, LENGTH_UNITS, "length")[0]


def parse_area(text: str) -> float:
    """'1mm2' -> 1e-6 (m^2)."""
    return _quantity(text, AREA_UNITS, "area")[0]


def parse_intensity(text: str) -> float:
    """'40MW/cm2' -> 4e11 (W/m^2)."""
    return _quantity(text, INTENSITY_UNITS, "intensity")[0]


def parse_frequency(text: str) -> float:
    """'1GHz' -> 1e9 (Hz)."""
    return _quantity(text, FREQUENCY_UNITS, "frequency")[0]


def parse_field(text: str) -> float:
    """'5MV/m' -> 5e6 (V/m)."""
    return _quantity(text, FIELD_UNITS, "field amplitude")[0]


def parse_chi2(text: str) -> float:
    """'1pm/V' -> 1e-12 (m/V)."""
    return _quantity(text, CHI2_UNITS, "second-order susceptibility")[0]


def parse_chi3(text: str) -> float:
    """'1e-22m2/V2' -> 1e-22 (m^2/V^2)."""
    return _quantity(text, CHI3_UNITS, "third-order susceptibility")[0]


def format_sig(value: float) -> str:
    """Round to 3 significant digits for table display, keeping trailing zeros."""
    text = f"{value:#.3g}"
    return text[:-1] if text.endswith(".") else text


def format_intensity(w_per_m2: float) -> str:
    """Auto-scaled intensity per cm^2, e.g. 1.345e14 W/m^2 -> '13.4 GW/cm2'."""
    if w_per_m2 < 0 or (w_per_m2 == 0.0 and math.copysign(1.0, w_per_m2) < 0):
        raise ValueError("intensity must be nonnegative")
    per_cm2 = w_per_m2 * 1e-4
    if per_cm2 == 0.0 or not math.isfinite(per_cm2):
        return f"{per_cm2:g} W/cm2"
    for unit in (u for u in reversed(INTENSITY_UNITS) if u.endswith("/cm2")):  # largest first
        shown = format_sig(per_cm2 / (INTENSITY_UNITS[unit] / INTENSITY_UNITS["W/cm2"]))
        if float(shown) >= 1.0:  # the unit is read off the value as displayed
            return f"{shown} {unit}"
    return f"{format_sig(per_cm2)} W/cm2"
