"""Unit-suffix grammar parsing and display scaling."""

import pytest

from pairgate.units import (
    UnitParseError,
    format_intensity,
    format_sig,
    parse_area,
    parse_chi2,
    parse_chi3,
    parse_field,
    parse_float,
    parse_frequency,
    parse_intensity,
    parse_length,
)


@pytest.mark.parametrize("text,expected", [
    ("532nm", 5.32e-7),
    ("1um", 1e-6),
    ("1µm", 1e-6),
    ("1.5mm", 1.5e-3),
    ("1cm", 1e-2),
    ("2m", 2.0),
    ("1km", 1e3),
    ("1e-6m", 1e-6),
    (" 10 mm ", 1e-2),
])
def test_parse_length(text, expected):
    assert parse_length(text) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("text,expected", [
    ("40MW/cm2", 4e11),
    ("13.5GW/cm2", 1.35e14),
    ("845kW/cm2", 8.45e9),
    ("1W/m2", 1.0),
    ("1TW/cm2", 1e16),
    ("2.5W/cm^2", 2.5e4),
])
def test_parse_intensity(text, expected):
    assert parse_intensity(text) == pytest.approx(expected, rel=1e-15)


def test_parse_chi():
    assert parse_chi2("1pm/V") == pytest.approx(1e-12, rel=1e-15)
    assert parse_chi2("3.3e-12m/V") == pytest.approx(3.3e-12, rel=1e-15)
    assert parse_chi3("1e-22m2/V2") == pytest.approx(1e-22, rel=1e-15)
    assert parse_chi3("1e-22m^2/V^2") == pytest.approx(1e-22, rel=1e-15)


def test_parse_frequency_and_area_and_field():
    assert parse_frequency("1GHz") == pytest.approx(1e9, rel=1e-15)
    assert parse_frequency("250kHz") == pytest.approx(2.5e5, rel=1e-15)
    assert parse_area("1mm2") == pytest.approx(1e-6, rel=1e-15)
    assert parse_area("5um2") == pytest.approx(5e-12, rel=1e-15)
    assert parse_field("5MV/m") == pytest.approx(5e6, rel=1e-15)


@pytest.mark.parametrize(
    "text", ["", "nm", "12", "1 light-year", "1 Mw/cm2", "banana", "1e400m", "nan m", "inf m"]
)
def test_parse_rejects_garbage(text):
    with pytest.raises(UnitParseError):
        parse_length(text)


@pytest.mark.parametrize("parse,text", [
    (parse_length, "1e-400m"), (parse_chi2, "1e-320pm/V"), (parse_intensity, "0.001e-323W/m2"),
    (parse_float, "1e-400"), (parse_float, "-0.5e-400"),
    (parse_length, "\u0661e-400m"), (parse_float, "\u0661e-400"),  # an Arabic-Indic one
])
def test_a_nonzero_number_that_underflows_is_out_of_range(parse, text):
    """A nonzero number that rounds to 0.0 is rejected as an overflow is, not taken as an
    exact zero."""
    with pytest.raises(UnitParseError, match=f"'{text}' is out of the floating-point range"):
        parse(text)


@pytest.mark.parametrize("parse,text", [
    (parse_float, "0"), (parse_float, "0e-999"), (parse_float, "-0.0"),
    (parse_intensity, "0W/m2"), (parse_length, "0.00e-400m"),
    (parse_float, "\u0660e-999"),  # an Arabic-Indic zero
])
def test_an_exact_zero_parses_to_zero(parse, text):
    value = parse(text)
    assert value == 0.0 and str(value) == ("-0.0" if text.startswith("-") else "0.0")


def test_parse_float_reads_what_float_reads():
    assert parse_float("2.5") == 2.5 and parse_float(" 1e-300 ") == 1e-300
    assert parse_float("inf") == float("inf")  # the model rejects it, naming the quantity
    with pytest.raises(UnitParseError, match="^invalid float value: 'abc'$"):
        parse_float("abc")


def test_parse_error_names_dimension_and_units():
    with pytest.raises(UnitParseError, match="intensity"):
        parse_intensity("1pm/V")
    with pytest.raises(UnitParseError, match="GW/cm2"):
        parse_intensity("1parsec")
    with pytest.raises(UnitParseError, match="intensity"):
        parse_intensity("1e300TW/cm2")  # finite number, overflows once scaled


def test_format_sig():
    assert format_sig(0.3690615) == "0.369"
    assert format_sig(1.0019522) == "1.00"
    assert format_sig(845.0) == "845"
    assert format_sig(13.447) == "13.4"
    assert format_sig(1.344744e14) == "1.34e+14"


@pytest.mark.parametrize("value,expected", [
    (1.35e14, "13.5 GW/cm2"),
    (1.344744e14, "13.4 GW/cm2"),
    (8.449277e15, "845 GW/cm2"),
    (8.449277e9, "845 kW/cm2"),
    (8.449277e11, "84.5 MW/cm2"),
    (1.0, "0.000100 W/cm2"),
    (0.0, "0 W/cm2"),
])
def test_format_intensity(value, expected):
    assert format_intensity(value) == expected


def test_format_intensity_rejects_negative():
    for value in (-1.0, -0.0):  # a negative zero counts as negative
        with pytest.raises(ValueError, match="intensity must be nonnegative"):
            format_intensity(value)
