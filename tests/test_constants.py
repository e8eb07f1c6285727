import math

import pytest

from pairgate.constants import CODATA2018


def test_speed_of_light_is_exact():
    assert CODATA2018.c == 299_792_458.0


def test_planck_relation():
    assert CODATA2018.h == pytest.approx(2.0 * math.pi * CODATA2018.hbar, rel=1e-15)


def test_vacuum_consistency():
    k = CODATA2018
    assert abs(k.eps0 * k.mu0 * k.c**2 - 1.0) < 1e-9


def test_codata_2018_values_are_exact():
    """The 50-digit references of tests/test_float_range.py read these constants, so each is
    pinned to its CODATA 2018 literal, and hbar to h/(2*pi) in float."""
    k = CODATA2018
    assert (k.h, k.eps0, k.mu0) == (6.626_070_15e-34, 8.854_187_8128e-12, 1.256_637_062_12e-6)
    assert k.hbar == k.h / (2.0 * math.pi)
