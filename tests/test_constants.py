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


