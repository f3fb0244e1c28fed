"""The first-kind Bessel routine behind the model's couplings.

Every Bessel factor of the model (the dressed-site couplings c0*F*J_n(delta_x),
the resonant two-level coupling and the J_0 factors of the revival estimate)
is scipy.special.jv at integer order.  These tests pin that routine on the
(n, x) domain the model uses: against an exact rational evaluation of the
ascending series, and against the classic identities.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv


def _exact_series(n: int, x: float, terms: int = 80) -> float:
    """J_n(x) for n >= 0 from the ascending series summed in exact rationals.

    Exact arithmetic removes the cancellation of the alternating terms, so the
    only error is the truncation, far below double precision for |x| <= 10.
    """
    half_sq = (Fraction(x) / 2) ** 2
    term = (Fraction(x) / 2) ** n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -half_sq / (k * (n + k))
        total += term
    return float(total)


def test_trivial_values():
    assert jv(0, 0.0) == 1.0
    assert jv(1, 0.0) == 0.0
    assert jv(5, 0.0) == 0.0


def test_model_scale_argument():
    # value frozen from the exact series at the preset's J_2(0.30711)
    assert jv(2, 0.30711) == pytest.approx(0.011697179071706146, rel=1e-12)
    assert _exact_series(2, 0.30711) == pytest.approx(0.011697179071706146, rel=1e-12)


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("x", [0.01, 0.1, 0.30711, 1.0, 2.0, 5.0, 10.0])
def test_against_library_oracle(n, x):
    assert float(jv(n, x)) == pytest.approx(_exact_series(n, x), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("x", [0.4, 1.3, 6.0])
def test_reflection_identities(n, x):
    # negative orders enter the dressed-site couplings below the diagonal
    assert jv(-n, x) == pytest.approx((-1) ** n * jv(n, x), abs=1e-16)
    assert jv(n, -x) == pytest.approx((-1) ** n * jv(n, x), abs=1e-16)


def test_recurrence():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    for x in np.linspace(0.1, 5.0, 25):
        for n in range(1, 9):
            lhs = jv(n - 1, x) + jv(n + 1, x)
            rhs = (2 * n / x) * jv(n, x)
            assert abs(lhs - rhs) < 1e-10


def test_normalization():
    # J_0^2 + 2 sum_{m>=1} J_m^2 = 1
    for x in (0.05, 0.30711, 1.0, 2.5, 5.0):
        total = jv(0, x) ** 2 + 2.0 * sum(jv(m, x) ** 2 for m in range(1, 41))
        assert abs(total - 1.0) < 1e-10


def test_large_order_underflow_is_benign():
    assert jv(200, 0.3) == pytest.approx(0.0, abs=1e-300)
    assert math.isfinite(jv(300, 9.5))
