"""The first-kind Bessel routine behind the model's couplings.

Every Bessel factor of the model (the dressed-site couplings c0*F*J_n(delta_x),
the resonant two-level coupling and the J_0 factors of the revival estimate)
is `model.bessel_j` at integer order, the ascending series summed by
math.fsum.  These tests pin it on the (n, x) domain the model uses: against
an exact rational evaluation of the series, against the classic identities,
and against scipy.special.jv, which it replaces so that no run imports
scipy.special.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from starkband.model import bessel_j, preset_v0_4


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
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(5, 0.0) == 0.0


def test_model_scale_argument():
    # value frozen from the exact series at the preset's J_2(0.30711)
    assert bessel_j(2, 0.30711) == pytest.approx(0.011697179071706146, rel=1e-12)
    assert _exact_series(2, 0.30711) == pytest.approx(0.011697179071706146, rel=1e-12)


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("x", [0.01, 0.1, 0.30711, 1.0, 2.0, 5.0, 10.0])
def test_against_library_oracle(n, x):
    assert float(bessel_j(n, x)) == pytest.approx(_exact_series(n, x), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("x", [0.4, 1.3, 6.0])
def test_reflection_identities(n, x):
    # negative orders enter the dressed-site couplings below the diagonal
    assert bessel_j(-n, x) == pytest.approx((-1) ** n * bessel_j(n, x), abs=1e-16)
    assert bessel_j(n, -x) == pytest.approx((-1) ** n * bessel_j(n, x), abs=1e-16)


def test_recurrence():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    for x in np.linspace(0.1, 5.0, 25):
        for n in range(1, 9):
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = (2 * n / x) * bessel_j(n, x)
            assert abs(lhs - rhs) < 1e-10


def test_normalization():
    # J_0^2 + 2 sum_{m>=1} J_m^2 = 1
    for x in (0.05, 0.30711, 1.0, 2.5, 5.0):
        total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(m, x) ** 2 for m in range(1, 41))
        assert abs(total - 1.0) < 1e-10


def test_large_order_underflow_is_benign():
    assert bessel_j(200, 0.3) == pytest.approx(0.0, abs=1e-300)
    assert math.isfinite(bessel_j(300, 9.5))


def test_vectorised_over_orders():
    orders = np.array([[-3, 0, 2], [2, 5, -3]])
    values = bessel_j(orders, 0.4)
    assert values.shape == orders.shape
    assert values.tolist() == [[bessel_j(int(n), 0.4) for n in row] for row in orders]
    assert isinstance(bessel_j(2, 0.4), float)


def test_matches_scipy_on_the_model_domain():
    # the model's arguments delta_x = 0.307, x_a = 0.028 and x_b = 0.279 lie
    # inside |x| <= 1; the worst gap there, 2.2e-16, is one unit of round-off
    # of a J_0 near 1 (bessel_j is the one within an ulp of the exact value)
    p = preset_v0_4()
    xs = np.concatenate([np.linspace(-1.0, 1.0, 401), [p.delta_x, p.x_a, p.x_b]])
    orders = np.arange(-12, 13)
    worst = max(np.abs(bessel_j(orders, x) - jv(orders, x)).max() for x in xs)
    assert worst <= 4e-16


def test_first_term_is_the_exact_rational_rounded_once(monkeypatch):
    # (x/2)^n / n! from the integer ratio of x/2 is the rational that
    # Fraction holds, rounded once by int true division: the same value and
    # sign, also at 0, -0 and subnormal x; math.fsum is watched for the
    # series' first term
    rng = np.random.default_rng(34)
    xs = [0.0, -0.0, 3e-310, -3e-310, *rng.uniform(-1.0, 1.0, 8), *rng.uniform(-700, 700, 8)]
    firsts, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: firsts.append(terms[0]) or fsum(terms))
    for x in xs:
        for n in range(60):
            firsts.clear()
            bessel_j(n, x)
            want = float(Fraction(0.5 * x) ** n / math.factorial(n))
            assert [(t, math.copysign(1.0, t)) for t in firsts] == [
                (want, math.copysign(1.0, want))], (n, x)
