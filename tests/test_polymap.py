"""Polynomial arithmetic against its re-expansion: the Taylor shift to any
centre is a ring homomorphism onto truncated series."""

import random
from fractions import Fraction

import pytest

from germradius import TruncatedSeries
from germradius.polymap import Polynomial
from helpers import random_series


def _random_polynomial(rng, n):
    degree = rng.randint(0, 3)
    return Polynomial(n, random_series(rng, n, degree, span=3).coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_taylor_shift_is_a_ring_homomorphism(n):
    rng = random.Random(100 + n)
    for case in range(20):
        p, q = _random_polynomial(rng, n), _random_polynomial(rng, n)
        center = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(n))
        trunc = p.degree() + q.degree() + 1
        k = rng.randint(0, 3)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        ps, qs = p.to_series(center, trunc), q.to_series(center, trunc)
        power = TruncatedSeries.constant(1, n, center, trunc)
        for _ in range(k):
            power = power.mul(ps)
        pairs = {
            "p*q": (p * q, ps.mul(qs)),
            "p+q": (p + q, ps + qs),
            "p-q": (p - q, ps - qs),
            "-p": (-p, -ps),
            "r*p": (p * r, ps * r),
            f"p**{k}": (p ** k, power),
        }
        for name, (poly, series) in pairs.items():
            assert poly.to_series(center, trunc) == series, (case, name)
