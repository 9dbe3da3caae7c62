"""The Taylor shift against the packed expansion of the recentred text, and
the shift's cut: it forms only the terms it keeps."""

import random
from fractions import Fraction

import pytest

from germradius import polymap
from germradius.cli import parse_expression, parse_polynomial
from germradius.polymap import Polynomial
from helpers import random_series

NAMES = "xyz"


def _random_polynomial(rng, n):
    coeffs = random_series(rng, n, rng.randint(0, 4), span=3).coeffs
    return Polynomial(n, {g: Fraction(c, rng.randint(1, 3))
                          for g, c in coeffs.items()})


def _recentred_text(p, center):
    """p's text with each x_i written as (c_i + x_i)."""
    terms = []
    for gamma, c in p.coeffs.items():
        factors = [f"({c_i} + {name})^{e}"
                   for c_i, name, e in zip(center, NAMES, gamma) if e]
        terms.append("*".join([f"({c})"] + factors))
    return " + ".join(terms) or "0"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_taylor_shift_matches_the_recentred_text(n):
    # p about c is p(c + x) about the origin; the parser expands that text
    # in packed keys, apart from the binomial loop
    rng = random.Random(100 + n)
    names = list(NAMES[:n])
    for case in range(20):
        p = _random_polynomial(rng, n)
        center = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(n))
        text = _recentred_text(p, center)
        for trunc in range(p.degree() + 2):
            got = p.to_series(center, trunc)
            want = parse_polynomial(text, names, degree=trunc)
            assert (got.center, got.trunc) == (center, trunc), (case, trunc)
            assert got.coeffs == want.coeffs, (case, trunc, text)


def test_shift_forms_only_the_kept_terms(monkeypatch):
    calls, comb = [], polymap.comb

    def counted_comb(a, b):
        calls.append((a, b))
        return comb(a, b)

    monkeypatch.setattr(polymap, "comb", counted_comb)
    s = parse_expression("x^300", ["x"]).to_series((Fraction(1, 2),), 2)
    assert s.coeffs == {(0,): Fraction(1, 2 ** 300),
                        (1,): Fraction(300, 2 ** 299),
                        (2,): Fraction(44850, 2 ** 298)}
    assert sorted(calls) == [(300, 0), (300, 1), (300, 2)]
