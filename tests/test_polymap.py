"""The Taylor shift against the packed expansion of the recentred text, and
the shift's economy: it forms only the terms and powers it keeps, one
Fraction per output coefficient, and no adjugate entry where mu = 0."""

import random
from fractions import Fraction
from math import comb

import pytest

from germradius import polymap, stratify
from germradius.cli import parse_expression, parse_polynomial
from germradius.mindex import enumerate_upto
from germradius.polymap import Polynomial
from helpers import pmap_of, random_series

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


def test_rational_shift_makes_one_fraction_per_output_coefficient(
        monkeypatch):
    # a dense rational cubic in three variables about a rational centre:
    # the weights are ints, so only the final divisions make Fractions
    rng = random.Random(7)
    p = Polynomial(3, {g: Fraction(rng.randint(1, 9), rng.randint(1, 5))
                       for g in enumerate_upto(3, 3)})
    center = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    want = parse_polynomial(_recentred_text(p, center), list(NAMES), degree=3)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    got = p.to_series(center, 3)
    monkeypatch.undo()
    assert got.coeffs == want.coeffs
    assert 0 < len(made) <= len(got.coeffs) == 20


def test_high_power_shift_forms_only_the_powers_it_reads():
    # x^10000 about 3/2 at top 5 reads 3^9995..3^10000 and 2^0..2^5 for
    # its six terms, and 2^10000 for the scale
    coeffs = parse_expression("x^10000", ["x"]).coeffs
    shift = polymap._TaylorShift(1, 5, [coeffs])
    got = shift(coeffs, (Fraction(3, 2),))
    assert got == {(k,): Fraction(comb(10000, k) * 3 ** (10000 - k),
                                  2 ** (10000 - k)) for k in range(6)}
    assert sorted(shift.powers) == sorted(
        [(3, k) for k in range(9995, 10001)]
        + [(2, k) for k in range(6)] + [(2, 10000)])


def test_stratify_shifts_the_adjugate_only_where_mu_is_positive(monkeypatch):
    # delta = x: mu = 0 at (1, 2), where only delta is shifted; mu = 1 at
    # (0, 2), where the four adjugate entries are shifted too
    pmap = pmap_of(["x", "x*y"], ["x", "y"])
    points = []
    numerators = polymap._TaylorShift.numerators

    def counted(self, coeffs, point):
        points.append(point)
        return numerators(self, coeffs, point)

    monkeypatch.setattr(polymap._TaylorShift, "numerators", counted)
    strat = stratify(pmap, [(1, 2), (0, 2)])
    assert [(g.mu, [s.point for s in g.samples]) for g in strat.groups] == [
        (1, [(0, 2)]), (0, [(1, 2)])]
    assert points.count((1, 2)) == 1
    assert points.count((0, 2)) == 5
